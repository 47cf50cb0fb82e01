#include "pdb/top_k.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "util/check.h"

namespace ipdb {
namespace pdb {

StatusOr<std::vector<std::pair<rel::Instance, double>>> TopKWorlds(
    const TiPdb<double>& ti, int64_t k) {
  if (k < 0) return InvalidArgumentError("k must be non-negative");
  const int64_t n = ti.num_facts();
  if (n > 63) {
    return FailedPreconditionError("top-k search supports up to 63 facts");
  }

  // Order facts by the cost of flipping them away from the mode:
  // flipping fact i multiplies the probability by ratio_i =
  // min(p, 1-p) / max(p, 1-p) <= 1. Facts with p exactly 0 or 1 have
  // ratio 0 (flipping yields probability 0; still enumerated last).
  struct Flip {
    int64_t fact;
    double ratio;
    bool in_mode;  // fact present in the modal world?
  };
  std::vector<Flip> flips(n);
  double mode_probability = 1.0;
  for (int64_t i = 0; i < n; ++i) {
    double p = ti.store()->ProbAt(i);
    bool take = p >= 0.5;
    mode_probability *= take ? p : 1.0 - p;
    double hi = std::max(p, 1.0 - p);
    double lo = std::min(p, 1.0 - p);
    flips[i] = {i, hi > 0.0 ? lo / hi : 0.0, take};
  }
  std::sort(flips.begin(), flips.end(),
            [](const Flip& a, const Flip& b) { return a.ratio > b.ratio; });

  // Best-first over flip masks (bit j = flip the j-th *sorted* fact).
  // Lawler-style expansion: from a mask whose highest set bit is h,
  // successors are (mask | 1<<j) for j > h, plus the classic
  // "advance/extend" pair; using the general visited-set version keeps
  // it simple and correct.
  struct Entry {
    double probability;
    uint64_t mask;
    bool operator<(const Entry& other) const {
      if (probability != other.probability) {
        return probability < other.probability;
      }
      return mask > other.mask;  // deterministic tie-break
    }
  };
  auto probability_of = [&](uint64_t mask) {
    double probability = mode_probability;
    for (int j = 0; j < n; ++j) {
      if ((mask >> j) & 1) probability *= flips[j].ratio;
    }
    return probability;
  };

  std::priority_queue<Entry> heap;
  std::set<uint64_t> visited;
  heap.push({mode_probability, 0});
  visited.insert(0);

  std::vector<std::pair<rel::Instance, double>> result;
  while (!heap.empty() && static_cast<int64_t>(result.size()) < k) {
    Entry top = heap.top();
    heap.pop();
    // Materialize the world.
    std::vector<rel::Fact> facts;
    for (int j = 0; j < n; ++j) {
      bool flipped = (top.mask >> j) & 1;
      bool present = flips[j].in_mode != flipped;
      if (present) facts.push_back(ti.store()->FactAt(flips[j].fact));
    }
    result.emplace_back(rel::Instance(std::move(facts)), top.probability);
    // Successors: flip any bit above the highest set bit (enumerates
    // every mask exactly once), plus "move the highest bit up".
    int highest = -1;
    for (int j = n - 1; j >= 0; --j) {
      if ((top.mask >> j) & 1) {
        highest = j;
        break;
      }
    }
    for (int j = highest + 1; j < n; ++j) {
      uint64_t next = top.mask | (uint64_t{1} << j);
      if (visited.insert(next).second) {
        heap.push({probability_of(next), next});
      }
    }
  }
  return result;
}

template <typename P>
std::vector<std::pair<rel::Instance, P>> TopKWorlds(const FinitePdb<P>& pdb,
                                                    int64_t k) {
  std::vector<std::pair<rel::Instance, P>> worlds = pdb.worlds();
  std::stable_sort(worlds.begin(), worlds.end(),
                   [](const auto& a, const auto& b) {
                     return ProbTraits<P>::ToDouble(a.second) >
                            ProbTraits<P>::ToDouble(b.second);
                   });
  if (static_cast<int64_t>(worlds.size()) > k) {
    worlds.resize(k);
  }
  return worlds;
}

template std::vector<std::pair<rel::Instance, double>> TopKWorlds(
    const FinitePdb<double>&, int64_t);
template std::vector<std::pair<rel::Instance, math::Rational>> TopKWorlds(
    const FinitePdb<math::Rational>&, int64_t);

}  // namespace pdb
}  // namespace ipdb
