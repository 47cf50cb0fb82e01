// serve_lifted: the lifted rung of the query service. Hierarchical
// self-join-free CQs over 10^5 facts, answered by the safe plan: the
// artifact cache and grounding are bypassed, and the instance's resident
// form is what the queries scan.

#include <cstdio>
#include <string>
#include <vector>

#include "serve.h"
#include "storage/ti_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ipdb::rel::Fact;
using ipdb::rel::Value;

constexpr int kKeys = 2000;
constexpr int kSPerKey = 33;
constexpr int kUPerKey = 16;
constexpr int kYValues = 4000;
constexpr int kZValues = 3000;
/// Each block of 20 holds one chain and one star full scan (5% each); p99
/// falls inside the slower of the two, p50 inside the constant-filtered
/// 90%.
constexpr int kBlock = 20;

constexpr ipdb::rel::RelationId kR = 0;
constexpr ipdb::rel::RelationId kS = 1;
constexpr ipdb::rel::RelationId kU = 2;

enum OpClass { kConstant = 0, kChain = 1, kStar = 2 };

constexpr char kChainText[] = "exists x. exists y. R(x) & S(x, y)";
constexpr char kStarText[] =
    "exists x. exists y. exists z. R(x) & S(x, y) & U(x, z)";

std::string Key(int x) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "a%06d", x);
  return buffer;
}

// Marginals are small enough that the full-scan answers stay away from 1.
double RProb(uint64_t seed, int x) { return Uniform(0, 0.0025, seed, kR, x); }
double SProb(uint64_t seed, int x, int d) {
  return Uniform(0, 0.03, seed, kS, x, d);
}
double UProb(uint64_t seed, int x, int d) {
  return Uniform(0, 0.06, seed, kU, x, d);
}

class LiftedWorkload {
 public:
  /// The oracle keeps, per key, the marginal of R and the probabilities
  /// that some S (resp. U) fact of the key is present, recomputed from the
  /// generator's hash rather than from a fact list.
  explicit LiftedWorkload(uint64_t seed) : seed_(seed) {
    double chain_none = 1;
    double star_none = 1;
    for (int x = 0; x < kKeys; ++x) {
      double s_miss = 1;
      for (int d = 0; d < kSPerKey; ++d) s_miss *= 1 - SProb(seed, x, d);
      double u_miss = 1;
      for (int d = 0; d < kUPerKey; ++d) u_miss *= 1 - UProb(seed, x, d);
      r_.push_back(RProb(seed, x));
      s_.push_back(1 - s_miss);
      u_.push_back(1 - u_miss);
      chain_none *= 1 - r_[x] * s_[x];
      star_none *= 1 - r_[x] * s_[x] * u_[x];
    }
    chain_ = 1 - chain_none;
    star_ = 1 - star_none;
  }

  /// Streams facts into the builder; the generator holds no fact list.
  ipdb::StatusOr<ipdb::pdb::TiPdb<double>> Build(SpanRecorder* spans) const {
    ipdb::storage::TiStore::Builder builder(
        ipdb::rel::Schema({{"R", 1}, {"S", 2}, {"U", 2}}));
    builder.Reserve(static_cast<int64_t>(kKeys) * (1 + kSPerKey + kUPerKey));
    for (int x = 0; x < kKeys; ++x) {
      const Value key = Value::Symbol(Key(x));
      builder.Add(Fact(kR, {key}), RProb(seed_, x));
      for (int d = 0; d < kSPerKey; ++d) {
        builder.Add(Fact(kS, {key, Value::Int((x * 7 + d * 13) % kYValues)}),
                    SProb(seed_, x, d));
      }
      for (int d = 0; d < kUPerKey; ++d) {
        builder.Add(
            Fact(kU, {key, Value::Int(100000 + (x * 3 + d * 11) % kZValues)}),
            UProb(seed_, x, d));
      }
    }
    return FinishInstance(&builder, spans);
  }

  int ClassOf(int64_t index) const {
    const int64_t block = index / kBlock;
    const int chain = static_cast<int>(Hash(seed_, 0xc4a1, block) % kBlock);
    int star = static_cast<int>(Hash(seed_, 0x57a2, block) % (kBlock - 1));
    if (star >= chain) ++star;
    const int position = static_cast<int>(index % kBlock);
    return position == chain ? kChain : position == star ? kStar : kConstant;
  }

  ServeOp MakeOp(int64_t index) const {
    switch (ClassOf(index)) {
      case kChain:
        return {kChainText, kChain};
      case kStar:
        return {kStarText, kStar};
      default:
        break;
    }
    const uint64_t h = Hash(seed_, 0xc0de, index);
    const std::string key = "'" + Key(static_cast<int>(h % kKeys)) + "'";
    switch ((h >> 32) % 3) {
      case 0:
        return {"exists y. R(" + key + ") & S(" + key + ", y)", kConstant};
      case 1:
        return {"exists y. exists z. S(" + key + ", y) & U(" + key + ", z)",
                kConstant};
      default:
        return {"exists y. exists z. R(" + key + ") & S(" + key + ", y) & U(" +
                    key + ", z)",
                kConstant};
    }
  }

  double Expected(int64_t index) const {
    switch (ClassOf(index)) {
      case kChain:
        return chain_;
      case kStar:
        return star_;
      default:
        break;
    }
    const uint64_t h = Hash(seed_, 0xc0de, index);
    const size_t x = h % kKeys;
    switch ((h >> 32) % 3) {
      case 0:
        return r_[x] * s_[x];
      case 1:
        return s_[x] * u_[x];
      default:
        return r_[x] * s_[x] * u_[x];
    }
  }

  /// Both full scans and the first four constant-filtered queries.
  std::vector<std::string> Warmup() const {
    std::vector<std::string> texts = {kChainText, kStarText};
    for (int64_t i = 0; texts.size() < 6; ++i) {
      if (ClassOf(i) == kConstant) texts.push_back(MakeOp(i).text);
    }
    return texts;
  }

 private:
  uint64_t seed_;
  std::vector<double> r_;
  std::vector<double> s_;
  std::vector<double> u_;
  double chain_ = 0;
  double star_ = 0;
};

}  // namespace

Result RunServeLifted(const Options& options) {
  auto workload = std::make_shared<const LiftedWorkload>(options.seed);
  ServeSpec spec;
  spec.name = "serve_lifted";
  spec.classes = {"constant", "chain", "star"};
  spec.block = kBlock;
  // Two workers scanning the instance at once made whole runs swing by
  // 20-24% in qps on a shared 4-vCPU host; one client on one worker stays
  // within 5%.
  spec.clients = 1;
  // A set-up takes ~0.1 s and single set-ups vary by +-20% within a run;
  // the median of 21 keeps that out of setup_s.
  spec.setups = 21;
  spec.build = [workload](SpanRecorder* spans) { return workload->Build(spans); };
  spec.warmup = workload->Warmup();
  spec.make_op = [workload](int64_t i) { return workload->MakeOp(i); };
  spec.expected = [workload](int64_t i) { return workload->Expected(i); };
  Result result = RunServe(spec, options);
  result.meta["instance"] =
      std::to_string(kKeys * (1 + kSPerKey + kUPerKey)) + " facts over R(x), " +
      "S(x, y), U(x, z); " + std::to_string(kKeys) + " keys";
  return result;
}

}  // namespace perfbench
