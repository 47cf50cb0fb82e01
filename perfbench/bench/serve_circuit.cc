// serve_circuit: the circuit rung of the query service. Unsafe queries
// (the non-hierarchical R-S-T pattern and an R self-join) over a few
// hundred facts: a hot set that the artifact cache keeps compiled, plus
// a fixed 5% share of one-off queries that must ground and compile.

#include <array>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "serve.h"
#include "storage/ti_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ipdb::rel::Fact;
using ipdb::rel::Value;

constexpr int kHubs = 80;
constexpr int kTValues = 4;
/// The 64-query hot set, half of the 128-entry artifact cache: two light
/// families of 24 queries that ground the R-S-T pattern once, and one
/// heavy family of 16 that grounds it three times.
constexpr int kLightPerFamily = 24;
constexpr int kHeavyQueries = 16;
constexpr int kHeavyParts = 3;
/// Each block of 20 holds 13 light, 6 heavy and 1 one-off operation. The
/// host's speed switches between phases ~1.6x apart, so a class's
/// latencies are a mix of the two; p50 sits at the light class's 77th
/// percentile, inside its slow phase unless most of a run is fast, and
/// p99 inside the one-off class (5%).
constexpr int kBlock = 20;
constexpr int kHeavyPerBlock = 6;
/// Pinned hubs per one-off. Each pin adds a shared pair of variables to
/// the lineage; three make compilation ~3x the grounding time.
constexpr int kPins = 3;
/// Hubs per residue class mod 4 (one-offs exclude a hub of class 0 and
/// pin hubs of class 1, so every one-off is isomorphic to every other).
constexpr int kPerClass = kHubs / 4;

constexpr ipdb::rel::RelationId kR = 0;
constexpr ipdb::rel::RelationId kS = 1;
constexpr ipdb::rel::RelationId kT = 2;

std::string Hub(int h) {
  char buffer[8];
  std::snprintf(buffer, sizeof buffer, "h%03d", h);
  return buffer;
}

std::string TValue(int t) { return "t" + std::to_string(t); }

/// Hub h links to T values h mod 4 and (h + 1) mod 4.
int Neighbor(int h, int d) { return (h + d) % kTValues; }

enum OpClass { kLight = 0, kOneOff = 1, kHeavy = 2 };

class CircuitWorkload {
 public:
  explicit CircuitWorkload(uint64_t seed) : seed_(seed) {
    for (int t = 0; t < kTValues; ++t) t_[t] = Uniform(0.2, 0.8, seed, kT, t);
    for (int h = 0; h < kHubs; ++h) {
      r_[h] = Uniform(0.01, 0.05, seed, kR, h);
      for (int d = 0; d < 2; ++d) s_[h][d] = Uniform(0.05, 0.2, seed, kS, h, d);
    }
    Rng rng(seed);
    excluded_ = SampleDistinct(kHubs, kLightPerFamily, &rng);
    pinned_ = SampleDistinct(kHubs, kLightPerFamily, &rng);
    heavy_ = SampleDistinct(kHubs, kHeavyQueries * kHeavyParts, &rng);
    for (int a = 0; a < kPerClass; ++a) {
      for (int b = a + 1; b < kPerClass; ++b) {
        for (int c = b + 1; c < kPerClass; ++c) triples_.push_back({a, b, c});
      }
    }
    vocabulary_ = static_cast<int64_t>(triples_.size()) * kPerClass;
    // An affine map with a multiplier coprime to the vocabulary size
    // draws one-offs without replacement.
    stride_ = 1 + static_cast<int64_t>(rng.Below(vocabulary_ - 1));
    while (std::gcd(stride_, vocabulary_) != 1) ++stride_;
    offset_ = static_cast<int64_t>(rng.Below(vocabulary_));
  }

  ipdb::StatusOr<ipdb::pdb::TiPdb<double>> Build(SpanRecorder* spans) const {
    ipdb::storage::TiStore::Builder builder(Schema());
    for (int t = 0; t < kTValues; ++t) {
      builder.Add(Fact(kT, {Value::Symbol(TValue(t))}), t_[t]);
    }
    for (int h = 0; h < kHubs; ++h) {
      const Value hub = Value::Symbol(Hub(h));
      builder.Add(Fact(kR, {hub}), r_[h]);
      for (int d = 0; d < 2; ++d) {
        builder.Add(Fact(kS, {hub, Value::Symbol(TValue(Neighbor(h, d)))}),
                    s_[h][d]);
      }
    }
    return FinishInstance(&builder, spans);
  }

  static ipdb::rel::Schema Schema() {
    return ipdb::rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}});
  }

  /// Light query k: H0 without hub K, or the R self-join R(K) & H0.
  std::string LightText(int k) const {
    if (k < kLightPerFamily) return H0Without(excluded_[k]);
    return "R('" + Hub(pinned_[k - kLightPerFamily]) + "') & " + H0Text();
  }

  /// Heavy query k: the union of H0 without each of three distinct hubs,
  /// which is H0 itself, grounded three times.
  std::string HeavyText(int k) const {
    std::string text;
    for (int part = 0; part < kHeavyParts; ++part) {
      if (part > 0) text += " | ";
      text += "(" + H0Without(heavy_[k * kHeavyParts + part]) + ")";
    }
    return text;
  }

  std::vector<std::string> Warmup() const {
    std::vector<std::string> texts;
    for (int k = 0; k < 2 * kLightPerFamily; ++k) {
      texts.push_back(LightText(k));
    }
    for (int k = 0; k < kHeavyQueries; ++k) texts.push_back(HeavyText(k));
    return texts;
  }

  /// The one-off of block `b`: exclude hub I (class 0), and forbid
  /// R(J) & S(J, t1) for three hubs J of class 1.
  void OneOff(int64_t b, int* excluded, std::array<int, kPins>* pins) const {
    const int64_t v = (stride_ * b + offset_) % vocabulary_;
    *excluded = 4 * static_cast<int>(v % kPerClass);
    const std::array<int, 3>& triple =
        triples_[static_cast<size_t>(v / kPerClass)];
    for (int k = 0; k < kPins; ++k) (*pins)[k] = 4 * triple[k] + 1;
  }

  /// Seeded positions in each block: the first of the drawn positions is
  /// the one-off, the next kHeavyPerBlock are heavy.
  OpClass ClassOf(int64_t index) const {
    Rng rng(Hash(seed_, 0xb10c, static_cast<uint64_t>(index / kBlock)));
    const std::vector<int> drawn =
        SampleDistinct(kBlock, 1 + kHeavyPerBlock, &rng);
    const int position = static_cast<int>(index % kBlock);
    for (size_t i = 0; i < drawn.size(); ++i) {
      if (drawn[i] == position) return i == 0 ? kOneOff : kHeavy;
    }
    return kLight;
  }

  int LightIndex(int64_t index) const {
    return static_cast<int>(Hash(seed_, 0x407, index) %
                            (2 * kLightPerFamily));
  }
  int HeavyIndex(int64_t index) const {
    return static_cast<int>(Hash(seed_, 0x4ea, index) % kHeavyQueries);
  }

  ServeOp MakeOp(int64_t index) const {
    switch (ClassOf(index)) {
      case kLight:
        return {LightText(LightIndex(index)), kLight};
      case kHeavy:
        return {HeavyText(HeavyIndex(index)), kHeavy};
      case kOneOff:
        break;
    }
    int excluded = 0;
    std::array<int, kPins> pins{};
    OneOff(index / kBlock, &excluded, &pins);
    std::string text = "(" + H0Without(excluded) + ")";
    for (int j : pins) {
      text += " & !(R('" + Hub(j) + "') & S('" + Hub(j) + "', '" +
              TValue(Neighbor(j, 0)) + "'))";
    }
    return {text, kOneOff};
  }

  double Expected(int64_t index) const {
    std::array<double, kHubs> r = r_;
    std::array<std::array<double, 2>, kHubs> s = s_;
    std::array<bool, kHubs> skip{};
    switch (ClassOf(index)) {
      case kLight: {
        const int k = LightIndex(index);
        if (k < kLightPerFamily) {
          skip[excluded_[k]] = true;
          return H0(r, s, skip);
        }
        const int pinned = pinned_[k - kLightPerFamily];
        r[pinned] = 1.0;
        return r_[pinned] * H0(r, s, skip);
      }
      case kHeavy:
        return H0(r, s, skip);
      case kOneOff:
        break;
    }
    // Condition on the pinned (R(J), S(J, t1)) pairs: each takes one of
    // the three states that keep R(J) & S(J, t1) false.
    int excluded = 0;
    std::array<int, kPins> pins{};
    OneOff(index / kBlock, &excluded, &pins);
    skip[excluded] = true;
    double total = 0;
    for (int state = 0; state < 27; ++state) {
      double weight = 1;
      for (int k = 0, code = state; k < kPins; ++k, code /= 3) {
        const int j = pins[k];
        const int rj = code % 3 == 2;  // states: 00, 01, 10
        const int sj = code % 3 == 1;
        weight *= (rj ? r_[j] : 1 - r_[j]) * (sj ? s_[j][0] : 1 - s_[j][0]);
        r[j] = rj;
        s[j][0] = sj;
      }
      total += weight * H0(r, s, skip);
    }
    return total;
  }

 private:
  static std::string H0Text() {
    return "exists x. exists y. R(x) & S(x, y) & T(y)";
  }
  static std::string H0Without(int hub) {
    return H0Text() + " & x != '" + Hub(hub) + "'";
  }

  /// P(exists x, y: R(x) & S(x, y) & T(y)) over the hubs not skipped,
  /// conditioning on the four T facts: given them, hubs are independent.
  double H0(const std::array<double, kHubs>& r,
            const std::array<std::array<double, 2>, kHubs>& s,
            const std::array<bool, kHubs>& skip) const {
    double total = 0;
    for (int world = 0; world < (1 << kTValues); ++world) {
      double weight = 1;
      for (int t = 0; t < kTValues; ++t) {
        weight *= (world >> t) & 1 ? t_[t] : 1 - t_[t];
      }
      double none = 1;
      for (int h = 0; h < kHubs; ++h) {
        if (skip[h]) continue;
        double miss = 1;
        for (int d = 0; d < 2; ++d) {
          if ((world >> Neighbor(h, d)) & 1) miss *= 1 - s[h][d];
        }
        none *= 1 - r[h] * (1 - miss);
      }
      total += weight * (1 - none);
    }
    return total;
  }

  uint64_t seed_;
  std::array<double, kTValues> t_{};
  std::array<double, kHubs> r_{};
  std::array<std::array<double, 2>, kHubs> s_{};
  std::vector<int> excluded_;
  std::vector<int> pinned_;
  std::vector<int> heavy_;
  std::vector<std::array<int, 3>> triples_;
  int64_t vocabulary_ = 0;
  int64_t stride_ = 1;
  int64_t offset_ = 0;
};

}  // namespace

Result RunServeCircuit(const Options& options) {
  auto workload = std::make_shared<const CircuitWorkload>(options.seed);
  ServeSpec spec;
  spec.name = "serve_circuit";
  spec.classes = {"light", "one_off", "heavy"};
  spec.block = kBlock;
  spec.build = [workload](SpanRecorder* spans) { return workload->Build(spans); };
  spec.warmup = workload->Warmup();
  spec.make_op = [workload](int64_t i) { return workload->MakeOp(i); };
  spec.expected = [workload](int64_t i) { return workload->Expected(i); };
  Result result = RunServe(spec, options);
  result.meta["instance"] = std::to_string(kHubs) + " hubs, " +
                            std::to_string(kTValues) + " T facts, " +
                            std::to_string(kHubs * 3 + kTValues) + " facts";
  return result;
}

}  // namespace perfbench
