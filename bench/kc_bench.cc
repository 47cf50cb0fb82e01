// Microbenchmark: the knowledge-compilation subsystem (src/kc). Rows
// come in three groups:
//
//  * KcCompile*          — d-DNNF compilation cost by lineage family;
//  * KcSingleShot*       — compile + evaluate once, the one-shot
//                          pqe::ComputeProbability pipeline. Each row
//                          carries a `parity_abs_err` counter, |kc −
//                          closed form|, computed once in setup (ci.sh
//                          gates it at <= 1e-9);
//  * KcEvaluate* /
//    KcGradient          — per-semiring evaluation and backprop on an
//                          already-compiled circuit (the amortized cost
//                          every cache hit pays).

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench_json.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pqe/lineage.h"
#include "util/interval.h"

namespace {

namespace pqe = ipdb::pqe;
namespace pdb = ipdb::pdb;
namespace rel = ipdb::rel;
namespace kc = ipdb::kc;

/// Marginal of chain edge R(i, i+1).
double ChainMarginal(int i) { return 0.3 + 0.4 * ((i * 7) % 10) / 10.0; }

/// The chain path-query lineage (decomposition + light Shannon).
void GroundChain(int n, pqe::Lineage* lineage, pqe::NodeId* root,
                 std::vector<double>* probs) {
  rel::Schema schema({{"R", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < n; ++i) {
    facts.emplace_back(
        rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(i + 1)}),
        ChainMarginal(i));
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y z. R(x, y) & R(y, z)",
                                 ti.schema())
          .value();
  *root = pqe::GroundSentence(ti, query, lineage).value();
  probs->clear();
  for (const auto& [fact, marginal] : ti.facts()) {
    probs->push_back(marginal);
  }
}

/// Closed form of the chain query ∃x y z. R(x, y) ∧ R(y, z): it holds
/// iff two consecutive edges are present, so its probability is
/// 1 − P(no two consecutive edges), a two-state DP along the path.
double ChainClosedForm(int n) {
  double absent = 1.0;   // no two consecutive so far, last edge absent
  double present = 0.0;  // no two consecutive so far, last edge present
  for (int i = 0; i < n; ++i) {
    const double p = ChainMarginal(i);
    const double next_absent = (absent + present) * (1.0 - p);
    present = absent * p;
    absent = next_absent;
  }
  return 1.0 - (absent + present);
}

constexpr double kBipartiteMarginal = 0.5;

/// The bipartite existence lineage (pure independent-OR decomposition).
void GroundBipartite(int side, pqe::Lineage* lineage, pqe::NodeId* root,
                     std::vector<double>* probs) {
  rel::Schema schema({{"R", 2}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      facts.emplace_back(
          rel::Fact(0, {rel::Value::Int(i), rel::Value::Int(side + j)}),
          kBipartiteMarginal);
    }
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x, y)", ti.schema()).value();
  *root = pqe::GroundSentence(ti, query, lineage).value();
  probs->clear();
  for (const auto& [fact, marginal] : ti.facts()) {
    probs->push_back(marginal);
  }
}

void BM_KcCompileChain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pqe::Lineage lineage;
    pqe::NodeId root;
    std::vector<double> probs;
    GroundChain(n, &lineage, &root, &probs);
    auto compiled = kc::CompileLineage(&lineage, root);
    benchmark::DoNotOptimize(compiled.ok());
    state.counters["nodes"] =
        static_cast<double>(compiled->stats.circuit_nodes);
    state.counters["edges"] =
        static_cast<double>(compiled->stats.circuit_edges);
  }
}
BENCHMARK(BM_KcCompileChain)->Arg(8)->Arg(16)->Arg(32);

/// One compile + evaluation on a copy of `lineage` (compilation grows
/// the lineage it compiles).
double CompileAndEvaluate(const pqe::Lineage& lineage, pqe::NodeId root,
                          const std::vector<double>& probs) {
  pqe::Lineage working = lineage;
  auto compiled = kc::CompileLineage(&working, root);
  return kc::EvaluateCircuit<double>(compiled->circuit, compiled->root, probs)
      .value();
}

void BM_KcSingleShotChain(benchmark::State& state) {
  // Compile + one evaluation, from a pre-grounded lineage.
  int n = static_cast<int>(state.range(0));
  pqe::Lineage lineage;
  pqe::NodeId root;
  std::vector<double> probs;
  GroundChain(n, &lineage, &root, &probs);
  state.counters["parity_abs_err"] =
      std::fabs(CompileAndEvaluate(lineage, root, probs) - ChainClosedForm(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileAndEvaluate(lineage, root, probs));
  }
}
BENCHMARK(BM_KcSingleShotChain)->Arg(8)->Arg(16)->Arg(32);

void BM_KcSingleShotBipartite(benchmark::State& state) {
  int side = static_cast<int>(state.range(0));
  pqe::Lineage lineage;
  pqe::NodeId root;
  std::vector<double> probs;
  GroundBipartite(side, &lineage, &root, &probs);
  // ∃x y. R(x, y) fails only when all side² facts are absent.
  const double closed_form =
      1.0 - std::pow(1.0 - kBipartiteMarginal, side * side);
  state.counters["parity_abs_err"] =
      std::fabs(CompileAndEvaluate(lineage, root, probs) - closed_form);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileAndEvaluate(lineage, root, probs));
  }
}
BENCHMARK(BM_KcSingleShotBipartite)->Arg(4)->Arg(6)->Arg(8);

/// One compiled chain circuit reused by the evaluation rows.
struct CompiledChain {
  kc::CompiledQuery compiled;
  std::vector<double> probs;
};

CompiledChain MakeCompiledChain(int n) {
  CompiledChain out;
  pqe::Lineage lineage;
  pqe::NodeId root;
  GroundChain(n, &lineage, &root, &out.probs);
  out.compiled = kc::CompileLineage(&lineage, root).value();
  return out;
}

void BM_KcEvaluateDouble(benchmark::State& state) {
  CompiledChain chain = MakeCompiledChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::EvaluateCircuit<double>(chain.compiled.circuit,
                                    chain.compiled.root, chain.probs)
            .value());
  }
}
BENCHMARK(BM_KcEvaluateDouble)->Arg(16)->Arg(32);

void BM_KcEvaluateRational(benchmark::State& state) {
  // Exact end-to-end: the same circuit under exact rational marginals.
  CompiledChain chain = MakeCompiledChain(static_cast<int>(state.range(0)));
  std::vector<ipdb::math::Rational> probs;
  for (size_t i = 0; i < chain.probs.size(); ++i) {
    probs.push_back(ipdb::math::Rational::Ratio(
        3 + 4 * static_cast<int64_t>((i * 7) % 10), 10));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::EvaluateCircuit<ipdb::math::Rational>(chain.compiled.circuit,
                                                  chain.compiled.root, probs)
            .value());
  }
}
BENCHMARK(BM_KcEvaluateRational)->Arg(16)->Arg(32);

void BM_KcEvaluateInterval(benchmark::State& state) {
  // Certified enclosures from interval-valued marginals.
  CompiledChain chain = MakeCompiledChain(static_cast<int>(state.range(0)));
  std::vector<ipdb::Interval> probs;
  for (double p : chain.probs) {
    probs.push_back(ipdb::Interval(p - 0.01, p + 0.01));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::EvaluateCircuit<ipdb::Interval>(chain.compiled.circuit,
                                            chain.compiled.root, probs)
            .value());
  }
}
BENCHMARK(BM_KcEvaluateInterval)->Arg(16)->Arg(32);

void BM_KcGradient(benchmark::State& state) {
  // All tuple sensitivities ∂Pr/∂pᵢ in one forward + one reverse pass.
  CompiledChain chain = MakeCompiledChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::EvaluateGradient<double>(chain.compiled.circuit,
                                     chain.compiled.root, chain.probs)
            .value());
  }
}
BENCHMARK(BM_KcGradient)->Arg(16)->Arg(32);

}  // namespace

IPDB_BENCHMARK_JSON_MAIN("kc_bench", "BENCH_pqe.json")
