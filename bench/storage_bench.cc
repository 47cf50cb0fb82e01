// Microbenchmark for the columnar fact store, with three gated claims
// (ci.sh, Release leg):
//
//  * memory   — a 10M-fact binary-relation TI fits in ≤48 bytes/fact,
//               both as a bare store (`bytes_per_fact` on
//               BM_ColumnarBuild) and as a TiPdb instance
//               (`resident_bytes_per_fact` on BM_InstanceBuild);
//  * grounding — grounding a 64-way ground disjunction against 10^6
//               facts is ≥5× faster columnar than legacy (the legacy
//               grounder materializes a std::map<Fact, int> over the
//               whole instance per call; the columnar one answers each
//               atom with dictionary probes + one binary search);
//  * re-query — after UpdateProbability, a PreparedQuery re-answer
//               (re-read marginals + circuit re-evaluation) is ≥10×
//               faster than the cold ground + compile + evaluate
//               pipeline on the same store.

#include <benchmark/benchmark.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "kc/cache.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "pqe/wmc.h"
#include "storage/ti_store.h"

namespace {

namespace pdb = ipdb::pdb;
namespace pqe = ipdb::pqe;
namespace rel = ipdb::rel;
namespace storage = ipdb::storage;

rel::Schema PairSchema() { return rel::Schema({{"S", 2}}); }

rel::Fact PairFact(int64_t i) {
  return rel::Fact(0, {rel::Value::Int(i % 99991),
                       rel::Value::Int(i / 99991)});
}

double PairProb(int64_t i) { return 0.05 + 0.9 * ((i * 31) % 101) / 101.0; }

/// Columnar build: n binary facts straight through TiStore::Builder.
void BM_ColumnarBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  int64_t bytes = 0;
  for (auto _ : state) {
    storage::TiStore::Builder builder(PairSchema());
    builder.Reserve(n);
    for (int64_t i = 0; i < n; ++i) builder.Add(PairFact(i), PairProb(i));
    auto store = builder.Finish();
    if (!store.ok()) {
      state.SkipWithError("build failed");
      return;
    }
    bytes = store.value()->ApproxBytes();
    benchmark::DoNotOptimize(store.value()->num_facts());
  }
  state.counters["facts"] = static_cast<double>(n);
  state.counters["bytes_per_fact"] =
      static_cast<double>(bytes) / static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColumnarBuild)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

/// Process resident set size, from /proc/self/statm.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

/// The whole instance as the engine registers it: the same n binary facts
/// through TiStore::Builder + TiPdbD::FromStore, costed as resident growth
/// (process RSS with the instance alive minus RSS before the build), so
/// anything a TiPdb keeps beside its store counts against the budget.
void BM_InstanceBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  int64_t grown = 0;
  for (auto _ : state) {
    // Return earlier iterations' freed pages first, so the build cannot
    // hide in memory that is already resident.
    malloc_trim(0);
    const int64_t before = ResidentBytes();
    storage::TiStore::Builder builder(PairSchema());
    builder.Reserve(n);
    for (int64_t i = 0; i < n; ++i) builder.Add(PairFact(i), PairProb(i));
    auto store = builder.Finish();
    if (!store.ok()) {
      state.SkipWithError("build failed");
      return;
    }
    auto ti = pdb::TiPdbD::FromStore(std::move(store).value());
    if (!ti.ok()) {
      state.SkipWithError("FromStore failed");
      return;
    }
    grown = ResidentBytes() - before;
    benchmark::DoNotOptimize(ti.value().num_facts());
  }
  state.counters["facts"] = static_cast<double>(n);
  state.counters["resident_bytes_per_fact"] =
      static_cast<double>(grown) / static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstanceBuild)->Arg(10000000)->Unit(benchmark::kMillisecond);

/// The grounding workload: a 64-atom ground disjunction over a 10^6-fact
/// instance. Quantifier-free on purpose — the grounder's per-call
/// overhead (legacy: build fact_index + domain over ALL n facts;
/// columnar: 64 binary searches) is exactly what the two rows differ in.
ipdb::logic::Formula GroundDisjunction(int atoms) {
  std::vector<ipdb::logic::Formula> disjuncts;
  for (int k = 0; k < atoms; ++k) {
    const rel::Fact fact = PairFact(static_cast<int64_t>(k) * 9973);
    disjuncts.push_back(ipdb::logic::Atom(
        0, {ipdb::logic::Term::Const(fact.args()[0]),
            ipdb::logic::Term::Const(fact.args()[1])}));
  }
  return ipdb::logic::Or(std::move(disjuncts));
}

const pdb::TiPdbD& GroundingTi() {
  static const pdb::TiPdbD* ti = [] {
    const int64_t n = 1000000;
    pdb::TiPdbD::FactList facts;
    facts.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      facts.emplace_back(PairFact(i), PairProb(i));
    }
    return new pdb::TiPdbD(
        pdb::TiPdbD::CreateOrDie(PairSchema(), std::move(facts)));
  }();
  return *ti;
}

void BM_GroundLegacy(benchmark::State& state) {
  const pdb::TiPdbD& ti = GroundingTi();
  ipdb::logic::Formula query = GroundDisjunction(64);
  for (auto _ : state) {
    pqe::Lineage lineage;
    auto root = pqe::GroundSentenceLegacy(ti, query, &lineage);
    benchmark::DoNotOptimize(root.ok());
    if (!root.ok()) {
      state.SkipWithError("grounding failed");
      return;
    }
  }
  state.counters["facts"] = static_cast<double>(ti.num_facts());
}
BENCHMARK(BM_GroundLegacy)->Unit(benchmark::kMillisecond);

void BM_GroundColumnar(benchmark::State& state) {
  const pdb::TiPdbD& ti = GroundingTi();
  ipdb::logic::Formula query = GroundDisjunction(64);
  for (auto _ : state) {
    pqe::Lineage lineage;
    auto root = pqe::GroundSentence(*ti.store(), query, &lineage);
    benchmark::DoNotOptimize(root.ok());
    if (!root.ok()) {
      state.SkipWithError("grounding failed");
      return;
    }
  }
  state.counters["facts"] = static_cast<double>(ti.num_facts());
}
BENCHMARK(BM_GroundColumnar)->Unit(benchmark::kMillisecond);

/// Chain store for the re-query rows: n ≈ 2·hubs facts, the classic
/// ∃x∃y R(x) ∧ S(x,y) query, forced down the circuit pipeline.
std::shared_ptr<storage::TiStore> RequeryStore(int hubs) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  storage::TiStore::Builder builder(schema);
  for (int i = 0; i < hubs; ++i) {
    builder.Add(rel::Fact(0, {rel::Value::Int(i)}), 0.3 + 0.05 * (i % 10));
    builder.Add(
        rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(1000 + (i % 3))}),
        0.2 + 0.04 * (i % 7));
  }
  return builder.Finish().value();
}

void BM_ColdRequery(benchmark::State& state) {
  std::shared_ptr<storage::TiStore> store =
      RequeryStore(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x) & S(x, y)",
                                 store->schema())
          .value();
  pqe::PreparedQuery::Options options;
  options.allow_lifted = false;
  for (auto _ : state) {
    // Cold: every iteration pays ground + compile + evaluate.
    ipdb::kc::GlobalCompiledQueryCache().Clear();
    auto prepared = pqe::PreparedQuery::Prepare(store, query, options);
    benchmark::DoNotOptimize(prepared.ok());
    if (!prepared.ok()) {
      state.SkipWithError("prepare failed");
      return;
    }
  }
  state.counters["facts"] = static_cast<double>(store->num_facts());
}
BENCHMARK(BM_ColdRequery)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_IncrementalRequery(benchmark::State& state) {
  std::shared_ptr<storage::TiStore> store =
      RequeryStore(static_cast<int>(state.range(0)));
  ipdb::logic::Formula query =
      ipdb::logic::ParseSentence("exists x y. R(x) & S(x, y)",
                                 store->schema())
          .value();
  pqe::PreparedQuery::Options options;
  options.allow_lifted = false;
  ipdb::kc::GlobalCompiledQueryCache().Clear();
  auto prepared = pqe::PreparedQuery::Prepare(store, query, options);
  if (!prepared.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  const rel::Fact touched(0, {rel::Value::Int(1)});
  double flip = 0.25;
  for (auto _ : state) {
    // Incremental: a marginal changed, the circuit survives — re-read
    // the probability columns and re-evaluate.
    flip = 0.75 - flip;  // alternate so every update really changes it
    benchmark::DoNotOptimize(store->UpdateProbability(touched, flip).ok());
    auto answer = prepared.value().Query();
    benchmark::DoNotOptimize(answer.ok());
    if (!answer.ok()) {
      state.SkipWithError("query failed");
      return;
    }
  }
  state.counters["facts"] = static_cast<double>(store->num_facts());
  state.counters["incremental_refreshes"] =
      static_cast<double>(prepared.value().incremental_refreshes());
}
BENCHMARK(BM_IncrementalRequery)->Arg(200)->Unit(benchmark::kMicrosecond);

}  // namespace

IPDB_BENCHMARK_JSON_MAIN("storage_bench", "BENCH_storage.json")
