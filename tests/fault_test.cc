#include "util/fault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/manager.h"
#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pqe/lineage.h"
#include "pqe/wmc.h"
#include "server/engine.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace ipdb {
namespace {

pdb::TiPdb<double> PathTi() {
  rel::Schema schema({{"R", 2}, {"S", 1}});
  auto r = [](int64_t a, int64_t b) {
    return rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)});
  };
  return pdb::TiPdb<double>::CreateOrDie(
      schema, {{r(1, 2), 0.5},
               {r(2, 3), 0.25},
               {r(1, 3), 0.75},
               {r(3, 4), 0.5},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.4}});
}

/// A self-deleting scratch directory for the durability phase. Cleanup
/// is best-effort over the fixed on-disk layout (Manager writes exactly
/// one instance directory), so an early fault unwind leaves nothing in
/// /tmp.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    char name[] = "/tmp/ipdb_fault_XXXXXX";
    if (::mkdtemp(name) != nullptr) path = name;
  }
  ~ScratchDir() {
    if (path.empty()) return;
    for (const char* file :
         {"/db/snapshot.ipdb", "/db/snapshot.ipdb.tmp", "/db/wal.log"}) {
      ::unlink((path + file).c_str());
    }
    ::rmdir((path + "/db").c_str());
    ::rmdir(path.c_str());
  }
};

/// A representative pass over the governed query pipeline, reaching
/// every registered fault site: the lifted safe-plan rung, grounding,
/// the artifact cache (lookup and, on a miss, compile + insert), exact
/// circuit evaluation, one-shot ComputeProbability, the Monte Carlo
/// fallback (budget-forced), the thread pool, the serving engine's
/// drain path, and the durability subsystem (snapshot write + rename,
/// WAL append, WAL replay on recovery). `salt` varies the query
/// structure so each invocation is a cache miss and the compile-path
/// sites stay reachable.
Status RepresentativeWorkload(int salt) {
  // The two-hop path query grounds to a lineage with shared variables
  // ((a&b)|(b&c)|(d&c)), which is not independence-decomposable and so
  // exercises the Shannon-expansion branch of the compiler.
  pdb::TiPdb<double> ti = PathTi();
  std::string text = "exists x y z. R(x, y) & R(y, z)";
  for (int i = 0; i < salt % 3; ++i) text += " & exists x y. R(x, y)";
  StatusOr<logic::Formula> sentence =
      logic::ParseSentence(text, ti.schema());
  if (!sentence.ok()) return sentence.status();

  // Lifted safe-plan rung (pqe.lifted.evaluate): a hierarchical
  // self-join-free CQ that the ladder answers without grounding.
  StatusOr<logic::Formula> safe_sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema());
  if (!safe_sentence.ok()) return safe_sentence.status();
  StatusOr<double> lifted =
      pqe::QueryProbability(ti, safe_sentence.value());
  if (!lifted.ok()) return lifted.status();

  // Exact pipeline through the artifact cache (pqe.ground,
  // kc.cache.lookup, kc.compile.*, kc.cache.insert, pqe.evaluate). The
  // path query is a self-join, so the lifted rung rejects it and the
  // circuit rung does the work.
  kc::GlobalCompiledQueryCache().Clear();
  StatusOr<double> exact = pqe::QueryProbability(ti, sentence.value());
  if (!exact.ok()) return exact.status();

  // Governed query whose node cap forces the Monte Carlo fallback
  // (pqe.query.fallback, pqe.mc.shard, util.pool.task). The artifact
  // the plain query just cached would satisfy it budget-free, so clear
  // the cache to make the node cap bite.
  kc::GlobalCompiledQueryCache().Clear();
  ExecutionBudget budget;
  budget.max_circuit_nodes = 1;
  pqe::QueryOptions options;
  options.budget = &budget;
  options.fallback_samples = 256;
  options.fallback_threads = 2;
  StatusOr<pqe::QueryAnswer> degraded =
      pqe::QueryProbability(ti, sentence.value(), options);
  if (!degraded.ok()) return degraded.status();

  // One-shot compile + evaluate, no artifact cache (pqe.wmc.solve).
  pqe::Lineage lineage;
  StatusOr<pqe::NodeId> root =
      pqe::GroundSentence(ti, sentence.value(), &lineage);
  if (!root.ok()) return root.status();
  std::vector<double> probs;
  for (const auto& [fact, marginal] : ti.facts()) probs.push_back(marginal);
  StatusOr<double> wmc =
      pqe::ComputeProbability(&lineage, root.value(), probs);
  if (!wmc.ok()) return wmc.status();

  // Exact rational evaluation (kc.evaluate.exact).
  pqe::Lineage exact_lineage;
  StatusOr<pqe::NodeId> exact_root =
      pqe::GroundSentence(ti, sentence.value(), &exact_lineage);
  if (!exact_root.ok()) return exact_root.status();
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(&exact_lineage, exact_root.value());
  if (!compiled.ok()) return compiled.status();
  std::vector<math::Rational> rational_probs(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    rational_probs[i] =
        math::Rational::Ratio(static_cast<int64_t>(probs[i] * 100), 100);
  }
  StatusOr<math::Rational> rational = kc::EvaluateCircuitExact(
      compiled.value().circuit, compiled.value().root, rational_probs);
  if (!rational.ok()) return rational.status();

  // Serving engine drain path (server.shutdown): one served query, then
  // a Stop. A failed Stop leaves the engine un-stopped; the destructor's
  // retry succeeds because a fired site disarms.
  {
    server::EngineOptions engine_options;
    engine_options.threads = 1;
    server::Engine engine(engine_options);
    Status st = engine.RegisterInstance("db", PathTi());
    if (!st.ok()) return st;
    st = engine.RegisterTenant("t", server::TenantConfig{});
    if (!st.ok()) return st;
    StatusOr<server::QueryResult> served =
        engine.Query("t", "db", "exists x y. R(x, y) & S(y)");
    if (!served.ok()) return served.status();
    st = engine.Stop();
    if (!st.ok()) return st;
  }

  // Durability round trip (dur.snapshot.write, dur.rename,
  // dur.wal.append, dur.wal.replay): create an instance, journal a few
  // mutations, checkpoint, journal once more, then recover it.
  {
    ScratchDir scratch;
    if (scratch.path.empty()) return InternalError("mkdtemp failed");
    storage::TiStore::Builder builder(rel::Schema({{"R", 2}, {"S", 1}}));
    builder.Add(rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)}), 0.5);
    builder.AddExact(rel::Fact(1, {rel::Value::Int(2)}),
                     math::Rational::Ratio(2, 5));
    StatusOr<std::shared_ptr<storage::TiStore>> store = builder.Finish();
    if (!store.ok()) return store.status();
    durability::Manager manager(scratch.path);
    StatusOr<std::unique_ptr<durability::DurableStore>> durable =
        manager.Create("db", std::move(store).value());
    if (!durable.ok()) return durable.status();
    std::unique_ptr<durability::DurableStore> handle =
        std::move(durable).value();
    StatusOr<int64_t> inserted = handle->Insert(
        rel::Fact(0, {rel::Value::Int(7), rel::Value::Int(8)}), 0.25);
    if (!inserted.ok()) return inserted.status();
    Status st = handle->UpdateProbabilityExact(
        rel::Fact(1, {rel::Value::Int(2)}), math::Rational::Ratio(1, 3));
    if (!st.ok()) return st;
    st = handle->Checkpoint();
    if (!st.ok()) return st;
    st = handle->UpdateProbability(
        rel::Fact(0, {rel::Value::Int(7), rel::Value::Int(8)}), 0.6);
    if (!st.ok()) return st;
    st = handle->Flush();
    if (!st.ok()) return st;
    handle.reset();
    StatusOr<std::unique_ptr<durability::DurableStore>> recovered =
        manager.Load("db");
    if (!recovered.ok()) return recovered.status();
  }

  return Status::Ok();
}

TEST(FaultRegistryTest, KnownSitesAreSortedAndQueryable) {
  const std::vector<std::string>& sites = fault::KnownSites();
  ASSERT_GE(sites.size(), 8u);
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
  for (const std::string& site : sites) {
    EXPECT_TRUE(fault::IsKnownSite(site)) << site;
  }
  EXPECT_FALSE(fault::IsKnownSite("no.such.site"));
  // The coverage-audit alias is the same registry, not a copy.
  EXPECT_EQ(&fault::RegisteredSites(), &sites);
}

TEST(FaultRegistryTest, InjectedFaultIsRecognizableInternal) {
  Status status = fault::InjectedFault("kc.cache.insert");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
  EXPECT_NE(status.message().find("kc.cache.insert"), std::string::npos);
}

TEST(FaultRegistryTest, CompiledInMatchesBuildFlag) {
#if defined(IPDB_FAULT_INJECTION)
  EXPECT_TRUE(fault::CompiledIn());
#else
  EXPECT_FALSE(fault::CompiledIn());
#endif
}

TEST(FaultPlanTest, DisarmedSitesNeverFire) {
  // With no plan installed the workload must pass, whether or not
  // injection is compiled in.
  EXPECT_TRUE(RepresentativeWorkload(0).ok());
}

TEST(FaultPlanTest, PlanWithoutCompiledInSitesIsInert) {
  if (fault::CompiledIn()) GTEST_SKIP() << "covered by the firing tests";
  fault::ScopedFaultPlan plan({{"pqe.wmc.solve", 1}});
  EXPECT_TRUE(RepresentativeWorkload(0).ok());
  EXPECT_EQ(plan.triggered("pqe.wmc.solve"), 0);
}

#if defined(IPDB_FAULT_INJECTION)

TEST(FaultFiringTest, ArmedSiteSurfacesInjectedStatus) {
  fault::ScopedFaultPlan plan({{"pqe.wmc.solve", 1}});
  pqe::Lineage lineage;
  pqe::NodeId x = lineage.Var(0);
  StatusOr<double> result =
      pqe::ComputeProbability(&lineage, x, {0.5});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(plan.triggered("pqe.wmc.solve"), 1);
}

TEST(FaultFiringTest, NthHitSemantics) {
  fault::ScopedFaultPlan plan({{"pqe.wmc.solve", 2}});
  pqe::Lineage lineage;
  pqe::NodeId x = lineage.Var(0);
  EXPECT_TRUE(pqe::ComputeProbability(&lineage, x, {0.5}).ok());
  EXPECT_FALSE(pqe::ComputeProbability(&lineage, x, {0.5}).ok());
  // The site fires on exactly the nth hit, then disarms.
  EXPECT_TRUE(pqe::ComputeProbability(&lineage, x, {0.5}).ok());
  EXPECT_EQ(plan.triggered("pqe.wmc.solve"), 1);
  EXPECT_GE(fault::HitCount("pqe.wmc.solve"), 3);
}

TEST(FaultFiringTest, PlansStackAdditivelyAndUninstall) {
  // Plans stack: the outer plan arms a site the solver never touches,
  // the inner plan arms the solver entry; each fires independently.
  fault::ScopedFaultPlan outer({{"kc.cache.lookup", 1}});
  {
    fault::ScopedFaultPlan inner({{"pqe.wmc.solve", 1}});
    pqe::Lineage lineage;
    pqe::NodeId x = lineage.Var(0);
    EXPECT_FALSE(pqe::ComputeProbability(&lineage, x, {0.5}).ok());
    EXPECT_EQ(inner.triggered("pqe.wmc.solve"), 1);
  }
  // The inner plan uninstalled with its counters: the solver site is
  // disarmed again, and the untouched outer site never fired.
  pqe::Lineage lineage;
  pqe::NodeId x = lineage.Var(0);
  EXPECT_TRUE(pqe::ComputeProbability(&lineage, x, {0.5}).ok());
  EXPECT_EQ(outer.triggered("kc.cache.lookup"), 0);
}

// The CI fault leg's contract: arm every registered site in turn and
// drive the representative workload. Each armed site must be reached —
// a site the workload cannot reach is a dead site that tests nothing —
// and must unwind as a clean kInternal "injected fault" Status — never
// an abort, never a leak (the leg runs under ASan).
TEST(FaultFiringTest, EverySiteUnwindsCleanly) {
  int triggered = 0;
  std::string unreached;
  for (const std::string& site : fault::RegisteredSites()) {
    SCOPED_TRACE(site);
    fault::ScopedFaultPlan plan({{site, 1}});
    Status status = RepresentativeWorkload(triggered);
    if (plan.triggered(site) > 0) {
      ++triggered;
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      EXPECT_NE(status.message().find("injected fault"), std::string::npos);
      EXPECT_NE(status.message().find(site), std::string::npos);
    } else {
      // The workload finished before reaching the site; nothing fired,
      // so nothing may have failed.
      EXPECT_TRUE(status.ok()) << status.ToString();
      unreached += (unreached.empty() ? "" : ", ") + site;
    }
  }
  EXPECT_EQ(triggered, static_cast<int>(fault::RegisteredSites().size()))
      << "sites never reached: " << unreached;
}

#endif  // IPDB_FAULT_INJECTION

}  // namespace
}  // namespace ipdb
