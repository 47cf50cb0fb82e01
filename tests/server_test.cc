/// Tests for the embedded query service: tenant-config parsing and
/// QueryOptions mapping (a malformed config is a Status, never an
/// abort), the admission ladder, engine end-to-end serving with exact
/// parity against single-shot pqe::QueryProbability (including the
/// 16-thread concurrent-serving run the TSan leg gates), per-tenant
/// artifact-cache accounting, graceful shutdown (drain + reject +
/// final snapshot, with the server.shutdown fault site), the per-tenant
/// prepared-query LRU (one artifact-cache probe per circuit answer,
/// bounded residency, bit-identical answers, fuzzed query text),
/// concurrent PreparedQuery handles, and the loopback line-protocol
/// daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_reader.h"
#include "kc/cache.h"
#include "logic/parser.h"
#include "obs/obs.h"
#include "pdb/ti_pdb.h"
#include "pqe/prepared.h"
#include "pqe/wmc.h"
#include "server/admission.h"
#include "server/daemon.h"
#include "server/engine.h"
#include "server/tenant.h"
#include "storage/ti_store.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/status.h"

namespace ipdb {
namespace server {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

// ---------------------------------------------------------------------
// Fixtures

rel::Fact FactR(int i) { return rel::Fact(0, {rel::Value::Int(i)}); }
rel::Fact FactS(int i, int j) {
  return rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(j)});
}
rel::Fact FactT(int j) { return rel::Fact(2, {rel::Value::Int(j)}); }

/// Engine options with `threads` workers and every other field at its
/// default.
EngineOptions WithThreads(int threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

/// A small three-relation instance: R(x), S(x, y), T(y).
pdb::TiPdbD SmallInstance(int hubs = 4) {
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}});
  pdb::TiPdbD::FactList facts;
  for (int i = 0; i < hubs; ++i) {
    facts.emplace_back(FactR(i), 0.3 + 0.05 * (i % 5));
    for (int j = 0; j < 2; ++j) {
      facts.emplace_back(FactS(i, j), 0.2 + 0.04 * ((i + j) % 7));
    }
  }
  facts.emplace_back(FactT(0), 0.6);
  facts.emplace_back(FactT(1), 0.35);
  return pdb::TiPdbD::CreateOrDie(schema, facts);
}

/// Single-shot ground truth through the same governed ladder.
pqe::QueryAnswer SingleShot(const pdb::TiPdbD& ti, const std::string& text) {
  logic::Formula sentence =
      logic::ParseSentence(text, ti.schema()).value();
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, pqe::QueryOptions{});
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.value();
}

constexpr char kSafeQuery[] = "exists x y. R(x) & S(x, y)";
constexpr char kUnsafeQuery[] = "exists x y. R(x) & S(x, y) & T(y)";

// ---------------------------------------------------------------------
// Tenant config parsing / QueryOptions mapping

TEST(TenantConfigTest, ParsesKeyValueText) {
  StatusOr<TenantConfig> config = ParseTenantConfig(
      "max_in_flight=8 budget_ms=250; fallback_samples=5000 "
      "fallback=false cache_max_entries=2");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().max_in_flight, 8);
  EXPECT_EQ(config.value().budget_ms, 250);
  EXPECT_EQ(config.value().fallback_samples, 5000);
  EXPECT_FALSE(config.value().fallback);
  EXPECT_EQ(config.value().cache_max_entries, 2);
  // Untouched keys keep their defaults.
  EXPECT_DOUBLE_EQ(config.value().fallback_confidence, 0.99);
}

TEST(TenantConfigTest, EmptyTextIsTheDefaultConfig) {
  StatusOr<TenantConfig> config = ParseTenantConfig("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().max_in_flight, TenantConfig{}.max_in_flight);
}

TEST(TenantConfigTest, MalformedConfigsReturnStatusNeverAbort) {
  const char* malformed[] = {
      "max_in_flight",            // no '='
      "=5",                       // empty key
      "max_in_flight=",           // empty value
      "max_in_flight=abc",        // not an integer
      "max_in_flight=3x",         // trailing garbage
      "budget_ms=1e3garbage",     // bad number
      "fallback=yes",             // bad boolean
      "no_such_knob=1",           // unknown key
      "lifted=false",             // unknown key: the query picks its rung
      "max_in_flight=0",          // quota below 1
      "max_in_flight=-3",         // negative quota
      "budget_ms=-1",             // negative cap
      "budget_ms=10000000000000",  // deadline past the clock's range
      "budget_ms=9223372036854775807",  // overflowed computing it
      "fallback_samples=0",       // sample count below 1
      "fallback_confidence=1.5",  // confidence outside (0, 1)
      "fallback_confidence=0",    // confidence outside (0, 1)
      "fallback_confidence=nan",  // NaN fails the open-interval check
  };
  for (const char* text : malformed) {
    StatusOr<TenantConfig> config = ParseTenantConfig(text);
    EXPECT_FALSE(config.ok()) << "accepted: " << text;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(TenantConfigTest, ValidateRejectsBadConfigsBuiltInCode) {
  TenantConfig config;
  config.degraded_samples = 0;
  EXPECT_EQ(ValidateTenantConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = TenantConfig{};
  config.cache_max_bytes = -1;
  EXPECT_EQ(ValidateTenantConfig(config).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateTenantConfig(TenantConfig{}).ok());
  config = TenantConfig{};
  config.budget_ms = kMaxBudgetMs + 1;
  EXPECT_EQ(ValidateTenantConfig(config).code(),
            StatusCode::kInvalidArgument);
  // The largest budget is accepted and still puts the deadline after its
  // start.
  config.budget_ms = kMaxBudgetMs;
  EXPECT_TRUE(ValidateTenantConfig(config).ok());
  ExecutionBudget budget;
  const auto start = ExecutionBudget::Clock::now();
  ToQueryOptions(config, &budget, start, /*degraded=*/false, nullptr);
  EXPECT_GT(budget.deadline, start);
}

TEST(TenantConfigTest, MapsOntoQueryOptionsAndBudget) {
  TenantConfig config;
  config.budget_ms = 100;
  config.max_circuit_nodes = 500;
  config.max_samples = 9000;
  config.fallback_samples = 7000;
  config.fallback_confidence = 0.9;
  CancelToken cancel;
  ExecutionBudget budget;
  const auto start = ExecutionBudget::Clock::now();
  pqe::QueryOptions options =
      ToQueryOptions(config, &budget, start, /*degraded=*/false, &cancel);
  EXPECT_EQ(options.budget, &budget);
  EXPECT_TRUE(budget.has_deadline());
  EXPECT_EQ(budget.deadline, start + std::chrono::milliseconds(100));
  EXPECT_EQ(budget.max_circuit_nodes, 500);
  EXPECT_EQ(budget.max_samples, 9000);
  EXPECT_EQ(budget.cancel, &cancel);
  EXPECT_EQ(options.fallback_samples, 7000);
  EXPECT_DOUBLE_EQ(options.fallback_confidence, 0.9);
}

TEST(TenantConfigTest, DegradedModeCapsTheCompileRung) {
  TenantConfig config;
  config.fallback = false;  // degraded mode must still turn fallback on
  config.fallback_samples = 100000;
  config.degraded_samples = 2048;
  ExecutionBudget budget;
  pqe::QueryOptions options =
      ToQueryOptions(config, &budget, ExecutionBudget::Clock::now(),
                     /*degraded=*/true, nullptr);
  EXPECT_TRUE(options.fallback);
  EXPECT_EQ(budget.max_circuit_nodes, 1);
  EXPECT_EQ(options.fallback_samples, 2048);
}

// ---------------------------------------------------------------------
// Admission controller

TEST(AdmissionTest, LadderByQueueDepth) {
  AdmissionOptions options;
  options.max_queue_depth = 10;
  options.degrade_fraction = 0.5;
  AdmissionController controller(options);
  EXPECT_EQ(controller.Decide(0), Admission::kFull);
  EXPECT_EQ(controller.Decide(4), Admission::kFull);
  EXPECT_EQ(controller.Decide(5), Admission::kDegraded);
  EXPECT_EQ(controller.Decide(9), Admission::kDegraded);
  EXPECT_EQ(controller.Decide(10), Admission::kShed);
  EXPECT_EQ(controller.Decide(1000), Admission::kShed);
}

TEST(AdmissionTest, FallbackWindowDegradesEvenWhenIdle) {
  AdmissionOptions options;
  options.max_queue_depth = 100;
  options.fallback_degrade_rate = 0.5;
  options.window = 8;
  AdmissionController controller(options);
  // Under half a window of outcomes: no signal, stays full.
  for (int i = 0; i < 3; ++i) controller.RecordOutcome(true);
  EXPECT_EQ(controller.Decide(0), Admission::kFull);
  // A saturated window of fallbacks degrades even at depth zero.
  for (int i = 0; i < 8; ++i) controller.RecordOutcome(true);
  EXPECT_DOUBLE_EQ(controller.FallbackRate(), 1.0);
  EXPECT_EQ(controller.Decide(0), Admission::kDegraded);
  // Exact completions wash the window clean again.
  for (int i = 0; i < 8; ++i) controller.RecordOutcome(false);
  EXPECT_DOUBLE_EQ(controller.FallbackRate(), 0.0);
  EXPECT_EQ(controller.Decide(0), Admission::kFull);
}

// ---------------------------------------------------------------------
// Engine end-to-end

TEST(EngineTest, RegistrationValidates) {
  Engine engine(WithThreads(2));
  EXPECT_EQ(engine.RegisterInstance("", SmallInstance()).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  EXPECT_EQ(engine.RegisterInstance("db", SmallInstance()).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
  EXPECT_EQ(engine.RegisterTenant("acme", TenantConfig{}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RegisterTenant("bad", "no_such_knob=1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.RegisterTenant("beta", "budget_ms=100").ok());
  EXPECT_EQ(engine.Usage("nobody").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, ServesWithExactParityAgainstSingleShot) {
  pdb::TiPdbD ti = SmallInstance();
  const pqe::QueryAnswer safe_truth = SingleShot(ti, kSafeQuery);
  const pqe::QueryAnswer unsafe_truth = SingleShot(ti, kUnsafeQuery);
  ASSERT_EQ(safe_truth.quality, pqe::AnswerQuality::kExact);
  ASSERT_EQ(unsafe_truth.quality, pqe::AnswerQuality::kExact);

  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());

  StatusOr<QueryResult> safe = engine.Query("acme", "db", kSafeQuery);
  ASSERT_TRUE(safe.ok()) << safe.status().ToString();
  EXPECT_EQ(safe.value().answer.quality, pqe::AnswerQuality::kExact);
  EXPECT_EQ(safe.value().answer.probability, safe_truth.probability);
  EXPECT_TRUE(safe.value().answer.lifted);
  EXPECT_FALSE(safe.value().degraded);
  EXPECT_GE(safe.value().total_ns, safe.value().queue_ns);

  StatusOr<QueryResult> unsafe = engine.Query("acme", "db", kUnsafeQuery);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_EQ(unsafe.value().answer.quality, pqe::AnswerQuality::kExact);
  EXPECT_EQ(unsafe.value().answer.probability, unsafe_truth.probability);
  EXPECT_FALSE(unsafe.value().answer.lifted);

  // Unknown names and malformed formulas come back as Statuses.
  EXPECT_EQ(engine.Query("ghost", "db", kSafeQuery).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Query("acme", "ghost", kSafeQuery).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Query("acme", "db", "exists x. NoRel(x)").ok());
  EXPECT_FALSE(engine.Query("acme", "db", "R(x) &").ok());

  StatusOr<TenantUsage> usage = engine.Usage("acme");
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ(usage.value().admitted, 2);
  EXPECT_EQ(usage.value().completed, 2);
  EXPECT_EQ(usage.value().errors, 2);  // the two malformed formulas
  EXPECT_EQ(usage.value().in_flight, 0);
}

/// The 16-thread concurrent-serving run gated under TSan: every answer
/// must match the single-shot ladder bit-for-bit.
TEST(EngineTest, ConcurrentServingExactParitySixteenThreads) {
  pdb::TiPdbD ti = SmallInstance();
  const std::vector<std::string> queries = {
      kSafeQuery,
      kUnsafeQuery,
      "exists x. R(x)",
      "exists x y. S(x, y) & T(y)",
  };
  std::vector<double> truth;
  for (const std::string& query : queries) {
    const pqe::QueryAnswer answer = SingleShot(ti, query);
    ASSERT_EQ(answer.quality, pqe::AnswerQuality::kExact);
    truth.push_back(answer.probability);
  }

  Engine engine(WithThreads(4));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
  ASSERT_TRUE(engine.RegisterTenant("beta", TenantConfig{}).ok());

  constexpr int kThreads = 16;
  constexpr int kPerThread = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = (t % 2 == 0) ? "acme" : "beta";
      for (int q = 0; q < kPerThread; ++q) {
        const size_t pick = static_cast<size_t>(t + q) % queries.size();
        StatusOr<QueryResult> result =
            engine.Query(tenant, "db", queries[pick]);
        if (!result.ok() ||
            result.value().answer.quality != pqe::AnswerQuality::kExact ||
            result.value().answer.probability != truth[pick]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.queue_depth(), 0);
  StatusOr<TenantUsage> acme = engine.Usage("acme");
  StatusOr<TenantUsage> beta = engine.Usage("beta");
  ASSERT_TRUE(acme.ok());
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(acme.value().completed + beta.value().completed,
            kThreads * kPerThread);
}

TEST(EngineTest, DegradedAdmissionAnswersWithCertifiedIntervals) {
  pdb::TiPdbD ti = SmallInstance();
  const pqe::QueryAnswer safe_truth = SingleShot(ti, kSafeQuery);
  const pqe::QueryAnswer unsafe_truth = SingleShot(ti, kUnsafeQuery);
  // A warm artifact cache would answer the capped query exactly (a hit
  // is already paid for); go in cold so the cap actually bites.
  kc::GlobalCompiledQueryCache().Clear();

  EngineOptions options;
  options.threads = 2;
  options.admission.degrade_fraction = 0.0;  // every admission degrades
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", "degraded_samples=20000").ok());

  // The lifted rung still answers exactly in degraded mode.
  StatusOr<QueryResult> safe = engine.Query("acme", "db", kSafeQuery);
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(safe.value().degraded);
  EXPECT_EQ(safe.value().answer.quality, pqe::AnswerQuality::kExact);
  EXPECT_EQ(safe.value().answer.probability, safe_truth.probability);

  // The circuit rung is capped out: a certified interval answers.
  StatusOr<QueryResult> unsafe = engine.Query("acme", "db", kUnsafeQuery);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_TRUE(unsafe.value().degraded);
  EXPECT_EQ(unsafe.value().answer.quality, pqe::AnswerQuality::kInterval);
  EXPECT_GT(unsafe.value().answer.half_width, 0.0);
  EXPECT_NEAR(unsafe.value().answer.probability, unsafe_truth.probability,
              unsafe.value().answer.half_width + 0.05);
}

// A fallback forced by a circuit-node cap is not load. Counted as load,
// one capped tenant's interval answers fill the fallback window, and from
// then on every query of every tenant is admitted degraded at queue depth
// zero, falls back, and refills the window.
TEST(EngineTest, CappedFallbacksDoNotLatchDegradedAdmission) {
  // Cold cache: a hit would answer the capped tenant exactly.
  kc::GlobalCompiledQueryCache().Clear();
  EngineOptions options;
  options.threads = 1;
  options.admission.window = 8;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("capped",
                                  "max_circuit_nodes=1 fallback_samples=2000")
                  .ok());
  ASSERT_TRUE(engine.RegisterTenant("free", TenantConfig{}).ok());

  for (int i = 0; i < options.admission.window; ++i) {
    StatusOr<QueryResult> capped = engine.Query("capped", "db", kUnsafeQuery);
    ASSERT_TRUE(capped.ok()) << capped.status().ToString();
    EXPECT_EQ(capped.value().answer.quality, pqe::AnswerQuality::kInterval);
    EXPECT_EQ(capped.value().answer.exact_error.code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(engine.admission().FallbackRate(), 0.0);
  for (int i = 0; i < 20; ++i) {
    StatusOr<QueryResult> free = engine.Query("free", "db", kUnsafeQuery);
    ASSERT_TRUE(free.ok()) << free.status().ToString();
    EXPECT_FALSE(free.value().degraded) << "query " << i;
    EXPECT_EQ(free.value().answer.quality, pqe::AnswerQuality::kExact);
  }
  EXPECT_EQ(engine.Usage("free").value().degraded, 0);
}

TEST(EngineTest, OverloadShedsWithUnavailable) {
  // A capped kUnsafeQuery must miss the process-wide artifact cache
  // (a hit is served past max_circuit_nodes), whatever ran before.
  kc::GlobalCompiledQueryCache().Clear();
  // One worker, a shallow queue, and deliberately slow queries (the
  // compile rung is capped, so each query Monte Carlos a while): the
  // submission loop outruns the worker and the ladder must shed.
  EngineOptions options;
  options.threads = 1;
  options.admission.max_queue_depth = 4;
  options.admission.degrade_fraction = 1.0;  // isolate the shed rung
  options.admission.fallback_degrade_rate = 2.0;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("acme",
                                  "max_circuit_nodes=1 "
                                  "fallback_samples=20000")
                  .ok());

  constexpr int kBurst = 32;
  std::vector<std::shared_ptr<PendingQuery>> admitted;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<std::shared_ptr<PendingQuery>> pending =
        engine.Submit("acme", "db", kUnsafeQuery);
    if (pending.ok()) {
      admitted.push_back(pending.value());
    } else {
      ASSERT_EQ(pending.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_LE(engine.queue_depth(), options.admission.max_queue_depth);
  for (const auto& pending : admitted) {
    const StatusOr<QueryResult>& result = pending->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  StatusOr<TenantUsage> usage = engine.Usage("acme");
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ(usage.value().shed, shed);
  EXPECT_EQ(usage.value().admitted, static_cast<int64_t>(admitted.size()));
}

TEST(EngineTest, TenantQuotaShedsBeforeGlobalPressure) {
  // A capped kUnsafeQuery must miss the process-wide artifact cache
  // (a hit is served past max_circuit_nodes), whatever ran before.
  kc::GlobalCompiledQueryCache().Clear();
  EngineOptions options;
  options.threads = 1;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("tiny",
                                  "max_in_flight=1 "
                                  "max_circuit_nodes=1 "
                                  "fallback_samples=20000")
                  .ok());
  StatusOr<std::shared_ptr<PendingQuery>> first =
      engine.Submit("tiny", "db", kUnsafeQuery);
  ASSERT_TRUE(first.ok());
  // With one slow query in flight, the tenant is at quota; the engine
  // queue (depth 1 of 128) is nowhere near pressure.
  int quota_shed = 0;
  for (int i = 0; i < 16 && quota_shed == 0; ++i) {
    StatusOr<std::shared_ptr<PendingQuery>> second =
        engine.Submit("tiny", "db", kUnsafeQuery);
    if (!second.ok()) {
      EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
      ++quota_shed;
    } else {
      second.value()->Wait();
    }
  }
  EXPECT_GT(quota_shed, 0);
  first.value()->Wait();
}

// ---------------------------------------------------------------------
// Per-tenant cache accounting

TEST(EngineTest, TenantCacheAccountingIsExactAndCapped) {
  kc::GlobalCompiledQueryCache().Clear();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  // A may keep only one resident artifact, B is uncapped.
  ASSERT_TRUE(engine.RegisterTenant("capped", "cache_max_entries=1").ok());
  ASSERT_TRUE(engine.RegisterTenant("roomy", TenantConfig{}).ok());

  // Outside the lifted class (a disjunction, then negations), so every
  // query takes the circuit path.
  const std::vector<std::string> queries = {
      "exists x. R(x) | T(x)",
      "exists x. R(x) & !T(x)",
      "exists x y. S(x, y) & !T(x)",
  };
  for (const std::string& query : queries) {
    ASSERT_TRUE(engine.Query("capped", "db", query).ok());
  }
  for (const std::string& query : queries) {
    ASSERT_TRUE(engine.Query("roomy", "db", query).ok());
  }

  StatusOr<TenantUsage> capped = engine.Usage("capped");
  StatusOr<TenantUsage> roomy = engine.Usage("roomy");
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(roomy.ok());
  // The capped tenant compiled three distinct artifacts but may hold
  // only one: its own LRU paid for every insert.
  EXPECT_EQ(capped.value().cache.misses, 3);
  EXPECT_EQ(capped.value().cache.entries, 1);
  EXPECT_GE(capped.value().cache.evictions, 2);
  // The roomy tenant probes the same fingerprints: whatever the capped
  // tenant still holds is a hit, the rest recompile under roomy's
  // ownership. Residency stays exactly partitioned.
  EXPECT_GE(roomy.value().cache.hits, 1);
  EXPECT_GE(roomy.value().cache.entries, 2);
  EXPECT_TRUE(kc::GlobalCompiledQueryCache().CheckAccounting().ok());
}

// ---------------------------------------------------------------------
// Prepared queries on the serving path

/// One submission's answer, which must be exact.
double ExactAnswer(Engine* engine, const std::string& tenant,
                   const std::string& query) {
  StatusOr<QueryResult> result = engine->Query(tenant, "db", query);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  if (!result.ok()) return -1;
  EXPECT_EQ(result.value().answer.quality, pqe::AnswerQuality::kExact)
      << query;
  return result.value().answer.probability;
}

/// Every circuit answer makes exactly one counted artifact-cache probe:
/// a keyed Find while the handle's fingerprint is resident and the
/// structure unchanged, otherwise one GetOrCompile. A Find that comes
/// back empty counts nothing, and a budget-aborted compile counts nothing
/// either, as before handles existed.
TEST(PreparedServingTest, OneCountedProbePerCircuitAnswer) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  Engine engine(WithThreads(1));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine.RegisterTenant("a", TenantConfig{}).ok());
  ASSERT_TRUE(engine.RegisterTenant("b", TenantConfig{}).ok());
  ASSERT_TRUE(engine.RegisterTenant("one", "cache_max_entries=1").ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("capped",
                                  "max_circuit_nodes=1 fallback_samples=2000")
                  .ok());
  // All outside the lifted class.
  const std::string hot = kUnsafeQuery;
  const std::string q2 = "exists x. R(x) & !T(x)";
  const std::string one_off = "exists x y. S(x, y) & !T(x)";
  const std::string q4 = "exists x. R(x) | T(x)";
  const std::string q5 = "exists x y. R(x) & S(x, y) & !T(y)";

  // Tenant a: a compile, two keyed hits, then a one-off compile.
  for (int i = 0; i < 3; ++i) ExactAnswer(&engine, "a", hot);
  ExactAnswer(&engine, "a", one_off);
  // Tenant b: its first answer grounds and hits a's artifact, its second
  // is a keyed hit.
  for (int i = 0; i < 2; ++i) ExactAnswer(&engine, "b", hot);
  // Tenant one may hold one artifact: q4 evicts q2, so q2's handle finds
  // nothing by its fingerprint (uncounted), grounds and compiles again.
  ExactAnswer(&engine, "one", hot);
  ExactAnswer(&engine, "one", q2);
  ExactAnswer(&engine, "one", q4);
  ExactAnswer(&engine, "one", q2);
  // Tenant capped: a resident artifact answers past max_circuit_nodes,
  // grounded then keyed; a capped miss falls back and counts nothing.
  ExactAnswer(&engine, "capped", hot);
  ExactAnswer(&engine, "capped", hot);
  StatusOr<QueryResult> capped_miss = engine.Query("capped", "db", q5);
  ASSERT_TRUE(capped_miss.ok());
  EXPECT_EQ(capped_miss.value().answer.quality,
            pqe::AnswerQuality::kInterval);
  EXPECT_EQ(capped_miss.value().answer.exact_error.code(),
            StatusCode::kResourceExhausted);

  struct Expected {
    const char* tenant;
    int64_t hits, misses, entries, prepared_hits, prepared_misses;
  };
  for (const Expected& want : {Expected{"a", 2, 2, 2, 2, 2},
                               Expected{"b", 2, 0, 0, 1, 1},
                               Expected{"one", 1, 3, 1, 1, 3},
                               Expected{"capped", 2, 0, 0, 1, 2}}) {
    StatusOr<TenantUsage> usage = engine.Usage(want.tenant);
    ASSERT_TRUE(usage.ok());
    EXPECT_EQ(usage.value().cache.hits, want.hits) << want.tenant;
    EXPECT_EQ(usage.value().cache.misses, want.misses) << want.tenant;
    EXPECT_EQ(usage.value().cache.entries, want.entries) << want.tenant;
    EXPECT_EQ(usage.value().prepared_hits, want.prepared_hits) << want.tenant;
    EXPECT_EQ(usage.value().prepared_misses, want.prepared_misses)
        << want.tenant;
  }
  // 12 circuit answers, 12 counted probes.
  EXPECT_EQ(cache.hits() + cache.misses(), 12);
  EXPECT_TRUE(cache.CheckAccounting().ok());
}

/// A deadline that passed before the answer started trips before the
/// keyed probe, so it is neither answered from the memo nor counted.
TEST(PreparedServingTest, ExpiredDeadlineTripsBeforeTheKeyedProbe) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  const pdb::TiPdbD ti = SmallInstance();
  const logic::Formula sentence =
      logic::ParseSentence(kUnsafeQuery, ti.schema()).value();
  StatusOr<pqe::PreparedQuery> handle =
      pqe::PreparedQuery::Prepare(ti.store(), sentence);
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(cache.misses(), 1);
  ExecutionBudget expired;
  expired.deadline = ExecutionBudget::Clock::now() - std::chrono::seconds(1);
  pqe::QueryOptions options;
  options.budget = &expired;
  options.fallback = false;
  StatusOr<pqe::QueryAnswer> answer = handle.value().Answer(options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 1);
  // Unbudgeted, the same handle answers from its memo after one keyed hit.
  StatusOr<pqe::QueryAnswer> memoized =
      handle.value().Answer(pqe::QueryOptions{});
  ASSERT_TRUE(memoized.ok());
  EXPECT_EQ(memoized.value().probability, SingleShot(ti, kUnsafeQuery).probability);
  EXPECT_EQ(cache.hits(), 2);  // the memo's probe and SingleShot's
}

/// 10^4 distinct texts from one tenant: its LRU keeps at most
/// kPreparedPerTenant handles, the artifact cache stays within its
/// capacity with exact accounting (handles pin no circuits), and another
/// tenant's handles are untouched.
TEST(PreparedServingTest, HandlesAreBoundedPerTenantAndPinNoCircuits) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}});
  pdb::TiPdbD::FactList facts;
  for (int i = 0; i < 200; ++i) {
    facts.emplace_back(FactR(i), 0.1 + 0.004 * i);
  }
  facts.emplace_back(FactT(0), 0.5);
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine
                  .RegisterInstance("db",
                                    pdb::TiPdbD::CreateOrDie(schema, facts))
                  .ok());
  ASSERT_TRUE(engine.RegisterTenant("calm", TenantConfig{}).ok());
  ASSERT_TRUE(engine.RegisterTenant("flood", TenantConfig{}).ok());
  const std::vector<std::string> calm = {"exists x. R(x) & !T(x)",
                                         "R(1) | R(2)", "exists x. R(x)"};
  for (const std::string& query : calm) ExactAnswer(&engine, "calm", query);

  // Disjunctions of two R facts: outside the lifted class, so each
  // distinct pair compiles its own circuit.
  int sent = 0;
  for (int i = 0; i < 200 && sent < 10000; ++i) {
    for (int j = i + 1; j < 200 && sent < 10000; ++j, ++sent) {
      const std::string query =
          "R(" + std::to_string(i) + ") | R(" + std::to_string(j) + ")";
      StatusOr<QueryResult> result = engine.Query("flood", "db", query);
      ASSERT_TRUE(result.ok()) << query;
    }
  }
  StatusOr<TenantUsage> flood = engine.Usage("flood");
  ASSERT_TRUE(flood.ok());
  EXPECT_EQ(flood.value().prepared_misses, 10000);
  EXPECT_EQ(flood.value().prepared_entries, kPreparedPerTenant);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_TRUE(cache.CheckAccounting().ok());

  StatusOr<TenantUsage> before = engine.Usage("calm");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().prepared_entries, 3);
  for (const std::string& query : calm) ExactAnswer(&engine, "calm", query);
  StatusOr<TenantUsage> after = engine.Usage("calm");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().prepared_hits - before.value().prepared_hits, 3);
  EXPECT_EQ(after.value().prepared_misses, before.value().prepared_misses);
}

/// A served answer equals QueryProbability on the same store bit for bit,
/// on a prepared miss, on a hit, and after each kind of mutation of a
/// store shared with the registered instance.
TEST(PreparedServingTest, AnswersMatchSingleShotAcrossStoreMutations) {
  kc::GlobalCompiledQueryCache().Clear();
  const pdb::TiPdbD small = SmallInstance();
  storage::TiStore::Builder builder(small.schema());
  for (const auto& [fact, marginal] : small.facts()) builder.Add(fact, marginal);
  std::shared_ptr<storage::TiStore> store = builder.Finish().value();
  const pdb::TiPdbD view = pdb::TiPdbD::FromStore(store).value();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", view).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
  const std::vector<std::string> queries = {kUnsafeQuery, kSafeQuery,
                                            "exists x. R(x) & !T(x)"};
  const auto check = [&](const std::string& step) {
    for (const std::string& query : queries) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        EXPECT_EQ(ExactAnswer(&engine, "acme", query),
                  SingleShot(view, query).probability)
            << step << ", " << query << ", repeat " << repeat;
      }
    }
  };
  check("as registered");
  ASSERT_TRUE(store->UpdateProbability(FactT(1), 0.9).ok());
  check("after UpdateProbability");
  ASSERT_TRUE(store->Erase(FactS(1, 0)).ok());
  check("after Erase");
  ASSERT_TRUE(store->Insert(FactT(2), 0.45).ok());
  ASSERT_TRUE(store->Insert(FactS(3, 2), 0.7).ok());
  check("after Insert");
  StatusOr<TenantUsage> usage = engine.Usage("acme");
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ(usage.value().prepared_misses, 3);
  EXPECT_EQ(usage.value().prepared_hits, 21);
}

/// Hostile query text reaches the prepared-query lookup before the
/// parser. A seeded mutation loop over serve-shaped queries (byte flips,
/// truncations, splices, inserted parentheses, quotes and quantifiers):
/// every submission comes back as a Status or an answer, a text that
/// errored errors again and is never a prepared hit, the tenant's
/// residency stays bounded, and the cache accounting holds.
TEST(PreparedServingTest, FuzzedQueryTextNeverAborts) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  Engine engine(WithThreads(1));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(
      engine.RegisterTenant("fuzz", "budget_ms=20 fallback_samples=200").ok());
  const std::vector<std::string> seeds = {
      "exists x y. R(x) & S(x, y) & T(y)",
      "exists x y. R(x) & S(x, y) & T(y) & x != 2",
      "(exists x y. R(x) & S(x, y) & T(y) & x != 1) | "
      "(exists x y. R(x) & S(x, y) & T(y) & x != 3)",
      "R(1) & (exists x y. R(x) & S(x, y) & T(y))",
      "(exists x y. R(x) & S(x, y) & T(y) & x != 0) & !(R(2) & S(2, 1))",
      "exists x y. R(x) & S(x, y)",
      "forall x. R(x) -> exists y. S(x, y)",
  };
  const std::vector<std::string> inserts = {
      "(", ")", "'", "\"", "exists x. ", "forall y. ", "!", "exists z z. "};
  Pcg32 rng(0xf022);
  const auto mutate = [&](std::string text) {
    const int edits = 1 + static_cast<int>(rng.NextBounded(3)) / 2;
    for (int e = 0; e < edits; ++e) {
      // Half the edits land at the front, where an inserted quantifier or
      // negation keeps the text a sentence.
      const size_t at =
          text.empty() || rng.NextBounded(2) == 0
              ? 0
              : rng.NextBounded(static_cast<uint32_t>(text.size()));
      switch (rng.NextBounded(4)) {
        case 0:  // byte flip
          if (!text.empty()) {
            text[at] = static_cast<char>(text[at] ^ (1 << rng.NextBounded(8)));
          }
          break;
        case 1:  // truncation
          text.resize(at);
          break;
        case 2: {  // splice with another seed's tail
          const std::string& other =
              seeds[rng.NextBounded(static_cast<uint32_t>(seeds.size()))];
          text = text.substr(0, at) +
                 other.substr(rng.NextBounded(
                     static_cast<uint32_t>(other.size())));
          break;
        }
        default:
          text.insert(at, inserts[rng.NextBounded(
                              static_cast<uint32_t>(inserts.size()))]);
      }
    }
    return text;
  };

  constexpr int kIterations = 5000;
  int errors = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = mutate(
        seeds[rng.NextBounded(static_cast<uint32_t>(seeds.size()))]);
    StatusOr<QueryResult> result = engine.Query("fuzz", "db", text);
    if (!result.ok()) {
      ++errors;
      const int64_t hits = engine.Usage("fuzz").value().prepared_hits;
      StatusOr<QueryResult> again = engine.Query("fuzz", "db", text);
      EXPECT_FALSE(again.ok()) << text;
      EXPECT_EQ(again.status().code(), result.status().code()) << text;
      EXPECT_EQ(engine.Usage("fuzz").value().prepared_hits, hits) << text;
    }
    ASSERT_LE(engine.Usage("fuzz").value().prepared_entries,
              kPreparedPerTenant);
  }
  // The loop exercises both outcomes: with this seed 4,600 texts error
  // and 400 are answered.
  EXPECT_GT(errors, kIterations / 10);
  EXPECT_LT(errors, kIterations - kIterations / 20);
  EXPECT_TRUE(cache.CheckAccounting().ok());
}

// ---------------------------------------------------------------------
// Graceful shutdown

TEST(EngineTest, StopDrainsInFlightRejectsNewAndFlushesMetrics) {
  // A capped kUnsafeQuery must miss the process-wide artifact cache
  // (a hit is served past max_circuit_nodes), whatever ran before.
  kc::GlobalCompiledQueryCache().Clear();
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("acme",
                                  "max_circuit_nodes=1 "
                                  "fallback_samples=20000")
                  .ok());

  std::vector<std::shared_ptr<PendingQuery>> pendings;
  for (int i = 0; i < 8; ++i) {
    StatusOr<std::shared_ptr<PendingQuery>> pending =
        engine.Submit("acme", "db", kUnsafeQuery);
    if (pending.ok()) pendings.push_back(pending.value());
  }
  ASSERT_FALSE(pendings.empty());

  ASSERT_TRUE(engine.Stop().ok());
  // Every admitted query drained to a clean result: the cancel token
  // turns unfinished sampling into kFailed answers, never hangs.
  for (const auto& pending : pendings) {
    EXPECT_TRUE(pending->done());
    const StatusOr<QueryResult>& result = pending->Wait();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(engine.queue_depth(), 0);
  // New work is rejected, idempotent Stop stays OK.
  EXPECT_EQ(engine.Submit("acme", "db", kSafeQuery).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(engine.Stop().ok());
  // The final snapshot was flushed and carries serving metrics.
  const std::string snapshot = engine.final_metrics_json();
  EXPECT_NE(snapshot.find("ipdb-metrics-v1"), std::string::npos);
#if !defined(IPDB_OBSERVABILITY_DISABLED)
  EXPECT_NE(snapshot.find("serve."), std::string::npos);
#endif
}

#if defined(IPDB_FAULT_INJECTION)
TEST(EngineTest, ShutdownFaultSiteUnwindsCleanlyAndStopRetries) {
  ASSERT_TRUE(fault::IsKnownSite("server.shutdown"));
  Engine engine(WithThreads(1));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
  ASSERT_TRUE(engine.Query("acme", "db", kSafeQuery).ok());
  {
    fault::ScopedFaultPlan plan({{"server.shutdown", 1}});
    const Status status = engine.Stop();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(plan.triggered("server.shutdown"), 1);
  }
  // The injected fault hit after the drain: the engine is quiesced and
  // Stop retries to a clean shutdown with the final snapshot intact.
  EXPECT_TRUE(engine.Stop().ok());
  EXPECT_NE(engine.final_metrics_json().find("ipdb-metrics-v1"),
            std::string::npos);
}
#endif  // IPDB_FAULT_INJECTION

// ---------------------------------------------------------------------
// Concurrent PreparedQuery handles (the TSan regression)

TEST(PreparedConcurrencyTest, ManyReadersRaceTheRefreshMachinery) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  storage::TiStore::Builder builder(schema);
  for (int i = 0; i < 5; ++i) {
    builder.Add(rel::Fact(0, {rel::Value::Int(i)}), 0.3 + 0.05 * i);
    builder.Add(rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(100 + i)}),
                0.2 + 0.04 * i);
  }
  StatusOr<std::shared_ptr<storage::TiStore>> built = builder.Finish();
  ASSERT_TRUE(built.ok());
  std::shared_ptr<storage::TiStore> store = built.value();
  // The negation puts the query outside the lifted class, so the handle
  // takes the locked circuit path.
  logic::Formula sentence =
      logic::ParseSentence("exists x. R(x) & !(exists y. S(x, y))", schema)
          .value();
  StatusOr<pqe::PreparedQuery> prepared =
      pqe::PreparedQuery::Prepare(store, sentence);
  ASSERT_TRUE(prepared.ok());
  pqe::PreparedQuery& handle = prepared.value();
  ASSERT_FALSE(handle.lifted());

  auto race = [&handle](double expected) {
    constexpr int kReaders = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        for (int i = 0; i < 16; ++i) {
          StatusOr<double> answer = handle.Query();
          // Tolerance, not equality: the circuit and the brute-force
          // enumeration round differently.
          if (!answer.ok() ||
              std::abs(answer.value() - expected) > 1e-9) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0);
  };

  auto truth = [&] {
    StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
    EXPECT_TRUE(view.ok());
    return pqe::QueryProbabilityBruteForce(view.value(), sentence).value();
  };

  // Round 1: readers race each other on the memoized answer.
  race(truth());
  // Round 2: a probability update (single writer, readers quiesced per
  // the TiStore contract) — readers then race the incremental refresh.
  ASSERT_TRUE(store->UpdateProbability(rel::Fact(0, {rel::Value::Int(2)}),
                                       0.85)
                  .ok());
  race(truth());
  EXPECT_GE(handle.incremental_refreshes(), 1);
  // Round 3: a structural mutation — readers race the rebuild.
  ASSERT_TRUE(store->Erase(rel::Fact(0, {rel::Value::Int(4)})).ok());
  race(truth());
  EXPECT_GE(handle.rebuilds(), 1);
}

// ---------------------------------------------------------------------
// Daemon (loopback line protocol)

class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Sends one request line and reads one response line.
  std::string RoundTrip(const std::string& request) {
    if (!SendRaw(request + "\n")) return "";
    return ReadLine();
  }

  /// Sends bytes with no framing — for exercising the line cap.
  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads up to the next newline; "" means the peer closed first.
  std::string ReadLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t newline = buffer_.find('\n');
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  /// True once the peer has closed its end (blocking read of EOF).
  bool AtEof() {
    char byte;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(DaemonTest, SpeaksTheLineProtocolOverLoopback) {
  pdb::TiPdbD ti = SmallInstance();
  const pqe::QueryAnswer truth = SingleShot(ti, kSafeQuery);
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());

  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  ASSERT_GT(daemon.port(), 0);

  LineClient client(daemon.port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.RoundTrip("PING"), "PONG");

  // QUERY answers match the engine (and hence the single-shot ladder).
  const std::string response =
      client.RoundTrip(std::string("QUERY acme db ") + kSafeQuery);
  std::istringstream parse(response);
  std::string tag, quality;
  double probability = -1.0, half_width = -1.0, confidence = -1.0;
  int lifted = -1, degraded = -1;
  parse >> tag >> probability >> half_width >> confidence >> quality >>
      lifted >> degraded;
  EXPECT_EQ(tag, "OK") << response;
  EXPECT_EQ(probability, truth.probability);
  EXPECT_EQ(half_width, 0.0);
  EXPECT_EQ(quality, "exact");
  EXPECT_EQ(lifted, 1);
  EXPECT_EQ(degraded, 0);

  // PQUERY is an alias of QUERY: the same exact answer.
  const std::string alias =
      client.RoundTrip(std::string("PQUERY acme db ") + kSafeQuery);
  EXPECT_EQ(alias.substr(0, 3), "OK ");
  std::istringstream reparse(alias);
  reparse >> tag >> probability;
  EXPECT_EQ(probability, truth.probability);

  // Errors are line-framed Statuses, never connection drops.
  EXPECT_EQ(client.RoundTrip("QUERY ghost db true").substr(0, 20),
            "ERR INVALID_ARGUMENT");
  EXPECT_EQ(client.RoundTrip("NONSENSE").substr(0, 3), "ERR");
  EXPECT_EQ(client.RoundTrip("QUERY acme db").substr(0, 3), "ERR");
  // A literal outside int64_t is answered as a parse error, and the
  // daemon keeps serving.
  EXPECT_EQ(client.RoundTrip("QUERY acme db R(99999999999999999999)")
                .substr(0, 20),
            "ERR INVALID_ARGUMENT");
  EXPECT_EQ(client.RoundTrip("PING"), "PONG");

  // METRICS returns the one-line JSON snapshot.
  const std::string metrics = client.RoundTrip("METRICS");
  EXPECT_NE(metrics.find("ipdb-metrics-v1"), std::string::npos);
#if !defined(IPDB_OBSERVABILITY_DISABLED)
  EXPECT_NE(metrics.find("serve."), std::string::npos);
#endif

  EXPECT_EQ(client.RoundTrip("QUIT"), "BYE");
  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

// Satellite: an unterminated request line past the cap must be answered
// once and hung up on — never buffered without bound — and the listener
// must keep serving fresh connections afterwards.
TEST(DaemonTest, OversizedLineGetsOneErrorThenTheConnectionCloses) {
  Engine engine(WithThreads(1));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  {
    LineClient client(daemon.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.SendRaw(
        std::string(Daemon::kMaxRequestLineBytes + 1024, 'A')));
    const std::string reply = client.ReadLine();
    EXPECT_EQ(reply.substr(0, 20), "ERR INVALID_ARGUMENT") << reply;
    EXPECT_NE(reply.find("exceeds"), std::string::npos) << reply;
    EXPECT_TRUE(client.AtEof());
  }
  LineClient after(daemon.port());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.RoundTrip("PING"), "PONG");
  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

// A 16 KB line of nested parentheses, well under the line cap, used to
// overflow the parser's stack and take the daemon down for every tenant;
// it is now answered as a parse error and the daemon keeps serving.
TEST(DaemonTest, DeeplyNestedQueryIsAnErrorAndTheDaemonKeepsServing) {
  Engine engine(WithThreads(1));
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  LineClient client(daemon.port());
  ASSERT_TRUE(client.ok());
  const std::string hostile = "QUERY acme db " + std::string(8000, '(') +
                              "true" + std::string(8000, ')');
  ASSERT_LT(hostile.size(), Daemon::kMaxRequestLineBytes);
  const std::string reply = client.RoundTrip(hostile);
  EXPECT_EQ(reply.substr(0, 20), "ERR INVALID_ARGUMENT") << reply;
  EXPECT_NE(reply.find("nests deeper"), std::string::npos) << reply;
  EXPECT_EQ(client.RoundTrip("PING"), "PONG");
  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

// PQUERY and QUERY are one serving path: both run the governed ladder
// under the tenant's budget, so a tenant capped at one circuit node gets
// a certified interval from either command.
TEST(DaemonTest, PqueryRunsTheGovernedLadder) {
  // Cold cache: a hit would answer the capped query exactly.
  kc::GlobalCompiledQueryCache().Clear();
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterInstance("db", SmallInstance()).ok());
  ASSERT_TRUE(engine
                  .RegisterTenant("capped",
                                  "max_circuit_nodes=1 fallback_samples=2000")
                  .ok());
  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  LineClient client(daemon.port());
  ASSERT_TRUE(client.ok());
  for (const std::string command : {"PQUERY", "QUERY"}) {
    const std::string response =
        client.RoundTrip(command + " capped db " + kUnsafeQuery);
    std::istringstream parse(response);
    std::string tag, quality;
    double probability = -1.0, half_width = -1.0, confidence = -1.0;
    parse >> tag >> probability >> half_width >> confidence >> quality;
    EXPECT_EQ(tag, "OK") << response;
    EXPECT_EQ(quality, "interval") << command << ": " << response;
    EXPECT_GT(half_width, 0.0) << command;
  }
  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

/// The process's virtual size in kB (VmSize in /proc/self/status), or -1
/// where that file is unavailable.
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::atol(line.c_str() + 7);
  }
  return -1;
}

// A closed connection's thread is joined while the daemon keeps running.
// An unjoined thread keeps its whole stack mapping (8 MB by default), so
// a daemon that kept one per closed connection would grow by about that
// much per connection until Stop.
TEST(DaemonTest, ClosedConnectionsDoNotPinThreads) {
  EngineOptions options;
  options.threads = 1;
  Engine engine(options);
  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  auto cycle = [&daemon] {
    LineClient client(daemon.port());
    ASSERT_TRUE(client.ok());
    EXPECT_EQ(client.RoundTrip("PING"), "PONG");
    EXPECT_EQ(client.RoundTrip("QUIT"), "BYE");
    EXPECT_TRUE(client.AtEof());
  };
  for (int i = 0; i < 8; ++i) cycle();  // warm the allocator
  const long before = VmSizeKb();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status here";
  constexpr long kCycles = 256;
  for (long i = 0; i < kCycles; ++i) cycle();
  const long grown_kb = VmSizeKb() - before;
  EXPECT_LT(grown_kb, kCycles * 1024) << "VmSize grew by " << grown_kb
                                      << " kB over " << kCycles
                                      << " closed connections";
  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

/// Scratch durability root, removed (instance files and all) on exit.
class ServerScratchDir {
 public:
  ServerScratchDir() {
    char tmpl[] = "/tmp/ipdb_server_dur_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~ServerScratchDir() {
    if (path_.empty()) return;
    for (const char* name : {"db"}) {
      const std::string dir = path_ + "/" + name;
      std::remove((dir + "/snapshot.ipdb").c_str());
      std::remove((dir + "/snapshot.ipdb.tmp").c_str());
      std::remove((dir + "/wal.log").c_str());
      ::rmdir(dir.c_str());
    }
    ::rmdir(path_.c_str());
  }
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Tentpole: SAVE persists a registered instance under durability_dir and
// a fresh engine over the same root restores it at boot with the exact
// same served answer.
TEST(EngineTest, DurabilityDirSavesAndRestoresOnBoot) {
  ServerScratchDir scratch;
  ASSERT_TRUE(scratch.ok());
  pdb::TiPdbD ti = SmallInstance();
  const pqe::QueryAnswer truth = SingleShot(ti, kSafeQuery);

  EngineOptions options;
  options.threads = 1;
  options.durability_dir = scratch.path();
  {
    Engine engine(options);
    EXPECT_EQ(engine.boot_restored(), 0);  // an empty root restores nothing
    ASSERT_TRUE(engine.boot_restore_status().ok());
    ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
    ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
    ASSERT_TRUE(engine.SaveInstance("db").ok());
    StatusOr<QueryResult> before = engine.Query("acme", "db", kSafeQuery);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.value().answer.probability, truth.probability);
    EXPECT_TRUE(engine.Stop().ok());
  }
  {
    Engine engine(options);
    EXPECT_EQ(engine.boot_restored(), 1);
    ASSERT_TRUE(engine.boot_restore_status().ok());
    ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());
    StatusOr<QueryResult> after = engine.Query("acme", "db", kSafeQuery);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().answer.probability, truth.probability);
    EXPECT_TRUE(engine.Stop().ok());
  }
  // Durability off: the commands refuse instead of inventing a path.
  Engine off(WithThreads(1));
  ASSERT_TRUE(off.RegisterInstance("db", ti).ok());
  EXPECT_EQ(off.SaveInstance("db").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(off.LoadInstance("other").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(off.Stop().ok());
}

// SAVE/LOAD over the line protocol: one daemon saves, a second engine's
// daemon loads the instance from disk and serves it with exact parity.
TEST(DaemonTest, SaveAndLoadCommandsRoundTripAcrossEngines) {
  ServerScratchDir scratch;
  ASSERT_TRUE(scratch.ok());
  pdb::TiPdbD ti = SmallInstance();
  const pqe::QueryAnswer truth = SingleShot(ti, kSafeQuery);

  EngineOptions options;
  options.threads = 1;
  options.durability_dir = scratch.path();
  Engine writer(options);
  ASSERT_TRUE(writer.RegisterInstance("db", ti).ok());
  // Constructed while the root is still empty, so nothing boot-restores
  // and LOAD below genuinely reads the files the SAVE wrote.
  Engine reader(options);
  ASSERT_TRUE(reader.RegisterTenant("acme", TenantConfig{}).ok());
  EXPECT_EQ(reader.boot_restored(), 0);

  Daemon write_daemon(&writer);
  Daemon read_daemon(&reader);
  const Status started = write_daemon.Start();
  if (!started.ok() || !read_daemon.Start().ok()) {
    GTEST_SKIP() << "no loopback sockets here";
  }
  LineClient save_client(write_daemon.port());
  ASSERT_TRUE(save_client.ok());
  EXPECT_EQ(save_client.RoundTrip("SAVE db"), "OK");
  EXPECT_EQ(save_client.RoundTrip("SAVE ghost").substr(0, 3), "ERR");
  EXPECT_EQ(save_client.RoundTrip("SAVE").substr(0, 3), "ERR");

  LineClient load_client(read_daemon.port());
  ASSERT_TRUE(load_client.ok());
  EXPECT_EQ(load_client.RoundTrip("LOAD db"), "OK");
  EXPECT_EQ(load_client.RoundTrip("LOAD db").substr(0, 3),
            "ERR");  // already registered
  EXPECT_EQ(load_client.RoundTrip("LOAD ghost").substr(0, 3), "ERR");
  const std::string served =
      load_client.RoundTrip(std::string("QUERY acme db ") + kSafeQuery);
  std::istringstream parse(served);
  std::string tag;
  double probability = -1.0;
  parse >> tag >> probability;
  EXPECT_EQ(tag, "OK") << served;
  EXPECT_EQ(probability, truth.probability);

  write_daemon.Stop();
  read_daemon.Stop();
  EXPECT_TRUE(writer.Stop().ok());
  EXPECT_TRUE(reader.Stop().ok());
}

// Satellite: the METRICS reply must be machine-readable, not just
// grep-able — parse it with the shared test JSON reader and check the
// serving counters moved.
TEST(DaemonTest, MetricsCommandReturnsParseableJson) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());

  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  LineClient client(daemon.port());
  ASSERT_TRUE(client.ok());

#if !defined(IPDB_OBSERVABILITY_DISABLED)
  const int64_t before =
      obs::GlobalMetrics().Snapshot().CounterValue("serve.completed");
#endif
  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    const std::string response =
        client.RoundTrip(std::string("QUERY acme db ") + kSafeQuery);
    ASSERT_EQ(response.substr(0, 3), "OK ") << response;
  }

  JsonValue parsed;
  ASSERT_TRUE(JsonParser(client.RoundTrip("METRICS")).Parse(&parsed));
  EXPECT_EQ(parsed.Find("schema")->string, "ipdb-metrics-v1");
#if !defined(IPDB_OBSERVABILITY_DISABLED)
  const JsonValue* counters = parsed.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* completed = counters->Find("serve.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->number, static_cast<double>(before + kQueries));
  ASSERT_NE(parsed.Find("histograms"), nullptr);
  const JsonValue* latency =
      parsed.Find("histograms")->Find("serve.latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->Find("count")->number, static_cast<double>(kQueries));
#endif

  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

// The request-scoped observability round trip over the wire: QUERY
// returns a trace id, TRACE returns that request's connected span tree,
// STATS returns the per-tenant rollups with the SLO state.
TEST(DaemonTest, StatsAndTraceCommandsRoundTrip) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  // trace_sample defaults to 1.0: every request is retained for TRACE.
  ASSERT_TRUE(
      engine.RegisterTenant("acme", "slo_p99_ms=5000 slo_availability=0.99")
          .ok());

  Daemon daemon(&engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
  }
  LineClient client(daemon.port());
  ASSERT_TRUE(client.ok());

  const std::string response =
      client.RoundTrip(std::string("QUERY acme db ") + kSafeQuery);
  ASSERT_EQ(response.substr(0, 3), "OK ") << response;
  // The trace id is the final response field.
  std::istringstream parse(response);
  std::string tag, quality;
  double probability, half_width, confidence;
  int lifted, degraded;
  uint64_t trace_id = 0;
  parse >> tag >> probability >> half_width >> confidence >> quality >>
      lifted >> degraded >> trace_id;
  ASSERT_GT(trace_id, 0u) << response;

  // TRACE <id> answers the span tree: one root, serve.request, with the
  // pipeline stages below it.
  JsonValue tree;
  ASSERT_TRUE(
      JsonParser(client.RoundTrip("TRACE " + std::to_string(trace_id)))
          .Parse(&tree));
  EXPECT_EQ(tree.Find("schema")->string, "ipdb-trace-tree-v1");
  EXPECT_TRUE(tree.Find("finished")->boolean);
  const JsonValue* roots = tree.Find("roots");
  ASSERT_NE(roots, nullptr);
  ASSERT_EQ(roots->array.size(), 1u) << "orphan spans in the tree";
  const JsonValue& root = roots->array[0];
  EXPECT_EQ(root.Find("name")->string, "serve.request");
  std::vector<std::string> child_names;
  for (const JsonValue& child : root.Find("children")->array) {
    child_names.push_back(child.Find("name")->string);
  }
  EXPECT_NE(std::find(child_names.begin(), child_names.end(), "serve.queue"),
            child_names.end());
#if !defined(IPDB_OBSERVABILITY_DISABLED)
  // serve.execute comes from an IPDB_OBS_SPAN; only the synthesized
  // serve.request / serve.queue spans survive an obs-off build.
  EXPECT_NE(
      std::find(child_names.begin(), child_names.end(), "serve.execute"),
      child_names.end());
#endif

  // Unknown / malformed ids are line-framed errors.
  EXPECT_EQ(client.RoundTrip("TRACE 18446744073709551615").substr(0, 20),
            "ERR INVALID_ARGUMENT");
  EXPECT_EQ(client.RoundTrip("TRACE zebra").substr(0, 20),
            "ERR INVALID_ARGUMENT");
  EXPECT_EQ(client.RoundTrip("TRACE").substr(0, 20), "ERR INVALID_ARGUMENT");

  // STATS reports the tenant's rollups and SLO state.
  JsonValue stats;
  ASSERT_TRUE(JsonParser(client.RoundTrip("STATS")).Parse(&stats));
  EXPECT_EQ(stats.Find("schema")->string, "ipdb-stats-v1");
  const JsonValue* acme = stats.Find("tenants")->Find("acme");
  ASSERT_NE(acme, nullptr);
  EXPECT_GE(acme->Find("1m")->Find("served")->number, 1.0);
  const JsonValue* slo = acme->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->Find("state")->string, "ok");
  ASSERT_NE(slo->Find("latency"), nullptr);
  ASSERT_NE(slo->Find("availability"), nullptr);

  daemon.Stop();
  EXPECT_TRUE(engine.Stop().ok());
}

// ---------------------------------------------------------------------
// Request tracing + per-tenant telemetry through the Engine API

TEST(EngineTest, TraceJsonReturnsAConnectedSpanTree) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", TenantConfig{}).ok());

  // The handle exposes the trace id before the query finishes.
  StatusOr<std::shared_ptr<PendingQuery>> pending =
      engine.Submit("acme", "db", kUnsafeQuery);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  const uint64_t trace_id = pending.value()->trace_id();
  EXPECT_GT(trace_id, 0u);
  const StatusOr<QueryResult>& result = pending.value()->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().trace_id, trace_id);

  StatusOr<std::string> json = engine.TraceJson(trace_id);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  JsonValue tree;
  ASSERT_TRUE(JsonParser(json.value()).Parse(&tree));
  const JsonValue* roots = tree.Find("roots");
  ASSERT_EQ(roots->array.size(), 1u);
  EXPECT_EQ(roots->array[0].Find("name")->string, "serve.request");
#if !defined(IPDB_OBSERVABILITY_DISABLED)
  // The unsafe query goes through the full pipeline: execute nests the
  // pqe spans under the root's serve.execute child. (These spans are
  // IPDB_OBS_SPAN macros, so they only exist when instrumentation is
  // compiled in.)
  bool found_execute = false;
  for (const JsonValue& child : roots->array[0].Find("children")->array) {
    if (child.Find("name")->string == "serve.execute") {
      found_execute = true;
      EXPECT_FALSE(child.Find("children")->array.empty())
          << "pqe spans should nest under serve.execute";
    }
  }
  EXPECT_TRUE(found_execute);
#endif

  // Unknown ids are kInvalidArgument, not empty strings.
  StatusOr<std::string> unknown = engine.TraceJson(trace_id + 1234567);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(engine.Stop().ok());
}

TEST(EngineTest, TraceSampleZeroKeepsRequestsOutOfTheStore) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("quiet", "trace_sample=0").ok());
  StatusOr<QueryResult> result = engine.Query("quiet", "db", kSafeQuery);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().trace_id, 0u);  // ids are always assigned
  EXPECT_FALSE(engine.TraceJson(result.value().trace_id).ok());
  EXPECT_TRUE(engine.Stop().ok());
}

TEST(EngineTest, LabeledLatencyHistogramsSumToTheUnlabeledAggregate) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("alpha", TenantConfig{}).ok());
  ASSERT_TRUE(engine.RegisterTenant("beta", TenantConfig{}).ok());

#if !defined(IPDB_OBSERVABILITY_DISABLED)
  auto labeled_counts = [] {
    std::map<std::string, int64_t> counts;
    for (const auto& cell :
         obs::GlobalMetrics().Snapshot().histogram_families) {
      if (cell.name == "serve.latency_ns" && cell.label_key == "tenant") {
        counts[cell.label_value] = cell.stats.count;
      }
    }
    return counts;
  };
  auto unlabeled_count = [] {
    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Snapshot();
    const obs::HistogramStats* stats =
        snapshot.FindHistogram("serve.latency_ns");
    return stats == nullptr ? int64_t{0} : stats->count;
  };

  const std::map<std::string, int64_t> before = labeled_counts();
  const int64_t aggregate_before = unlabeled_count();
  constexpr int kAlpha = 4;
  constexpr int kBeta = 2;
  for (int i = 0; i < kAlpha; ++i) {
    ASSERT_TRUE(engine.Query("alpha", "db", kSafeQuery).ok());
  }
  for (int i = 0; i < kBeta; ++i) {
    ASSERT_TRUE(engine.Query("beta", "db", kSafeQuery).ok());
  }

  std::map<std::string, int64_t> after = labeled_counts();
  auto delta = [&](const std::string& tenant) {
    int64_t was = 0;
    auto it = before.find(tenant);
    if (it != before.end()) was = it->second;
    return after[tenant] - was;
  };
  EXPECT_EQ(delta("alpha"), kAlpha);
  EXPECT_EQ(delta("beta"), kBeta);
  // Zero drift: the sum of labeled deltas equals the aggregate delta.
  EXPECT_EQ(unlabeled_count() - aggregate_before, kAlpha + kBeta);
#else
  // Labeled metrics are compiled out; the queries themselves still work.
  ASSERT_TRUE(engine.Query("alpha", "db", kSafeQuery).ok());
  ASSERT_TRUE(engine.Query("beta", "db", kSafeQuery).ok());
#endif

  EXPECT_TRUE(engine.Stop().ok());
}

TEST(EngineTest, StatsJsonTracksPerTenantServesAndSheds) {
  pdb::TiPdbD ti = SmallInstance();
  Engine engine(WithThreads(2));
  ASSERT_TRUE(engine.RegisterInstance("db", ti).ok());
  ASSERT_TRUE(engine.RegisterTenant("acme", "slo_availability=0.5").ok());
  ASSERT_TRUE(engine.Query("acme", "db", kSafeQuery).ok());
  // A parse error is a served-with-error completion in the series.
  EXPECT_FALSE(engine.Query("acme", "db", "this is not a formula").ok());

  JsonValue stats;
  ASSERT_TRUE(JsonParser(engine.StatsJson()).Parse(&stats));
  const JsonValue* acme = stats.Find("tenants")->Find("acme");
  ASSERT_NE(acme, nullptr);
  const JsonValue* fast = acme->Find("1m");
  EXPECT_EQ(fast->Find("served")->number, 2.0);
  EXPECT_EQ(fast->Find("errors")->number, 1.0);
  ASSERT_NE(acme->Find("slo"), nullptr);
  // One error in two requests = 50% bad, exactly at the 0.5 allowance:
  // burn 1.0 is not > burn_alert 1.0, so the state stays ok.
  EXPECT_EQ(acme->Find("slo")->Find("state")->string, "ok");
  EXPECT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace ipdb
