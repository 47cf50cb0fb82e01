#include "util/budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "math/bigint.h"
#include "math/rational.h"
#include "obs/obs.h"
#include "pqe/lineage.h"
#include "pqe/monte_carlo.h"
#include "pqe/prepared.h"
#include "pqe/wmc.h"
#include "util/random.h"

namespace ipdb {
namespace {

using std::chrono::milliseconds;

/// A budget whose deadline is already in the past.
ExecutionBudget ExpiredBudget() {
  ExecutionBudget budget;
  budget.deadline = ExecutionBudget::Clock::now() - milliseconds(10);
  return budget;
}

/// A variable-connected lineage that forces Shannon expansion: the path
/// disjunction (x0 ∧ x1) ∨ (x1 ∧ x2) ∨ ... over `n` variables.
pqe::NodeId PathLineage(pqe::Lineage* lineage, int n) {
  std::vector<pqe::NodeId> terms;
  for (int i = 0; i + 1 < n; ++i) {
    terms.push_back(
        lineage->MakeAnd({lineage->Var(i), lineage->Var(i + 1)}));
  }
  return lineage->MakeOr(std::move(terms));
}

pdb::TiPdb<double> PathTi() {
  rel::Schema schema({{"R", 2}, {"S", 1}});
  auto r = [](int64_t a, int64_t b) {
    return rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)});
  };
  return pdb::TiPdb<double>::CreateOrDie(
      schema, {{r(1, 2), 0.5},
               {r(2, 3), 0.25},
               {r(1, 3), 0.75},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.4}});
}

TEST(CancelTokenTest, CancelAndReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ExecutionBudgetTest, DefaultIsUnlimited) {
  ExecutionBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.has_deadline());
  EXPECT_TRUE(budget.CheckTime("test").ok());
}

TEST(ExecutionBudgetTest, ExpiredDeadlineTrips) {
  ExecutionBudget budget = ExpiredBudget();
  EXPECT_FALSE(budget.unlimited());
  Status status = budget.CheckTime("compile");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("compile"), std::string::npos);
}

TEST(ExecutionBudgetTest, FutureDeadlinePasses) {
  ExecutionBudget budget =
      ExecutionBudget::WithTimeout(std::chrono::hours(1));
  EXPECT_TRUE(budget.has_deadline());
  EXPECT_TRUE(budget.CheckTime("test").ok());
}

TEST(ExecutionBudgetTest, CancelTokenTrips) {
  CancelToken token;
  ExecutionBudget budget;
  budget.cancel = &token;
  EXPECT_TRUE(budget.CheckTime("solve").ok());
  token.Cancel();
  Status status = budget.CheckTime("solve");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("solve"), std::string::npos);
}

TEST(IsBudgetErrorTest, ExactlyTheThreeBudgetCodes) {
  EXPECT_TRUE(IsBudgetError(ResourceExhaustedError("x")));
  EXPECT_TRUE(IsBudgetError(DeadlineExceededError("x")));
  EXPECT_TRUE(IsBudgetError(CancelledError("x")));
  EXPECT_FALSE(IsBudgetError(Status::Ok()));
  EXPECT_FALSE(IsBudgetError(InvalidArgumentError("x")));
  EXPECT_FALSE(IsBudgetError(InternalError("x")));
}

TEST(BudgetMeterTest, NullBudgetChargesFreely) {
  BudgetMeter meter(nullptr, 5, "test");
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(meter.Charge().ok());
  EXPECT_TRUE(meter.error().ok());
}

TEST(BudgetMeterTest, UnitCapTripsAndSticks) {
  ExecutionBudget budget;
  budget.max_circuit_nodes = 3;
  BudgetMeter meter(&budget, budget.max_circuit_nodes, "test unit");
  EXPECT_TRUE(meter.Charge().ok());
  EXPECT_TRUE(meter.Charge().ok());
  EXPECT_TRUE(meter.Charge().ok());
  Status status = meter.Charge();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("test unit"), std::string::npos);
  // Sticky: unwinding callers may keep charging and keep seeing it.
  EXPECT_EQ(meter.Charge().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(meter.error().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetMeterTest, DeadlineCaughtWithinOneStride) {
  ExecutionBudget budget = ExpiredBudget();
  BudgetMeter meter(&budget, 0, "test", /*poll_stride=*/8);
  // The deadline is only polled every poll_stride units, so the error
  // must surface within one stride of charges.
  Status status;
  for (int i = 0; i < 9 && status.ok(); ++i) status = meter.Charge();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetMeterTest, CheckNowBypassesAmortization) {
  ExecutionBudget budget = ExpiredBudget();
  BudgetMeter meter(&budget, 0, "test");
  EXPECT_EQ(meter.CheckNow().code(), StatusCode::kDeadlineExceeded);
}

math::BigInt PowerOfTwo(int bits) {
  math::BigInt two(2);
  math::BigInt result(1);
  for (int i = 0; i < bits; ++i) result = result * two;
  return result;
}

TEST(ScopedLimbCapTest, SuppressesOverCapProducts) {
  math::BigInt big = PowerOfTwo(512);  // 16 limbs
  {
    math::ScopedLimbCap cap(8);
    EXPECT_FALSE(cap.exceeded());
    math::BigInt product = big * big;
    EXPECT_TRUE(cap.exceeded());
    // The placeholder magnitude is 1, never 0, so a suppressed
    // denominator cannot become a zero divisor while unwinding.
    EXPECT_EQ(product, math::BigInt(1));
    Status status = cap.ToStatus("test op");
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("test op"), std::string::npos);
  }
  // Outside the scope the same product is exact again.
  EXPECT_EQ(big * big, PowerOfTwo(1024));
}

TEST(ScopedLimbCapTest, UnderCapProductsAreExact) {
  math::ScopedLimbCap cap(64);
  math::BigInt big = PowerOfTwo(512);
  EXPECT_EQ(big * big, PowerOfTwo(1024));
  EXPECT_FALSE(cap.exceeded());
  EXPECT_TRUE(cap.ToStatus("test").ok());
}

TEST(ScopedLimbCapTest, NestedScopesRestoreOuterState) {
  math::BigInt big = PowerOfTwo(512);
  math::ScopedLimbCap outer(8);
  math::BigInt ignored = big * big;
  EXPECT_TRUE(outer.exceeded());
  {
    // An inner scope starts clean and does not disturb the outer flag.
    math::ScopedLimbCap inner(1024);
    EXPECT_FALSE(inner.exceeded());
    math::BigInt fine = big * big;
    EXPECT_EQ(fine, PowerOfTwo(1024));
    EXPECT_FALSE(inner.exceeded());
  }
  EXPECT_TRUE(outer.exceeded());
}

TEST(CompileBudgetTest, NodeCapAborts) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 12);
  ExecutionBudget budget;
  budget.max_circuit_nodes = 1;
  kc::CompileOptions options;
  options.budget = &budget;
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(&lineage, root, options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompileBudgetTest, DepthCapAborts) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 12);
  ExecutionBudget budget;
  budget.max_recursion_depth = 1;
  kc::CompileOptions options;
  options.budget = &budget;
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(&lineage, root, options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompileBudgetTest, ExpiredDeadlineAborts) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 12);
  ExecutionBudget budget = ExpiredBudget();
  kc::CompileOptions options;
  options.budget = &budget;
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(&lineage, root, options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CompileBudgetTest, CancelledTokenAborts) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 12);
  CancelToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.cancel = &token;
  kc::CompileOptions options;
  options.budget = &budget;
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(&lineage, root, options);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kCancelled);
}

TEST(CompileBudgetTest, GenerousBudgetMatchesUngoverned) {
  pqe::Lineage a;
  pqe::NodeId root_a = PathLineage(&a, 10);
  StatusOr<kc::CompiledQuery> plain = kc::CompileLineage(&a, root_a);
  ASSERT_TRUE(plain.ok());

  pqe::Lineage b;
  pqe::NodeId root_b = PathLineage(&b, 10);
  ExecutionBudget budget = ExecutionBudget::WithTimeout(std::chrono::hours(1));
  budget.max_circuit_nodes = 1 << 20;
  budget.max_recursion_depth = 1 << 20;
  kc::CompileOptions options;
  options.budget = &budget;
  StatusOr<kc::CompiledQuery> governed =
      kc::CompileLineage(&b, root_b, options);
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(plain.value().circuit.size(), governed.value().circuit.size());

  std::vector<double> probs(10, 0.5);
  StatusOr<double> p_plain = kc::EvaluateCircuit<double>(
      plain.value().circuit, plain.value().root, probs);
  StatusOr<double> p_governed = kc::EvaluateCircuit<double>(
      governed.value().circuit, governed.value().root, probs);
  ASSERT_TRUE(p_plain.ok());
  ASSERT_TRUE(p_governed.ok());
  EXPECT_DOUBLE_EQ(p_plain.value(), p_governed.value());
}

TEST(EvaluateExactBudgetTest, LimbCapAbortsAndGenerousCapMatches) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 8);
  StatusOr<kc::CompiledQuery> compiled = kc::CompileLineage(&lineage, root);
  ASSERT_TRUE(compiled.ok());
  // A large prime denominator defeats reduction and the inline-int64
  // fast path (which is deliberately unguarded): common denominators
  // overflow into limb form within a few gates, where the cap bites.
  std::vector<math::Rational> probs(8,
                                    math::Rational::Ratio(1, 2147483647));

  StatusOr<math::Rational> exact = kc::EvaluateCircuitExact(
      compiled.value().circuit, compiled.value().root, probs);
  ASSERT_TRUE(exact.ok());

  ExecutionBudget tiny;
  tiny.max_bigint_limbs = 1;
  StatusOr<math::Rational> capped = kc::EvaluateCircuitExact(
      compiled.value().circuit, compiled.value().root, probs, &tiny);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);

  ExecutionBudget roomy;
  roomy.max_bigint_limbs = 1 << 20;
  StatusOr<math::Rational> governed = kc::EvaluateCircuitExact(
      compiled.value().circuit, compiled.value().root, probs, &roomy);
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(governed.value(), exact.value());
}

TEST(WmcBudgetTest, ComputeProbabilityDepthCapAborts) {
  pqe::Lineage lineage;
  pqe::NodeId root = PathLineage(&lineage, 12);
  std::vector<double> probs(12, 0.5);
  ExecutionBudget budget;
  budget.max_recursion_depth = 1;
  StatusOr<double> result =
      pqe::ComputeProbability(&lineage, root, probs, nullptr, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(WmcBudgetTest, ComputeProbabilityGenerousBudgetMatches) {
  pqe::Lineage a;
  pqe::NodeId root_a = PathLineage(&a, 10);
  std::vector<double> probs(10, 0.3);
  StatusOr<double> plain = pqe::ComputeProbability(&a, root_a, probs);
  ASSERT_TRUE(plain.ok());

  pqe::Lineage b;
  pqe::NodeId root_b = PathLineage(&b, 10);
  ExecutionBudget budget;
  budget.max_circuit_nodes = 1 << 20;
  budget.max_recursion_depth = 1 << 20;
  StatusOr<double> governed =
      pqe::ComputeProbability(&b, root_b, probs, nullptr, &budget);
  ASSERT_TRUE(governed.ok());
  EXPECT_DOUBLE_EQ(plain.value(), governed.value());
}

TEST(MonteCarloBudgetTest, SampleCapTruncatesSequentialEstimate) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  ExecutionBudget budget;
  budget.max_samples = 100;
  Pcg32 rng(7);
  StatusOr<pqe::MonteCarloEstimate> estimate =
      pqe::EstimateQueryProbability(ti, sentence, 1000, &rng, 0.95,
                                    &budget);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate.value().samples, 100);
  EXPECT_TRUE(estimate.value().truncated);
  // The certified interval covers the samples actually drawn.
  Pcg32 rng2(7);
  StatusOr<pqe::MonteCarloEstimate> direct =
      pqe::EstimateQueryProbability(ti, sentence, 100, &rng2, 0.95);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(estimate.value().half_width, direct.value().half_width);
  EXPECT_DOUBLE_EQ(estimate.value().estimate, direct.value().estimate);
  EXPECT_FALSE(direct.value().truncated);
}

TEST(MonteCarloBudgetTest, ExpiredDeadlineDrawsNothing) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  ExecutionBudget budget = ExpiredBudget();
  Pcg32 rng(7);
  StatusOr<pqe::MonteCarloEstimate> estimate =
      pqe::EstimateQueryProbability(ti, sentence, 1000, &rng, 0.95,
                                    &budget);
  ASSERT_FALSE(estimate.ok());
  EXPECT_TRUE(IsBudgetError(estimate.status()));
}

TEST(MonteCarloBudgetTest, ParallelTruncationIsDeterministic) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  ExecutionBudget budget;
  budget.max_samples = 128;
  pdb::SamplingOptions options;
  options.threads = 2;
  options.shards = 4;
  options.budget = &budget;
  Pcg32 base(99);
  StatusOr<pqe::MonteCarloEstimate> first = pqe::EstimateQueryProbability(
      ti, sentence, 1 << 20, base, options, 0.95);
  StatusOr<pqe::MonteCarloEstimate> second = pqe::EstimateQueryProbability(
      ti, sentence, 1 << 20, base, options, 0.95);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().samples, 128);
  EXPECT_TRUE(first.value().truncated);
  EXPECT_DOUBLE_EQ(first.value().estimate, second.value().estimate);
  EXPECT_DOUBLE_EQ(first.value().half_width, second.value().half_width);
}

TEST(QueryDegradationTest, UnlimitedBudgetStaysExact) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  StatusOr<double> plain = pqe::QueryProbability(ti, sentence);
  ASSERT_TRUE(plain.ok());
  pqe::QueryOptions options;  // null budget
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().quality, pqe::AnswerQuality::kExact);
  EXPECT_DOUBLE_EQ(answer.value().probability, plain.value());
  EXPECT_DOUBLE_EQ(answer.value().half_width, 0.0);
  EXPECT_DOUBLE_EQ(answer.value().confidence, 1.0);
  EXPECT_TRUE(answer.value().exact_error.ok());
}

// The end-to-end acceptance scenario: a node cap the compiler must
// exceed degrades the query to a certified Monte Carlo interval that
// contains the true probability — no abort, answer now.
TEST(QueryDegradationTest, NodeCapFallsBackToCertifiedInterval) {
  pdb::TiPdb<double> ti = PathTi();
  // A self-join: the lifted rung turns it away, so the circuit rung runs
  // and the node cap can bite.
  logic::Formula sentence =
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", ti.schema())
          .value();
  StatusOr<double> truth = pqe::QueryProbabilityBruteForce(ti, sentence);
  ASSERT_TRUE(truth.ok());
  // A cached artifact would satisfy the query without compiling (hits
  // are budget-free by design); clear it so the node cap must bite.
  kc::GlobalCompiledQueryCache().Clear();

#if !defined(IPDB_OBSERVABILITY_DISABLED)
  const int64_t fallback_queries_before =
      obs::GlobalMetrics().GetCounter("pqe.fallback.queries").Value();
  const int64_t interval_answers_before =
      obs::GlobalMetrics().GetCounter("pqe.fallback.interval_answers")
          .Value();
#endif

  ExecutionBudget budget;
  budget.max_circuit_nodes = 1;
  pqe::QueryOptions options;
  options.budget = &budget;
  options.fallback_samples = 20000;
  options.fallback_confidence = 0.999;
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  ASSERT_TRUE(answer.ok());
  const pqe::QueryAnswer& a = answer.value();
  EXPECT_EQ(a.quality, pqe::AnswerQuality::kInterval);
  EXPECT_GT(a.samples, 0);
  EXPECT_GT(a.half_width, 0.0);
  EXPECT_DOUBLE_EQ(a.confidence, 0.999);
  EXPECT_EQ(a.exact_error.code(), StatusCode::kResourceExhausted);
  // The certified interval contains the brute-force truth.
  EXPECT_LE(truth.value(), a.probability + a.half_width);
  EXPECT_GE(truth.value(), a.probability - a.half_width);

#if !defined(IPDB_OBSERVABILITY_DISABLED)
  EXPECT_EQ(
      obs::GlobalMetrics().GetCounter("pqe.fallback.queries").Value(),
      fallback_queries_before + 1);
  EXPECT_EQ(obs::GlobalMetrics()
                .GetCounter("pqe.fallback.interval_answers")
                .Value(),
            interval_answers_before + 1);
#endif
}

TEST(QueryDegradationTest, FallbackDisabledPropagatesBudgetError) {
  pdb::TiPdb<double> ti = PathTi();
  // A self-join, so the circuit rung runs (see above).
  logic::Formula sentence =
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", ti.schema())
          .value();
  kc::GlobalCompiledQueryCache().Clear();
  ExecutionBudget budget;
  budget.max_circuit_nodes = 1;
  pqe::QueryOptions options;
  options.budget = &budget;
  options.fallback = false;
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
}

TEST(QueryDegradationTest, ExhaustedLadderReportsFailedAnswer) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  // An expired deadline kills the exact rung at its first check and the
  // fallback before it draws a single sample: the ladder is exhausted
  // and the failure comes back as a value, not an abort.
  ExecutionBudget budget = ExpiredBudget();
  pqe::QueryOptions options;
  options.budget = &budget;
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().quality, pqe::AnswerQuality::kFailed);
  EXPECT_FALSE(answer.value().exact_error.ok());
  EXPECT_EQ(answer.value().samples, 0);
}

TEST(QueryDegradationTest, CancellationDegradesMidLadder) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x, y) & S(y)", ti.schema())
          .value();
  CancelToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.cancel = &token;
  pqe::QueryOptions options;
  options.budget = &budget;
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().quality, pqe::AnswerQuality::kFailed);
  EXPECT_EQ(answer.value().exact_error.code(), StatusCode::kCancelled);
}

/// 300 facts R(0..299) and a sentence no guard covers (every variable
/// sits under a negation): its grounding tries (300 + 3)^3 assignments.
pdb::TiPdb<double> WideUnaryTi() {
  pdb::TiPdb<double>::FactList facts;
  for (int64_t i = 0; i < 300; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}), 0.5);
  }
  return pdb::TiPdb<double>::CreateOrDie(rel::Schema({{"R", 1}}),
                                         std::move(facts));
}
constexpr const char* kUnguardedSentence =
    "exists x y z. !R(x) & !R(y) & !R(z) & x != y";

TEST(GroundBudgetTest, CancelAndDeadlineStopUnguardedGrounding) {
  pdb::TiPdb<double> ti = WideUnaryTi();
  logic::Formula sentence =
      logic::ParseSentence(kUnguardedSentence, ti.schema()).value();
  CancelToken token;
  token.Cancel();
  ExecutionBudget cancelled;
  cancelled.cancel = &token;
  ExecutionBudget expired = ExpiredBudget();
  const std::pair<const ExecutionBudget*, StatusCode> cases[] = {
      {&cancelled, StatusCode::kCancelled},
      {&expired, StatusCode::kDeadlineExceeded}};
  for (const auto& [budget, code] : cases) {
    pqe::Lineage lineage;
    StatusOr<pqe::NodeId> root =
        pqe::GroundSentence(ti, sentence, &lineage, budget);
    ASSERT_FALSE(root.ok());
    EXPECT_EQ(root.status().code(), code);
    // The meter polls on its first charge and then once per stride of
    // 256 tried values, so the grounder stopped before building more.
    EXPECT_LE(lineage.size(), 256);

    pqe::PreparedOptions prepared_options;
    prepared_options.budget = budget;
    StatusOr<pqe::PreparedQuery> prepared = pqe::PreparedQuery::Prepare(
        ti.store(), sentence, prepared_options);
    ASSERT_FALSE(prepared.ok());
    EXPECT_EQ(prepared.status().code(), code);
  }
}

TEST(GroundBudgetTest, QueryDeadlineCoversGrounding) {
  pdb::TiPdb<double> ti = WideUnaryTi();
  logic::Formula sentence =
      logic::ParseSentence(kUnguardedSentence, ti.schema()).value();
  ExecutionBudget budget = ExpiredBudget();
  pqe::QueryOptions options;
  options.budget = &budget;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<pqe::QueryAnswer> answer =
      pqe::QueryProbability(ti, sentence, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().exact_error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(answer.value().quality, pqe::AnswerQuality::kFailed);
  // The deadline trips on the grounder's first tried value. A grounding
  // that ignored it would enumerate all 303^3 assignments first, tens of
  // seconds even optimized; the bound is loose enough for sanitizers.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace ipdb
