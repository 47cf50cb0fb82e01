#include "pqe/safe_plan.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "logic/guards.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pqe/wmc.h"
#include "test_util.h"
#include "util/budget.h"
#include "util/random.h"

namespace ipdb {
namespace pqe {
namespace {

rel::Schema Schema3() { return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}}); }

pdb::TiPdb<double> RandomTi(const rel::Schema& schema, int universe,
                            Pcg32* rng, int facts = 8) {
  pdb::TiPdb<math::Rational> exact =
      testing_util::RandomRationalTi(schema, facts, universe, 10, rng);
  pdb::TiPdb<double>::FactList list;
  for (const auto& [fact, marginal] : exact.facts()) {
    list.emplace_back(fact, marginal.ToDouble());
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(list));
}

TEST(SafePlanTest, ParseAndClassify) {
  // The plan compiler's status is the classification: a hierarchical
  // self-join-free CQ compiles, anything else is kFailedPrecondition.
  rel::Schema schema = Schema3();
  const auto compile = [](const rel::Schema& s, const char* text) {
    return LiftedPlan::Compile(logic::ParseSentence(text, s).value());
  };
  EXPECT_TRUE(compile(schema, "exists x y. R(x) & S(x, y)").ok());

  // The canonical non-hierarchical (#P-hard) query H0:
  // ∃x∃y R(x) ∧ S(x,y) ∧ T(y).
  EXPECT_EQ(compile(schema, "exists x y. R(x) & S(x, y) & T(y)")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // Self-joins rejected.
  rel::Schema schema2({{"E", 2}});
  EXPECT_EQ(
      compile(schema2, "exists x y z. E(x, y) & E(y, z)").status().code(),
      StatusCode::kFailedPrecondition);

  // Non-CQ shapes rejected.
  EXPECT_EQ(compile(schema, "!(exists x. R(x))").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SafePlanTest, GroundQuery) {
  rel::Schema schema = Schema3();
  pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      schema, {{rel::Fact(0, {rel::Value::Int(1)}), 0.4},
               {rel::Fact(2, {rel::Value::Int(2)}), 0.5}});
  auto p = SafeQueryProbability(
      ti, logic::ParseSentence("R(1) & T(2)", schema).value());
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value(), 0.2);
  // Missing fact: probability 0.
  p = SafeQueryProbability(
      ti, logic::ParseSentence("R(9)", schema).value());
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value(), 0.0);
}

TEST(SafePlanTest, IndependentProjectHandComputed) {
  // Pr(∃x R(x)) = 1 − Π (1 − p_a).
  rel::Schema schema = Schema3();
  pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      schema, {{rel::Fact(0, {rel::Value::Int(1)}), 0.5},
               {rel::Fact(0, {rel::Value::Int(2)}), 0.25}});
  SafePlanStats stats;
  auto p = SafeQueryProbability(
      ti, logic::ParseSentence("exists x. R(x)", schema).value(), &stats);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value(), 1.0 - 0.5 * 0.75);
  EXPECT_EQ(stats.independent_projects, 1);
}

TEST(SafePlanTest, NonHierarchicalRejected) {
  rel::Schema schema = Schema3();
  Pcg32 rng(331);
  pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng);
  auto p = SafeQueryProbability(
      ti,
      logic::ParseSentence("exists x y. R(x) & S(x, y) & T(y)", schema)
          .value());
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kFailedPrecondition);
}

struct SafeCase {
  std::string name;
  std::string sentence;
};

class SafePlanAgreement : public ::testing::TestWithParam<SafeCase> {};

TEST_P(SafePlanAgreement, MatchesWmcOnRandomTis) {
  rel::Schema schema = Schema3();
  logic::Formula sentence =
      logic::ParseSentence(GetParam().sentence, schema).value();
  Pcg32 rng(347);
  // The circuit rung, called directly: the default ladder would answer
  // safe queries via the very plan under test.
  const logic::GuardedFormula formula(sentence);
  for (int trial = 0; trial < 8; ++trial) {
    pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng, 9);
    auto safe = SafeQueryProbability(ti, sentence);
    ASSERT_TRUE(safe.ok()) << safe.status().ToString();
    auto wmc = GroundCompileEvaluate(*ti.store(), formula, nullptr);
    ASSERT_TRUE(wmc.ok());
    EXPECT_NEAR(safe.value(), wmc.value().probability, 1e-10)
        << GetParam().sentence << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, SafePlanAgreement,
    ::testing::Values(
        SafeCase{"ExistsR", "exists x. R(x)"},
        SafeCase{"ExistsS", "exists x y. S(x, y)"},
        SafeCase{"RJoinS", "exists x y. R(x) & S(x, y)"},
        SafeCase{"SAndT", "(exists x y. S(x, y)) & (exists z. T(z))"},
        SafeCase{"Rooted", "exists x. R(x) & T(x) & (exists y. S(x, y))"},
        SafeCase{"GroundMixed", "exists x. S(1, x)"},
        SafeCase{"RepeatedVarAtom", "exists x. S(x, x)"},
        SafeCase{"Shadowed", "(exists x. R(x)) & (exists x y. S(x, y))"},
        SafeCase{"NestedShadow", "exists x. R(x) & (exists x. T(x))"},
        SafeCase{"Vacuous", "exists x y. R(x)"}),
    [](const ::testing::TestParamInfo<SafeCase>& info) {
      return info.param.name;
    });

TEST(SafePlanTest, ShadowedQuantifiersAreIndependent) {
  // Regression: ∃x R(x) ∧ ∃x T(x) used to alias the two quantifier
  // scopes by name, wrongly merging independent components and
  // computing P(∃x (R(x) ∧ T(x))). Hand-computed witness:
  //   P(∃x R(x)) = 1 − (1 − 0.5)(1 − 0.25) = 0.625
  //   P(∃x T(x)) = 0.5
  //   independent join: 0.625 · 0.5 = 0.3125
  // whereas the aliased query gives 1 − (1 − 0.5·0.5) = 0.25.
  rel::Schema schema = Schema3();
  pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      schema, {{rel::Fact(0, {rel::Value::Int(1)}), 0.5},
               {rel::Fact(0, {rel::Value::Int(2)}), 0.25},
               {rel::Fact(2, {rel::Value::Int(1)}), 0.5}});
  logic::Formula sentence =
      logic::ParseSentence("(exists x. R(x)) & (exists x. T(x))", schema)
          .value();
  auto plan = LiftedPlan::Compile(sentence);
  ASSERT_TRUE(plan.ok());
  // The compiled formula's slots keep the two quantifiers distinct: two
  // projects over different variables under one join.
  std::vector<int> projected;
  for (const PlanNode& node : plan.value().nodes()) {
    if (node.op == PlanOp::kIndependentProject) {
      projected.push_back(node.project_var);
    }
  }
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_NE(projected[0], projected[1]);
  EXPECT_EQ(plan.value().ToString(schema),
            "join(project[x](lookup(R(x))), project[x](lookup(T(x))))");

  SafePlanStats stats;
  auto p = SafeQueryProbability(ti, sentence, &stats);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_DOUBLE_EQ(p.value(), 0.3125);
  EXPECT_GE(stats.independent_joins, 1);

  auto brute = QueryProbabilityBruteForce(ti, sentence);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(p.value(), brute.value(), 1e-12);

  // Nested shadowing: ∃x (R(x) ∧ ∃x T(x)) means the same query.
  auto nested = SafeQueryProbability(
      ti,
      logic::ParseSentence("exists x. R(x) & (exists x. T(x))", schema)
          .value());
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_DOUBLE_EQ(nested.value(), 0.3125);
}

TEST(SafePlanTest, StableComplementAccumulation) {
  // Π(1 − 2⁻⁴⁰) over 512 facts: the naive running complement product
  // loses ~4 digits to cancellation (each 1 − p rounds near 1); the
  // log1p/expm1 accumulation keeps full double precision. Property-test
  // the double semiring against the exact rational one.
  rel::Schema schema = Schema3();
  const int64_t denom = int64_t{1} << 40;
  pdb::TiPdb<math::Rational>::FactList exact_facts;
  pdb::TiPdb<double>::FactList double_facts;
  for (int i = 0; i < 512; ++i) {
    rel::Fact fact(0, {rel::Value::Int(i)});
    exact_facts.emplace_back(fact, math::Rational::Ratio(1, denom));
    double_facts.emplace_back(fact, std::ldexp(1.0, -40));
  }
  pdb::TiPdb<math::Rational> exact_ti =
      pdb::TiPdb<math::Rational>::CreateOrDie(schema,
                                              std::move(exact_facts));
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(double_facts));
  logic::Formula sentence =
      logic::ParseSentence("exists x. R(x)", schema).value();

  auto plan = LiftedPlan::Compile(sentence);
  ASSERT_TRUE(plan.ok());
  auto exact = plan.value().Evaluate(exact_ti);
  ASSERT_TRUE(exact.ok());
  auto approx = plan.value().Evaluate(ti);
  ASSERT_TRUE(approx.ok());
  const double truth = exact.value().ToDouble();
  ASSERT_GT(truth, 0.0);
  // ~4.66e-10: far below the 1e-4 relative error of the naive product.
  EXPECT_LT(std::abs(approx.value() - truth) / truth, 1e-12);
}

TEST(SafePlanTest, PlanIrShapeAndToString) {
  rel::Schema schema = Schema3();
  auto plan = LiftedPlan::Compile(
      logic::ParseSentence("exists x. R(x) & (exists y. S(x, y))", schema)
          .value());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().depth(), 2);
  int joins = 0, projects = 0, lookups = 0;
  for (const PlanNode& node : plan.value().nodes()) {
    if (node.op == PlanOp::kIndependentJoin) ++joins;
    if (node.op == PlanOp::kIndependentProject) ++projects;
    if (node.op == PlanOp::kGroundLookup) ++lookups;
  }
  EXPECT_EQ(joins, 1);
  EXPECT_EQ(projects, 2);
  EXPECT_EQ(lookups, 2);
  EXPECT_EQ(plan.value().ToString(schema),
            "project[x](join(lookup(R(x)), project[y](lookup(S(x, y)))))");
}

TEST(SafePlanTest, IntervalSemiringMatchesDouble) {
  rel::Schema schema = Schema3();
  Pcg32 rng(359);
  pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng, 10);
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value();
  auto plan = LiftedPlan::Compile(sentence);
  ASSERT_TRUE(plan.ok());
  auto enclosure = plan.value().EvaluateInterval(ti);
  ASSERT_TRUE(enclosure.ok());
  auto point = plan.value().Evaluate(ti);
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(enclosure.value().midpoint(), point.value(), 1e-9);
  EXPECT_LT(enclosure.value().width(), 1e-9);
}

TEST(SafePlanTest, BudgetExhaustionUnwinds) {
  rel::Schema schema = Schema3();
  Pcg32 rng(367);
  pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng, 12);
  logic::Formula sentence =
      logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value();
  auto plan = LiftedPlan::Compile(sentence);
  ASSERT_TRUE(plan.ok());

  // Expired deadline.
  ExecutionBudget expired;
  expired.deadline =
      ExecutionBudget::Clock::now() - std::chrono::seconds(1);
  LiftedOptions options;
  options.budget = &expired;
  auto p = plan.value().Evaluate(ti, options);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kDeadlineExceeded);

  // Cancellation.
  CancelToken cancel;
  cancel.Cancel();
  ExecutionBudget cancelled;
  cancelled.cancel = &cancel;
  options.budget = &cancelled;
  p = plan.value().Evaluate(ti, options);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kCancelled);

  // The plan's static project-nesting depth against the recursion cap.
  ExecutionBudget shallow;
  shallow.max_recursion_depth = 1;
  options.budget = &shallow;
  p = plan.value().Evaluate(ti, options);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(SafePlanTest, LadderReportsLiftedAnswers) {
  rel::Schema schema = Schema3();
  Pcg32 rng(373);
  pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng, 9);
  logic::Formula safe =
      logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value();

  // Default ladder: the safe query is answered on the lifted rung.
  auto answer = QueryProbability(ti, safe, QueryOptions{});
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().lifted);
  EXPECT_EQ(answer.value().quality, AnswerQuality::kExact);
  auto brute = QueryProbabilityBruteForce(ti, safe);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(answer.value().probability, brute.value(), 1e-10);

  // The circuit rung, called directly, agrees.
  auto circuit =
      GroundCompileEvaluate(*ti.store(), logic::GuardedFormula(safe), nullptr);
  ASSERT_TRUE(circuit.ok());
  EXPECT_NEAR(circuit.value().probability, answer.value().probability,
              1e-10);

  // A non-hierarchical query falls through to the circuit rung.
  logic::Formula h0 =
      logic::ParseSentence("exists x y. R(x) & S(x, y) & T(y)", schema)
          .value();
  auto hard = QueryProbability(ti, h0, QueryOptions{});
  ASSERT_TRUE(hard.ok());
  EXPECT_FALSE(hard.value().lifted);
  EXPECT_EQ(hard.value().quality, AnswerQuality::kExact);

  // A budget trip inside the lifted rung skips the circuit rung and
  // degrades straight to the (equally doomed) fallback: kFailed.
  CancelToken cancel;
  cancel.Cancel();
  ExecutionBudget cancelled;
  cancelled.cancel = &cancel;
  QueryOptions governed;
  governed.budget = &cancelled;
  auto failed = QueryProbability(ti, safe, governed);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed.value().quality, AnswerQuality::kFailed);
  EXPECT_EQ(failed.value().exact_error.code(), StatusCode::kCancelled);
}

TEST(SafePlanTest, StatsReflectPlanShape) {
  rel::Schema schema = Schema3();
  Pcg32 rng(353);
  pdb::TiPdb<double> ti = RandomTi(schema, 3, &rng, 10);
  SafePlanStats stats;
  auto p = SafeQueryProbability(
      ti,
      logic::ParseSentence("(exists x y. S(x, y)) & (exists z. T(z))",
                           schema)
          .value(),
      &stats);
  ASSERT_TRUE(p.ok());
  EXPECT_GE(stats.independent_joins, 1);
  EXPECT_GE(stats.independent_projects, 2);
  EXPECT_GE(stats.ground_lookups, 1);
}

}  // namespace
}  // namespace pqe
}  // namespace ipdb
