// Assorted edge-case coverage across modules: multi-relation views and
// constructions, zero-arity relations, degenerate probabilities,
// certificate-free analysis paths, and boundary validations.

#include <gtest/gtest.h>

#include "core/conditional_views.h"
#include "core/segment_construction.h"
#include "kc/compile.h"
#include "pdb/information.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "pdb/bid_pdb.h"
#include "pdb/conditioning.h"
#include "pdb/pushforward.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "pqe/wmc.h"
#include "test_util.h"
#include "util/budget.h"
#include "util/random.h"
#include "util/series.h"

namespace ipdb {
namespace {

using math::Rational;

TEST(EdgeCasesTest, ZeroArityRelationsThroughTheStack) {
  // 0-ary relations are propositions; they must work through facts,
  // formulas, views and pushforward.
  rel::Schema schema({{"Rain", 0}, {"Wet", 0}});
  rel::Fact rain(0, {});
  pdb::TiPdb<Rational> ti = pdb::TiPdb<Rational>::CreateOrDie(
      schema, {{rain, Rational::Ratio(1, 3)}});

  logic::FoView::Definition def;
  def.output_relation = 1;
  def.body = logic::ParseFormula("Rain()", schema).value();
  logic::FoView::Definition keep;
  keep.output_relation = 0;
  keep.body = logic::ParseFormula("Rain()", schema).value();
  logic::FoView view =
      logic::FoView::Create(schema, schema, {keep, def}).value();

  pdb::FinitePdb<Rational> image =
      pdb::PushforwardOrDie(ti.Expand(), view);
  rel::Instance both({rain, rel::Fact(1, {})});
  EXPECT_EQ(image.Probability(both), Rational::Ratio(1, 3));
  EXPECT_EQ(image.Probability(rel::Instance()), Rational::Ratio(2, 3));
}

TEST(EdgeCasesTest, MultiRelationConditionElimination) {
  // Theorem 4.1 with a two-relation input schema: Relativize must hit
  // every relation and the copy schema must track both.
  rel::Schema in({{"A", 1}, {"B", 1}});
  rel::Fact a(0, {rel::Value::Int(1)});
  rel::Fact b(1, {rel::Value::Int(2)});
  pdb::TiPdb<Rational> ti = pdb::TiPdb<Rational>::CreateOrDie(
      in, {{a, Rational::Ratio(1, 2)}, {b, Rational::Ratio(1, 3)}});
  logic::FoView identity = logic::FoView::Identity(in);
  logic::Formula phi =
      logic::ParseSentence("(exists x. A(x)) | (exists x. B(x))", in)
          .value();
  auto built = core::EliminateCondition(ti, identity, phi);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto tv = core::VerifyConditionElimination(built.value());
  ASSERT_TRUE(tv.ok()) << tv.status().ToString();
  EXPECT_DOUBLE_EQ(tv.value(), 0.0);
}

TEST(EdgeCasesTest, SegmentConstructionSingleWorldPointMass) {
  // A one-world PDB: one chain, condition trivially satisfiable, view
  // reproduces the world with probability 1.
  rel::Schema schema({{"U", 1}});
  rel::Instance world({rel::Fact(0, {rel::Value::Int(1)}),
                       rel::Fact(0, {rel::Value::Int(2)})});
  pdb::FinitePdb<double> input =
      pdb::FinitePdb<double>::CreateOrDie(schema, {{world, 1.0}});
  auto built = core::BuildSegmentConstruction(input, 1);
  ASSERT_TRUE(built.ok());
  auto tv = core::VerifySegmentConstruction(input, built.value());
  ASSERT_TRUE(tv.ok());
  EXPECT_NEAR(tv.value(), 0.0, 1e-12);
}

TEST(EdgeCasesTest, ConditionOnParsedSentenceOverBid) {
  // Conditioning with a universally quantified constraint touching two
  // relations.
  rel::Schema schema({{"P", 1}, {"Q", 1}});
  rel::Fact p1(0, {rel::Value::Int(1)});
  rel::Fact q1(1, {rel::Value::Int(1)});
  rel::Fact q2(1, {rel::Value::Int(2)});
  pdb::TiPdb<Rational> ti = pdb::TiPdb<Rational>::CreateOrDie(
      schema, {{p1, Rational::Ratio(1, 2)},
               {q1, Rational::Ratio(1, 2)},
               {q2, Rational::Ratio(1, 2)}});
  logic::Formula constraint =
      logic::ParseSentence("forall x. P(x) -> Q(x)", schema).value();
  auto conditioned = pdb::Condition(ti.Expand(), constraint);
  ASSERT_TRUE(conditioned.ok());
  // Worlds with P(1) but not Q(1) are gone.
  for (const auto& [world, probability] : conditioned.value().worlds()) {
    EXPECT_TRUE(!world.Contains(p1) || world.Contains(q1));
  }
  // Mass: P(constraint) = 1 - P(p1)·(1-P(q1)) = 3/4; check a marginal.
  EXPECT_EQ(conditioned.value().Marginal(p1),
            Rational::Ratio(1, 2) * Rational::Ratio(1, 2) /
                Rational::Ratio(3, 4));
}

TEST(EdgeCasesTest, SeriesBudgetExhaustedStillCertified) {
  // When max_terms runs out but an upper tail certificate exists, the
  // analysis still returns a (wide) certified enclosure.
  Series series = PowerSeries(1.0, 1.5);
  SumOptions options;
  options.max_terms = 64;
  options.target_width = 1e-12;  // unreachable in 64 terms
  SumAnalysis result = AnalyzeSum(series, options);
  EXPECT_EQ(result.kind, SumAnalysis::Kind::kConverged);
  EXPECT_GT(result.enclosure.width(), 1e-12);
  EXPECT_TRUE(result.enclosure.Contains(2.612375));  // zeta(1.5) ≈ 2.6124
}

TEST(EdgeCasesTest, CountableTiNeedsCertificatesForMomentsAndSampling) {
  pdb::CountableTiPdb::Family family;
  family.schema = rel::Schema({{"U", 1}});
  family.fact_at = [](int64_t i) {
    return rel::Fact(0, {rel::Value::Int(i)});
  };
  family.marginal_at = [](int64_t i) {
    return std::pow(0.5, static_cast<double>(i + 1));
  };
  family.description = "certificate-free";
  auto ti = pdb::CountableTiPdb::Create(std::move(family));
  ASSERT_TRUE(ti.ok());
  EXPECT_FALSE(ti.value().SizeMomentInterval(1).ok());
  Pcg32 rng(811);
  EXPECT_FALSE(ti.value().Sample(&rng).ok());
  // Without certificates the well-definedness check is inconclusive.
  SumOptions options;
  options.max_terms = 128;
  EXPECT_EQ(ti.value().CheckWellDefined(options).kind,
            SumAnalysis::Kind::kInconclusive);
}

TEST(EdgeCasesTest, FinitePdbDoubleToleranceBoundary) {
  rel::Schema schema({{"U", 1}});
  rel::Instance w({rel::Fact(0, {rel::Value::Int(1)})});
  // Slightly off mass within tolerance: accepted.
  EXPECT_TRUE(pdb::FinitePdb<double>::Create(
                  schema, {{rel::Instance(), 0.5 + 4e-10},
                           {w, 0.5}})
                  .ok());
  // Beyond tolerance: rejected.
  EXPECT_FALSE(pdb::FinitePdb<double>::Create(
                   schema, {{rel::Instance(), 0.51}, {w, 0.5}})
                   .ok());
}

TEST(EdgeCasesTest, GuardWithRepeatedVariableInAtom) {
  // Guard candidate extraction must respect a variable occurring twice
  // in one atom: R(x, x) only matches diagonal facts.
  rel::Schema schema({{"R", 2}});
  rel::Instance instance(
      {rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(1)}),
       rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)})});
  logic::Formula diag =
      logic::ParseSentence("exists x. R(x, x)", schema).value();
  EXPECT_TRUE(logic::Satisfies(instance, schema, diag));
  rel::Instance off_diag(
      {rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)})});
  EXPECT_FALSE(logic::Satisfies(off_diag, schema, diag));
}

TEST(EdgeCasesTest, ViewWithUnconstrainedHeadVariable) {
  // A head variable absent from the body ranges over adom ∪ consts
  // (documented convention): T(x, y) := S(x) pairs every S-element with
  // every candidate.
  rel::Schema in({{"S", 1}});
  rel::Schema out({{"T", 2}});
  logic::FoView::Definition def;
  def.output_relation = 0;
  def.head_vars = {"x", "y"};
  def.body = logic::ParseFormula("S(x)", in).value();
  logic::FoView view = logic::FoView::Create(in, out, {def}).value();
  rel::Instance instance({rel::Fact(0, {rel::Value::Int(1)}),
                          rel::Fact(0, {rel::Value::Int(2)})});
  rel::Instance image = view.ApplyOrDie(instance);
  EXPECT_EQ(image.size(), 4);  // {1,2} × {1,2}
}

TEST(EdgeCasesTest, BidZeroResidualSamplingAlwaysPicks) {
  rel::Schema schema({{"U", 1}});
  pdb::BidPdb<double> bid = pdb::BidPdb<double>::CreateOrDie(
      schema, {{{rel::Fact(0, {rel::Value::Int(1)}), 0.5},
                {rel::Fact(0, {rel::Value::Int(2)}), 0.5}}});
  Pcg32 rng(823);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(bid.Sample(&rng).size(), 1);
  }
}

TEST(EdgeCasesTest, OversizedTiExpansionIsARecoverableStatus) {
  // 21 uncertain facts exceed the 2^20-world enumeration limit: the
  // governed entry point reports kResourceExhausted instead of dying.
  rel::Schema schema({{"U", 1}});
  pdb::TiPdb<double>::FactList facts;
  for (int i = 0; i < 21; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}), 0.5);
  }
  pdb::TiPdb<double> ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
  StatusOr<pdb::FinitePdb<double>> expanded = ti.TryExpand();
  ASSERT_FALSE(expanded.ok());
  EXPECT_EQ(expanded.status().code(), StatusCode::kResourceExhausted);
  // Certain facts (marginal 0 or 1) do not count against the limit.
  pdb::TiPdb<double>::FactList mixed;
  for (int i = 0; i < 21; ++i) {
    mixed.emplace_back(rel::Fact(0, {rel::Value::Int(i)}),
                       i < 3 ? 0.5 : 1.0);
  }
  pdb::TiPdb<double> small_ti =
      pdb::TiPdb<double>::CreateOrDie(schema, std::move(mixed));
  EXPECT_TRUE(small_ti.TryExpand().ok());
}

TEST(EdgeCasesTest, OversizedBidExpansionIsARecoverableStatus) {
  // 23 one-fact blocks give 2^23 worlds, past the 2^22 expansion cap.
  rel::Schema schema({{"U", 1}});
  std::vector<pdb::BidPdb<double>::Block> blocks;
  for (int i = 0; i < 23; ++i) {
    blocks.push_back({{rel::Fact(0, {rel::Value::Int(i)}), 0.4}});
  }
  pdb::BidPdb<double> bid =
      pdb::BidPdb<double>::CreateOrDie(schema, std::move(blocks));
  StatusOr<pdb::FinitePdb<double>> expanded = bid.TryExpand();
  ASSERT_FALSE(expanded.ok());
  EXPECT_EQ(expanded.status().code(), StatusCode::kResourceExhausted);
}

TEST(EdgeCasesTest, OversizedIndependenceChecksAreRecoverable) {
  // A single certain world with 25 facts: the 2^25-subset tuple-
  // independence check refuses with a Status rather than running.
  rel::Schema schema({{"U", 1}});
  std::vector<rel::Fact> many;
  for (int i = 0; i < 25; ++i) {
    many.push_back(rel::Fact(0, {rel::Value::Int(i)}));
  }
  pdb::FinitePdb<double> pdb = pdb::FinitePdb<double>::CreateOrDie(
      schema, {{rel::Instance(std::move(many)), 1.0}});
  StatusOr<bool> ti_check = pdb.CheckTupleIndependent();
  ASSERT_FALSE(ti_check.ok());
  EXPECT_EQ(ti_check.status().code(), StatusCode::kResourceExhausted);

  std::vector<std::vector<rel::Fact>> blocks(13);
  for (int i = 0; i < 13; ++i) {
    blocks[i].push_back(rel::Fact(0, {rel::Value::Int(i)}));
  }
  StatusOr<bool> bid_check = pdb.CheckBlockIndependentDisjoint(blocks);
  ASSERT_FALSE(bid_check.ok());
  EXPECT_EQ(bid_check.status().code(), StatusCode::kResourceExhausted);
}

TEST(EdgeCasesTest, DistanceAcrossSchemasIsInvalidArgument) {
  rel::Schema unary({{"U", 1}});
  rel::Schema binary({{"R", 2}});
  pdb::FinitePdb<double> a = pdb::FinitePdb<double>::CreateOrDie(
      unary, {{rel::Instance(), 1.0}});
  pdb::FinitePdb<double> b = pdb::FinitePdb<double>::CreateOrDie(
      binary, {{rel::Instance(), 1.0}});
  StatusOr<double> tv = pdb::TryTotalVariationDistance(a, b);
  ASSERT_FALSE(tv.ok());
  EXPECT_EQ(tv.status().code(), StatusCode::kInvalidArgument);
  StatusOr<double> hellinger = pdb::TryHellingerDistance(a, b);
  ASSERT_FALSE(hellinger.ok());
  EXPECT_EQ(hellinger.status().code(), StatusCode::kInvalidArgument);
  // Same-schema distances still agree with the OrDie entry points.
  pdb::FinitePdb<double> c = pdb::FinitePdb<double>::CreateOrDie(
      unary, {{rel::Instance(), 1.0}});
  EXPECT_EQ(pdb::TryTotalVariationDistance(a, c).value(),
            pdb::TotalVariationDistance(a, c));
  EXPECT_EQ(pdb::TryHellingerDistance(a, c).value(),
            pdb::HellingerDistance(a, c));
}

TEST(EdgeCasesTest, DegenerateBudgetsFailCleanlyNotFatally) {
  // A zero-length timeout, a one-node cap and a one-limb cap are all
  // absurd budgets a caller can construct; each must come back as the
  // right StatusCode, never an abort.
  pqe::Lineage lineage;
  std::vector<pqe::NodeId> terms;
  for (int i = 0; i + 1 < 10; ++i) {
    terms.push_back(
        lineage.MakeAnd({lineage.Var(i), lineage.Var(i + 1)}));
  }
  pqe::NodeId root = lineage.MakeOr(std::move(terms));

  ExecutionBudget zero_deadline =
      ExecutionBudget::WithTimeout(std::chrono::nanoseconds(0));
  kc::CompileOptions zero_options;
  zero_options.budget = &zero_deadline;
  StatusOr<kc::CompiledQuery> timed_out =
      kc::CompileLineage(&lineage, root, zero_options);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  ExecutionBudget one_node;
  one_node.max_circuit_nodes = 1;
  kc::CompileOptions node_options;
  node_options.budget = &one_node;
  StatusOr<kc::CompiledQuery> node_capped =
      kc::CompileLineage(&lineage, root, node_options);
  ASSERT_FALSE(node_capped.ok());
  EXPECT_EQ(node_capped.status().code(), StatusCode::kResourceExhausted);

  // The one-shot compile + evaluate under the same node cap.
  std::vector<double> probs(10, 0.5);
  StatusOr<double> wmc =
      pqe::ComputeProbability(&lineage, root, probs, nullptr, &one_node);
  ASSERT_FALSE(wmc.ok());
  EXPECT_EQ(wmc.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ipdb
