#include "pqe/expected_answers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kc/cache.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "logic/view.h"
#include "pdb/pushforward.h"
#include "pqe/wmc.h"
#include "test_util.h"
#include "util/random.h"

namespace ipdb {
namespace pqe {
namespace {

rel::Schema TestSchema() { return rel::Schema({{"R", 2}, {"S", 1}}); }

pdb::TiPdb<double> TestTi() {
  rel::Schema schema = TestSchema();
  auto r = [](int64_t a, int64_t b) {
    return rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)});
  };
  return pdb::TiPdb<double>::CreateOrDie(
      schema, {{r(1, 2), 0.5},
               {r(2, 3), 0.25},
               {r(1, 3), 0.125},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.75}});
}

TEST(ExpectedAnswersTest, LinearityForSingleAtom) {
  // E[|{x : S(x)}|] = Σ marginals of S-facts.
  pdb::TiPdb<double> ti = TestTi();
  logic::Formula q = logic::ParseFormula("S(x)", ti.schema()).value();
  auto expected = ExpectedAnswerCount(ti, q, {"x"});
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(expected.value(), 0.75, 1e-12);
}

TEST(ExpectedAnswersTest, MatchesExpansionForJoinView) {
  // Cross-check against the ground truth: the expected output size of
  // the join view over the expanded distribution.
  pdb::TiPdb<double> ti = TestTi();
  logic::Formula q =
      logic::ParseFormula("exists y. R(x, y) & R(y, z)", ti.schema())
          .value();
  auto expected = ExpectedAnswerCount(ti, q, {"x", "z"});
  ASSERT_TRUE(expected.ok());

  rel::Schema out({{"T", 2}});
  logic::FoView::Definition def;
  def.output_relation = 0;
  def.head_vars = {"x", "z"};
  def.body = q;
  logic::FoView view =
      logic::FoView::Create(ti.schema(), out, {def}).value();
  pdb::FinitePdb<double> image =
      pdb::PushforwardOrDie(ti.Expand(), view);
  EXPECT_NEAR(expected.value(), image.SizeMoment(1), 1e-10);
}

TEST(ExpectedAnswersTest, RankedAnswersSortedAndConsistent) {
  pdb::TiPdb<double> ti = TestTi();
  logic::Formula q =
      logic::ParseFormula("exists y. R(x, y)", ti.schema()).value();
  auto ranked = RankedAnswers(ti, q, {"x"});
  ASSERT_TRUE(ranked.ok());
  // x = 1 reachable via (1,2) or (1,3): 1 - 0.5·0.875; x = 2 via (2,3).
  ASSERT_EQ(ranked.value().size(), 2u);
  EXPECT_EQ(ranked.value()[0].tuple[0], rel::Value::Int(1));
  EXPECT_NEAR(ranked.value()[0].probability, 1.0 - 0.5 * 0.875, 1e-12);
  EXPECT_EQ(ranked.value()[1].tuple[0], rel::Value::Int(2));
  EXPECT_NEAR(ranked.value()[1].probability, 0.25, 1e-12);
  // Per-tuple probabilities agree with boolean WMC on the grounded
  // query.
  logic::Formula grounded =
      q.Substitute("x", logic::Term::Int(1));
  EXPECT_NEAR(ranked.value()[0].probability,
              QueryProbability(ti, grounded).value(), 1e-12);
}

TEST(ExpectedAnswersTest, BooleanHead) {
  pdb::TiPdb<double> ti = TestTi();
  logic::Formula q =
      logic::ParseSentence("exists x. S(x)", ti.schema()).value();
  auto expected = ExpectedAnswerCount(ti, q, {});
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(expected.value(), 0.75, 1e-12);
}

TEST(ExpectedAnswersTest, UncoveredFreeVariableFails) {
  pdb::TiPdb<double> ti = TestTi();
  logic::Formula q = logic::ParseFormula("R(x, y)", ti.schema()).value();
  EXPECT_FALSE(ExpectedAnswerCount(ti, q, {"x"}).ok());
}

TEST(ExpectedAnswersTest, RepeatedHeadVariableFillsEveryPosition) {
  // A head that names x twice answers (v, v) for each answer v of the
  // query; a tuple whose two positions differ is not an answer. Over
  // S(1), U(2) the query S(x) has the one answer x = 1.
  rel::Schema schema({{"S", 1}, {"U", 1}});
  pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      schema, {{rel::Fact(0, {rel::Value::Int(1)}), 0.5},
               {rel::Fact(1, {rel::Value::Int(2)}), 0.25}});
  logic::Formula q = logic::ParseFormula("S(x)", schema).value();
  auto ranked = RankedAnswers(ti, q, {"x", "x"});
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.value().size(), 1u);
  EXPECT_EQ(ranked.value()[0].tuple,
            (std::vector<rel::Value>{rel::Value::Int(1), rel::Value::Int(1)}));
  EXPECT_EQ(ranked.value()[0].probability, 0.5);
  auto expected = ExpectedAnswerCount(ti, q, {"x", "x"});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected.value(), 0.5);

  // The FO evaluator agrees world by world: its answers to S(x) under
  // the head (x, x) are (1, 1) exactly when S(1) is present.
  double size = 0.0;
  const pdb::FinitePdb<double> worlds = ti.Expand();
  for (const auto& [world, probability] : worlds.worlds()) {
    auto answers = logic::EvaluateQuery(world, schema, q, {"x", "x"});
    ASSERT_TRUE(answers.ok());
    for (const std::vector<rel::Value>& answer : answers.value()) {
      EXPECT_EQ(answer[0], answer[1]);
    }
    size += probability * static_cast<double>(answers.value().size());
  }
  EXPECT_NEAR(size, expected.value(), 1e-12);
}

/// The answer list as enumerated before head candidates came from the
/// guard analysis: one QueryProbability per tuple of the full
/// (adom ∪ consts)^k grid, in grid order, keeping positive ones.
std::vector<RankedAnswer> FullGridAnswers(const pdb::TiPdb<double>& ti,
                                          const logic::Formula& query,
                                          const std::vector<std::string>& head) {
  std::vector<rel::Value> candidates = ti.store()->SortedDomain();
  for (const rel::Value& v : query.Constants()) candidates.push_back(v);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<RankedAnswer> answers;
  std::vector<size_t> odometer(head.size(), 0);
  while (true) {
    std::vector<rel::Value> tuple;
    logic::Formula grounded = query;
    for (size_t i = 0; i < head.size(); ++i) {
      tuple.push_back(candidates[odometer[i]]);
      grounded = grounded.Substitute(head[i], logic::Term::Const(tuple[i]));
    }
    const double p = QueryProbability(ti, grounded).value();
    if (p > 0.0) answers.push_back({std::move(tuple), p});
    size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < candidates.size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) break;
  }
  std::sort(answers.begin(), answers.end(),
            [](const RankedAnswer& a, const RankedAnswer& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.tuple < b.tuple;
            });
  return answers;
}

TEST(ExpectedAnswersTest, GuardedHeadCandidatesMatchTheFullGrid) {
  // Head tuples outside the guard analysis have probability exactly 0,
  // so pruning them leaves the ranked list, and its sum, bit for bit.
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}});
  Pcg32 rng(0xa115);
  for (int round = 0; round < 300; ++round) {
    const std::vector<std::string> head =
        rng.NextBounded(2) == 0 ? std::vector<std::string>{"x"}
                                : std::vector<std::string>{"x", "y"};
    logic::Formula query =
        testing_util::RandomFormula(schema, 3, head, 4, 2, &rng);
    if (rng.NextBounded(3) != 0) {
      // A conjoined atom over the head usually guards it.
      const rel::RelationId r = static_cast<rel::RelationId>(
          rng.NextBounded(static_cast<uint32_t>(schema.num_relations())));
      std::vector<logic::Term> terms;
      for (int p = 0; p < schema.arity(r); ++p) {
        terms.push_back(logic::Term::Var(
            head[rng.NextBounded(static_cast<uint32_t>(head.size()))]));
      }
      query = logic::And(logic::Atom(r, std::move(terms)), query);
    }
    pdb::TiPdb<math::Rational> exact = testing_util::RandomRationalTi(
        schema, 1 + static_cast<int>(rng.NextBounded(8)), 3, 10, &rng);
    pdb::TiPdb<double>::FactList facts;
    for (const auto& [fact, marginal] : exact.facts()) {
      facts.emplace_back(fact, marginal.ToDouble());
    }
    pdb::TiPdb<double> ti =
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));

    // A cold artifact cache for each side: both then compile the same
    // lineages in the same order and evaluate the same circuits.
    kc::GlobalCompiledQueryCache().Clear();
    StatusOr<std::vector<RankedAnswer>> ranked =
        RankedAnswers(ti, query, head);
    ASSERT_TRUE(ranked.ok()) << query.ToString(schema);
    kc::GlobalCompiledQueryCache().Clear();
    const std::vector<RankedAnswer> expected =
        FullGridAnswers(ti, query, head);
    ASSERT_EQ(ranked.value().size(), expected.size())
        << query.ToString(schema);
    double sum = 0.0;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ranked.value()[i].tuple, expected[i].tuple);
      EXPECT_EQ(ranked.value()[i].probability, expected[i].probability)
          << query.ToString(schema);
      sum += expected[i].probability;
    }
    StatusOr<double> count = ExpectedAnswerCount(ti, query, head);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), sum) << query.ToString(schema);
  }
}

}  // namespace
}  // namespace pqe
}  // namespace ipdb
