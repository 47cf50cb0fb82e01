#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/paper_examples.h"
#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "obs/obs.h"
#include "pqe/lineage.h"
#include "pqe/wmc.h"
#include "util/interval.h"

namespace ipdb {
namespace kc {
namespace {

using math::Rational;

TEST(CircuitTest, ConstructionAndSimplification) {
  Circuit circuit;
  NodeId x = circuit.Literal(0, true);
  NodeId not_x = circuit.Literal(0, false);
  NodeId y = circuit.Literal(1, true);
  // Hash consing.
  EXPECT_EQ(circuit.Literal(0, true), x);
  EXPECT_NE(x, not_x);
  // Constant folding and flattening.
  EXPECT_EQ(circuit.MakeAnd({x, circuit.False()}), Circuit::kFalseId);
  EXPECT_EQ(circuit.MakeAnd({x, circuit.True()}), x);
  EXPECT_EQ(circuit.MakeOr({x}), x);
  EXPECT_EQ(circuit.MakeOr({circuit.False(), y}), y);
  EXPECT_EQ(circuit.MakeOr({}), Circuit::kFalseId);
  NodeId xy = circuit.MakeAnd({x, y});
  EXPECT_EQ(circuit.MakeAnd({y, x}), xy);
  EXPECT_EQ(circuit.Support(xy), (std::vector<int>{0, 1}));
  // Decision simplification: equal branches collapse.
  EXPECT_EQ(circuit.MakeDecision(2, y, y), y);
  // hi = ⊤, lo = ⊥ is the positive literal.
  EXPECT_EQ(circuit.MakeDecision(0, circuit.True(), circuit.False()), x);
  EXPECT_GE(circuit.num_variables(), 2);
}

TEST(CircuitTest, CheckersAcceptValidCircuits) {
  Circuit circuit;
  NodeId x = circuit.Literal(0, true);
  NodeId y = circuit.Literal(1, true);
  NodeId d = circuit.MakeDecision(2, x, y);  // (v2∧x0) ∨ (¬v2∧x1)
  EXPECT_TRUE(circuit.CheckDecomposable(d).ok());
  EXPECT_TRUE(circuit.CheckDeterministic(d).ok());
  EXPECT_TRUE(circuit.Evaluate(d, {true, false, true}));
  EXPECT_FALSE(circuit.Evaluate(d, {true, false, false}));
}

TEST(CircuitTest, CheckersCatchViolations) {
  Circuit circuit;
  NodeId x = circuit.Literal(0, true);
  NodeId y = circuit.Literal(1, true);
  // x ∨ y without a determinism certificate: both disjuncts can hold.
  NodeId x_or_y = circuit.MakeOr({x, y});
  EXPECT_FALSE(circuit.CheckDeterministic(x_or_y).ok());
  // x ∧ (x ∨ y) shares variable 0 between the conjuncts.
  NodeId bad_and = circuit.MakeAnd({x, x_or_y});
  EXPECT_FALSE(circuit.CheckDecomposable(bad_and).ok());
  // The same shape becomes valid once the chain carries certificates.
  Circuit certified;
  NodeId a = certified.Literal(0, true);
  NodeId b = certified.Literal(1, true);
  NodeId not_a = certified.Literal(0, false);
  NodeId rest = certified.MakeAnd({not_a, b});
  NodeId chain = certified.MakeOr({a, rest});  // a ∨ (¬a ∧ b)
  EXPECT_TRUE(certified.CheckDeterministic(chain).ok());
  EXPECT_TRUE(certified.CheckDecomposable(chain).ok());
}

TEST(CircuitTest, ComplementMarks) {
  Circuit circuit;
  NodeId x = circuit.Literal(0, true);
  NodeId not_x = circuit.Literal(0, false);
  NodeId y = circuit.Literal(1, true);
  EXPECT_TRUE(circuit.AreComplements(x, not_x));
  EXPECT_TRUE(circuit.AreComplements(circuit.True(), circuit.False()));
  EXPECT_FALSE(circuit.AreComplements(x, y));
  circuit.MarkComplements(x, y);  // caller-asserted certificate
  EXPECT_TRUE(circuit.AreComplements(y, x));
}

TEST(EvaluateTest, HandComputedSemirings) {
  // f = x0 ∨ x1 over independent variables, compiled by hand as the
  // deterministic chain x0 ∨ (¬x0 ∧ x1).
  Circuit circuit;
  NodeId x0 = circuit.Literal(0, true);
  NodeId x1 = circuit.Literal(1, true);
  NodeId f = circuit.MakeOr({x0, circuit.MakeAnd({circuit.Literal(0, false), x1})});
  // double: 0.5 + 0.5·0.25.
  StatusOr<double> d = EvaluateCircuit<double>(circuit, f, {0.5, 0.25});
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value(), 0.625, 1e-15);
  // Rational, exactly: 1/3 + 2/3·1/7 = 3/7.
  StatusOr<Rational> q = EvaluateCircuit<Rational>(
      circuit, f, {Rational::Ratio(1, 3), Rational::Ratio(1, 7)});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value(), Rational::Ratio(3, 7));
  // Interval: marginals known only up to an interval.
  StatusOr<Interval> enclosure = EvaluateCircuit<Interval>(
      circuit, f, {Interval(0.4, 0.6), Interval(0.2, 0.3)});
  ASSERT_TRUE(enclosure.ok());
  EXPECT_LE(enclosure.value().lo(), 0.625);
  EXPECT_GE(enclosure.value().hi(), 0.625);
  EXPECT_TRUE(enclosure.value().Contains(0.4 + 0.6 * 0.2));
  // Short probability vectors are rejected.
  EXPECT_FALSE(EvaluateCircuit<double>(circuit, f, {0.5}).ok());
}

TEST(EvaluateTest, HandComputedGradient) {
  // f = x0 ∨ x1: Pr = p0 + (1−p0)·p1, ∂/∂p0 = 1−p1, ∂/∂p1 = 1−p0.
  Circuit circuit;
  NodeId x0 = circuit.Literal(0, true);
  NodeId x1 = circuit.Literal(1, true);
  NodeId f = circuit.MakeOr({x0, circuit.MakeAnd({circuit.Literal(0, false), x1})});
  StatusOr<std::vector<double>> g =
      EvaluateGradient<double>(circuit, f, {0.5, 0.25});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g.value().size(), 2u);
  EXPECT_NEAR(g.value()[0], 0.75, 1e-15);
  EXPECT_NEAR(g.value()[1], 0.5, 1e-15);
  StatusOr<std::vector<Rational>> gq = EvaluateGradient<Rational>(
      circuit, f, {Rational::Ratio(1, 3), Rational::Ratio(1, 7)});
  ASSERT_TRUE(gq.ok());
  EXPECT_EQ(gq.value()[0], Rational::Ratio(6, 7));
  EXPECT_EQ(gq.value()[1], Rational::Ratio(2, 3));
}

TEST(CompileTest, DecomposableAndShannonShapes) {
  // Independent conjunction: pure decomposition, no decisions.
  pqe::Lineage lineage;
  pqe::NodeId x = lineage.Var(0);
  pqe::NodeId y = lineage.Var(1);
  pqe::NodeId z = lineage.Var(2);
  pqe::NodeId indep = lineage.MakeAnd({x, y});
  CompileOptions verify;
  verify.verify = true;
  StatusOr<CompiledQuery> compiled = CompileLineage(&lineage, indep, verify);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->stats.decisions, 0);
  EXPECT_GE(compiled->stats.decompositions, 1);
  StatusOr<double> p = EvaluateCircuit<double>(
      compiled->circuit, compiled->root, {0.5, 0.25, 0.0});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.125, 1e-15);

  // Shared variable forces a decision: (x∧y) ∨ (x∧z).
  pqe::NodeId shared = lineage.MakeOr(
      {lineage.MakeAnd({x, y}), lineage.MakeAnd({x, z})});
  compiled = CompileLineage(&lineage, shared, verify);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_GE(compiled->stats.decisions, 1);
  p = EvaluateCircuit<double>(compiled->circuit, compiled->root,
                              {0.5, 0.5, 0.5});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.375, 1e-15);  // 0.5 · (1 − 0.25)

  // Negation pushes to the literals: ¬(x ∧ y).
  pqe::NodeId nand = lineage.MakeNot(lineage.MakeAnd({x, y}));
  compiled = CompileLineage(&lineage, nand, verify);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  p = EvaluateCircuit<double>(compiled->circuit, compiled->root,
                              {0.5, 0.25, 0.0});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 1.0 - 0.125, 1e-15);
}

TEST(CompileTest, ConstantsAndLiterals) {
  pqe::Lineage lineage;
  CompileOptions verify;
  verify.verify = true;
  StatusOr<CompiledQuery> compiled =
      CompileLineage(&lineage, lineage.True(), verify);
  ASSERT_TRUE(compiled.ok());
  StatusOr<double> p =
      EvaluateCircuit<double>(compiled->circuit, compiled->root, {});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), 1.0);
  pqe::NodeId nx = lineage.MakeNot(lineage.Var(0));
  compiled = CompileLineage(&lineage, nx, verify);
  ASSERT_TRUE(compiled.ok());
  p = EvaluateCircuit<double>(compiled->circuit, compiled->root, {0.3});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.7, 1e-15);
}

TEST(FingerprintTest, StructuralAcrossLineages) {
  pqe::Lineage first;
  pqe::NodeId f1 = first.MakeOr(
      {first.MakeAnd({first.Var(0), first.Var(1)}), first.Var(2)});
  pqe::Lineage second;
  // Different construction order, same structure.
  pqe::NodeId v2 = second.Var(2);
  pqe::NodeId f2 = second.MakeOr(
      {v2, second.MakeAnd({second.Var(1), second.Var(0)})});
  EXPECT_EQ(LineageFingerprint(first, f1), LineageFingerprint(second, f2));
  // A different formula fingerprints differently.
  pqe::NodeId g = second.MakeAnd({second.Var(0), second.Var(2)});
  EXPECT_NE(LineageFingerprint(second, f2), LineageFingerprint(second, g));
}

TEST(CacheTest, LruEvictionAndHits) {
  CompiledQueryCache cache(/*capacity=*/2);
  pqe::Lineage lineage;
  pqe::NodeId a = lineage.MakeAnd({lineage.Var(0), lineage.Var(1)});
  pqe::NodeId b = lineage.MakeOr({lineage.Var(2), lineage.Var(3)});
  pqe::NodeId c = lineage.MakeAnd({lineage.Var(4), lineage.Var(5)});

  bool hit = true;
  ASSERT_TRUE(cache.GetOrCompile(&lineage, a, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetOrCompile(&lineage, a, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);

  ASSERT_TRUE(cache.GetOrCompile(&lineage, b, &hit).ok());
  ASSERT_TRUE(cache.GetOrCompile(&lineage, c, &hit).ok());  // evicts a
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(&lineage, a, &hit).ok());
  EXPECT_FALSE(hit);  // was evicted: recompiled

  // Structurally identical formulas in a *different* lineage hit.
  pqe::Lineage other;
  pqe::NodeId a2 = other.MakeAnd({other.Var(0), other.Var(1)});
  ASSERT_TRUE(cache.GetOrCompile(&other, a2, &hit).ok());
  EXPECT_TRUE(hit);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
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

TEST(QueryProbabilityTest, AnswersViaCompiledCacheWithStats) {
  pdb::TiPdb<double> ti = PathTi();
  logic::Formula sentence =
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", ti.schema())
          .value();
  pqe::WmcStats first_stats;
  StatusOr<double> first =
      pqe::QueryProbability(ti, sentence, &first_stats);
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(first.value(), 0.125, 1e-12);
  // Asking again answers from the compiled artifact and says so.
  pqe::WmcStats second_stats;
  StatusOr<double> second =
      pqe::QueryProbability(ti, sentence, &second_stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(second_stats.artifact_cache_hits, 1);
  // The compilation trace is replayed from the artifact on a hit.
  EXPECT_EQ(second_stats.shannon_expansions, first_stats.shannon_expansions);
  EXPECT_EQ(second_stats.decompositions, first_stats.decompositions);
  // And it still agrees with brute-force world enumeration.
  auto brute = pqe::QueryProbabilityBruteForce(ti, sentence);
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(second.value(), brute.value(), 1e-12);
}

/// Acceptance check for the observability layer: the process-wide
/// registry's kc.artifact_cache.{hits,misses} move in lockstep with the
/// cache's own accessors AND with the per-call WmcStats hit flag —
/// delta-based, since other tests in this binary also touch the global
/// cache and registry.
TEST(QueryProbabilityTest, RegistryMirrorsArtifactCacheHits) {
  obs::SetMetricsEnabled(true);
  pdb::TiPdb<double> ti = PathTi();
  // A self-join, so every query takes the circuit rung and probes the
  // artifact cache.
  logic::Formula sentence =
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", ti.schema())
          .value();

  CompiledQueryCache& cache = GlobalCompiledQueryCache();
  [[maybe_unused]] obs::MetricsSnapshot before =
      obs::GlobalMetrics().Snapshot();
  const int64_t cache_hits_before = cache.hits();
  const int64_t cache_misses_before = cache.misses();

  pqe::QueryOptions options;
  pqe::WmcStats stats;
  ASSERT_TRUE(pqe::QueryProbability(ti, sentence, options, &stats).ok());
  ASSERT_TRUE(pqe::QueryProbability(ti, sentence, options, &stats).ok());
  ASSERT_TRUE(pqe::QueryProbability(ti, sentence, options, &stats).ok());

  // The cache's own accessors always tally the three probes (they are
  // core cache state, not instrumentation)...
  const int64_t acc_hits = cache.hits() - cache_hits_before;
  const int64_t acc_misses = cache.misses() - cache_misses_before;
  EXPECT_EQ(acc_hits + acc_misses, 3);
  EXPECT_EQ(acc_hits, stats.artifact_cache_hits);
  // At most the first probe can miss (the sentence may have been
  // compiled by an earlier test): the last two always hit.
  EXPECT_GE(acc_hits, 2);

#if !defined(IPDB_OBSERVABILITY_DISABLED)
  // ...and with instrumentation compiled in, the registry mirrors them
  // exactly (ci.sh also builds this test with the macros compiled out,
  // where the registry legitimately sees nothing).
  obs::MetricsSnapshot after = obs::GlobalMetrics().Snapshot();
  const int64_t hit_delta = after.CounterValue("kc.artifact_cache.hits") -
                            before.CounterValue("kc.artifact_cache.hits");
  const int64_t miss_delta =
      after.CounterValue("kc.artifact_cache.misses") -
      before.CounterValue("kc.artifact_cache.misses");
  EXPECT_EQ(hit_delta, acc_hits);
  EXPECT_EQ(miss_delta, acc_misses);
  // Every query was counted.
  EXPECT_EQ(after.CounterValue("pqe.queries") -
                before.CounterValue("pqe.queries"),
            3);
#endif
}

TEST(ValidationTest, ComputeProbabilityRejectsBadInput) {
  pqe::Lineage lineage;
  pqe::NodeId f = lineage.MakeAnd({lineage.Var(0), lineage.Var(1)});
  // Too few probabilities for the lineage's variables.
  StatusOr<double> result = pqe::ComputeProbability(&lineage, f, {0.5});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Out-of-range probability.
  result = pqe::ComputeProbability(&lineage, f, {0.5, 1.5});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Negative probability.
  result = pqe::ComputeProbability(&lineage, f, {-0.1, 0.5});
  EXPECT_FALSE(result.ok());
  // NaN.
  result = pqe::ComputeProbability(
      &lineage, f, {0.5, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_FALSE(result.ok());
  // Null lineage and bad root.
  EXPECT_FALSE(pqe::ComputeProbability(nullptr, f, {0.5, 0.5}).ok());
  EXPECT_FALSE(pqe::ComputeProbability(&lineage, 9999, {0.5, 0.5}).ok());
  // Valid input still works.
  result = pqe::ComputeProbability(&lineage, f, {0.5, 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), 0.25, 1e-15);
}

/// The Figure 1 witness, exactly: Example B.3's TI-PDB (facts R(a,a)
/// with marginal p and R(a,b) with marginal p₂) under the boolean view
/// body ∃x∃y∃z R(x,y) ∧ R(y,z). The only middle point is y = a, so the
/// query reduces to R(a,a) ∧ (R(a,a) ∨ R(a,b)) ≡ R(a,a): probability
/// exactly p, with no floating-point tolerance anywhere.
TEST(ExactWitnessTest, Fig1ExampleB3IsExact) {
  const Rational p = Rational::Ratio(1, 3);
  const Rational p2 = Rational::Ratio(2, 7);
  core::ExampleB3 example = core::MakeExampleB3(p, p2);
  // Grounding only looks at the fact set; mirror it as doubles.
  pdb::TiPdb<double>::FactList shadow;
  std::vector<Rational> exact_probs;
  for (const auto& [fact, marginal] : example.ti.facts()) {
    shadow.emplace_back(fact, marginal.ToDouble());
    exact_probs.push_back(marginal);
  }
  pdb::TiPdb<double> ti = pdb::TiPdb<double>::CreateOrDie(
      example.ti.schema(), std::move(shadow));
  logic::Formula query =
      logic::ParseSentence("exists x y z. R(x, y) & R(y, z)", ti.schema())
          .value();
  pqe::Lineage lineage;
  StatusOr<pqe::NodeId> root = pqe::GroundSentence(ti, query, &lineage);
  ASSERT_TRUE(root.ok());
  CompileOptions verify;
  verify.verify = true;
  StatusOr<CompiledQuery> compiled =
      CompileLineage(&lineage, root.value(), verify);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  StatusOr<Rational> exact = EvaluateCircuit<Rational>(
      compiled->circuit, compiled->root, exact_probs);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value(), p);  // exact equality, not EXPECT_NEAR
}

/// The Figure 4 witness, exactly: the Example 5.6 countable TI-PDB
/// (marginals pᵢ = 1/(i²+1)) truncated to its first n facts. The
/// existence query has the closed form 1 − Π (1 − pᵢ), reproduced with
/// exact rational arithmetic through grounding + compilation +
/// semiring evaluation.
TEST(ExactWitnessTest, Fig4Example56IsExact) {
  const int64_t n = 8;
  pdb::CountableTiPdb countable = core::Example56Ti();
  pdb::TiPdb<double> ti = countable.Truncate(n);
  std::vector<Rational> exact_probs;
  Rational closed_form(1);
  for (int64_t i = 1; i <= n; ++i) {
    Rational pi = Rational::Ratio(1, i * i + 1);
    exact_probs.push_back(pi);
    closed_form *= Rational(1) - pi;
  }
  closed_form = Rational(1) - closed_form;
  logic::Formula query =
      logic::ParseSentence("exists x. U(x)", ti.schema()).value();
  pqe::Lineage lineage;
  StatusOr<pqe::NodeId> root = pqe::GroundSentence(ti, query, &lineage);
  ASSERT_TRUE(root.ok());
  CompileOptions verify;
  verify.verify = true;
  StatusOr<CompiledQuery> compiled =
      CompileLineage(&lineage, root.value(), verify);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  StatusOr<Rational> exact = EvaluateCircuit<Rational>(
      compiled->circuit, compiled->root, exact_probs);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value(), closed_form);  // exact equality
  // The gradient is exact too: ∂Pr/∂pᵢ = Π_{j≠i} (1 − pⱼ).
  StatusOr<std::vector<Rational>> gradient = EvaluateGradient<Rational>(
      compiled->circuit, compiled->root, exact_probs);
  ASSERT_TRUE(gradient.ok());
  for (int64_t i = 0; i < n; ++i) {
    Rational expected(1);
    for (int64_t j = 0; j < n; ++j) {
      if (j != i) expected *= Rational(1) - exact_probs[j];
    }
    EXPECT_EQ(gradient.value()[i], expected);
  }
}

}  // namespace
}  // namespace kc
}  // namespace ipdb
