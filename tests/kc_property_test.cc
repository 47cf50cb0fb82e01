#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/parser.h"
#include "pqe/lineage.h"
#include "pqe/wmc.h"
#include "util/random.h"

namespace ipdb {
namespace kc {
namespace {

using math::Rational;

/// A random propositional formula over variables [0, num_vars):
/// leaves are variables (and the occasional constant), gates are
/// NOT/AND/OR of random arity.
pqe::NodeId RandomFormula(pqe::Lineage* lineage, int num_vars, int depth,
                          Pcg32* rng) {
  if (depth == 0 || rng->NextBounded(5) == 0) {
    uint32_t pick = rng->NextBounded(static_cast<uint32_t>(num_vars) + 1);
    if (pick == static_cast<uint32_t>(num_vars)) {
      return rng->NextBernoulli(0.5) ? lineage->True() : lineage->False();
    }
    return lineage->Var(static_cast<int>(pick));
  }
  uint32_t gate = rng->NextBounded(4);
  if (gate == 0) {
    return lineage->MakeNot(RandomFormula(lineage, num_vars, depth - 1, rng));
  }
  int arity = 2 + static_cast<int>(rng->NextBounded(3));
  std::vector<pqe::NodeId> children;
  children.reserve(arity);
  for (int i = 0; i < arity; ++i) {
    children.push_back(RandomFormula(lineage, num_vars, depth - 1, rng));
  }
  return gate == 1 ? lineage->MakeAnd(std::move(children))
                   : lineage->MakeOr(std::move(children));
}

/// Ground-truth WMC by enumerating all 2^n assignments.
template <typename T>
T EnumerateWmc(const pqe::Lineage& lineage, pqe::NodeId root, int num_vars,
               const std::vector<T>& probs) {
  T total = SemiringTraits<T>::Zero();
  for (uint32_t mask = 0; mask < (1u << num_vars); ++mask) {
    std::vector<bool> assignment(num_vars);
    T weight = SemiringTraits<T>::One();
    for (int v = 0; v < num_vars; ++v) {
      assignment[v] = (mask >> v) & 1;
      weight = weight * (assignment[v]
                             ? probs[v]
                             : SemiringTraits<T>::One() - probs[v]);
    }
    if (lineage.Evaluate(root, assignment)) total = total + weight;
  }
  return total;
}

/// ~700 random formulas (n <= 10): every compile is invariant-checked,
/// and both the compiled double evaluation and the one-shot
/// pqe::ComputeProbability agree with truth-table enumeration.
TEST(KcPropertyTest, RandomFormulasAgreeWithEnumeration) {
  Pcg32 rng(20260806, 1);
  CompileOptions verify;
  verify.verify = true;
  for (int round = 0; round < 700; ++round) {
    const int num_vars = 2 + static_cast<int>(rng.NextBounded(9));  // <= 10
    pqe::Lineage lineage;
    pqe::NodeId root =
        RandomFormula(&lineage, num_vars, 1 + rng.NextBounded(4), &rng);
    std::vector<double> probs(num_vars);
    for (double& p : probs) p = rng.NextDouble();

    StatusOr<CompiledQuery> compiled = CompileLineage(&lineage, root, verify);
    ASSERT_TRUE(compiled.ok())
        << round << ": " << compiled.status().ToString();
    StatusOr<double> circuit_value =
        EvaluateCircuit<double>(compiled->circuit, compiled->root, probs);
    ASSERT_TRUE(circuit_value.ok());

    double truth = EnumerateWmc<double>(lineage, root, num_vars, probs);
    EXPECT_NEAR(circuit_value.value(), truth, 1e-9)
        << round << ": " << lineage.ToString(root);

    StatusOr<double> one_shot = pqe::ComputeProbability(&lineage, root, probs);
    ASSERT_TRUE(one_shot.ok());
    EXPECT_NEAR(one_shot.value(), truth, 1e-9)
        << round << ": " << lineage.ToString(root);
  }
}

/// Exact-arithmetic agreement: on smaller instances the compiled
/// Rational evaluation equals the enumerated rational WMC *exactly*.
TEST(KcPropertyTest, RandomFormulasExactRationalAgreement) {
  Pcg32 rng(20260806, 2);
  CompileOptions verify;
  verify.verify = true;
  for (int round = 0; round < 150; ++round) {
    const int num_vars = 2 + static_cast<int>(rng.NextBounded(6));  // <= 7
    pqe::Lineage lineage;
    pqe::NodeId root =
        RandomFormula(&lineage, num_vars, 1 + rng.NextBounded(3), &rng);
    std::vector<Rational> probs(num_vars);
    for (Rational& p : probs) {
      p = Rational::Ratio(rng.NextBounded(17), 16);
    }
    StatusOr<CompiledQuery> compiled = CompileLineage(&lineage, root, verify);
    ASSERT_TRUE(compiled.ok());
    StatusOr<Rational> circuit_value =
        EvaluateCircuit<Rational>(compiled->circuit, compiled->root, probs);
    ASSERT_TRUE(circuit_value.ok());
    Rational truth = EnumerateWmc<Rational>(lineage, root, num_vars, probs);
    EXPECT_EQ(circuit_value.value(), truth)
        << round << ": " << lineage.ToString(root);
  }
}

/// End-to-end agreement on random TI instances: QueryProbability (the
/// compiled path through the global artifact cache) matches brute-force
/// world enumeration for a pool of queries.
TEST(KcPropertyTest, RandomTiInstancesAgreeWithBruteForce) {
  Pcg32 rng(20260806, 3);
  rel::Schema schema({{"R", 2}, {"S", 1}});
  const std::vector<std::string> queries = {
      "exists x y. R(x, y)",
      "exists x. S(x)",
      "exists x y. R(x, y) & S(y)",
      "exists x y z. R(x, y) & R(y, z)",
      "(exists x y. R(x, y) & S(x)) | (exists z. R(z, z))",
      "exists x. S(x) & !R(x, x)",
  };
  std::vector<logic::Formula> parsed;
  for (const std::string& q : queries) {
    parsed.push_back(logic::ParseSentence(q, schema).value());
  }
  for (int round = 0; round < 300; ++round) {
    // Each candidate fact over the universe [0, 3) joins with
    // probability 1/2; marginals are k/16 draws.
    pdb::TiPdb<double>::FactList facts;
    for (int64_t a = 0; a < 3; ++a) {
      for (int64_t b = 0; b < 3; ++b) {
        if (rng.NextBernoulli(0.5)) {
          facts.emplace_back(
              rel::Fact(0, {rel::Value::Int(a), rel::Value::Int(b)}),
              rng.NextBounded(17) / 16.0);
        }
      }
    }
    for (int64_t a = 0; a < 3; ++a) {
      if (rng.NextBernoulli(0.5)) {
        facts.emplace_back(rel::Fact(1, {rel::Value::Int(a)}),
                           rng.NextBounded(17) / 16.0);
      }
    }
    pdb::TiPdb<double> ti =
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
    const logic::Formula& query = parsed[rng.NextBounded(parsed.size())];
    StatusOr<double> compiled_answer = pqe::QueryProbability(ti, query);
    ASSERT_TRUE(compiled_answer.ok())
        << round << ": " << compiled_answer.status().ToString();
    StatusOr<double> brute = pqe::QueryProbabilityBruteForce(ti, query);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(compiled_answer.value(), brute.value(), 1e-9) << round;
  }
}

/// Backprop gradients match central finite differences.
TEST(KcPropertyTest, GradientMatchesFiniteDifferences) {
  Pcg32 rng(20260806, 4);
  const double h = 1e-5;
  for (int round = 0; round < 120; ++round) {
    const int num_vars = 2 + static_cast<int>(rng.NextBounded(7));  // <= 8
    pqe::Lineage lineage;
    pqe::NodeId root =
        RandomFormula(&lineage, num_vars, 1 + rng.NextBounded(3), &rng);
    std::vector<double> probs(num_vars);
    // Keep marginals away from {0, 1} so the central stencil stays
    // inside the probability simplex.
    for (double& p : probs) p = 0.1 + 0.8 * rng.NextDouble();
    StatusOr<CompiledQuery> compiled = CompileLineage(&lineage, root);
    ASSERT_TRUE(compiled.ok());
    StatusOr<std::vector<double>> gradient =
        EvaluateGradient<double>(compiled->circuit, compiled->root, probs);
    ASSERT_TRUE(gradient.ok());
    for (int v = 0; v < num_vars; ++v) {
      std::vector<double> plus = probs;
      std::vector<double> minus = probs;
      plus[v] += h;
      minus[v] -= h;
      double numeric =
          (EvaluateCircuit<double>(compiled->circuit, compiled->root, plus)
               .value() -
           EvaluateCircuit<double>(compiled->circuit, compiled->root, minus)
               .value()) /
          (2 * h);
      EXPECT_NEAR(gradient.value()[v], numeric, 1e-6)
          << round << " var " << v << ": " << lineage.ToString(root);
    }
  }
}

/// Exact gradient identity: Pr is multilinear in the marginals, so
/// ∂Pr/∂p_v = Pr(p_v := 1) − Pr(p_v := 0) — checked in exact rational
/// arithmetic, no tolerance.
TEST(KcPropertyTest, RationalGradientMatchesExactDifference) {
  Pcg32 rng(20260806, 5);
  for (int round = 0; round < 100; ++round) {
    const int num_vars = 2 + static_cast<int>(rng.NextBounded(5));  // <= 6
    pqe::Lineage lineage;
    pqe::NodeId root =
        RandomFormula(&lineage, num_vars, 1 + rng.NextBounded(3), &rng);
    std::vector<Rational> probs(num_vars);
    for (Rational& p : probs) {
      p = Rational::Ratio(rng.NextBounded(17), 16);
    }
    StatusOr<CompiledQuery> compiled = CompileLineage(&lineage, root);
    ASSERT_TRUE(compiled.ok());
    StatusOr<std::vector<Rational>> gradient =
        EvaluateGradient<Rational>(compiled->circuit, compiled->root, probs);
    ASSERT_TRUE(gradient.ok());
    for (int v = 0; v < num_vars; ++v) {
      std::vector<Rational> fixed = probs;
      fixed[v] = Rational(1);
      Rational at_one =
          EvaluateCircuit<Rational>(compiled->circuit, compiled->root, fixed)
              .value();
      fixed[v] = Rational(0);
      Rational at_zero =
          EvaluateCircuit<Rational>(compiled->circuit, compiled->root, fixed)
              .value();
      EXPECT_EQ(gradient.value()[v], at_one - at_zero)
          << round << " var " << v << ": " << lineage.ToString(root);
    }
  }
}

}  // namespace
}  // namespace kc
}  // namespace ipdb
