/// Randomized exact-parity suite for the lifted safe-plan engine: ~500
/// random hierarchical self-join-free CQs over random TI instances,
/// checked in exact rational arithmetic (EXPECT_EQ, no tolerances)
/// against two independent oracles — the ground-then-compile d-DNNF
/// pipeline and brute-force world enumeration — plus, per query, an
/// interval-semiring enclosure checked to contain the exact answer on a
/// dyadic instance. Randomly generated queries *outside* the safe class
/// double as rejection coverage.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pqe/lineage.h"
#include "pqe/safe_plan.h"
#include "test_util.h"
#include "util/interval.h"
#include "util/random.h"

namespace ipdb {
namespace pqe {
namespace {

rel::Schema ParitySchema() {
  return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}});
}

/// A random conjunction of quantified groups. Groups deliberately reuse
/// the variable names x/y/z, so multi-group queries exercise the
/// alpha-renaming of shadowed quantifiers; terms mix variables and
/// constants; relations are drawn without replacement (self-join-free
/// by construction). Hierarchicality is random — three-atom groups
/// regularly produce H0-shaped patterns — and LiftedPlan::Compile is
/// the filter.
logic::Formula RandomCq(const rel::Schema& schema, int universe,
                        Pcg32* rng) {
  const int num_relations = schema.num_relations();
  std::vector<int> relations(num_relations);
  for (int i = 0; i < num_relations; ++i) relations[i] = i;
  for (int i = num_relations - 1; i > 0; --i) {
    std::swap(relations[i],
              relations[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  const int num_groups = 1 + static_cast<int>(rng->NextBounded(2));
  const char* names[] = {"x", "y", "z"};
  size_t next_relation = 0;
  std::vector<logic::Formula> groups;
  for (int g = 0; g < num_groups; ++g) {
    const int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<std::string> vars(names, names + num_vars);
    int num_atoms = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<logic::Formula> atoms;
    while (num_atoms-- > 0 && next_relation < relations.size()) {
      const int relation = relations[next_relation++];
      std::vector<logic::Term> terms;
      for (int pos = 0; pos < schema.arity(relation); ++pos) {
        if (rng->NextBounded(10) < 9) {
          terms.push_back(logic::Term::Var(
              vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))]));
        } else {
          terms.push_back(logic::Term::Int(static_cast<int64_t>(
              rng->NextBounded(static_cast<uint32_t>(universe)))));
        }
      }
      atoms.push_back(logic::Atom(relation, std::move(terms)));
    }
    if (atoms.empty()) continue;
    groups.push_back(logic::ExistsAll(vars, logic::And(std::move(atoms))));
  }
  if (groups.empty()) return logic::Truth();
  return logic::And(std::move(groups));
}

TEST(LiftedParityTest, RandomHierarchicalQueriesMatchCircuitAndBruteForce) {
  rel::Schema schema = ParitySchema();
  Pcg32 rng(0x11f7ed);
  // The interval instances draw from their own stream, so the rational
  // instances above stay exactly what `rng` alone produces.
  Pcg32 dyadic_rng(0xd1ad1c);
  int accepted = 0;
  int rejected = 0;
  int attempts = 0;
  const int kTarget = 500;
  const int kMaxAttempts = 5000;
  while (accepted < kTarget && ++attempts <= kMaxAttempts) {
    logic::Formula sentence = RandomCq(schema, 3, &rng);
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    if (!plan.ok()) {
      // Rejection coverage: everything LiftedPlan turns away must be a
      // clean kFailedPrecondition (non-hierarchical — the generator
      // never emits self-joins or non-CQ shapes).
      EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
          << sentence.ToString(schema);
      ++rejected;
      continue;
    }
    ++accepted;

    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 8, 3, 10, &rng);
    // Lifted evaluation, exact.
    StatusOr<math::Rational> lifted = plan.value().Evaluate(exact_ti);
    ASSERT_TRUE(lifted.ok())
        << sentence.ToString(schema) << ": " << lifted.status().ToString();

    // Circuit oracle: ground the double shadow, compile, evaluate the
    // d-DNNF with the rational marginals (grounding is
    // probability-independent, so the shadow only fixes the fact order).
    pdb::TiPdb<double>::FactList shadow;
    std::map<rel::Fact, math::Rational> marginals;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      shadow.emplace_back(fact, marginal.ToDouble());
      marginals.emplace(fact, marginal);
    }
    pdb::TiPdb<double> ti =
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(shadow));
    Lineage lineage;
    StatusOr<NodeId> root = GroundSentence(ti, sentence, &lineage);
    ASSERT_TRUE(root.ok()) << sentence.ToString(schema);
    StatusOr<kc::CompiledQuery> compiled =
        kc::CompileLineage(&lineage, root.value());
    ASSERT_TRUE(compiled.ok()) << sentence.ToString(schema);
    std::vector<math::Rational> probs;
    for (const auto& [fact, marginal] : ti.facts()) {
      probs.push_back(marginals.at(fact));
    }
    StatusOr<math::Rational> circuit = kc::EvaluateCircuitExact(
        compiled.value().circuit, compiled.value().root, probs);
    ASSERT_TRUE(circuit.ok()) << sentence.ToString(schema);

    // Brute-force oracle.
    math::Rational brute = testing_util::BruteForceRational(exact_ti, sentence);

    EXPECT_EQ(lifted.value(), circuit.value())
        << sentence.ToString(schema);
    EXPECT_EQ(lifted.value(), brute) << sentence.ToString(schema);
    if (lifted.value() != circuit.value() || lifted.value() != brute) {
      break;  // one counterexample is enough output
    }

    // Interval semiring: on dyadic marginals (k/16) the doubles equal
    // the rationals, so the certified enclosure must contain the exact
    // answer — compared exactly, endpoints converted to rationals.
    pdb::TiPdb<math::Rational> dyadic_exact =
        testing_util::RandomRationalTi(schema, 8, 3, 16, &dyadic_rng);
    pdb::TiPdb<double>::FactList dyadic;
    for (const auto& [fact, marginal] : dyadic_exact.facts()) {
      dyadic.emplace_back(fact, marginal.ToDouble());
    }
    StatusOr<Interval> enclosure = plan.value().EvaluateInterval(
        pdb::TiPdb<double>::CreateOrDie(schema, std::move(dyadic)));
    ASSERT_TRUE(enclosure.ok()) << sentence.ToString(schema);
    const math::Rational dyadic_brute =
        testing_util::BruteForceRational(dyadic_exact, sentence);
    EXPECT_LE(math::Rational::FromDouble(enclosure.value().lo()),
              dyadic_brute)
        << sentence.ToString(schema);
    EXPECT_GE(math::Rational::FromDouble(enclosure.value().hi()),
              dyadic_brute)
        << sentence.ToString(schema);
  }
  EXPECT_EQ(accepted, kTarget)
      << "generator too restrictive: " << accepted << " accepted / "
      << rejected << " rejected in " << attempts << " attempts";
  // The generator must also exercise the rejection path.
  EXPECT_GT(rejected, 10);
}

TEST(LiftedParityTest, SelfJoinAndNonCqShapesRejected) {
  rel::Schema schema = ParitySchema();
  // Self-join.
  auto sj = LiftedPlan::Compile(
      logic::ParseSentence("exists x y z. S(x, y) & S(y, z)", schema)
          .value());
  EXPECT_FALSE(sj.ok());
  EXPECT_EQ(sj.status().code(), StatusCode::kFailedPrecondition);
  // Disjunction.
  auto disj = LiftedPlan::Compile(
      logic::ParseSentence("(exists x. R(x)) | (exists x. T(x))", schema)
          .value());
  EXPECT_FALSE(disj.ok());
  EXPECT_EQ(disj.status().code(), StatusCode::kFailedPrecondition);
  // The canonical #P-hard H0.
  auto h0 = LiftedPlan::Compile(
      logic::ParseSentence("exists x y. R(x) & S(x, y) & T(y)", schema)
          .value());
  EXPECT_FALSE(h0.ok());
  EXPECT_EQ(h0.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pqe
}  // namespace ipdb
