/// Randomized exact-parity suite for the lifted safe-plan engine: ~500
/// random hierarchical self-join-free CQs over random TI instances,
/// checked in exact rational arithmetic (EXPECT_EQ, no tolerances)
/// against two independent oracles — the ground-then-compile d-DNNF
/// pipeline and brute-force world enumeration — plus, per query, an
/// interval-semiring enclosure checked to contain the exact answer on a
/// dyadic instance. Randomly generated queries *outside* the safe class
/// double as rejection coverage, and a wider generator checks which
/// sentences the plan compiler accepts against a hierarchy oracle of the
/// test's own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
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

/// A random TI over `schema` with up to `num_facts` distinct facts over
/// [0, universe) and marginals drawn from (0, 1). Facts are drawn with
/// replacement, so small relations saturate and the count may fall short.
pdb::TiPdb<double> RandomDoubleTi(const rel::Schema& schema, int num_facts,
                                  int universe, Pcg32* rng) {
  std::set<rel::Fact> seen;
  pdb::TiPdb<double>::FactList facts;
  for (int attempt = 0;
       attempt < 20 * num_facts && static_cast<int>(facts.size()) < num_facts;
       ++attempt) {
    const rel::RelationId r = static_cast<rel::RelationId>(
        rng->NextBounded(static_cast<uint32_t>(schema.num_relations())));
    std::vector<rel::Value> args;
    for (int p = 0; p < schema.arity(r); ++p) {
      args.push_back(rel::Value::Int(
          rng->NextBounded(static_cast<uint32_t>(universe))));
    }
    rel::Fact fact(r, std::move(args));
    if (!seen.insert(fact).second) continue;
    facts.emplace_back(std::move(fact), 0.001 + 0.998 * rng->NextDouble());
  }
  return pdb::TiPdb<double>::CreateOrDie(schema, std::move(facts));
}

uint64_t FoldBits(uint64_t digest, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return (digest ^ bits) * 1099511628211ULL;
}

TEST(LiftedParityTest, PinnedAnswerBitsOnRandomHierarchicalQueries) {
  // FNV-1a fold of the double and interval answers of 1,000 random
  // hierarchical CQs, each over its own random TI of 20-300 facts over a
  // 12-value universe, so projects see groups of several rows. Constants
  // come from [0, 14): 12 and 13 occur in no fact. The ternary V puts
  // constants and repeated variables after a column the walk has not
  // fixed yet, as in V(x, y, x). The plan walk must reproduce the pinned
  // bits exactly: complement products run over the candidate values in
  // ascending dictionary id, and a refactor of the walk may not reorder
  // or drop a factor.
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}, {"V", 3}});
  Pcg32 rng(0xb175);
  uint64_t digest = 1469598103934665603ULL;
  int accepted = 0;
  int attempts = 0;
  while (accepted < 1000 && ++attempts <= 20000) {
    logic::Formula sentence = RandomCq(schema, 14, &rng);
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    if (!plan.ok()) continue;
    ++accepted;
    const int num_facts = 20 + static_cast<int>(rng.NextBounded(281));
    pdb::TiPdb<double> ti = RandomDoubleTi(schema, num_facts, 12, &rng);
    StatusOr<double> point = plan.value().Evaluate(ti);
    ASSERT_TRUE(point.ok()) << sentence.ToString(schema);
    StatusOr<Interval> enclosure = plan.value().EvaluateInterval(ti);
    ASSERT_TRUE(enclosure.ok()) << sentence.ToString(schema);
    digest = FoldBits(digest, point.value());
    digest = FoldBits(digest, enclosure.value().lo());
    digest = FoldBits(digest, enclosure.value().hi());
  }
  EXPECT_EQ(accepted, 1000);
  EXPECT_EQ(digest, 0xad7fefd18fcc32f3ULL);
}

TEST(LiftedParityTest, NarrowingAndGatheredShapesMatchBruteForce) {
  // Exact parity for the shapes that exercise each step of the walk:
  // a project variable behind an unfixed column (gathered), a repeated
  // variable and a constant after the grouped column (narrowed in
  // place), a repeated variable behind an unfixed column (V(x, y, x)),
  // and constants absent from the store. Three values over 12 facts give
  // groups of several rows.
  rel::Schema schema({{"R", 1}, {"S", 2}, {"U", 2}, {"V", 3}});
  const char* const queries[] = {
      "exists x y. R(x) & S(y, x)",
      "exists x. S(x, x)",
      "exists x y. S(x, y) & U(x, 2)",
      "exists x y. V(x, y, x)",
      "exists x y. V(y, x, 1) & R(x)",
      "exists x y z. S(x, y) & V(z, y, x)",
      "exists y. S(7, y)",
      "exists x. R(x) & U(x, 7)",
  };
  Pcg32 rng(0x9a7e);
  for (const char* text : queries) {
    logic::Formula sentence = logic::ParseSentence(text, schema).value();
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    ASSERT_TRUE(plan.ok()) << text;
    for (int round = 0; round < 20; ++round) {
      pdb::TiPdb<math::Rational> ti =
          testing_util::RandomRationalTi(schema, 12, 3, 10, &rng);
      StatusOr<math::Rational> lifted = plan.value().Evaluate(ti);
      ASSERT_TRUE(lifted.ok()) << text;
      EXPECT_EQ(lifted.value(), testing_util::BruteForceRational(ti, sentence))
          << text << " round " << round;
    }
  }
}

/// A random term over `vars`: a variable nine times in ten, else a
/// constant below `universe`.
logic::Term RandomTerm(const std::vector<std::string>& vars, int universe,
                       Pcg32* rng) {
  if (rng->NextBounded(10) < 9) {
    return logic::Term::Var(
        vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))]);
  }
  return logic::Term::Int(
      static_cast<int64_t>(rng->NextBounded(static_cast<uint32_t>(universe))));
}

/// RandomCq widened to the shapes around the safe class. Half the
/// sentences draw relations with replacement (self-joins); an atom may
/// sit under a nested quantifier that shadows a group variable, turn
/// into ¬atom or atom ∨ atom, or come with a `true` or an equality
/// conjunct; one sentence in twenty is negated whole. Every sentence is
/// closed.
logic::Formula RandomSentence(const rel::Schema& schema, int universe,
                              Pcg32* rng) {
  const int num_relations = schema.num_relations();
  std::vector<int> relations(num_relations);
  for (int i = 0; i < num_relations; ++i) relations[i] = i;
  for (int i = num_relations - 1; i > 0; --i) {
    std::swap(relations[i],
              relations[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  const bool self_joins = rng->NextBounded(2) == 0;
  size_t next_relation = 0;
  const char* names[] = {"x", "y", "z"};
  const auto any_relation = [&] {
    return static_cast<int>(
        rng->NextBounded(static_cast<uint32_t>(num_relations)));
  };
  const auto atom_of = [&](int relation,
                           const std::vector<std::string>& vars) {
    std::vector<logic::Term> terms;
    for (int pos = 0; pos < schema.arity(relation); ++pos) {
      terms.push_back(RandomTerm(vars, universe, rng));
    }
    return logic::Atom(relation, std::move(terms));
  };
  const int num_groups = 1 + static_cast<int>(rng->NextBounded(2));
  std::vector<logic::Formula> groups;
  for (int g = 0; g < num_groups; ++g) {
    const int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<std::string> vars(names, names + num_vars);
    const int num_atoms = 1 + static_cast<int>(rng->NextBounded(4));
    std::vector<logic::Formula> conjuncts;
    for (int a = 0; a < num_atoms; ++a) {
      if (!self_joins && next_relation == relations.size()) break;
      logic::Formula atom = atom_of(
          self_joins ? any_relation() : relations[next_relation++], vars);
      switch (rng->NextBounded(30)) {
        case 0:
          atom = logic::Exists(
              vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))],
              std::move(atom));
          break;
        case 1:
          atom = logic::Not(std::move(atom));
          break;
        case 2:
          atom = logic::Or(std::move(atom), atom_of(any_relation(), vars));
          break;
        case 3:
          conjuncts.push_back(logic::Eq(RandomTerm(vars, universe, rng),
                                        RandomTerm(vars, universe, rng)));
          break;
        case 4:
          conjuncts.push_back(logic::Truth());
          break;
        default:
          break;
      }
      conjuncts.push_back(std::move(atom));
    }
    if (conjuncts.empty()) continue;
    groups.push_back(logic::ExistsAll(vars, logic::And(std::move(conjuncts))));
  }
  logic::Formula sentence = logic::And(std::move(groups));
  if (rng->NextBounded(20) == 0) sentence = logic::Not(std::move(sentence));
  return sentence;
}

enum class Verdict { kSafe, kNotCq, kSelfJoin, kNotHierarchical };

/// The safe class read straight off the definition, sharing no code with
/// the plan compiler: the sentence is an ∃/∧ tree over relational atoms
/// and `true` with no free variable; after renaming quantifiers apart
/// (each ∃ gets its own id, an occurrence the innermost one), no relation
/// occurs twice, and any two variables' atom sets are nested or disjoint.
class SafeClassOracle {
 public:
  Verdict Classify(const logic::Formula& sentence) {
    if (!Walk(sentence)) return Verdict::kNotCq;
    std::vector<rel::RelationId> sorted = relations_;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Verdict::kSelfJoin;
    }
    std::vector<std::set<int>> at(static_cast<size_t>(next_var_));
    for (size_t a = 0; a < atom_vars_.size(); ++a) {
      for (int v : atom_vars_[a]) {
        at[static_cast<size_t>(v)].insert(static_cast<int>(a));
      }
    }
    for (const std::set<int>& u : at) {
      for (const std::set<int>& v : at) {
        const bool meet = std::any_of(u.begin(), u.end(), [&v](int a) {
          return v.count(a) > 0;
        });
        if (meet && !std::includes(u.begin(), u.end(), v.begin(), v.end()) &&
            !std::includes(v.begin(), v.end(), u.begin(), u.end())) {
          return Verdict::kNotHierarchical;
        }
      }
    }
    return Verdict::kSafe;
  }

 private:
  bool Walk(const logic::Formula& f) {
    switch (f.kind()) {
      case logic::FormulaKind::kTrue:
        return true;
      case logic::FormulaKind::kAnd:
        for (const logic::Formula& child : f.children()) {
          if (!Walk(child)) return false;
        }
        return true;
      case logic::FormulaKind::kExists: {
        scope_.emplace_back(f.quantified_var(), next_var_++);
        const bool ok = Walk(f.children()[0]);
        scope_.pop_back();
        return ok;
      }
      case logic::FormulaKind::kAtom: {
        std::set<int> vars;
        for (const logic::Term& t : f.terms()) {
          if (!t.is_var()) continue;
          auto it = std::find_if(
              scope_.rbegin(), scope_.rend(),
              [&t](const auto& entry) { return entry.first == t.var(); });
          if (it == scope_.rend()) return false;  // free variable
          vars.insert(it->second);
        }
        relations_.push_back(f.relation());
        atom_vars_.push_back(std::move(vars));
        return true;
      }
      default:
        return false;
    }
  }

  std::vector<std::pair<std::string, int>> scope_;
  int next_var_ = 0;
  std::vector<rel::RelationId> relations_;
  std::vector<std::set<int>> atom_vars_;
};

TEST(LiftedParityTest, CompileAcceptsExactlyTheHierarchicalSjfCqs) {
  // Three binary relations, so self-join-free groups of two or three
  // atoms often cross their variables (S(x, y) ∧ U(y, z) ∧ W(z, x)).
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}, {"W", 2}});
  Pcg32 rng(0x41e7a);
  std::map<Verdict, int> seen;
  for (int i = 0; i < 3000; ++i) {
    const logic::Formula sentence = RandomSentence(schema, 3, &rng);
    const Verdict verdict = SafeClassOracle().Classify(sentence);
    ++seen[verdict];
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
    ASSERT_EQ(plan.ok(), verdict == Verdict::kSafe)
        << sentence.ToString(schema) << " oracle verdict "
        << static_cast<int>(verdict);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
          << sentence.ToString(schema);
      continue;
    }
    // An accepted plan answers the sentence exactly, shadowed
    // quantifiers and `true` conjuncts included.
    pdb::TiPdb<math::Rational> ti =
        testing_util::RandomRationalTi(schema, 6, 3, 10, &rng);
    StatusOr<math::Rational> lifted = plan.value().Evaluate(ti);
    ASSERT_TRUE(lifted.ok()) << sentence.ToString(schema);
    ASSERT_EQ(lifted.value(), testing_util::BruteForceRational(ti, sentence))
        << sentence.ToString(schema);
  }
  // Every verdict is well represented.
  for (Verdict verdict : {Verdict::kSafe, Verdict::kNotCq, Verdict::kSelfJoin,
                          Verdict::kNotHierarchical}) {
    EXPECT_GE(seen[verdict], 100)
        << "verdict " << static_cast<int>(verdict) << ": safe "
        << seen[Verdict::kSafe] << ", not a CQ " << seen[Verdict::kNotCq]
        << ", self-join " << seen[Verdict::kSelfJoin]
        << ", not hierarchical " << seen[Verdict::kNotHierarchical];
  }
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
