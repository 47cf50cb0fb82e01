/// Tests for the columnar fact store: dictionary interning, column-table
/// lookups and mutation, grounding checked world by world against the FO
/// evaluator (with pinned fingerprints), size distributions, and lifted
/// evaluation against exact brute force on randomized instances and
/// queries, TiPdb views that reflect later store mutations, and the
/// generation-counter protocol (structural mutation re-grounds and
/// compiles only changed lineages; probability updates keep circuits and
/// refresh answers).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "kc/cache.h"
#include "kc/compile.h"
#include "logic/evaluator.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "math/rational.h"
#include "pdb/bid_pdb.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "pqe/prepared.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"
#include "relational/instance.h"
#include "storage/column_table.h"
#include "storage/dictionary.h"
#include "storage/ti_store.h"
#include "test_util.h"
#include "util/random.h"

namespace ipdb {
namespace storage {
namespace {

// Satellite guarantee: fact/block counts are 64-bit everywhere.
static_assert(std::is_same_v<decltype(std::declval<const pdb::TiPdbD&>()
                                          .num_facts()),
                             int64_t>);
static_assert(std::is_same_v<decltype(std::declval<const pdb::BidPdbD&>()
                                          .num_blocks()),
                             int64_t>);
static_assert(std::is_same_v<decltype(std::declval<const TiStore&>()
                                          .num_facts()),
                             int64_t>);

TEST(DictionaryTest, InternsAndFindsValues) {
  Dictionary dict;
  const uint32_t a = dict.Intern(rel::Value::Int(7));
  const uint32_t b = dict.Intern(rel::Value::Symbol("alice"));
  const uint32_t c = dict.Intern(rel::Value::Int(7));  // dedup
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.Find(rel::Value::Int(7)), a);
  EXPECT_EQ(dict.Find(rel::Value::Symbol("alice")), b);
  EXPECT_EQ(dict.Find(rel::Value::Symbol("bob")), Dictionary::kNotFound);
  EXPECT_EQ(dict.ValueAt(a), rel::Value::Int(7));
  EXPECT_EQ(dict.ValueAt(b), rel::Value::Symbol("alice"));
}

TEST(DictionaryTest, SurvivesRehashing) {
  Dictionary dict;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(dict.Intern(rel::Value::Int(i * 3)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(dict.Find(rel::Value::Int(i * 3)), ids[i]);
    EXPECT_EQ(dict.ValueAt(ids[i]), rel::Value::Int(i * 3));
  }
  EXPECT_EQ(dict.Find(rel::Value::Int(1)), Dictionary::kNotFound);
}

TEST(ColumnTableTest, BuildLookupAndPrefixRange) {
  ColumnTable table(2);
  const uint32_t rows[][2] = {{3, 1}, {1, 2}, {1, 1}, {2, 9}};
  for (const auto& row : rows) table.AppendRow(row, 0.5);
  ASSERT_TRUE(table.FinishBuild().ok());
  EXPECT_EQ(table.num_rows(), 4);
  const uint32_t probe[2] = {1, 2};
  EXPECT_EQ(table.FindRow(probe), 1);  // row identity = append order
  const uint32_t missing[2] = {2, 2};
  EXPECT_EQ(table.FindRow(missing), -1);
  const uint32_t prefix[1] = {1};
  auto [begin, end] = table.PrefixRange(prefix, 1);
  EXPECT_EQ(end - begin, 2);  // (1,1) and (1,2)
  EXPECT_EQ(table.id(0, table.sorted_row(begin)), 1u);
}

TEST(ColumnTableTest, DetectsDuplicates) {
  ColumnTable table(1);
  const uint32_t a[1] = {4};
  table.AppendRow(a, 0.1);
  table.AppendRow(a, 0.2);
  int64_t duplicate = -1;
  Status status = table.FinishBuild(&duplicate);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(duplicate == 0 || duplicate == 1);
}

TEST(ColumnTableTest, InsertEraseAndExactSideTable) {
  ColumnTable table(1);
  for (uint32_t v : {5u, 1u, 9u}) {
    const uint32_t row[1] = {v};
    table.AppendRow(row, 0.25);
  }
  ASSERT_TRUE(table.FinishBuild().ok());
  const uint32_t seven[1] = {7};
  StatusOr<int64_t> inserted = table.Insert(seven, 0.5);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), 3);
  EXPECT_FALSE(table.Insert(seven, 0.5).ok());  // duplicate
  table.SetExact(1, math::Rational::Ratio(1, 4));
  table.SetExact(3, math::Rational::Ratio(1, 2));
  EXPECT_EQ(table.num_exact(), 2);
  // Erase row 0: rows above shift down; exact entries renumber.
  table.EraseRow(0);
  EXPECT_EQ(table.num_rows(), 3);
  const uint32_t one[1] = {1};
  EXPECT_EQ(table.FindRow(one), 0);
  ASSERT_NE(table.ExactAt(0), nullptr);
  EXPECT_EQ(*table.ExactAt(0), math::Rational::Ratio(1, 4));
  ASSERT_NE(table.ExactAt(2), nullptr);
  EXPECT_EQ(*table.ExactAt(2), math::Rational::Ratio(1, 2));
  EXPECT_EQ(table.ExactAt(1), nullptr);
}

rel::Schema TestSchema() {
  return rel::Schema({{"R", 1}, {"S", 2}, {"T", 1}, {"U", 2}});
}

TEST(TiStoreTest, FindFactMarginalAndRoundTrip) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  pdb::TiPdbD::FactList facts;
  facts.emplace_back(rel::Fact(0, {rel::Value::Int(1)}), 0.25);
  facts.emplace_back(
      rel::Fact(1, {rel::Value::Int(1), rel::Value::Symbol("a")}), 0.5);
  facts.emplace_back(rel::Fact(0, {rel::Value::Int(2)}), 0.75);
  pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, facts);
  const TiStore& store = *ti.store();
  EXPECT_EQ(store.num_facts(), 3);
  for (int64_t i = 0; i < store.num_facts(); ++i) {
    EXPECT_EQ(store.FactAt(i), facts[static_cast<size_t>(i)].first);
    EXPECT_EQ(store.ProbAt(i), facts[static_cast<size_t>(i)].second);
    EXPECT_EQ(store.FindFact(facts[static_cast<size_t>(i)].first), i);
  }
  EXPECT_EQ(store.FindFact(rel::Fact(0, {rel::Value::Int(99)})), -1);
  EXPECT_EQ(store.Marginal(facts[1].first), 0.5);
  // A FromStore view reads the facts back in global-index order, which
  // is the input order.
  StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(ti.store());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().facts().size(), facts.size());
  size_t i = 0;
  for (const auto& [fact, marginal] : view.value().facts()) {
    EXPECT_EQ(fact, facts[i].first);
    EXPECT_EQ(marginal, facts[i].second);
    EXPECT_EQ(view.value().facts()[i], facts[i]);
    ++i;
  }
  EXPECT_EQ(view.value().SizeDistribution(), ti.SizeDistribution());
}

TEST(TiStoreTest, PreservesLegacyValidationMessages) {
  rel::Schema schema({{"R", 1}});
  pdb::TiPdbD::FactList duplicated;
  duplicated.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.5);
  duplicated.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.25);
  StatusOr<pdb::TiPdbD> dup = pdb::TiPdbD::Create(schema, duplicated);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate fact"), std::string::npos);

  pdb::TiPdbD::FactList wrong;
  wrong.emplace_back(rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)}),
                     0.5);
  StatusOr<pdb::TiPdbD> mismatch = pdb::TiPdbD::Create(schema, wrong);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("does not match the schema"),
            std::string::npos);

  pdb::TiPdbD::FactList out_of_range;
  out_of_range.emplace_back(rel::Fact(0, {rel::Value::Int(1)}), 1.5);
  StatusOr<pdb::TiPdbD> range = pdb::TiPdbD::Create(schema, out_of_range);
  EXPECT_FALSE(range.ok());
  EXPECT_NE(range.status().message().find("outside [0, 1]"),
            std::string::npos);

  pdb::BidPdbD::Block block;
  block.emplace_back(rel::Fact(0, {rel::Value::Int(3)}), 0.25);
  StatusOr<pdb::BidPdbD> bid = pdb::BidPdbD::Create(schema, {block, block});
  EXPECT_FALSE(bid.ok());
  EXPECT_NE(bid.status().message().find("duplicate fact across blocks"),
            std::string::npos);
}

TEST(TiStoreTest, BytesPerFactWithinBudget) {
  rel::Schema schema({{"S", 2}});
  TiStore::Builder builder(schema);
  const int64_t n = 20000;
  builder.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    builder.Add(rel::Fact(0, {rel::Value::Int(i % 997),
                              rel::Value::Int(i / 997)}),
                0.5);
  }
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  ASSERT_TRUE(store.ok());
  EXPECT_LE(store.value()->ApproxBytes() / n, 48);
}

/// The lifted parity generator's little sibling: random ∃-prefixed
/// conjunctions over the four-relation schema (self-join-free by
/// construction, hierarchical by chance).
logic::Formula RandomCq(const rel::Schema& schema, int universe,
                        Pcg32* rng) {
  const int num_relations = schema.num_relations();
  std::vector<int> relations(num_relations);
  for (int i = 0; i < num_relations; ++i) relations[i] = i;
  for (int i = num_relations - 1; i > 0; --i) {
    std::swap(relations[i],
              relations[rng->NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  const char* names[] = {"x", "y", "z"};
  const int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
  std::vector<std::string> vars(names, names + num_vars);
  int num_atoms = 1 + static_cast<int>(rng->NextBounded(3));
  size_t next_relation = 0;
  std::vector<logic::Formula> atoms;
  while (num_atoms-- > 0 && next_relation < relations.size()) {
    const int relation = relations[next_relation++];
    std::vector<logic::Term> terms;
    for (int pos = 0; pos < schema.arity(relation); ++pos) {
      if (rng->NextBounded(10) < 8) {
        terms.push_back(logic::Term::Var(
            vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))]));
      } else {
        terms.push_back(logic::Term::Int(static_cast<int64_t>(
            rng->NextBounded(static_cast<uint32_t>(universe)))));
      }
    }
    atoms.push_back(logic::Atom(relation, std::move(terms)));
  }
  return logic::ExistsAll(vars, logic::And(std::move(atoms)));
}

TEST(StorageParityTest, GroundingMatchesWorldSemanticsAndPinnedFingerprints) {
  rel::Schema schema = TestSchema();
  Pcg32 rng(0xc01a7);
  // FNV-1a fold of every lineage fingerprint in generation order: pins
  // the grounder's exact output (variable ids, domain order, node
  // structure) across refactors.
  uint64_t digest = 1469598103934665603ULL;
  int checked = 0;
  while (checked < 200) {
    logic::Formula sentence = RandomCq(schema, 3, &rng);
    pdb::TiPdb<math::Rational> exact_ti =
        testing_util::RandomRationalTi(schema, 8, 3, 10, &rng);
    pdb::TiPdbD::FactList shadow;
    for (const auto& [fact, marginal] : exact_ti.facts()) {
      shadow.emplace_back(fact, marginal.ToDouble());
    }
    pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, std::move(shadow));

    // Semantics: lineage variable i is global fact i, so in each of the
    // 2^n worlds the lineage must take the truth value the FO evaluator
    // gives the sentence on that world.
    pqe::Lineage lineage;
    StatusOr<pqe::NodeId> root =
        pqe::GroundSentence(*ti.store(), sentence, &lineage);
    ASSERT_TRUE(root.ok()) << sentence.ToString(schema);
    const int n = static_cast<int>(ti.num_facts());
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> assignment(n);
      std::vector<rel::Fact> chosen;
      for (int i = 0; i < n; ++i) {
        assignment[i] = (mask >> i) & 1;
        if (assignment[i]) chosen.push_back(ti.store()->FactAt(i));
      }
      StatusOr<bool> holds = logic::Evaluate(rel::Instance(std::move(chosen)),
                                             schema, sentence);
      ASSERT_TRUE(holds.ok()) << sentence.ToString(schema);
      ASSERT_EQ(lineage.Evaluate(root.value(), assignment), holds.value())
          << sentence.ToString(schema) << " in world " << mask;
    }
    const auto [hi, lo] = kc::LineageFingerprint(lineage, root.value());
    digest = (digest ^ hi) * 1099511628211ULL;
    digest = (digest ^ lo) * 1099511628211ULL;

    // Same full query answer through the public ladder.
    StatusOr<double> probability =
        pqe::QueryProbability(ti, sentence, nullptr);
    ASSERT_TRUE(probability.ok()) << sentence.ToString(schema);
    StatusOr<double> brute = pqe::QueryProbabilityBruteForce(ti, sentence);
    ASSERT_TRUE(brute.ok()) << sentence.ToString(schema);
    EXPECT_NEAR(probability.value(), brute.value(), 1e-9)
        << sentence.ToString(schema);

    // Exact lifted parity where the query is in the safe class: the
    // columnar evaluator must reproduce an exact brute force over all
    // 2^n worlds (EXPECT_EQ, no tolerance), and its double semiring the
    // double brute force.
    StatusOr<pqe::LiftedPlan> plan = pqe::LiftedPlan::Compile(sentence);
    if (plan.ok()) {
      StatusOr<math::Rational> lifted = plan.value().Evaluate(exact_ti);
      ASSERT_TRUE(lifted.ok()) << sentence.ToString(schema);
      EXPECT_EQ(lifted.value(),
                testing_util::BruteForceRational(exact_ti, sentence))
          << sentence.ToString(schema);

      StatusOr<double> lifted_double = plan.value().Evaluate(ti);
      ASSERT_TRUE(lifted_double.ok());
      EXPECT_NEAR(lifted_double.value(), brute.value(), 1e-12)
          << sentence.ToString(schema);
    }
    ++checked;
  }
  EXPECT_EQ(digest, 0x06f818fa6a0b80caULL);
}

TEST(StorageParityTest, GroundingMatchesBothEvaluatorsOnRandomFoSentences) {
  // Random FO sentences (negation, ∀, →, ↔, ∨, equality with present and
  // absent constants, self-joins, nested and shadowed quantifiers) over
  // random TIs of at most 10 facts. In every world the lineage, the naive
  // evaluator (no guard code: every quantifier ranges over the whole
  // domain) and the guarded evaluator must agree.
  rel::Schema schema = TestSchema();
  Pcg32 rng(0xd1ff);
  logic::EvalOptions naive;
  naive.use_guards = false;
  for (int round = 0; round < 500; ++round) {
    logic::Formula sentence =
        testing_util::RandomSentence(schema, 3, 4, 3, &rng);
    const int num_facts = 1 + static_cast<int>(rng.NextBounded(10));
    pdb::TiPdb<math::Rational> ti =
        testing_util::RandomRationalTi(schema, num_facts, 3, 10, &rng);
    pqe::Lineage lineage;
    StatusOr<pqe::NodeId> root =
        pqe::GroundSentence(*ti.store(), sentence, &lineage);
    ASSERT_TRUE(root.ok()) << sentence.ToString(schema);
    const int n = static_cast<int>(ti.num_facts());
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> assignment(n);
      std::vector<rel::Fact> chosen;
      for (int i = 0; i < n; ++i) {
        assignment[i] = (mask >> i) & 1;
        if (assignment[i]) chosen.push_back(ti.store()->FactAt(i));
      }
      const rel::Instance world(std::move(chosen));
      StatusOr<bool> reference =
          logic::Evaluate(world, schema, sentence, {}, naive);
      ASSERT_TRUE(reference.ok()) << sentence.ToString(schema);
      StatusOr<bool> guarded = logic::Evaluate(world, schema, sentence);
      ASSERT_TRUE(guarded.ok()) << sentence.ToString(schema);
      ASSERT_EQ(guarded.value(), reference.value())
          << sentence.ToString(schema) << " in world " << mask;
      ASSERT_EQ(lineage.Evaluate(root.value(), assignment), reference.value())
          << sentence.ToString(schema) << " in world " << mask;
    }
  }
}

TEST(StorageParityTest, SizeDistributionUnchangedByColumnarBacking) {
  rel::Schema schema = TestSchema();
  Pcg32 rng(0x512e);
  pdb::TiPdb<math::Rational> exact_ti =
      testing_util::RandomRationalTi(schema, 12, 3, 10, &rng);
  pdb::TiPdbD::FactList shadow;
  for (const auto& [fact, marginal] : exact_ti.facts()) {
    shadow.emplace_back(fact, marginal.ToDouble());
  }
  pdb::TiPdbD ti = pdb::TiPdbD::CreateOrDie(schema, shadow);
  // Global fact order is insertion order, so the Poisson-binomial DP
  // sees the same marginal sequence as the pre-columnar engine:
  // bit-identical distribution.
  std::vector<double> expected;
  {
    std::vector<double> marginals;
    for (const auto& [fact, marginal] : shadow) marginals.push_back(marginal);
    expected = prob::PoissonBinomialPmf(marginals);
  }
  EXPECT_EQ(ti.SizeDistribution(), expected);
}

rel::Fact ChainR(int i) { return rel::Fact(0, {rel::Value::Int(i)}); }
rel::Fact ChainS(int i, int j) {
  return rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(j)});
}

/// A small chain instance as a *mutable* store plus its query.
std::shared_ptr<TiStore> ChainStore(int hubs) {
  rel::Schema schema({{"R", 1}, {"S", 2}});
  TiStore::Builder builder(schema);
  for (int i = 0; i < hubs; ++i) {
    builder.Add(ChainR(i), 0.3 + 0.05 * (i % 10));
    builder.Add(ChainS(i, 1000 + (i % 3)), 0.2 + 0.04 * (i % 7));
  }
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  EXPECT_TRUE(store.ok());
  return store.value();
}

logic::Formula ChainQuery(const rel::Schema& schema) {
  return logic::ParseSentence("exists x y. R(x) & S(x, y)", schema).value();
}

double BruteForceAnswer(const std::shared_ptr<TiStore>& store,
                        const logic::Formula& sentence) {
  StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
  EXPECT_TRUE(view.ok());
  StatusOr<double> brute =
      pqe::QueryProbabilityBruteForce(view.value(), sentence);
  EXPECT_TRUE(brute.ok());
  return brute.value();
}

/// "Some hub has no S edge": a query over every fact of ChainStore that
/// the lifted rung does not answer (the negation puts it outside the
/// CQs), so a PreparedQuery of it holds a circuit.
logic::Formula NoEdgeQuery(const rel::Schema& schema) {
  return logic::ParseSentence("exists x. R(x) & !(exists y. S(x, y))", schema)
      .value();
}

/// After Insert/Erase a prepared circuit query grounds again and probes
/// the artifact cache with its new lineage: one over renumbered facts
/// misses and compiles, one whose facts kept their numbers hits, and the
/// answers match the mutated store either way.
TEST(StorageInvalidationTest, StructuralMutationRecompilesOnlyChangedLineages) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  // R(i) is fact 2i, S(i, 1000 + i % 3) fact 2i + 1.
  std::shared_ptr<TiStore> store = ChainStore(4);
  const logic::Formula no_edge = NoEdgeQuery(store->schema());
  const logic::Formula low =
      logic::ParseSentence("R(0) & !S(0, 1000) | R(1)", store->schema())
          .value();

  StatusOr<pqe::PreparedQuery> all =
      pqe::PreparedQuery::Prepare(store, no_edge);
  StatusOr<pqe::PreparedQuery> prefix =
      pqe::PreparedQuery::Prepare(store, low);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(prefix.ok());
  EXPECT_FALSE(all.value().lifted());
  EXPECT_FALSE(prefix.value().lifted());
  EXPECT_EQ(cache.misses(), 2);

  const auto requery = [&](pqe::PreparedQuery& handle,
                           const logic::Formula& sentence, int64_t misses,
                           const std::string& step) {
    const int64_t before = cache.misses();
    StatusOr<double> answer = handle.Query();
    ASSERT_TRUE(answer.ok()) << step;
    EXPECT_NEAR(answer.value(), BruteForceAnswer(store, sentence), 1e-12)
        << step;
    EXPECT_EQ(cache.misses() - before, misses) << step;
  };

  // Erasing R(3) (fact 6) moves S(3, 1000) from 7 to 6: the no-edge
  // lineage changed and compiles; facts 0-2 kept their numbers, so the
  // low lineage is the one already compiled.
  ASSERT_TRUE(store->Erase(ChainR(3)).ok());
  requery(all.value(), no_edge, 1, "after Erase");
  requery(prefix.value(), low, 0, "after Erase");
  EXPECT_EQ(all.value().rebuilds(), 1);
  EXPECT_EQ(prefix.value().rebuilds(), 1);
  EXPECT_EQ(all.value().incremental_refreshes(), 0);

  // S(1, 1002) is appended as fact 7 and joins hub 1's disjunct of the
  // no-edge lineage.
  ASSERT_TRUE(store->Insert(ChainS(1, 1002), 0.5).ok());
  requery(all.value(), no_edge, 1, "after Insert");
  requery(prefix.value(), low, 0, "after Insert");
  EXPECT_EQ(all.value().rebuilds(), 2);
  EXPECT_EQ(prefix.value().rebuilds(), 2);
  EXPECT_TRUE(cache.CheckAccounting().ok());
}

TEST(StorageInvalidationTest, ProbabilityUpdateKeepsCircuitRefreshesAnswer) {
  kc::CompiledQueryCache& cache = kc::GlobalCompiledQueryCache();
  cache.Clear();
  std::shared_ptr<TiStore> store = ChainStore(5);
  logic::Formula sentence = NoEdgeQuery(store->schema());
  StatusOr<pqe::PreparedQuery> prepared =
      pqe::PreparedQuery::Prepare(store, sentence);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared.value().lifted());
  EXPECT_EQ(cache.misses(), 1);

  const uint64_t structure_before = store->structure_generation();
  ASSERT_TRUE(store->UpdateProbability(ChainR(2), 0.9).ok());
  EXPECT_EQ(store->structure_generation(), structure_before);
  // The fact set (hence the lineage and circuit) is unchanged: the
  // refresh fetches the circuit by the handle's fingerprint, one keyed
  // hit, and re-evaluates it on the new marginals without grounding, let
  // alone compiling.
  StatusOr<double> refreshed = prepared.value().Query();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_NEAR(refreshed.value(), BruteForceAnswer(store, sentence), 1e-9);
  EXPECT_EQ(prepared.value().incremental_refreshes(), 1);
  EXPECT_EQ(prepared.value().rebuilds(), 0);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);

  // Untouched store: the memoized answer is served as-is, after one more
  // keyed hit.
  StatusOr<double> memoized = prepared.value().Query();
  ASSERT_TRUE(memoized.ok());
  EXPECT_EQ(memoized.value(), refreshed.value());
  EXPECT_EQ(prepared.value().incremental_refreshes(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 2);

  // Exact update round-trips through the side table.
  ASSERT_TRUE(store
                  ->UpdateProbabilityExact(ChainR(2),
                                           math::Rational::Ratio(1, 4))
                  .ok());
  const math::Rational* exact =
      store->ExactAt(store->FindFact(ChainR(2)));
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(*exact, math::Rational::Ratio(1, 4));
}

/// A seeded interleaving of Insert, Erase and UpdateProbability on a
/// store of at most 12 facts. After every step, prepared handles and
/// QueryProbability on a view taken up front agree with brute force for
/// a quantified query over every fact, a query with negation, and a
/// quantifier-free query over facts 0-2, which no step erases; none of
/// them is a CQ, so both take the circuit rung. The last one's lineage never changes, so its
/// rebuild after a structural step hits the artifact cache.
TEST(StorageInvalidationTest, MutationSequenceMatchesBruteForce) {
  kc::GlobalCompiledQueryCache().Clear();
  rel::Schema schema({{"R", 1}, {"S", 2}});
  TiStore::Builder builder(schema);
  // Facts 0-2 are the quantifier-free query's and are never erased.
  builder.Add(ChainR(0), 0.4);
  builder.Add(ChainS(0, 1), 0.7);
  builder.Add(ChainR(1), 0.55);
  builder.Add(ChainS(1, 2), 0.35);
  builder.Add(ChainR(2), 0.6);
  builder.Add(ChainS(2, 0), 0.25);
  StatusOr<std::shared_ptr<TiStore>> built = builder.Finish();
  ASSERT_TRUE(built.ok());
  std::shared_ptr<TiStore> store = built.value();
  constexpr int64_t kKept = 3;
  constexpr int64_t kMaxFacts = 12;
  const StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
  ASSERT_TRUE(view.ok());

  struct Standing {
    logic::Formula sentence;
    pqe::PreparedQuery handle;
  };
  std::vector<Standing> standing;
  for (const char* text :
       {"exists x. R(x) | exists y. S(x, y)",
        "exists x. R(x) & !(exists y. S(x, y))",
        "R(0) & !S(0, 1) | R(1)"}) {
    logic::Formula sentence = logic::ParseSentence(text, schema).value();
    StatusOr<pqe::PreparedQuery> handle =
        pqe::PreparedQuery::Prepare(store, sentence);
    ASSERT_TRUE(handle.ok()) << text;
    EXPECT_FALSE(handle.value().lifted()) << text;
    standing.push_back({std::move(sentence), std::move(handle).value()});
  }

  Pcg32 rng(0x5eb1);
  int structural_steps = 0;
  for (int step = 0; step < 60; ++step) {
    const int64_t n = store->num_facts();
    const uint32_t op = rng.NextBounded(3);
    std::string label;
    if (op == 0 && n < kMaxFacts) {
      const int x = static_cast<int>(rng.NextBounded(5));
      const rel::Fact fact = rng.NextBounded(2) == 0
                                 ? ChainR(x)
                                 : ChainS(x, static_cast<int>(
                                                 rng.NextBounded(4)));
      if (store->FindFact(fact) >= 0) continue;
      ASSERT_TRUE(store->Insert(fact, 0.05 + 0.9 * rng.NextDouble()).ok());
      label = "Insert " + fact.ToString(schema);
    } else if (op == 1 && n > kKept) {
      const int64_t g =
          kKept + rng.NextBounded(static_cast<uint32_t>(n - kKept));
      const rel::Fact fact = store->FactAt(g);
      ASSERT_TRUE(store->Erase(fact).ok());
      label = "Erase " + fact.ToString(schema);
    } else {
      const rel::Fact fact =
          store->FactAt(rng.NextBounded(static_cast<uint32_t>(n)));
      ASSERT_TRUE(
          store->UpdateProbability(fact, 0.05 + 0.9 * rng.NextDouble()).ok());
      label = "UpdateProbability " + fact.ToString(schema);
    }
    const bool structural = store->num_facts() != n;
    structural_steps += structural;
    label = "step " + std::to_string(step) + ": " + label;

    for (size_t q = 0; q < standing.size(); ++q) {
      const double truth =
          pqe::QueryProbabilityBruteForce(view.value(), standing[q].sentence)
              .value();
      const int64_t misses_before = kc::GlobalCompiledQueryCache().misses();
      StatusOr<double> prepared = standing[q].handle.Query();
      ASSERT_TRUE(prepared.ok()) << label;
      EXPECT_NEAR(prepared.value(), truth, 1e-12) << label << ", query " << q;
      if (q + 1 == standing.size() && structural) {
        EXPECT_EQ(kc::GlobalCompiledQueryCache().misses(), misses_before)
            << label << ": the unchanged lineage recompiled";
      }
      StatusOr<pqe::QueryAnswer> served = pqe::QueryProbability(
          view.value(), standing[q].sentence, pqe::QueryOptions{});
      ASSERT_TRUE(served.ok()) << label;
      EXPECT_FALSE(served.value().lifted) << label;
      EXPECT_NEAR(served.value().probability, truth, 1e-12)
          << label << ", query " << q;
    }
  }
  EXPECT_GE(structural_steps, 15);
  EXPECT_EQ(standing.back().handle.rebuilds(), structural_steps);
  EXPECT_GT(standing.back().handle.incremental_refreshes(), 0);
}

/// A TiPdb is a view that reflects its store: a view taken before a
/// mutation answers for the mutated store on both rungs.
TEST(StorageInvalidationTest, OldViewReflectsStoreMutations) {
  // R(0), S(0, 1000), R(1), S(1, 1001).
  std::shared_ptr<TiStore> store = ChainStore(2);
  const rel::Schema& schema = store->schema();
  const StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
  ASSERT_TRUE(view.ok());
  const logic::Formula safe = ChainQuery(schema);
  const logic::Formula self_join =
      logic::ParseSentence("exists x y z. R(x) & S(x, y) & S(z, y)", schema)
          .value();
  const auto check = [&](const std::string& step) {
    EXPECT_EQ(view.value().num_facts(), store->num_facts()) << step;
    for (const logic::Formula* sentence : {&safe, &self_join}) {
      StatusOr<pqe::QueryAnswer> answer =
          pqe::QueryProbability(view.value(), *sentence, pqe::QueryOptions{});
      ASSERT_TRUE(answer.ok()) << step << ": " << answer.status().ToString();
      EXPECT_EQ(answer.value().lifted, sentence == &safe) << step;
      EXPECT_NEAR(answer.value().probability,
                  BruteForceAnswer(store, *sentence), 1e-12)
          << step << ": " << sentence->ToString(schema);
    }
  };
  check("as built");
  ASSERT_TRUE(store->Erase(ChainR(1)).ok());
  check("after Erase");
  ASSERT_TRUE(store->Insert(ChainS(1, 1000), 0.35).ok());
  ASSERT_TRUE(store->Insert(ChainR(1), 0.65).ok());
  check("after Insert");
  ASSERT_TRUE(store->UpdateProbability(ChainS(0, 1000), 0.9).ok());
  check("after UpdateProbability");
}

TEST(StorageInvalidationTest, ConcurrentReaders) {
  std::shared_ptr<TiStore> store = ChainStore(32);
  const StatusOr<pdb::TiPdbD> view = pdb::TiPdbD::FromStore(store);
  ASSERT_TRUE(view.ok());
  // A self-join, so QueryProbability takes the circuit rung.
  const logic::Formula sentence =
      logic::ParseSentence("exists x y z. R(x) & S(x, y) & S(z, y)",
                           store->schema())
          .value();
  const pqe::QueryOptions circuit_rung;
  const StatusOr<pqe::QueryAnswer> first =
      pqe::QueryProbability(view.value(), sentence, circuit_rung);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().lifted);
  const double expected = first.value().probability;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int hub = (t * 53 + i) % 32;
        EXPECT_GE(store->FindFact(ChainR(hub)), 0);
        EXPECT_GT(store->Marginal(ChainR(hub)), 0.0);
        if (i % 50 == 0) {
          StatusOr<pqe::QueryAnswer> answer =
              pqe::QueryProbability(view.value(), sentence, circuit_rung);
          ASSERT_TRUE(answer.ok());
          EXPECT_EQ(answer.value().probability, expected);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(TiStoreTest, ErasingARelationsLastFactLeavesItEmptyButUsable) {
  rel::Schema schema({{"R", 2}, {"S", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1), rel::Value::Int(2)}), 0.5);
  builder.Add(rel::Fact(1, {rel::Value::Symbol("only")}), 0.75);
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact only(1, {rel::Value::Symbol("only")});
  ASSERT_TRUE(store->Erase(only).ok());
  EXPECT_EQ(store->table(1).num_rows(), 0);
  EXPECT_EQ(store->num_facts(), 1);
  EXPECT_EQ(store->FindFact(only), -1);
  // The emptied relation still accepts inserts.
  StatusOr<int64_t> back = store->Insert(only, 0.25);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(store->FactAt(back.value()), only);
  EXPECT_EQ(store->ProbAt(back.value()), 0.25);
}

/// Erase renumbers only the rows and global indices that moved. A seeded
/// interleaving of Insert, Erase, UpdateProbability and its exact variant
/// over three relations of arity 1-3, checked after every step against a
/// model of the store in global order: both index maps invert each
/// other, every fact is found at its index with its marginal and exact
/// entry, and each relation's global indices ascend with its rows.
TEST(TiStoreTest, EraseKeepsTheNumberingConsistent) {
  rel::Schema schema({{"R", 1}, {"S", 2}, {"U", 3}});
  Pcg32 rng(0xe2a5e);
  const auto random_fact = [&]() {
    const rel::RelationId r = static_cast<rel::RelationId>(rng.NextBounded(3));
    std::vector<rel::Value> args;
    for (int i = 0; i < schema.arity(r); ++i) {
      args.push_back(rel::Value::Int(static_cast<int>(rng.NextBounded(4))));
    }
    return rel::Fact(r, std::move(args));
  };
  struct Entry {
    rel::Fact fact;
    double prob;
    bool exact;  // the marginal is the exact 1/4
  };
  std::vector<Entry> model;  // in global order
  TiStore::Builder builder(schema);
  for (int i = 0; i < 24; ++i) {
    const rel::Fact fact = random_fact();
    bool known = false;
    for (const Entry& entry : model) known = known || entry.fact == fact;
    if (known) continue;
    const double prob = 0.05 + 0.9 * rng.NextDouble();
    builder.Add(fact, prob);
    model.push_back({fact, prob, false});
  }
  std::shared_ptr<TiStore> store = builder.Finish().value();

  for (int step = 0; step < 2000; ++step) {
    const rel::Fact fact = random_fact();
    int64_t at = -1;
    for (size_t g = 0; g < model.size(); ++g) {
      if (model[g].fact == fact) at = static_cast<int64_t>(g);
    }
    const uint32_t op = rng.NextBounded(4);
    const double prob = 0.05 + 0.9 * rng.NextDouble();
    if (at < 0) {
      ASSERT_TRUE(store->Insert(fact, prob).ok()) << "step " << step;
      model.push_back({fact, prob, false});
    } else if (op < 2) {
      ASSERT_TRUE(store->Erase(fact).ok()) << "step " << step;
      model.erase(model.begin() + at);
    } else if (op == 2) {
      ASSERT_TRUE(store->UpdateProbability(fact, prob).ok());
      model[static_cast<size_t>(at)].prob = prob;
      model[static_cast<size_t>(at)].exact = false;
    } else {
      ASSERT_TRUE(
          store->UpdateProbabilityExact(fact, math::Rational::Ratio(1, 4))
              .ok());
      model[static_cast<size_t>(at)].prob = 0.25;
      model[static_cast<size_t>(at)].exact = true;
    }

    ASSERT_EQ(store->num_facts(), static_cast<int64_t>(model.size()));
    for (int64_t g = 0; g < store->num_facts(); ++g) {
      const Entry& entry = model[static_cast<size_t>(g)];
      ASSERT_EQ(store->global_index(store->fact_rel(g), store->fact_row(g)), g)
          << "step " << step;
      ASSERT_EQ(store->FactAt(g), entry.fact) << "step " << step;
      ASSERT_EQ(store->FindFact(entry.fact), g) << "step " << step;
      ASSERT_EQ(store->ProbAt(g), entry.prob) << "step " << step;
      const math::Rational* exact = store->ExactAt(g);
      ASSERT_EQ(exact != nullptr, entry.exact) << "step " << step;
      if (exact != nullptr) {
        ASSERT_EQ(*exact, math::Rational::Ratio(1, 4));
      }
    }
    for (rel::RelationId r = 0; r < schema.num_relations(); ++r) {
      for (int64_t row = 1; row < store->table(r).num_rows(); ++row) {
        ASSERT_LT(store->global_index(r, row - 1), store->global_index(r, row))
            << "step " << step;
      }
    }
  }
}

TEST(TiStoreTest, MutationsOfAnErasedFactAreInvalidArgument) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);
  builder.Add(rel::Fact(0, {rel::Value::Int(2)}), 0.5);
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact gone(0, {rel::Value::Int(1)});
  ASSERT_TRUE(store->Erase(gone).ok());
  EXPECT_EQ(store->UpdateProbability(gone, 0.9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store->UpdateProbabilityExact(gone, math::Rational::Ratio(1, 3))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store->Erase(gone).code(), StatusCode::kInvalidArgument);
  // A failed mutation leaves the survivor untouched.
  EXPECT_EQ(store->num_facts(), 1);
  EXPECT_EQ(store->ProbAt(store->FindFact(rel::Fact(0, {rel::Value::Int(2)}))),
            0.5);
  // Re-inserting the erased fact appends it as a fresh row at the end.
  StatusOr<int64_t> again = store->Insert(gone, 0.0625);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), store->num_facts() - 1);
  EXPECT_EQ(store->ProbAt(again.value()), 0.0625);
}

TEST(TiStoreTest, ExactSideTableChurnTracksTheLatestUpdate) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);
  builder.AddExact(rel::Fact(0, {rel::Value::Int(2)}),
                   math::Rational::Ratio(2, 5));
  std::shared_ptr<TiStore> store = builder.Finish().value();
  const rel::Fact one(0, {rel::Value::Int(1)});
  const rel::Fact two(0, {rel::Value::Int(2)});
  // Double-only fact gains an exact entry...
  ASSERT_TRUE(
      store->UpdateProbabilityExact(one, math::Rational::Ratio(1, 3)).ok());
  {
    const math::Rational* exact = store->ExactAt(store->FindFact(one));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, math::Rational::Ratio(1, 3));
  }
  // ...and a plain double update clears it again: the exact side table
  // never serves a value the double column has since diverged from.
  ASSERT_TRUE(store->UpdateProbability(one, 0.5).ok());
  EXPECT_EQ(store->ExactAt(store->FindFact(one)), nullptr);
  // Overwriting an existing exact entry replaces it in place.
  ASSERT_TRUE(
      store->UpdateProbabilityExact(two, math::Rational::Ratio(2, 7)).ok());
  {
    const math::Rational* exact = store->ExactAt(store->FindFact(two));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, math::Rational::Ratio(2, 7));
  }
  // Erasing a fact drops its exact entry with it.
  ASSERT_TRUE(store->Erase(two).ok());
  EXPECT_EQ(store->table(0).num_exact(), 0);
}

TEST(TiStoreTest, ExactViewRequiresExactMarginals) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.Add(rel::Fact(0, {rel::Value::Int(1)}), 0.5);  // double only
  StatusOr<std::shared_ptr<TiStore>> store = builder.Finish();
  ASSERT_TRUE(store.ok());
  StatusOr<pdb::TiPdbQ> exact = pdb::TiPdbQ::FromStore(store.value());
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TiStoreTest, ExactViewReadsAClearedEntryAsItsExactDouble) {
  rel::Schema schema({{"R", 1}});
  TiStore::Builder builder(schema);
  builder.AddExact(rel::Fact(0, {rel::Value::Int(1)}),
                   math::Rational::Ratio(1, 3));
  std::shared_ptr<TiStore> store = builder.Finish().value();
  StatusOr<pdb::TiPdbQ> view = pdb::TiPdbQ::FromStore(store);
  ASSERT_TRUE(view.ok());
  const rel::Fact added(0, {rel::Value::Int(2)});
  ASSERT_TRUE(store->Insert(added, 0.375).ok());
  EXPECT_EQ(view.value().Marginal(added), math::Rational::Ratio(3, 8));
  EXPECT_EQ(view.value().MarginalSum(), math::Rational::Ratio(17, 24));
  // The exact lifted evaluator enforces FromStore's precondition on the
  // queried relations at evaluation time.
  pqe::LiftedPlan plan =
      pqe::LiftedPlan::Compile(
          logic::ParseSentence("exists x. R(x)", schema).value())
          .value();
  EXPECT_EQ(plan.Evaluate(view.value()).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace storage
}  // namespace ipdb
