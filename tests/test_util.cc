#include "test_util.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "logic/evaluator.h"
#include "util/check.h"

namespace ipdb {
namespace testing_util {

rel::Instance RandomInstance(const rel::Schema& schema, int universe,
                             double density, Pcg32* rng) {
  std::vector<rel::Fact> facts;
  for (rel::RelationId r = 0; r < schema.num_relations(); ++r) {
    int arity = schema.arity(r);
    // Enumerate the full universe^arity candidate set.
    std::vector<int> odometer(arity, 0);
    while (true) {
      if (rng->NextBernoulli(density)) {
        std::vector<rel::Value> args;
        for (int v : odometer) args.push_back(rel::Value::Int(v));
        facts.emplace_back(r, std::move(args));
      }
      int pos = 0;
      while (pos < arity) {
        if (++odometer[pos] < universe) break;
        odometer[pos] = 0;
        ++pos;
      }
      if (pos == arity) break;
      if (arity == 0) break;
    }
    if (arity == 0) continue;
  }
  return rel::Instance(std::move(facts));
}

pdb::FinitePdb<math::Rational> RandomRationalPdb(const rel::Schema& schema,
                                                 int num_worlds,
                                                 int universe,
                                                 double density, int denom,
                                                 Pcg32* rng) {
  // Random positive integer weights summing to denom.
  std::vector<int64_t> weights(num_worlds, 1);
  int64_t remaining = denom - num_worlds;
  IPDB_CHECK_GE(remaining, 0);
  for (int i = 0; i < num_worlds; ++i) {
    int64_t take = i + 1 == num_worlds
                       ? remaining
                       : rng->NextBounded(static_cast<uint32_t>(remaining + 1));
    weights[i] += take;
    remaining -= take;
  }
  // Distinct random worlds.
  std::set<rel::Instance> seen;
  pdb::FinitePdb<math::Rational>::WorldList worlds;
  for (int i = 0; i < num_worlds; ++i) {
    rel::Instance instance = RandomInstance(schema, universe, density, rng);
    while (seen.count(instance) != 0) {
      instance = RandomInstance(schema, universe, density, rng);
    }
    seen.insert(instance);
    worlds.emplace_back(std::move(instance),
                        math::Rational::Ratio(weights[i], denom));
  }
  return pdb::FinitePdb<math::Rational>::CreateOrDie(schema,
                                                     std::move(worlds));
}

pdb::FinitePdb<double> ToDoublePdb(const pdb::FinitePdb<math::Rational>& q) {
  pdb::FinitePdb<double>::WorldList worlds;
  for (const auto& [instance, probability] : q.worlds()) {
    worlds.emplace_back(instance, probability.ToDouble());
  }
  return pdb::FinitePdb<double>::CreateOrDie(q.schema(), std::move(worlds));
}

pdb::TiPdb<math::Rational> RandomRationalTi(const rel::Schema& schema,
                                            int num_facts, int universe,
                                            int denom, Pcg32* rng) {
  std::set<rel::Fact> seen;
  pdb::TiPdb<math::Rational>::FactList facts;
  int guard = 0;
  while (static_cast<int>(facts.size()) < num_facts) {
    IPDB_CHECK_LT(++guard, 10000) << "universe too small for fact count";
    rel::RelationId r = static_cast<rel::RelationId>(
        rng->NextBounded(schema.num_relations()));
    std::vector<rel::Value> args;
    for (int p = 0; p < schema.arity(r); ++p) {
      args.push_back(rel::Value::Int(rng->NextBounded(universe)));
    }
    rel::Fact fact(r, std::move(args));
    if (!seen.insert(fact).second) continue;
    int64_t numerator = 1 + rng->NextBounded(static_cast<uint32_t>(denom - 1));
    facts.emplace_back(std::move(fact),
                       math::Rational::Ratio(numerator, denom));
  }
  return pdb::TiPdb<math::Rational>::CreateOrDie(schema, std::move(facts));
}

math::Rational BruteForceRational(const pdb::TiPdb<math::Rational>& ti,
                                  const logic::Formula& sentence) {
  pdb::TiPdb<math::Rational>::FactList facts;
  std::ranges::copy(ti.facts(), std::back_inserter(facts));
  math::Rational total;
  const uint64_t worlds = uint64_t{1} << facts.size();
  for (uint64_t mask = 0; mask < worlds; ++mask) {
    std::vector<rel::Fact> chosen;
    math::Rational probability(1);
    for (size_t i = 0; i < facts.size(); ++i) {
      if ((mask >> i) & 1) {
        chosen.push_back(facts[i].first);
        probability *= facts[i].second;
      } else {
        probability *= math::Rational(1) - facts[i].second;
      }
    }
    rel::Instance world(std::move(chosen));
    auto holds = logic::Evaluate(world, ti.schema(), sentence);
    if (holds.ok() && holds.value()) total += probability;
  }
  return total;
}

}  // namespace testing_util
}  // namespace ipdb
