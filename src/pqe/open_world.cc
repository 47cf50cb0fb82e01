#include "pqe/open_world.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "logic/classify.h"
#include "pqe/wmc.h"

namespace ipdb {
namespace pqe {

StatusOr<Interval> OpenQueryProbabilityInterval(
    const pdb::TiPdb<double>& ti, const logic::Formula& sentence,
    double lambda, const std::vector<rel::Fact>& candidate_unknowns) {
  if (!(lambda >= 0.0 && lambda <= 1.0)) {
    return InvalidArgumentError("lambda must lie in [0, 1]");
  }
  if (!logic::IsSyntacticallyMonotone(sentence)) {
    return FailedPreconditionError(
        "open-world interval bounds require a monotone (positive "
        "existential) query");
  }
  // Lower bound: the closed-world probability.
  StatusOr<double> lower = QueryProbability(ti, sentence);
  if (!lower.ok()) return lower.status();

  // Upper bound: add every unknown candidate at probability lambda.
  pdb::TiPdb<double>::FactList completed;
  std::ranges::copy(ti.facts(), std::back_inserter(completed));
  std::set<rel::Fact> added;
  for (const rel::Fact& fact : candidate_unknowns) {
    if (!fact.MatchesSchema(ti.schema())) {
      return InvalidArgumentError("candidate fact does not match schema: " +
                                  fact.ToString(ti.schema()));
    }
    if (ti.store()->FindFact(fact) < 0 && added.insert(fact).second) {
      completed.emplace_back(fact, lambda);
    }
  }
  StatusOr<pdb::TiPdb<double>> completed_ti =
      pdb::TiPdb<double>::Create(ti.schema(), std::move(completed));
  if (!completed_ti.ok()) return completed_ti.status();
  StatusOr<double> upper = QueryProbability(completed_ti.value(), sentence);
  if (!upper.ok()) return upper.status();

  // Monotone query + completion only adds facts: upper >= lower up to
  // floating point.
  double hi = std::max(lower.value(), upper.value());
  return Interval(std::min(lower.value(), hi), hi);
}

}  // namespace pqe
}  // namespace ipdb
