#include "pqe/expected_answers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "logic/guards.h"
#include "pqe/lineage.h"
#include "pqe/wmc.h"
#include "util/parallel.h"

namespace ipdb {
namespace pqe {

namespace {

using logic::Formula;
using logic::Term;

StatusOr<std::vector<RankedAnswer>> EnumerateAnswers(
    const pdb::TiPdb<double>& ti, const Formula& query,
    const std::vector<std::string>& head_vars,
    const pdb::SamplingOptions& options) {
  std::vector<std::string> free = query.FreeVariables();
  for (const std::string& v : free) {
    if (std::find(head_vars.begin(), head_vars.end(), v) ==
        head_vars.end()) {
      return InvalidArgumentError("free variable " + v +
                                  " not covered by the head");
    }
  }
  std::vector<RankedAnswer> answers;
  if (head_vars.empty()) {
    StatusOr<double> p = QueryProbability(ti, query);
    if (!p.ok()) return p.status();
    if (p.value() > 0.0) answers.push_back({{}, p.value()});
    return answers;
  }

  // Candidate values per head position: a guarded variable takes the
  // values its guard reads from the store's facts; any other tuple has
  // probability exactly 0. An unguarded one, or one named twice in the
  // head (only its first position is substituted), takes the
  // output-safety set: adom of the fact set plus query constants.
  const logic::GuardedFormula compiled(query, head_vars);
  std::vector<rel::Value> all;
  std::vector<std::vector<rel::Value>> per_var(head_vars.size());
  for (size_t i = 0; i < head_vars.size(); ++i) {
    std::optional<std::vector<rel::Value>> guarded;
    if (std::count(head_vars.begin(), head_vars.end(), head_vars[i]) == 1) {
      guarded = GuardCandidates(*ti.store(), compiled,
                                compiled.free_slot(head_vars[i]));
    }
    if (guarded.has_value()) {
      per_var[i] = std::move(guarded).value();
    } else {
      if (all.empty()) {
        all = ti.store()->SortedDomain();
        all.insert(all.end(), compiled.constants().begin(),
                   compiled.constants().end());
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
      }
      per_var[i] = all;
    }
    if (per_var[i].empty()) return answers;
  }

  // Materialize the candidate grid first, then evaluate each grounded
  // query by exact WMC — independent work items, fanned out across
  // options.threads and recombined in grid order so the result does not
  // depend on the schedule.
  std::vector<std::vector<rel::Value>> tuples;
  std::vector<size_t> odometer(head_vars.size(), 0);
  while (true) {
    std::vector<rel::Value> tuple;
    tuple.reserve(head_vars.size());
    for (size_t i = 0; i < head_vars.size(); ++i) {
      tuple.push_back(per_var[i][odometer[i]]);
    }
    tuples.push_back(std::move(tuple));
    size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < per_var[pos].size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) break;
  }

  std::vector<double> probabilities(tuples.size(), 0.0);
  std::vector<Status> statuses(tuples.size(), Status::Ok());
  ParallelFor(options.threads, static_cast<int64_t>(tuples.size()),
              [&](int64_t t) {
                Formula grounded = query;
                for (size_t i = 0; i < head_vars.size(); ++i) {
                  grounded = grounded.Substitute(
                      head_vars[i], Term::Const(tuples[t][i]));
                }
                StatusOr<double> p = QueryProbability(ti, grounded);
                if (!p.ok()) {
                  statuses[t] = p.status();
                  return;
                }
                probabilities[t] = p.value();
              });
  for (size_t t = 0; t < tuples.size(); ++t) {
    if (!statuses[t].ok()) return statuses[t];
    if (probabilities[t] > 0.0) {
      answers.push_back({std::move(tuples[t]), probabilities[t]});
    }
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

}  // namespace

StatusOr<std::vector<RankedAnswer>> RankedAnswers(
    const pdb::TiPdb<double>& ti, const logic::Formula& query,
    const std::vector<std::string>& head_vars,
    const pdb::SamplingOptions& options) {
  return EnumerateAnswers(ti, query, head_vars, options);
}

StatusOr<double> ExpectedAnswerCount(
    const pdb::TiPdb<double>& ti, const logic::Formula& query,
    const std::vector<std::string>& head_vars,
    const pdb::SamplingOptions& options) {
  StatusOr<std::vector<RankedAnswer>> answers =
      EnumerateAnswers(ti, query, head_vars, options);
  if (!answers.ok()) return answers.status();
  double total = 0.0;
  for (const RankedAnswer& answer : answers.value()) {
    total += answer.probability;
  }
  return total;
}

}  // namespace pqe
}  // namespace ipdb
