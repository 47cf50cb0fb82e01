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

  // A variable the head names twice fills each of its positions with one
  // value: a tuple whose positions for one variable differ is not an
  // answer. So candidates range over the distinct head variables, and
  // `var_of` maps each head position to its variable.
  std::vector<std::string> vars;
  std::vector<size_t> var_of;
  for (const std::string& v : head_vars) {
    const auto it = std::find(vars.begin(), vars.end(), v);
    var_of.push_back(static_cast<size_t>(it - vars.begin()));
    if (it == vars.end()) vars.push_back(v);
  }

  // Candidate values per variable: a guarded variable takes the values
  // its guard reads from the store's facts; any other tuple has
  // probability exactly 0. An unguarded one takes the output-safety set:
  // adom of the fact set plus query constants.
  const logic::GuardedFormula compiled(query, vars);
  std::vector<rel::Value> all;
  std::vector<std::vector<rel::Value>> per_var(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    std::optional<std::vector<rel::Value>> guarded = GuardCandidates(
        *ti.store(), compiled, compiled.free_slot(vars[i]));
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
  // depend on the schedule. A grid point assigns the variables; its
  // answer tuple spells them out per head position.
  std::vector<std::vector<rel::Value>> assignments;
  std::vector<size_t> odometer(vars.size(), 0);
  while (true) {
    std::vector<rel::Value> assignment;
    assignment.reserve(vars.size());
    for (size_t i = 0; i < vars.size(); ++i) {
      assignment.push_back(per_var[i][odometer[i]]);
    }
    assignments.push_back(std::move(assignment));
    size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < per_var[pos].size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) break;
  }

  std::vector<double> probabilities(assignments.size(), 0.0);
  std::vector<Status> statuses(assignments.size(), Status::Ok());
  ParallelFor(options.threads, static_cast<int64_t>(assignments.size()),
              [&](int64_t t) {
                Formula grounded = query;
                for (size_t i = 0; i < vars.size(); ++i) {
                  grounded = grounded.Substitute(
                      vars[i], Term::Const(assignments[t][i]));
                }
                StatusOr<double> p = QueryProbability(ti, grounded);
                if (!p.ok()) {
                  statuses[t] = p.status();
                  return;
                }
                probabilities[t] = p.value();
              });
  for (size_t t = 0; t < assignments.size(); ++t) {
    if (!statuses[t].ok()) return statuses[t];
    if (probabilities[t] > 0.0) {
      std::vector<rel::Value> tuple;
      tuple.reserve(head_vars.size());
      for (size_t var : var_of) tuple.push_back(assignments[t][var]);
      answers.push_back({std::move(tuple), probabilities[t]});
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
