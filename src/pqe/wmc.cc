#include "pqe/wmc.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kc/cache.h"
#include "kc/compile.h"
#include "kc/evaluate.h"
#include "logic/evaluator.h"
#include "obs/obs.h"
#include "util/fault.h"

namespace ipdb {
namespace pqe {

namespace internal {

void ReportWmcStats(const WmcStats& delta, WmcStats* stats) {
  if (stats != nullptr) {
    stats->shannon_expansions += delta.shannon_expansions;
    stats->decompositions += delta.decompositions;
    stats->cache_hits += delta.cache_hits;
    stats->artifact_cache_hits += delta.artifact_cache_hits;
  }
  IPDB_OBS_COUNT("pqe.wmc.shannon_expansions", delta.shannon_expansions);
  IPDB_OBS_COUNT("pqe.wmc.decompositions", delta.decompositions);
  IPDB_OBS_COUNT("pqe.wmc.cache_hits", delta.cache_hits);
}

WmcStats TraceOf(const kc::CompileStats& trace, bool artifact_cache_hit) {
  return WmcStats{trace.decisions, trace.decompositions, trace.cache_hits,
                  artifact_cache_hit ? 1 : 0};
}

}  // namespace internal

namespace {

/// A store's marginals indexed by fact, as kc::EvaluateCircuit reads a
/// probability vector: each literal's marginal is read where it lives,
/// and nothing is copied.
struct StoreMarginals {
  const storage::TiStore& store;
  int64_t size() const { return store.num_facts(); }
  double operator[](int fact) const { return store.ProbAt(fact); }
};

}  // namespace

StatusOr<double> ComputeProbability(Lineage* lineage, NodeId root,
                                    const std::vector<double>& var_probs,
                                    WmcStats* stats,
                                    const ExecutionBudget* budget) {
  if (lineage == nullptr) return InvalidArgumentError("null lineage");
  if (root < 0 || root >= lineage->size()) {
    return InvalidArgumentError("lineage root out of range");
  }
  const std::vector<int>& support = lineage->Support(root);
  if (!support.empty() &&
      static_cast<size_t>(support.back()) >= var_probs.size()) {
    return InvalidArgumentError(
        "variable probabilities missing: lineage mentions variable " +
        std::to_string(support.back()) + " but only " +
        std::to_string(var_probs.size()) + " probabilities were given");
  }
  Status valid = kc::ValidateProbabilities(var_probs);
  if (!valid.ok()) return valid;
  IPDB_FAULT_POINT("pqe.wmc.solve");
  IPDB_OBS_SPAN("pqe.wmc_solve", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.wmc_solve_ns");
  if (budget != nullptr && budget->unlimited()) budget = nullptr;
  kc::CompileOptions compile_options;
  compile_options.budget = budget;
  StatusOr<kc::CompiledQuery> compiled =
      kc::CompileLineage(lineage, root, compile_options);
  if (!compiled.ok()) return compiled.status();
  BudgetMeter meter(budget, 0, "pqe.wmc_solve");
  StatusOr<double> probability = kc::EvaluateCircuit<double>(
      compiled.value().circuit, compiled.value().root, var_probs,
      budget != nullptr ? &meter : nullptr);
  if (!probability.ok()) return probability.status();
  IPDB_OBS_COUNT("pqe.wmc.solves", 1);
  internal::ReportWmcStats(
      internal::TraceOf(compiled.value().stats, /*artifact_cache_hit=*/false),
      stats);
  return probability;
}

StatusOr<CircuitAnswer> GroundCompileEvaluate(
    const storage::TiStore& store, const logic::GuardedFormula& formula,
    const ExecutionBudget* budget) {
  if (budget != nullptr && budget->unlimited()) budget = nullptr;
  std::optional<Lineage> lineage(std::in_place);
  NodeId root = -1;
  {
    IPDB_OBS_SPAN("pqe.ground", "pqe");
    IPDB_FAULT_POINT("pqe.ground");
    StatusOr<NodeId> grounded =
        GroundSentence(store, formula, &*lineage, budget);
    if (!grounded.ok()) return grounded.status();
    root = grounded.value();
  }
  if (budget != nullptr) IPDB_RETURN_IF_ERROR(budget->CheckTime("pqe.query"));
  // Compile-once / evaluate-many: a query whose lineage is unchanged
  // (re-asked, or re-grounded after a mutation that kept its facts'
  // numbers) reuses the compiled artifact and pays only a circuit-linear
  // evaluation.
  CircuitAnswer answer;
  {
    IPDB_OBS_SPAN("pqe.cache_probe", "pqe");
    kc::CompileOptions compile_options;
    compile_options.budget = budget;
    StatusOr<std::shared_ptr<const kc::CompiledQuery>> compiled =
        kc::GlobalCompiledQueryCache().GetOrCompile(
            &*lineage, root, &answer.cache_hit, compile_options,
            &answer.fingerprint);
    // The artifact is all the rest of the query needs: free the lineage
    // inside this phase, so the phases account for the time.
    lineage.reset();
    if (!compiled.ok()) return compiled.status();
    answer.artifact = std::move(compiled).value();
  }
  StatusOr<double> probability =
      EvaluateOnStore(*answer.artifact, store, budget);
  if (!probability.ok()) return probability.status();
  answer.probability = probability.value();
  return answer;
}

StatusOr<double> EvaluateOnStore(const kc::CompiledQuery& artifact,
                                 const storage::TiStore& store,
                                 const ExecutionBudget* budget) {
  IPDB_OBS_SPAN("pqe.evaluate", "pqe");
  if (budget != nullptr && budget->unlimited()) budget = nullptr;
  BudgetMeter meter(budget, 0, "pqe.evaluate");
  return kc::EvaluateCircuit<double>(artifact.circuit, artifact.root,
                                     StoreMarginals{store},
                                     budget != nullptr ? &meter : nullptr);
}

StatusOr<double> QueryProbabilityBruteForce(const pdb::TiPdb<double>& ti,
                                            const logic::Formula& sentence) {
  if (ti.num_facts() > 20) {
    return FailedPreconditionError("brute force limited to 20 facts");
  }
  if (!sentence.FreeVariables().empty()) {
    return InvalidArgumentError("brute force requires a sentence");
  }
  // Materialized once, not once per world.
  pdb::TiPdb<double>::FactList facts;
  std::ranges::copy(ti.facts(), std::back_inserter(facts));
  double total = 0.0;
  const uint64_t count = 1ULL << facts.size();
  for (uint64_t mask = 0; mask < count; ++mask) {
    std::vector<rel::Fact> chosen;
    double probability = 1.0;
    for (size_t i = 0; i < facts.size(); ++i) {
      if ((mask >> i) & 1) {
        chosen.push_back(facts[i].first);
        probability *= facts[i].second;
      } else {
        probability *= 1.0 - facts[i].second;
      }
    }
    if (probability == 0.0) continue;
    rel::Instance world(std::move(chosen));
    StatusOr<bool> holds = logic::Evaluate(world, ti.schema(), sentence);
    if (!holds.ok()) return holds.status();
    if (holds.value()) total += probability;
  }
  return total;
}

}  // namespace pqe
}  // namespace ipdb
