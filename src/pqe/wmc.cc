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
#include "pqe/monte_carlo.h"
#include "pqe/safe_plan.h"
#include "util/fault.h"

namespace ipdb {
namespace pqe {

namespace {

/// Interned `quality` label values for the pqe.answers{quality=...}
/// counter family — one cell per answer grade, so dashboards see the
/// exact/interval/failed split without parsing counter names.
[[maybe_unused]] const obs::LabelId kQualityExact =
    obs::InternLabel("exact");
[[maybe_unused]] const obs::LabelId kQualityInterval =
    obs::InternLabel("interval");
[[maybe_unused]] const obs::LabelId kQualityFailed =
    obs::InternLabel("failed");

/// Adds a per-query WmcStats delta to the caller's stats (when given)
/// and to the cumulative registry counters, so every exact rung feeds
/// the same process-wide tallies the public struct reports per call.
void ReportWmcStats(const WmcStats& delta, WmcStats* stats) {
  if (stats != nullptr) {
    stats->shannon_expansions += delta.shannon_expansions;
    stats->decompositions += delta.decompositions;
    stats->cache_hits += delta.cache_hits;
  }
  IPDB_OBS_COUNT("pqe.wmc.shannon_expansions", delta.shannon_expansions);
  IPDB_OBS_COUNT("pqe.wmc.decompositions", delta.decompositions);
  IPDB_OBS_COUNT("pqe.wmc.cache_hits", delta.cache_hits);
}

/// A compilation trace in the WmcStats vocabulary.
WmcStats TraceOf(const kc::CompileStats& trace) {
  return WmcStats{trace.decisions, trace.decompositions, trace.cache_hits,
                  0};
}

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
  ReportWmcStats(TraceOf(compiled.value().stats), stats);
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
            &*lineage, root, &answer.cache_hit, compile_options);
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

StatusOr<double> QueryProbability(const pdb::TiPdb<double>& ti,
                                  const logic::Formula& sentence,
                                  WmcStats* stats) {
  // The ungoverned entry point is the governed one with an unlimited
  // budget: the ladder's exact rung is the whole pipeline, no budget
  // checks fire (null budget short-circuits them), and every error
  // propagates as before.
  StatusOr<QueryAnswer> answer =
      QueryProbability(ti, sentence, QueryOptions{}, stats);
  if (!answer.ok()) return answer.status();
  return answer.value().probability;
}

StatusOr<QueryAnswer> QueryProbability(const pdb::TiPdb<double>& ti,
                                       const logic::Formula& sentence,
                                       const QueryOptions& options,
                                       WmcStats* stats) {
  // The span tree below is the serving pipeline's cost breakdown:
  // pqe.query = pqe.lifted (compiling the sentence, and the plan walk
  // when the query is a safe CQ) + pqe.ground + pqe.cache_probe
  // (kc.compile nests inside on a miss) + pqe.evaluate, with only branch
  // checks in between — a trace therefore attributes essentially all
  // query wall-clock to a named phase (ci.sh gates the coverage at 95%).
  IPDB_OBS_SPAN("pqe.query", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.query_ns");
  IPDB_OBS_COUNT("pqe.queries", 1);
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;

  // Lifted rung: hierarchical self-join-free CQs are answered by the
  // safe-plan engine without grounding or compiling anything. Queries
  // outside the class (kFailedPrecondition from the plan compiler) fall
  // through to the circuit rung, which grounds the same compiled
  // formula; a budget trip *during* evaluation skips the circuit rung
  // too (the same deadline governs it, and grounding costs strictly more
  // than the plan walk that just tripped) and goes straight to the Monte
  // Carlo fallback.
  Status exact_error;
  bool skip_exact = false;
  std::optional<logic::GuardedFormula> formula;
  {
    IPDB_OBS_SPAN("pqe.lifted", "pqe");
    formula.emplace(sentence);
    StatusOr<LiftedPlan> plan = LiftedPlan::Compile(*formula);
    if (plan.ok()) {
      IPDB_OBS_COUNT("pqe.lifted.queries", 1);
      SafePlanStats plan_stats;
      LiftedOptions lifted_options;
      lifted_options.budget = budget;
      lifted_options.stats = &plan_stats;
      StatusOr<double> probability =
          plan.value().Evaluate(ti, lifted_options);
      if (probability.ok()) {
        // The lifted independence steps are decompositions in the
        // WmcStats vocabulary; no Shannon expansion ever happens here.
        ReportWmcStats(WmcStats{0,
                                plan_stats.independent_joins +
                                    plan_stats.independent_projects,
                                0, 0},
                       stats);
        IPDB_OBS_COUNT("pqe.lifted.answers", 1);
        IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityExact, 1);
        QueryAnswer answer;
        answer.probability = probability.value();
        answer.half_width = 0.0;
        answer.confidence = 1.0;
        answer.quality = AnswerQuality::kExact;
        answer.lifted = true;
        return answer;
      }
      if (!IsBudgetError(probability.status())) {
        return probability.status();
      }
      exact_error = probability.status();
      skip_exact = true;
    } else {
      IPDB_OBS_COUNT("pqe.lifted.rejected", 1);
    }
  }

  // Exact rung: the circuit rung, budget-governed in every phase. Budget
  // errors fall through to the degraded rung; everything else
  // propagates.
  if (!skip_exact) {
    StatusOr<CircuitAnswer> circuit =
        GroundCompileEvaluate(*ti.store(), *formula, budget);
    if (circuit.ok()) {
      // Replay the compilation trace (from the artifact on a hit) so the
      // counters describe the query's inference structure either way
      // (the artifact-cache hit itself is counted inside
      // kc::CompiledQueryCache).
      ReportWmcStats(TraceOf(circuit.value().artifact->stats), stats);
      if (stats != nullptr && circuit.value().cache_hit) {
        ++stats->artifact_cache_hits;
      }
      QueryAnswer answer;
      answer.probability = circuit.value().probability;
      answer.half_width = 0.0;
      answer.confidence = 1.0;
      answer.quality = AnswerQuality::kExact;
      IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityExact, 1);
      return answer;
    }
    if (!IsBudgetError(circuit.status())) return circuit.status();
    exact_error = circuit.status();
  }

  // Degraded rung: a certified Monte Carlo interval over the same
  // TI-PDB. A bounded answer now beats an exact answer never — the
  // fallback runs under the same budget (remaining deadline, sample
  // cap), so it degrades further to kFailed rather than overrunning.
  IPDB_OBS_COUNT("pqe.fallback.queries", 1);
  if (!options.fallback) {
    return IPDB_STATUS_FORWARD(exact_error)
           << "exact inference exceeded its budget and fallback is "
              "disabled";
  }
  IPDB_FAULT_POINT("pqe.query.fallback");
  IPDB_OBS_SPAN("pqe.fallback", "pqe");
  QueryAnswer answer;
  answer.exact_error = exact_error;
  pdb::SamplingOptions sampling;
  sampling.threads = options.fallback_threads;
  sampling.budget = budget;
  Pcg32 base_rng(options.fallback_seed);
  StatusOr<MonteCarloEstimate> estimate =
      EstimateQueryProbability(ti, sentence, options.fallback_samples,
                               base_rng, sampling,
                               options.fallback_confidence);
  if (!estimate.ok()) {
    if (!IsBudgetError(estimate.status())) return estimate.status();
    // Both rungs exhausted: report the failure as a value, with the
    // exact-path error attached, so the caller still learns what was
    // attempted (and pqe.fallback.failed counts it).
    IPDB_OBS_COUNT("pqe.fallback.failed", 1);
    IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityFailed, 1);
    answer.quality = AnswerQuality::kFailed;
    exact_error.Append("fallback: " + estimate.status().message());
    answer.exact_error = std::move(exact_error);
    return answer;
  }
  answer.probability = estimate.value().estimate;
  answer.half_width = estimate.value().half_width;
  answer.confidence = options.fallback_confidence;
  answer.quality = AnswerQuality::kInterval;
  answer.samples = estimate.value().samples;
  IPDB_OBS_COUNT("pqe.fallback.interval_answers", 1);
  IPDB_OBS_COUNT("pqe.fallback.samples", estimate.value().samples);
  IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityInterval, 1);
  return answer;
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
