#include "pqe/prepared.h"

#include <utility>

#include "kc/cache.h"
#include "obs/obs.h"
#include "pqe/monte_carlo.h"
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

/// An exact answer (half-width 0, confidence 1), counted in
/// pqe.answers{quality=exact}.
QueryAnswer ExactAnswer(double probability, bool lifted) {
  IPDB_OBS_COUNT_LABELED("pqe.answers", "quality", kQualityExact, 1);
  QueryAnswer answer;
  answer.probability = probability;
  answer.half_width = 0.0;
  answer.confidence = 1.0;
  answer.quality = AnswerQuality::kExact;
  answer.lifted = lifted;
  return answer;
}

}  // namespace

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
  // PreparedQuery::Answer's spans, with compiling the throwaway handle
  // inside pqe.lifted, as the plan compiler always was.
  IPDB_OBS_SPAN("pqe.query", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.query_ns");
  IPDB_OBS_COUNT("pqe.queries", 1);
  StatusOr<PreparedQuery> handle = [&] {
    IPDB_OBS_SPAN("pqe.lifted", "pqe");
    return PreparedQuery::Compile(ti.store(), sentence);
  }();
  if (!handle.ok()) return handle.status();
  return handle.value().Ladder(options, stats);
}

StatusOr<PreparedQuery> PreparedQuery::Compile(
    std::shared_ptr<const storage::TiStore> store,
    const logic::Formula& sentence, const Options& options) {
  StatusOr<pdb::TiPdb<double>> ti = pdb::TiPdb<double>::FromStore(
      std::move(store));
  if (!ti.ok()) return ti.status();
  PreparedQuery prepared(std::move(ti).value(), sentence, options);
  // Queries outside the safe-plan class (kFailedPrecondition from the plan
  // compiler) take the circuit rung, which grounds the same formula.
  StatusOr<LiftedPlan> plan = LiftedPlan::Compile(prepared.formula_);
  if (plan.ok()) {
    prepared.plan_ = std::make_unique<LiftedPlan>(std::move(plan).value());
  }
  return prepared;
}

StatusOr<PreparedQuery> PreparedQuery::Prepare(
    std::shared_ptr<const storage::TiStore> store,
    const logic::Formula& sentence, const Options& options) {
  StatusOr<PreparedQuery> prepared =
      Compile(std::move(store), sentence, options);
  if (!prepared.ok()) return prepared;
  StatusOr<double> first = prepared.value().Query();
  if (!first.ok()) return first.status();
  return prepared;
}

StatusOr<double> PreparedQuery::Query() {
  QueryOptions options;
  options.budget = options_.budget;
  options.fallback = false;
  StatusOr<QueryAnswer> answer = Answer(options);
  if (!answer.ok()) return answer.status();
  return answer.value().probability;
}

StatusOr<QueryAnswer> PreparedQuery::Answer(const QueryOptions& options,
                                            WmcStats* stats) {
  // The span tree below is the serving pipeline's cost breakdown:
  // pqe.query = pqe.lifted (the plan walk when the query is a safe CQ) +
  // the circuit rung's pqe.ground + pqe.cache_probe (kc.compile nests
  // inside on a miss) + pqe.evaluate, with only branch checks in between —
  // a trace therefore attributes essentially all query wall-clock to a
  // named phase (ci.sh gates the coverage at 95%).
  IPDB_OBS_SPAN("pqe.query", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.query_ns");
  IPDB_OBS_COUNT("pqe.queries", 1);
  return Ladder(options, stats);
}

StatusOr<QueryAnswer> PreparedQuery::Ladder(const QueryOptions& options,
                                            WmcStats* stats) {
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;
  // Lifted rung: hierarchical self-join-free CQs are answered by the
  // safe-plan engine without grounding or compiling anything. A budget
  // trip during the plan walk skips the circuit rung too (the same
  // deadline governs it, and grounding costs strictly more than the plan
  // walk that just tripped) and goes straight to the Monte Carlo
  // fallback. Every other query takes the circuit rung, budget-governed
  // in every phase.
  Status exact_error;
  if (plan_ != nullptr) {
    IPDB_OBS_SPAN("pqe.lifted", "pqe");
    IPDB_OBS_COUNT("pqe.lifted.queries", 1);
    SafePlanStats plan_stats;
    LiftedOptions lifted_options;
    lifted_options.budget = budget;
    lifted_options.stats = &plan_stats;
    StatusOr<double> probability = plan_->Evaluate(ti_, lifted_options);
    if (probability.ok()) {
      // The lifted independence steps are decompositions in the WmcStats
      // vocabulary; no Shannon expansion ever happens here.
      internal::ReportWmcStats(
          WmcStats{0,
                   plan_stats.independent_joins +
                       plan_stats.independent_projects,
                   0, 0},
          stats);
      IPDB_OBS_COUNT("pqe.lifted.answers", 1);
      return ExactAnswer(probability.value(), /*lifted=*/true);
    }
    if (!IsBudgetError(probability.status())) return probability.status();
    exact_error = probability.status();
  } else {
    IPDB_OBS_COUNT("pqe.lifted.rejected", 1);
    StatusOr<CircuitAnswer> circuit = Circuit(budget);
    if (circuit.ok()) {
      // Replay the compilation trace (from the cached artifact on a hit)
      // so the counters describe the query's inference structure either
      // way (the artifact-cache hit itself is counted inside
      // kc::CompiledQueryCache).
      internal::ReportWmcStats(
          internal::TraceOf(circuit.value().artifact->stats,
                            circuit.value().cache_hit),
          stats);
      return ExactAnswer(circuit.value().probability, /*lifted=*/false);
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
      EstimateQueryProbability(ti_, sentence_, options.fallback_samples,
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

StatusOr<CircuitAnswer> PreparedQuery::Circuit(const ExecutionBudget* budget) {
  const storage::TiStore& store = *ti_.store();
  // Snapshot the generations before any work: a mutation racing the answer
  // makes the next call refresh again rather than serve a stale memo.
  const uint64_t structure = store.structure_generation();
  const uint64_t probability = store.probability_generation();
  Memo memo;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    memo = memo_;
  }
  if (memo.grounded && memo.structure_generation == structure) {
    // A deadline that passed while the query was queued trips here, as it
    // trips after grounding on the cold path.
    if (budget != nullptr) {
      IPDB_RETURN_IF_ERROR(budget->CheckTime("pqe.query"));
    }
    CircuitAnswer answer;
    {
      IPDB_OBS_SPAN("pqe.cache_probe", "pqe");
      answer.artifact = kc::GlobalCompiledQueryCache().Find(
          memo.fingerprint.first, memo.fingerprint.second);
    }
    if (answer.artifact != nullptr) {
      answer.cache_hit = true;
      answer.fingerprint = memo.fingerprint;
      if (memo.probability_generation == probability) {
        IPDB_OBS_COUNT("pqe.prepared.memoized_answers", 1);
        answer.probability = memo.answer;
        return answer;
      }
      StatusOr<double> refreshed =
          EvaluateOnStore(*answer.artifact, store, budget);
      if (!refreshed.ok()) return refreshed.status();
      answer.probability = refreshed.value();
      {
        std::lock_guard<std::mutex> lock(*mu_);
        memo_.probability_generation = probability;
        memo_.answer = answer.probability;
        ++incremental_refreshes_;
      }
      IPDB_OBS_COUNT("pqe.prepared.incremental_refreshes", 1);
      return answer;
    }
  }
  StatusOr<CircuitAnswer> circuit =
      GroundCompileEvaluate(store, formula_, budget);
  if (!circuit.ok()) return circuit.status();
  bool rebuilt = false;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    rebuilt = memo_.grounded;
    rebuilds_ += rebuilt ? 1 : 0;
    memo_ = Memo{true, circuit.value().fingerprint, structure, probability,
                 circuit.value().probability};
  }
  if (rebuilt) IPDB_OBS_COUNT("pqe.prepared.rebuilds", 1);
  return circuit;
}

}  // namespace pqe
}  // namespace ipdb
