#include "pqe/prepared.h"

#include <utility>

#include "obs/obs.h"
#include "pqe/wmc.h"

namespace ipdb {
namespace pqe {

StatusOr<PreparedQuery> PreparedQuery::Prepare(
    std::shared_ptr<const storage::TiStore> store,
    const logic::Formula& sentence, const Options& options) {
  if (store == nullptr) return InvalidArgumentError("null store");
  PreparedQuery prepared(std::move(store), sentence, options);
  StatusOr<LiftedPlan> plan = LiftedPlan::Compile(prepared.formula_);
  if (plan.ok()) {
    prepared.plan_ = std::make_unique<LiftedPlan>(std::move(plan).value());
    // Evaluate once so schema mismatches surface at Prepare time.
    LiftedOptions lifted_options;
    lifted_options.budget = options.budget;
    StatusOr<double> probability =
        prepared.plan_->Evaluate(*prepared.store_, lifted_options);
    if (!probability.ok()) return probability.status();
    return prepared;
  }
  // Outside the safe-plan class: the circuit pipeline answers.
  Status cold = prepared.Rebuild();
  if (!cold.ok()) return cold;
  return prepared;
}

Status PreparedQuery::Rebuild() {
  IPDB_OBS_SPAN("pqe.prepared.rebuild", "pqe");
  // Snapshot the generations *before* grounding: a mutation racing the
  // rebuild makes the next Query() rebuild or refresh again rather than
  // serve a stale answer. They are kept only once the rebuild succeeds,
  // so a failed one is retried.
  const uint64_t structure = store_->structure_generation();
  const uint64_t probability = store_->probability_generation();
  StatusOr<CircuitAnswer> circuit =
      GroundCompileEvaluate(*store_, formula_, options_.budget);
  if (!circuit.ok()) return circuit.status();
  artifact_ = std::move(circuit.value().artifact);
  answer_ = circuit.value().probability;
  structure_generation_ = structure;
  probability_generation_ = probability;
  return Status::Ok();
}

StatusOr<double> PreparedQuery::Query() {
  if (plan_ != nullptr) {
    // Safe-plan mode is lock-free: the plan is immutable after Prepare
    // and Evaluate keeps no state on the handle, so concurrent callers
    // scan the store's columns independently.
    LiftedOptions lifted_options;
    lifted_options.budget = options_.budget;
    return plan_->Evaluate(*store_, lifted_options);
  }
  // Circuit mode mutates the memoized answer on refresh, so concurrent
  // callers serialize; whoever wins the lock performs the refresh and
  // the rest see the already-current answer.
  std::lock_guard<std::mutex> lock(*mu_);
  if (store_->structure_generation() != structure_generation_) {
    Status rebuilt = Rebuild();
    if (!rebuilt.ok()) return rebuilt;
    ++rebuilds_;
    IPDB_OBS_COUNT("pqe.prepared.rebuilds", 1);
    return answer_;
  }
  const uint64_t probability = store_->probability_generation();
  if (probability != probability_generation_) {
    StatusOr<double> refreshed =
        EvaluateOnStore(*artifact_, *store_, options_.budget);
    if (!refreshed.ok()) return refreshed.status();
    answer_ = refreshed.value();
    probability_generation_ = probability;
    ++incremental_refreshes_;
    IPDB_OBS_COUNT("pqe.prepared.incremental_refreshes", 1);
    return answer_;
  }
  IPDB_OBS_COUNT("pqe.prepared.memoized_answers", 1);
  return answer_;
}

}  // namespace pqe
}  // namespace ipdb
