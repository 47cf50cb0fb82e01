#ifndef IPDB_PQE_PREPARED_H_
#define IPDB_PQE_PREPARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "kc/compile.h"
#include "logic/formula.h"
#include "logic/guards.h"
#include "pqe/safe_plan.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// A query prepared against a *live* columnar store: the
/// compile-once / re-query-many contract made incremental. Prepare()
/// compiles the sentence once into the logic::GuardedFormula the handle
/// keeps, and runs the cold pipeline once on it: the safe plan when the
/// query is a hierarchical self-join-free CQ, else QueryProbability's
/// circuit rung, GroundCompileEvaluate. Query() then reacts to the
/// store's generation counters instead of redoing work:
///
///  * untouched store            — the memoized answer is returned;
///  * UpdateProbability happened — the *held circuit* is re-evaluated on
///    the marginals of its literal variables (EvaluateOnStore: no
///    re-ground, no cache probe, O(circuit) rather than O(num_facts());
///    this is the ≥10×-cheaper incremental path the storage bench
///    gates);
///  * Insert/Erase happened      — global fact indices may have shifted,
///    so Query() grounds the kept formula again and probes the artifact
///    cache with the new lineage. A lineage whose facts kept their
///    numbers is unchanged and hits; one over renumbered or different
///    facts misses and compiles.
///
/// A circuit is a function of its lineage over fact indices, and every
/// evaluation reads the current marginals, so the cache needs no
/// invalidation when the store mutates.
///
/// Thread model: Query() and the counter accessors are safe for any
/// number of concurrent callers on one handle — handles may be shared
/// across threads, so refreshes and rebuilds are serialized by an
/// internal mutex (safe-plan answers take no lock:
/// the plan is immutable after Prepare). Store *mutations* remain
/// single-writer per the TiStore contract; concurrency here means many
/// readers racing each other and the refresh machinery, not racing the
/// mutators.
struct PreparedOptions {
  /// Null = unlimited; governs grounding, compilation and evaluation.
  const ExecutionBudget* budget = nullptr;
};

class PreparedQuery {
 public:
  using Options = PreparedOptions;

  /// Runs the cold pipeline and memoizes the first answer.
  static StatusOr<PreparedQuery> Prepare(
      std::shared_ptr<const storage::TiStore> store,
      const logic::Formula& sentence, const Options& options = {});

  /// The query probability, current with respect to the store.
  StatusOr<double> Query();

  /// True when the safe-plan engine answers this query (the query is a
  /// hierarchical self-join-free CQ).
  bool lifted() const { return plan_ != nullptr; }
  /// Re-ground passes triggered by structural mutations (the
  /// Prepare-time pass is not counted). Each probes the artifact cache,
  /// so a rebuild compiles only when its lineage changed.
  int64_t rebuilds() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return rebuilds_;
  }
  /// Probability-only refreshes that reused the held circuit.
  int64_t incremental_refreshes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return incremental_refreshes_;
  }

 private:
  PreparedQuery(std::shared_ptr<const storage::TiStore> store,
                const logic::Formula& sentence, const Options& options)
      : store_(std::move(store)), formula_(sentence), options_(options) {}

  /// Ground + probe/compile + evaluate (the cold path). Caller holds mu_
  /// (except during Prepare, before the handle is shared).
  Status Rebuild();

  std::shared_ptr<const storage::TiStore> store_;
  /// The compiled query: the safe plan's input, and what every rebuild
  /// grounds.
  logic::GuardedFormula formula_;
  Options options_;

  /// Serializes the circuit-mode state below across concurrent Query()
  /// callers. Heap-held so the handle stays movable (Prepare returns by
  /// value); never null after construction.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();

  // Safe-plan mode.
  std::unique_ptr<LiftedPlan> plan_;

  // Circuit mode.
  std::shared_ptr<const kc::CompiledQuery> artifact_;
  uint64_t structure_generation_ = 0;
  uint64_t probability_generation_ = 0;
  double answer_ = 0.0;
  int64_t rebuilds_ = 0;
  int64_t incremental_refreshes_ = 0;
};

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_PREPARED_H_
