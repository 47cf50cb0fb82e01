#ifndef IPDB_PQE_PREPARED_H_
#define IPDB_PQE_PREPARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "kc/compile.h"
#include "logic/formula.h"
#include "pqe/lineage.h"
#include "pqe/safe_plan.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// A query prepared against a *live* columnar store: the
/// compile-once / re-query-many contract made incremental. Prepare()
/// runs the cold pipeline once (safe plan, or ground + compile through
/// the global artifact cache); Query() then reacts to the store's
/// generation counters instead of redoing work:
///
///  * untouched store            — the memoized answer is returned;
///  * UpdateProbability happened — marginals are re-read from the
///    columns and the *cached circuit* is re-evaluated (the lineage
///    fingerprint is unchanged, so no re-ground and no recompile: this
///    is the ≥10×-cheaper incremental path the storage bench gates);
///  * Insert/Erase happened      — the fact set changed, so the old
///    fingerprint was evicted from the artifact cache (the store's
///    dependent-artifact registry fires) and Query() re-grounds and
///    recompiles cold.
///
/// Preparing a query also wires the store's artifact evictor to
/// kc::GlobalCompiledQueryCache() and registers the compiled
/// fingerprint as a structural dependent — the storage layer stays
/// free of a kc dependency, the pqe layer closes the loop.
///
/// Thread model: Query() and the counter accessors are safe for any
/// number of concurrent callers on one handle — handles may be shared
/// across threads, so refreshes and recompiles are serialized by an
/// internal mutex (safe-plan answers take no lock:
/// the plan is immutable after Prepare). Store *mutations* remain
/// single-writer per the TiStore contract; concurrency here means many
/// readers racing each other and the refresh machinery, not racing the
/// mutators.
struct PreparedOptions {
  /// Answer hierarchical self-join-free CQs by the safe plan (no
  /// circuit, no cache). Off forces the ground-compile-evaluate
  /// pipeline — what the incremental re-query bench measures.
  bool allow_lifted = true;
  /// Null = unlimited; governs grounding, compilation and evaluation.
  const ExecutionBudget* budget = nullptr;
};

class PreparedQuery {
 public:
  using Options = PreparedOptions;

  /// Runs the cold pipeline and memoizes the first answer.
  static StatusOr<PreparedQuery> Prepare(
      std::shared_ptr<const storage::TiStore> store, logic::Formula sentence,
      const Options& options = {});

  /// The query probability, current with respect to the store.
  StatusOr<double> Query();

  /// True when the safe-plan engine answers this query.
  bool lifted() const { return plan_ != nullptr; }
  /// Cold re-ground + recompile passes triggered by structural
  /// mutations (the Prepare-time pass is not counted).
  int64_t recompiles() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return recompiles_;
  }
  /// Probability-only refreshes that reused the compiled circuit.
  int64_t incremental_refreshes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return incremental_refreshes_;
  }
  /// The compiled artifact's lineage fingerprint (circuit mode only).
  std::pair<uint64_t, uint64_t> fingerprint() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return fingerprint_;
  }

 private:
  PreparedQuery() = default;

  /// Ground + compile + register + evaluate (the cold path). Caller
  /// holds mu_ (except during Prepare, before the handle is shared).
  Status Rebuild();
  /// Re-read marginals and re-evaluate the cached circuit (mu_ held).
  Status Refresh();

  std::shared_ptr<const storage::TiStore> store_;
  logic::Formula sentence_;
  Options options_;

  /// Serializes the circuit-mode state below across concurrent Query()
  /// callers. Heap-held so the handle stays movable (Prepare returns by
  /// value); never null after construction.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();

  // Safe-plan mode.
  std::unique_ptr<LiftedPlan> plan_;

  // Circuit mode.
  std::unique_ptr<Lineage> lineage_;
  std::shared_ptr<const kc::CompiledQuery> artifact_;
  std::pair<uint64_t, uint64_t> fingerprint_{0, 0};
  std::vector<double> probs_;
  uint64_t structure_generation_ = 0;
  uint64_t probability_generation_ = 0;
  double answer_ = 0.0;
  int64_t recompiles_ = 0;
  int64_t incremental_refreshes_ = 0;
};

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_PREPARED_H_
