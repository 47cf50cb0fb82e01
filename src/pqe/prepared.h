#ifndef IPDB_PQE_PREPARED_H_
#define IPDB_PQE_PREPARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "logic/formula.h"
#include "logic/guards.h"
#include "pdb/ti_pdb.h"
#include "pqe/safe_plan.h"
#include "pqe/wmc.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// A query compiled once against a *live* columnar store, and the one
/// handle every answer runs through: QueryProbability answers through a
/// throwaway handle, server::Engine keeps a bounded LRU of handles per
/// tenant, and standing queries keep one across mutations. Compile()
/// turns the sentence into the logic::GuardedFormula both exact rungs
/// read, plus the lifted plan when the query is a hierarchical
/// self-join-free CQ. Answer() then runs the governed ladder (lifted plan
/// -> circuit -> Monte Carlo) under each call's QueryOptions.
///
/// The circuit rung reacts to the store's generation counters instead of
/// redoing work. The handle holds the 128-bit fingerprint of its last
/// lineage, never the circuit: the artifact cache owns circuits, so a
/// handle cannot pin one the cache evicted, and every circuit answer makes
/// exactly one counted cache probe:
///
///  * structure unchanged — kc::CompiledQueryCache::Find fetches the
///    circuit by fingerprint (no parse, no grounding); the memoized answer
///    is returned when no marginal changed, else the circuit is
///    re-evaluated on the current marginals (EvaluateOnStore: O(circuit)
///    rather than O(num_facts()); the >= 10x-cheaper incremental path the
///    storage bench gates);
///  * Insert/Erase happened, first answer, or Find came back empty — the
///    formula is grounded again and GetOrCompile probes the cache with the
///    new lineage. A lineage whose facts kept their numbers is unchanged
///    and hits; one over renumbered or different facts misses and
///    compiles.
///
/// A circuit is a function of its lineage over fact indices, and every
/// evaluation reads the current marginals, so the cache needs no
/// invalidation when the store mutates.
///
/// Thread model: Answer(), Query() and the counter accessors are safe for
/// any number of concurrent callers on one handle. The memo (fingerprint,
/// generations, answer) is read and published under an internal mutex
/// that is never held across grounding, compilation or evaluation, so
/// concurrent callers never wait on each other's work; callers racing a
/// stale memo each refresh it and publish the same answer. Store
/// *mutations* remain single-writer per the TiStore contract; concurrency
/// here means many readers racing each other and the refresh machinery,
/// not racing the mutators.
struct PreparedOptions {
  /// Null = unlimited; governs Query() (grounding, compilation and
  /// evaluation). Answer() takes its budget from its QueryOptions.
  const ExecutionBudget* budget = nullptr;
};

class PreparedQuery {
 public:
  using Options = PreparedOptions;

  /// Compiles `sentence` for `store` without answering it: no grounding
  /// and no cache traffic until the first answer.
  static StatusOr<PreparedQuery> Compile(
      std::shared_ptr<const storage::TiStore> store,
      const logic::Formula& sentence, const Options& options = {});

  /// Compile() plus one Query(), so that malformed queries and budget
  /// trips surface here; the answer is memoized.
  static StatusOr<PreparedQuery> Prepare(
      std::shared_ptr<const storage::TiStore> store,
      const logic::Formula& sentence, const Options& options = {});

  /// The budget-governed ladder of QueryProbability (see its QueryOptions
  /// overload in wmc.h) on the compiled query, current with respect to
  /// the store. `stats`, when set, accumulates as QueryProbability's does.
  StatusOr<QueryAnswer> Answer(const QueryOptions& options,
                               WmcStats* stats = nullptr);

  /// The exact query probability under the handle's Options budget: the
  /// ladder with the Monte Carlo rung off, so a budget trip returns its
  /// error.
  StatusOr<double> Query();

  /// True when the safe-plan engine answers this query (the query is a
  /// hierarchical self-join-free CQ).
  bool lifted() const { return plan_ != nullptr; }
  /// Circuit-rung groundings after the first: a structural mutation, or
  /// an artifact the cache had evicted. Each probes the artifact cache,
  /// so a rebuild compiles only when its lineage changed.
  int64_t rebuilds() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return rebuilds_;
  }
  /// Probability-only refreshes that re-evaluated the cached circuit.
  int64_t incremental_refreshes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return incremental_refreshes_;
  }

 private:
  friend StatusOr<QueryAnswer> QueryProbability(const pdb::TiPdb<double>&,
                                                const logic::Formula&,
                                                const QueryOptions&,
                                                WmcStats*);

  /// What the last circuit answer was computed from.
  struct Memo {
    bool grounded = false;  // false until a circuit answer succeeded
    std::pair<uint64_t, uint64_t> fingerprint{0, 0};
    uint64_t structure_generation = 0;
    uint64_t probability_generation = 0;
    double answer = 0.0;
  };

  PreparedQuery(pdb::TiPdb<double> ti, const logic::Formula& sentence,
                const Options& options)
      : ti_(std::move(ti)),
        sentence_(sentence),
        formula_(sentence),
        options_(options) {}

  /// Answer() without the pqe.query span and counters, which
  /// QueryProbability opens around compiling its throwaway handle too.
  StatusOr<QueryAnswer> Ladder(const QueryOptions& options, WmcStats* stats);
  /// The circuit rung: Find by the memo's fingerprint while the structure
  /// is unchanged, else GroundCompileEvaluate.
  StatusOr<CircuitAnswer> Circuit(const ExecutionBudget* budget);

  /// The store as a TI-PDB view (the Monte Carlo rung samples it).
  pdb::TiPdb<double> ti_;
  /// The sentence as parsed (the Monte Carlo rung evaluates it) and as
  /// compiled (the safe plan's input, and what every grounding reads).
  logic::Formula sentence_;
  logic::GuardedFormula formula_;
  Options options_;
  /// Safe-plan mode: immutable after Compile, so lifted answers take no
  /// lock.
  std::unique_ptr<LiftedPlan> plan_;

  /// Guards memo_ and the counters. Heap-held so the handle stays movable
  /// (Compile returns by value); never null after construction.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  Memo memo_;
  int64_t rebuilds_ = 0;
  int64_t incremental_refreshes_ = 0;
};

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_PREPARED_H_
