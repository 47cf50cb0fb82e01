#ifndef IPDB_PQE_WMC_H_
#define IPDB_PQE_WMC_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kc/compile.h"
#include "logic/formula.h"
#include "logic/guards.h"
#include "pdb/ti_pdb.h"
#include "pqe/lineage.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// How an exact answer was inferred, in the vocabulary of the d-DNNF
/// compiler (kc/compile.h), the one exact-inference engine: Shannon
/// decision gates, gates split into independent components, and
/// (lineage node, polarity) memo hits. For a query answered from the
/// artifact cache the compilation trace is replayed from the cached
/// artifact and `artifact_cache_hits` counts the hit.
struct WmcStats {
  int64_t shannon_expansions = 0;
  int64_t decompositions = 0;
  int64_t cache_hits = 0;
  /// Times QueryProbability answered from an already-compiled circuit.
  int64_t artifact_cache_hits = 0;
};

/// Exact weighted model counting over a lineage DAG: the probability
/// that independent variables (variable i true with probability
/// `var_probs[i]`) satisfy the formula. The one-shot form of the
/// compile-once pipeline: kc::CompileLineage followed by one
/// kc::EvaluateCircuit<double>, with no artifact cache in between.
/// Exponential in the worst case (PQE is #P-hard in general [17]) but
/// fast on decomposable lineages.
///
/// Rejects `var_probs` that do not cover the lineage's variables or
/// contain entries outside [0, 1] (NaN included). `budget`, when set,
/// governs both compilation (node and recursion-depth caps, deadline)
/// and evaluation (deadline polled per circuit node); a tripped budget
/// returns its error.
StatusOr<double> ComputeProbability(Lineage* lineage, NodeId root,
                                    const std::vector<double>& var_probs,
                                    WmcStats* stats = nullptr,
                                    const ExecutionBudget* budget = nullptr);

/// The circuit rung's answer: the compiled circuit of the query's
/// lineage, whether the artifact cache already held it, the lineage's
/// fingerprint (the cache key, which kc::CompiledQueryCache::Find takes),
/// and the circuit's probability on the store's marginals.
struct CircuitAnswer {
  std::shared_ptr<const kc::CompiledQuery> artifact;
  bool cache_hit = false;
  std::pair<uint64_t, uint64_t> fingerprint{0, 0};
  double probability = 0.0;
};

/// The cold half of the circuit rung, which PreparedQuery runs when it
/// holds no current fingerprint: grounds `formula` on `store` (span
/// pqe.ground), fetches the circuit of its lineage from
/// kc::GlobalCompiledQueryCache(), compiling on a miss and freeing the
/// lineage (span pqe.cache_probe), and evaluates it with EvaluateOnStore
/// (span pqe.evaluate). The cache key is the lineage over fact indices, so
/// a query grounded again after Insert/Erase hits whenever its facts kept
/// their numbers. `budget` governs every phase; a trip returns its error.
/// Callers that price or test the circuit rung on a query the lifted rung
/// would answer call this directly.
StatusOr<CircuitAnswer> GroundCompileEvaluate(
    const storage::TiStore& store, const logic::GuardedFormula& formula,
    const ExecutionBudget* budget);

/// The probability of `artifact`, a circuit over the fact indices of
/// `store`, on the store's current marginals. Reads only the marginals of
/// the circuit's literal variables, in place, so a re-evaluation after
/// UpdateProbability costs O(circuit), not O(num_facts()).
StatusOr<double> EvaluateOnStore(const kc::CompiledQuery& artifact,
                                 const storage::TiStore& store,
                                 const ExecutionBudget* budget);

/// End-to-end PQE: Pr_{I ~ ti}(I ⊨ φ). Hierarchical self-join-free CQs
/// are answered by the lifted safe-plan engine (safe_plan.h, linear-ish
/// in the data); everything else grounds and runs compiled d-DNNF
/// evaluation via the global artifact cache (see kc/cache.h). The query
/// alone picks the rung. Defined in prepared.cc, with the ladder.
StatusOr<double> QueryProbability(const pdb::TiPdb<double>& ti,
                                  const logic::Formula& sentence,
                                  WmcStats* stats = nullptr);

/// How a governed query's answer was obtained — the rungs of the
/// degradation ladder, best first.
enum class AnswerQuality {
  /// The exact compiled answer, finished within budget. half_width = 0.
  kExact,
  /// Exact inference exceeded the budget; the answer is a certified
  /// Monte Carlo confidence interval: with probability >= `confidence`,
  /// the true probability lies within probability ± half_width.
  kInterval,
  /// Neither rung finished within budget; `probability` is meaningless
  /// and `exact_error` holds the terminal budget error.
  kFailed,
};

/// The result of a budget-governed query (see the QueryOptions
/// overload of QueryProbability).
struct QueryAnswer {
  double probability = 0.0;
  /// Certified half-width of the answer: 0 when exact.
  double half_width = 0.0;
  /// Confidence of the interval: 1 when exact, the fallback confidence
  /// level for kInterval, 0 for kFailed.
  double confidence = 0.0;
  AnswerQuality quality = AnswerQuality::kFailed;
  /// True when the lifted safe-plan rung produced the (exact) answer —
  /// the query was a hierarchical self-join-free CQ and no grounding or
  /// circuit work happened at all.
  bool lifted = false;
  /// Monte Carlo samples drawn by the fallback (0 on the exact path).
  int64_t samples = 0;
  /// Why the exact path degraded (kResourceExhausted / kDeadlineExceeded
  /// / kCancelled); OK when quality == kExact.
  Status exact_error;
};

/// Governance knobs for the QueryOptions overload below.
struct QueryOptions {
  /// Resource limits for the whole query: grounding (charged per value
  /// a quantifier tries), compilation, evaluation and fallback. A budget
  /// trip while grounding or compiling degrades to the fallback rung.
  /// Null = unlimited, in which case the overload behaves exactly like
  /// plain QueryProbability.
  const ExecutionBudget* budget = nullptr;
  /// Degrade to a certified Monte Carlo interval when exact inference
  /// exceeds the budget. Off = budget errors propagate as Statuses.
  bool fallback = true;
  /// Fallback sampling: requested sample count (still clamped by
  /// budget->max_samples and the remaining deadline), confidence level
  /// of the reported interval, worker threads, and the deterministic
  /// base seed of the sample stream.
  int64_t fallback_samples = 100000;
  double fallback_confidence = 0.99;
  int fallback_threads = 1;
  uint64_t fallback_seed = 0x51ed;
};

/// Budget-governed PQE with graceful degradation, a three-rung ladder:
///
///   1. lifted   — safe-plan evaluation for hierarchical self-join-free
///                 CQs (exact, no grounding; skipped for queries outside
///                 the class);
///   2. compile  — ground, compile via the artifact cache, evaluate the
///                 d-DNNF (exact);
///   3. fallback — a certified Monte Carlo interval (quality kInterval).
///
/// The sentence is compiled once, into a throwaway pqe::PreparedQuery
/// (prepared.h) inside span pqe.lifted, and answered by the handle's
/// ladder, the one every served query runs. Every rung runs under
/// options.budget; a cap or
/// deadline trip degrades to the next rung instead of failing — a
/// bounded answer now beats an exact answer never. (A budget trip
/// *inside* the lifted rung skips the circuit rung too: the same deadline
/// governs both, and grounding costs strictly more than the plan walk
/// that just tripped.) When the lifted rung answers,
/// stats->decompositions mirrors its independence steps (joins +
/// projects); shannon_expansions stays 0. Real errors (malformed
/// queries, evaluation failures) propagate as Statuses regardless; with
/// fallback disabled, budget errors do too. Lifted and fallback traffic
/// is visible in the pqe.lifted.* / pqe.fallback.* registry counters.
StatusOr<QueryAnswer> QueryProbability(const pdb::TiPdb<double>& ti,
                                       const logic::Formula& sentence,
                                       const QueryOptions& options,
                                       WmcStats* stats = nullptr);

namespace internal {
/// Adds a per-query WmcStats delta to `stats` (when given) and to the
/// cumulative pqe.wmc.* registry counters, so every exact rung feeds the
/// same process-wide tallies the public struct reports per call.
void ReportWmcStats(const WmcStats& delta, WmcStats* stats);
/// A compilation trace in the WmcStats vocabulary.
WmcStats TraceOf(const kc::CompileStats& trace, bool artifact_cache_hit);
}  // namespace internal

/// Reference implementation by brute-force enumeration of all 2^n worlds
/// (n <= 20): used to validate the WMC path in tests.
StatusOr<double> QueryProbabilityBruteForce(const pdb::TiPdb<double>& ti,
                                            const logic::Formula& sentence);

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_WMC_H_
