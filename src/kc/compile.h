#ifndef IPDB_KC_COMPILE_H_
#define IPDB_KC_COMPILE_H_

#include <cstdint>
#include <utility>

#include "kc/circuit.h"
#include "pqe/lineage.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace kc {

/// Top-down compilation of a pqe::Lineage DAG into a d-DNNF circuit —
/// the one exact-inference engine: the circuit rung of
/// pqe::QueryProbability and the one-shot pqe::ComputeProbability both
/// run it. Two inference rules, whose trace it *materializes*:
///
///  * independent-component decomposition — a gate whose children fall
///    into variable-disjoint groups becomes a decomposable AND (for
///    conjunctions) or a balanced "first-success" chain
///    C₁ ∨ (¬C₁ ∧ C₂) ∨ … (for disjunctions), deterministic because
///    later disjuncts contradict earlier ones;
///  * Shannon expansion on the most shared variable — a decision gate
///    (v ∧ f|ᵥ₌₁) ∨ (¬v ∧ f|ᵥ₌₀), deterministic and decomposable by
///    construction.
///
/// Negation is pushed to the literals during compilation by tracking a
/// polarity bit, so the memo is keyed on (hash-consed lineage node id,
/// polarity) — the component cache. Compilation is worst-case
/// exponential (PQE is #P-hard), but the resulting circuit answers
/// every subsequent probability / gradient / interval query in time
/// linear in its size (evaluate.h), which is the compile-once /
/// evaluate-many contract this subsystem exists for.
struct CompileStats {
  int64_t decisions = 0;       // Shannon decision gates introduced
  int64_t decompositions = 0;  // gates split into >1 independent component
  int64_t cache_hits = 0;      // (lineage node, polarity) memo hits
  int64_t circuit_nodes = 0;   // size of the resulting circuit
  int64_t circuit_edges = 0;
};

struct CompileOptions {
  /// Run CheckDecomposable/CheckDeterministic on the result and fail
  /// with an internal Status on violation (on in tests; off on the
  /// serving path, where the invariants hold by construction). Also
  /// makes the compiler register its complement certificates on the
  /// circuit — the structural evidence the determinism checker consumes.
  bool verify = false;

  /// Optional resource governor. Compilation is worst-case exponential,
  /// so a serving path sets `budget->max_circuit_nodes` /
  /// `max_recursion_depth` / `deadline` and gets kResourceExhausted /
  /// kDeadlineExceeded / kCancelled back instead of an unbounded
  /// compile. Checks are amortized (BudgetMeter): the clock is polled
  /// every few hundred charged nodes, and the node cap may overshoot by
  /// the handful of gates one compilation step creates. Null or
  /// unlimited = ungoverned, with no extra work on the hot path.
  const ExecutionBudget* budget = nullptr;
};

/// A compiled lineage: the circuit, its root, and how it was built.
struct CompiledQuery {
  Circuit circuit;
  NodeId root = Circuit::kFalseId;
  CompileStats stats;
};

/// Compiles `root` (within `lineage`, which grows: Shannon expansion
/// interns restricted nodes) into a d-DNNF circuit.
StatusOr<CompiledQuery> CompileLineage(pqe::Lineage* lineage,
                                       pqe::NodeId root,
                                       const CompileOptions& options = {});

/// A 128-bit structural fingerprint of the formula DAG under `root`,
/// mixing in each variable's index: equal for structurally identical
/// formulas over the same variables across different Lineage objects
/// (grounding the same query against the same fact layout twice yields
/// the same fingerprint). Keys the compiled-artifact cache.
std::pair<uint64_t, uint64_t> LineageFingerprint(const pqe::Lineage& lineage,
                                                 pqe::NodeId root);

}  // namespace kc
}  // namespace ipdb

#endif  // IPDB_KC_COMPILE_H_
