#ifndef IPDB_PQE_LINEAGE_H_
#define IPDB_PQE_LINEAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.h"
#include "logic/guards.h"
#include "pdb/ti_pdb.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// Probabilistic query evaluation (PQE) over TI-PDBs — the workhorse
/// problem that makes tuple-independence the representation of choice
/// (the paper's related-work context, [17, 51]). A boolean FO query φ
/// over a TI-PDB I grounds to a propositional *lineage*: a formula over
/// one boolean variable per fact such that I' ⊨ φ iff the assignment
/// "fact ∈ I'" satisfies the lineage. The query probability is then the
/// weighted model count of the lineage under the marginals (wmc.h).

using NodeId = int32_t;

enum class NodeKind : uint8_t { kTrue, kFalse, kVar, kNot, kAnd, kOr };

/// A hash-consed DAG of propositional formulas over integer variables.
/// Construction applies light simplification (constant folding,
/// flattening, duplicate removal, double-negation); identical structures
/// share a NodeId, so equality of ids is sound (not complete) for
/// logical equivalence.
class Lineage {
 public:
  Lineage();

  NodeId True() const { return kTrueId; }
  NodeId False() const { return kFalseId; }
  NodeId Var(int variable);
  NodeId MakeNot(NodeId operand);
  NodeId MakeAnd(std::vector<NodeId> operands);
  NodeId MakeOr(std::vector<NodeId> operands);

  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  int variable(NodeId id) const { return nodes_[id].variable; }
  const std::vector<NodeId>& children(NodeId id) const {
    return nodes_[id].children;
  }

  /// Number of live nodes.
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Sorted list of variables occurring under `id` (memoized).
  const std::vector<int>& Support(NodeId id);

  /// Evaluates under a complete assignment (variable -> bool).
  bool Evaluate(NodeId id, const std::vector<bool>& assignment) const;

  /// The node obtained by fixing `variable` to `value` and simplifying.
  NodeId Restrict(NodeId id, int variable, bool value);

  std::string ToString(NodeId id) const;

  static constexpr NodeId kTrueId = 0;
  static constexpr NodeId kFalseId = 1;

 private:
  struct Node {
    NodeKind kind;
    int variable = -1;
    std::vector<NodeId> children;
  };

  NodeId Intern(Node node);
  uint64_t NodeHashKey(const Node& node) const;

  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, std::vector<NodeId>> intern_;
  std::vector<std::vector<int>> support_cache_;
  std::vector<bool> support_cached_;
};

/// Grounds a boolean FO sentence over the fact set of a finite TI-PDB.
/// Variable i of the lineage is global fact i of the TI's store.
/// Quantifiers follow the infinite-universe semantics of
/// logic/evaluator.h (adom(T) ∪ consts(φ) ∪ fresh elements). Delegates
/// to the store overloads below.
StatusOr<NodeId> GroundSentence(const pdb::TiPdb<double>& ti,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget = nullptr);

/// Compiles `sentence` into a logic::GuardedFormula and grounds that.
StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget = nullptr);

/// The grounder, over a compiled formula: a caller that grounds one
/// query many times compiles it once. The assignment is one dictionary
/// id per variable slot (logic/guards.h), and an atom is one binary
/// search in its relation's sorted run. A quantifier binds its variable
/// from the store's rows that can satisfy its body: ∃ tries its guard's
/// candidates, ∀ its co-guard's, read through PrefixRange when the bound
/// positions form a prefix and by one scan of the relation otherwise.
/// Only variables that no guard covers range over adom ∪ consts ∪ fresh,
/// an id range that is never materialized. A skipped value grounds the
/// body to False (∃) or True (∀), so the lineage's fingerprint equals
/// that of the full-domain expansion; node ids depend on the store's
/// facts and the sentence.
///
/// `budget`, when set, is charged one unit per value a quantifier tries;
/// a tripped deadline or cancel token returns kDeadlineExceeded or
/// kCancelled within one BudgetMeter poll stride.
StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::GuardedFormula& formula,
                                Lineage* lineage,
                                const ExecutionBudget* budget = nullptr);

/// The candidates of free slot `slot` of `formula` over the store's
/// facts, with no other variable bound: the values of that answer
/// position for which the formula can hold in some world, sorted. They
/// occur in facts, so they lie in the active domain. Nullopt when no
/// guard covers the slot.
std::optional<std::vector<rel::Value>> GuardCandidates(
    const storage::TiStore& store, const logic::GuardedFormula& formula,
    int slot);

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_LINEAGE_H_
