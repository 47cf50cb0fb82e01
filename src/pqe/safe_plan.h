#ifndef IPDB_PQE_SAFE_PLAN_H_
#define IPDB_PQE_SAFE_PLAN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "logic/guards.h"
#include "pdb/ti_pdb.h"
#include "relational/value.h"
#include "storage/ti_store.h"
#include "util/budget.h"
#include "util/inline_vector.h"
#include "util/interval.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// Lifted inference for tuple-independent PDBs: the safe-plan engine
/// for *hierarchical, self-join-free* boolean conjunctive queries
/// (Dalvi & Suciu [17], the PTIME side of the PQE dichotomy — the
/// algorithmic payoff of the representations this library studies).
///
/// A boolean CQ q = ∃x̄ (a₁ ∧ … ∧ a_m) with pairwise distinct relation
/// symbols is *hierarchical* iff for any two variables x, y the atom
/// sets at(x), at(y) are nested or disjoint. Hierarchical self-join-free
/// CQs evaluate in polynomial time by alternating
///
///   independent join    P(q₁ ∧ q₂) = P(q₁) P(q₂)        (no shared vars)
///   independent project P(∃x q) = 1 − Π_a (1 − P(q[x:=a]))
///
/// where the projected variable is a *root* variable (occurring in every
/// atom of its connected component). Non-hierarchical queries are
/// rejected with kFailedPrecondition (they are #P-hard; use wmc.h).
///
/// The engine is compile-once / evaluate-many: `LiftedPlan::Compile`
/// reads the query's logic::GuardedFormula, the compiled form the
/// grounder and the evaluator share, and derives an extensional plan IR
/// (independent-project / independent-join / ground-lookup nodes) from
/// the hierarchy witness,
/// and `Evaluate` walks it over the store's sorted runs in place: each
/// atom is a range of sorted-run positions, narrowed by its constants and
/// by the values outer projects bind — no row copies, no re-scan. Like
/// kc::EvaluateCircuit, evaluation is generic over the value semiring:
/// `double` (numerically stable complement products via log1p/expm1),
/// exact `math::Rational`, and certified `Interval` enclosures.
/// `QueryProbability(QueryOptions)` in wmc.h uses the plan as the first
/// rung of its degradation ladder (lifted → compile → Monte Carlo).

/// Execution counters for the safe plan. For a compiled LiftedPlan the
/// join/project counters describe the *plan shape* (nodes in the IR) and
/// ground_lookups the lookups actually performed during evaluation.
struct SafePlanStats {
  int64_t independent_joins = 0;
  int64_t independent_projects = 0;
  int64_t ground_lookups = 0;
};

/// The extensional plan operators of the safe plan IR.
enum class PlanOp {
  /// Children range over variable-disjoint subqueries: multiply.
  kIndependentJoin,
  /// 1 − Π over the candidate values of a root variable of the
  /// complement of the child's probability.
  kIndependentProject,
  /// The marginal of one fully-ground atom (0 for a missing fact).
  kGroundLookup,
};

/// One node of the compiled plan. Nodes live in LiftedPlan::nodes() and
/// reference each other by index; the IR is a tree rooted at root().
struct PlanNode {
  PlanOp op = PlanOp::kGroundLookup;
  /// kIndependentProject: the projected variable, the GuardedFormula slot
  /// of its quantifier (slots follow the quantifiers in pre-order); -1
  /// otherwise.
  int project_var = -1;
  /// kGroundLookup: the atom looked up, numbered in conjunct order
  /// (left to right); -1 otherwise.
  int atom = -1;
  /// The node's children, read through LiftedPlan::children(): entries
  /// [first_child, first_child + num_children) of the plan's flat child
  /// array (kIndependentJoin: one per component; kIndependentProject:
  /// exactly one).
  int first_child = 0;
  int num_children = 0;
  /// kIndependentProject: the atoms in the node's scope, as entries
  /// [first_scope, first_scope + num_scope) of the plan's flat scope
  /// array.
  int first_scope = 0;
  int num_scope = 0;
};

/// Evaluation knobs for LiftedPlan::Evaluate.
struct LiftedOptions {
  /// Null = unlimited. The deadline/cancel token is polled amortized per
  /// plan step; max_recursion_depth bounds the plan's project-nesting
  /// depth (checked once up front — the plan depth is static).
  const ExecutionBudget* budget = nullptr;
  /// Optional execution counters (plan shape + ground lookups).
  SafePlanStats* stats = nullptr;
};

/// A compiled safe plan for one hierarchical self-join-free boolean CQ.
/// Compilation is data-independent; one plan serves any TI-PDB whose
/// schema covers the query's relations. The plan is flat: atom terms,
/// constants, node children and node scopes live in a few arrays with
/// offsets, each held inline up to a size that covers common queries, so
/// a small plan owns no heap memory and destroying it frees nothing.
///
/// Evaluation reads only the rows the query's constants and bindings
/// select. An atom's leading constants narrow its sorted run once per
/// call. A project merges its scope atoms' groups of the projected
/// variable in ascending dictionary id (each group is one
/// ColumnTable::Narrow of the atom's range) and then narrows each atom
/// further while its next column holds a constant or a bound variable,
/// so a ground lookup reads a range of at most one row; an innermost
/// project over an atom's last column reads each position as a group of
/// one row. A constant filter costs a few binary searches and a full
/// scan visits each group once, with no allocation that grows with n.
/// The one exception is an atom whose next unfixed column is not the
/// projected variable, as S in R(x) ∧ S(y, x): its candidate rows are
/// gathered once into a flat buffer of (id, position) pairs, sorted by
/// id and merged the same way.
class LiftedPlan {
 public:
  /// Derives the plan from the hierarchy witness of `formula`, whose
  /// slots already tell shadowed quantifiers apart: ∃x R(x) ∧ ∃x S(x)
  /// has two independent variables. Fails with kFailedPrecondition when
  /// the formula is not a hierarchical self-join-free boolean CQ (free
  /// variables, a connective other than ∃ and ∧, an equality, a repeated
  /// relation, or no root variable in some connected subquery).
  static StatusOr<LiftedPlan> Compile(const logic::GuardedFormula& formula);
  /// Compile(logic::GuardedFormula(sentence)).
  static StatusOr<LiftedPlan> Compile(const logic::Formula& sentence);

  /// Pr_{I~ti}(I ⊨ q) in the P-semiring, evaluated over the TI's store
  /// columns: double marginals come from the probability column (stable
  /// complement accumulation), exact math::Rational ones from the exact
  /// side table. Fails with kInvalidArgument when the TI's schema does
  /// not cover the query, with kFailedPrecondition when a queried fact of
  /// an exact TI has lost its exact marginal to a later double-valued
  /// store mutation, and with the budget's error when `options.budget`
  /// trips.
  template <typename P>
  StatusOr<P> Evaluate(const pdb::TiPdb<P>& ti,
                       const LiftedOptions& options = {}) const;

  /// Columnar evaluation: walks the store's per-relation sorted runs in
  /// place. Query constants resolve to dictionary ids once per call and
  /// groups are ranges of `uint32_t` ids; marginals are read by row
  /// through the run's permutation. No rel::Fact or rel::Value is
  /// materialized on the hot path.
  StatusOr<double> Evaluate(const storage::TiStore& store,
                            const LiftedOptions& options = {}) const;

  /// Certified enclosure of the query probability: the same columnar
  /// walk in the interval semiring, from point-interval marginals read
  /// off the probability column (the semiring tracks the rounding of the
  /// plan's products; see util/interval.h for the certification model).
  StatusOr<Interval> EvaluateInterval(const pdb::TiPdb<double>& ti,
                                      const LiftedOptions& options = {}) const;

  std::span<const PlanNode> nodes() const { return nodes_.span(); }
  /// A node's children in order, as node indexes.
  std::span<const int> children(const PlanNode& node) const {
    return child_ids_.span().subspan(static_cast<size_t>(node.first_child),
                                     static_cast<size_t>(node.num_children));
  }
  /// Root node index; -1 for the empty conjunction (probability 1).
  int root() const { return root_; }
  /// Maximum project-nesting depth of the plan.
  int depth() const { return depth_; }

  /// Human-readable plan, e.g.
  /// "project[x](join(lookup(R(x)), project[y](lookup(S(x, y)))))".
  std::string ToString(const rel::Schema& schema) const;

 private:
  class Compiler;

  /// One argument position of an atom: a variable id, or -1 and the
  /// index of its value among the distinct constants.
  struct PlanTerm {
    int var = -1;
    int constant = -1;
  };
  /// Per atom: its terms are terms_[first_term, first_term + arity), and
  /// its first `leading_constants` terms are constants.
  struct PlanAtom {
    rel::RelationId relation = 0;
    int first_term = 0;
    int arity = 0;
    int leading_constants = 0;
  };
  /// One atom in a project node's scope. `column` is the atom's first
  /// column not fixed by constants or outer bindings when it holds the
  /// projected variable: the project groups the atom's range in place and
  /// then narrows it on columns [column + 1, narrow_end), which hold
  /// constants or bound variables. Otherwise the atom is `gathered` on
  /// `column`, the projected variable's first position.
  struct ScopeEntry {
    int atom = 0;
    int column = 0;
    int narrow_end = 0;
    bool gathered = false;
  };

  LiftedPlan() = default;

  /// The one plan walk behind every Evaluate* entry point: T is the
  /// result semiring (double, math::Rational or Interval) and `prob_at`
  /// reads a row's marginal as T from its column table.
  template <typename T, typename ProbAt>
  StatusOr<T> EvaluateStoreImpl(const storage::TiStore& store, ProbAt prob_at,
                                const LiftedOptions& options) const;

  std::string NodeToString(int node, const rel::Schema& schema) const;

  // The inline sizes hold the service's queries (up to four atoms, four
  // variables and two distinct constants), so a served plan is built
  // and destroyed without touching the heap; larger plans spill.
  /// Variable names in id order, for ToString.
  InlineVector<std::string, 4> variables_;
  InlineVector<PlanAtom, 4> atoms_;
  InlineVector<PlanTerm, 8> terms_;
  /// Distinct constants.
  InlineVector<rel::Value, 2> constants_;
  InlineVector<PlanNode, 8> nodes_;
  InlineVector<int, 8> child_ids_;
  InlineVector<ScopeEntry, 8> scope_;
  int root_ = -1;
  int depth_ = 0;
};

/// Evaluates Pr_{I~ti}(I ⊨ q) by a safe plan (compile + evaluate in
/// one call). Fails with kFailedPrecondition when the query is not a
/// hierarchical self-join-free CQ.
StatusOr<double> SafeQueryProbability(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      SafePlanStats* stats = nullptr);

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_SAFE_PLAN_H_
