#ifndef IPDB_LOGIC_GUARDS_H_
#define IPDB_LOGIC_GUARDS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "logic/formula.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/inline_vector.h"

namespace ipdb {
namespace logic {

/// A formula compiled once for model checking (evaluator.h), grounding
/// (pqe/lineage.h), the lifted plan (pqe/safe_plan.h) and answer
/// enumeration (pqe/expected_answers.h): every variable occurrence is
/// resolved to a dense slot, and every quantifier carries the guard
/// analysis that bounds the values worth trying.
///
/// Slots. The requested free variables take the first slots in order of
/// first occurrence, the formula's other free variables follow, then one
/// slot per quantifier in pre-order. Resolution settles shadowing once,
/// so an assignment is a flat array indexed by slot.
///
/// Guards. Quantifiers range over the infinite universe, made finite by
/// genericity (evaluator.h). Most values of that domain cannot matter:
///  * a *guard* of x in φ is a relational atom that must hold for φ to
///    hold and that mentions x, so only values at x's positions in
///    matching facts can make φ true. ∃x φ need only try those values;
///  * a *co-guard* of x in φ bounds the values outside which φ is true,
///    so ∀x φ need only try those.
/// The rules, with y a wildcard below ∃y/∀y:
///   guard(R(…x…))     the atom itself
///   guard(φ₁ ∧ … ∧ φₙ) any guarded conjunct (the cheapest is taken)
///   guard(φ₁ ∨ … ∨ φₙ) the union, when every disjunct is guarded
///   guard(∃y φ), guard(∀y φ)   guard(φ)
///   co-guard(φ → ψ), co-guard(¬φ)   guard(φ)
///   co-guard(… ∨ ¬φ ∨ …)             guard(φ)
///   co-guard(φ₁ ∧ … ∧ φₙ)  the union, when every conjunct is co-guarded
///   co-guard(∃y φ), co-guard(∀y φ)   co-guard(φ)
/// Candidates are read from any superset of the facts being checked: the
/// evaluator reads one instance, the grounder reads the whole store, a
/// superset of every world. So a value a guard skips makes the body false
/// (∃) or true (∀) in every world; for the grounder it grounds to
/// Lineage::kFalseId (∃) or kTrueId (∀), which MakeOr and MakeAnd drop,
/// and pruning leaves every lineage fingerprint unchanged. Variables that
/// no guard covers (under ¬, under ∀ without a co-guard, or bound only by
/// equality) range over the whole domain.
class GuardedFormula {
 public:
  /// A variable slot, or an index into constants().
  struct Term {
    bool is_slot = false;
    int index = 0;
  };
  struct Node {
    FormulaKind kind = FormulaKind::kTrue;
    rel::RelationId relation = 0;  // kAtom
    std::vector<Term> terms;       // kAtom, kEquals
    std::vector<int> children;     // node ids
    /// kExists/kForall: the slot the quantifier binds, and the plan of
    /// candidates it ranges over (guard for ∃, co-guard for ∀) or -1 for
    /// the whole domain.
    int slot = -1;
    int guard = -1;
  };

  /// A guard plan node. kAtom yields the values at the target's positions
  /// among the facts that match its constant and bound positions;
  /// kCheapest one child (the cheapest to read, a conjunction's guard);
  /// kUnion the union of its children (a disjunction's).
  enum class PlanKind : uint8_t { kAtom, kCheapest, kUnion };
  /// What an atom position is matched against: a constant, a slot bound
  /// outside the quantifier, the target variable, or nothing.
  enum class Role : uint8_t { kConst, kBound, kTarget, kAny };
  struct Position {
    Role role = Role::kAny;
    int index = 0;  // kConst: constants() index; kBound: slot
  };
  struct Plan {
    PlanKind kind = PlanKind::kAtom;
    rel::RelationId relation = 0;
    std::vector<Position> positions;
    std::vector<int> children;
  };

  explicit GuardedFormula(const Formula& formula,
                          const std::vector<std::string>& free_vars = {});

  int root() const { return root_; }
  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  const Plan& plan(int id) const { return plans_[static_cast<size_t>(id)]; }
  /// The formula's constants, sorted and duplicate-free.
  const std::vector<rel::Value>& constants() const { return constants_; }
  int num_slots() const { return static_cast<int>(slot_names_.size()); }
  /// Slots [0, num_free()) are free variables.
  int num_free() const { return num_free_; }
  /// The slot of free variable `name`, or -1.
  int free_slot(const std::string& name) const;
  const std::string& slot_name(int slot) const {
    return slot_names_[static_cast<size_t>(slot)];
  }
  /// The guard of free slot `slot` with no other variable bound (the
  /// candidates of an answer tuple's position), or -1.
  int head_guard(int slot) const {
    return head_guards_[static_cast<size_t>(slot)];
  }
  int quantifier_rank() const { return rank_; }
  /// True when every atom names a relation of `schema` at its arity.
  bool MatchesSchema(const rel::Schema& schema) const;

 private:
  int Build(const Formula& formula,
            std::vector<std::pair<std::string, int>>* scope);
  int Guard(int node, int target, int bound_below);
  int CoGuard(int node, int target, int bound_below);
  int AddPlan(Plan plan);
  /// Union of `children`, all of which must be plans; -1 if any is not.
  int UnionOf(std::vector<int> children);

  std::vector<Node> nodes_;
  std::vector<Plan> plans_;
  std::vector<rel::Value> constants_;
  std::vector<std::string> slot_names_;
  std::vector<int> head_guards_;
  int num_free_ = 0;
  int root_ = -1;
  int rank_ = 0;
};

/// Reads guard candidates from a fact source. A `Source` provides
///
///   using Value = …;  // default-constructible, with == and <
///   Value Constant(int index) const;          // constants()[index]
///   bool Slot(int slot, Value* value) const;  // false: unbound, a wildcard
///   int64_t CountRows(rel::RelationId r, const Value* key,
///                     int key_len) const;
///   template <typename Fn>
///   void ForEachRow(rel::RelationId r, int arity, const Value* key,
///                   int key_len, Fn fn) const;
///
/// ForEachRow calls fn(row) for every fact of r with `arity` positions
/// whose first key_len positions equal key, where row(i) is the fact's
/// value at position i; CountRows bounds how many there are (it may count
/// facts of another arity). Sources read a sorted run, so a bound prefix
/// is a range and anything else one scan of the relation.
template <typename Source>
class GuardReader {
 public:
  using Value = typename Source::Value;

  GuardReader(const GuardedFormula& formula, const Source& source)
      : formula_(formula), source_(source) {}

  /// The candidates of plan `plan` under the source's current slots,
  /// sorted and duplicate-free, into *out.
  void Collect(int plan, std::vector<Value>* out) const {
    out->clear();
    const GuardedFormula::Plan& p = formula_.plan(plan);
    switch (p.kind) {
      case GuardedFormula::PlanKind::kAtom: {
        Key key = MakeKey(p);
        const int arity = static_cast<int>(p.positions.size());
        source_.ForEachRow(
            p.relation, arity, key.values.data(), key.prefix,
            [&](const auto& row) {
              Value target{};
              bool seen = false;
              for (int i = key.prefix; i < arity; ++i) {
                const GuardedFormula::Role role = p.positions[i].role;
                if (key.fixed[static_cast<size_t>(i)]) {
                  if (!(row(i) == key.values[static_cast<size_t>(i)])) return;
                } else if (role == GuardedFormula::Role::kTarget) {
                  if (!seen) {
                    target = row(i);
                    seen = true;
                  } else if (!(row(i) == target)) {
                    return;
                  }
                }
              }
              out->push_back(target);
            });
        break;
      }
      case GuardedFormula::PlanKind::kCheapest: {
        // Any guarded conjunct is a sound filter; read the one with the
        // fewest rows to scan, which also bounds its candidates.
        int best = -1;
        int64_t best_rows = 0;
        for (int child : p.children) {
          const int64_t rows = Estimate(child);
          if (best < 0 || rows < best_rows) {
            best = child;
            best_rows = rows;
          }
        }
        Collect(best, out);
        return;
      }
      case GuardedFormula::PlanKind::kUnion: {
        std::vector<Value> part;
        for (int child : p.children) {
          Collect(child, &part);
          out->insert(out->end(), part.begin(), part.end());
        }
        break;
      }
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }

 private:
  /// An atom plan's key: the value each position is matched against,
  /// whether it is fixed, and how many leading positions are. Atoms of
  /// arity up to kInlineArity keep it inline, so reading a plan
  /// allocates nothing.
  static constexpr size_t kInlineArity = 8;
  struct Key {
    explicit Key(size_t arity) : values(arity), fixed(arity) {}
    InlineVector<Value, kInlineArity> values;
    InlineVector<uint8_t, kInlineArity> fixed;
    int prefix = 0;  // leading fixed positions
  };

  Key MakeKey(const GuardedFormula::Plan& p) const {
    Key key(p.positions.size());
    bool leading = true;
    for (size_t i = 0; i < p.positions.size(); ++i) {
      const GuardedFormula::Position& position = p.positions[i];
      if (position.role == GuardedFormula::Role::kConst) {
        key.values[i] = source_.Constant(position.index);
        key.fixed[i] = true;
      } else if (position.role == GuardedFormula::Role::kBound) {
        key.fixed[i] = source_.Slot(position.index, &key.values[i]);
      }
      leading = leading && key.fixed[i];
      if (leading) ++key.prefix;
    }
    return key;
  }

  /// An upper bound on the rows Collect(plan) reads.
  int64_t Estimate(int plan) const {
    const GuardedFormula::Plan& p = formula_.plan(plan);
    switch (p.kind) {
      case GuardedFormula::PlanKind::kAtom: {
        Key key = MakeKey(p);
        return source_.CountRows(p.relation, key.values.data(), key.prefix);
      }
      case GuardedFormula::PlanKind::kCheapest: {
        int64_t rows = -1;
        for (int child : p.children) {
          const int64_t r = Estimate(child);
          if (rows < 0 || r < rows) rows = r;
        }
        return rows;
      }
      case GuardedFormula::PlanKind::kUnion: {
        int64_t rows = 0;
        for (int child : p.children) rows += Estimate(child);
        return rows;
      }
    }
    return 0;
  }

  const GuardedFormula& formula_;
  const Source& source_;
};

}  // namespace logic
}  // namespace ipdb

#endif  // IPDB_LOGIC_GUARDS_H_
