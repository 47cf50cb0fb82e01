#ifndef IPDB_LOGIC_FORMULA_H_
#define IPDB_LOGIC_FORMULA_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "logic/term.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace ipdb {
namespace logic {

/// Node kinds of the first-order formula AST.
enum class FormulaKind {
  kTrue,     // ⊤
  kFalse,    // ⊥ (logical falsity, unrelated to the ⊥ universe element)
  kAtom,     // R(t₁, …, t_k)
  kEquals,   // t₁ = t₂
  kNot,      // ¬φ
  kAnd,      // φ₁ ∧ … ∧ φ_n (n >= 0; empty conjunction is ⊤)
  kOr,       // φ₁ ∨ … ∨ φ_n (n >= 0; empty disjunction is ⊥)
  kImplies,  // φ₁ → φ₂
  kIff,      // φ₁ ↔ φ₂
  kExists,   // ∃x φ
  kForall,   // ∀x φ
};

class Formula;

namespace internal_formula {

/// Immutable AST node; shared between formulas (hash-consing is not
/// performed; nodes are plain shared immutable data).
struct Node {
  FormulaKind kind = FormulaKind::kTrue;
  // kAtom:
  rel::RelationId relation = 0;
  std::vector<Term> terms;  // also used by kEquals (exactly two terms)
  // kNot/kAnd/kOr/kImplies/kIff/kExists/kForall:
  std::vector<Formula> children;
  // kExists/kForall:
  std::string quantified_var;
  int depth = 1;  // nodes on the longest path down to a leaf
};

}  // namespace internal_formula

/// An immutable first-order formula over some schema (Section 2 of the
/// paper). Build formulas with the free functions below:
///
///   Formula phi = Exists("x", Atom(r, {Term::Var("x"), Term::Int(7)}));
///
/// Formulas are cheap to copy (shared immutable nodes). The evaluator in
/// logic/evaluator.h implements the infinite-universe semantics.
class Formula {
 public:
  /// Default-constructed formula is ⊤.
  Formula();

  FormulaKind kind() const { return node_->kind; }

  /// Relation id; only valid for kAtom.
  rel::RelationId relation() const { return node_->relation; }

  /// Atom arguments (kAtom) or the two equality operands (kEquals).
  const std::vector<Term>& terms() const { return node_->terms; }

  /// Subformulas (empty for kTrue/kFalse/kAtom/kEquals).
  const std::vector<Formula>& children() const { return node_->children; }

  /// Quantified variable; only valid for kExists/kForall.
  const std::string& quantified_var() const { return node_->quantified_var; }

  /// Free variables of the formula, sorted.
  std::vector<std::string> FreeVariables() const;

  /// All constants mentioned in the formula (in atoms and equalities),
  /// sorted and duplicate-free. This is the set "constants of Φ" in
  /// Lemmas 3.6/3.7.
  std::vector<rel::Value> Constants() const;

  /// Quantifier rank (maximum nesting depth of quantifiers).
  int QuantifierRank() const;

  /// Nodes on the longest path from the root down to a leaf (1 for an
  /// atom); kept in each node, so reading it costs nothing.
  int depth() const { return node_->depth; }

  /// Number of AST nodes.
  int Size() const;

  /// Checks that every atom matches the schema (valid relation id and
  /// arity).
  bool MatchesSchema(const rel::Schema& schema) const;

  /// Pretty-printer; relation names resolved through the schema.
  std::string ToString(const rel::Schema& schema) const;
  std::string ToString() const;

  /// Capture-avoiding substitution of free occurrences of `var` by `term`.
  /// Bound variables that would capture are renamed to fresh names.
  Formula Substitute(const std::string& var, const Term& term) const;

  /// Structural equality (same tree, including variable names).
  friend bool operator==(const Formula& a, const Formula& b);
  friend bool operator!=(const Formula& a, const Formula& b) {
    return !(a == b);
  }

 private:
  friend Formula MakeFormula(internal_formula::Node node);

  explicit Formula(std::shared_ptr<const internal_formula::Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const internal_formula::Node> node_;
};

/// Factory functions (the public construction API).

/// ⊤ / ⊥.
Formula Truth();
Formula Falsity();

/// R(terms...). Arity is validated lazily by MatchesSchema / the evaluator.
Formula Atom(rel::RelationId relation, std::vector<Term> terms);

/// t₁ = t₂.
Formula Eq(Term lhs, Term rhs);

/// ¬φ.
Formula Not(Formula operand);

/// n-ary conjunction / disjunction; empty And() is ⊤, empty Or() is ⊥.
Formula And(std::vector<Formula> operands);
Formula Or(std::vector<Formula> operands);

/// Binary convenience overloads.
Formula And(Formula a, Formula b);
Formula Or(Formula a, Formula b);

/// φ₁ → φ₂ and φ₁ ↔ φ₂.
Formula Implies(Formula premise, Formula conclusion);
Formula Iff(Formula a, Formula b);

/// ∃x φ / ∀x φ.
Formula Exists(std::string var, Formula body);
Formula Forall(std::string var, Formula body);

/// ∃x₁ … ∃x_n φ for a list of variables.
Formula ExistsAll(const std::vector<std::string>& vars, Formula body);
Formula ForallAll(const std::vector<std::string>& vars, Formula body);

/// "There exist at least/at most/exactly `count` distinct x with φ(x)".
/// These are the counting quantifiers used by Claim 5.8; they expand to
/// plain FO.
Formula AtLeast(int count, const std::string& var, const Formula& body);
Formula AtMost(int count, const std::string& var, const Formula& body);
Formula Exactly(int count, const std::string& var, const Formula& body);

}  // namespace logic
}  // namespace ipdb

#endif  // IPDB_LOGIC_FORMULA_H_
