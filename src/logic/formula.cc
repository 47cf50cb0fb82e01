#include "logic/formula.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/check.h"

namespace ipdb {
namespace logic {

namespace internal_formula {
// (Node is defined in the header.)
}  // namespace internal_formula

using internal_formula::Node;

Formula MakeFormula(Node node) {
  for (const Formula& child : node.children) {
    node.depth = std::max(node.depth, child.depth() + 1);
  }
  return Formula(std::make_shared<const Node>(std::move(node)));
}

Formula::Formula() { *this = Truth(); }

Formula Truth() {
  Node n;
  n.kind = FormulaKind::kTrue;
  return MakeFormula(std::move(n));
}

Formula Falsity() {
  Node n;
  n.kind = FormulaKind::kFalse;
  return MakeFormula(std::move(n));
}

Formula Atom(rel::RelationId relation, std::vector<Term> terms) {
  Node n;
  n.kind = FormulaKind::kAtom;
  n.relation = relation;
  n.terms = std::move(terms);
  return MakeFormula(std::move(n));
}

Formula Eq(Term lhs, Term rhs) {
  Node n;
  n.kind = FormulaKind::kEquals;
  n.terms = {std::move(lhs), std::move(rhs)};
  return MakeFormula(std::move(n));
}

Formula Not(Formula operand) {
  Node n;
  n.kind = FormulaKind::kNot;
  n.children = {std::move(operand)};
  return MakeFormula(std::move(n));
}

Formula And(std::vector<Formula> operands) {
  Node n;
  n.kind = FormulaKind::kAnd;
  n.children = std::move(operands);
  return MakeFormula(std::move(n));
}

Formula Or(std::vector<Formula> operands) {
  Node n;
  n.kind = FormulaKind::kOr;
  n.children = std::move(operands);
  return MakeFormula(std::move(n));
}

Formula And(Formula a, Formula b) {
  return And(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Or(Formula a, Formula b) {
  return Or(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Implies(Formula premise, Formula conclusion) {
  Node n;
  n.kind = FormulaKind::kImplies;
  n.children = {std::move(premise), std::move(conclusion)};
  return MakeFormula(std::move(n));
}

Formula Iff(Formula a, Formula b) {
  Node n;
  n.kind = FormulaKind::kIff;
  n.children = {std::move(a), std::move(b)};
  return MakeFormula(std::move(n));
}

Formula Exists(std::string var, Formula body) {
  Node n;
  n.kind = FormulaKind::kExists;
  n.quantified_var = std::move(var);
  n.children = {std::move(body)};
  return MakeFormula(std::move(n));
}

Formula Forall(std::string var, Formula body) {
  Node n;
  n.kind = FormulaKind::kForall;
  n.quantified_var = std::move(var);
  n.children = {std::move(body)};
  return MakeFormula(std::move(n));
}

Formula ExistsAll(const std::vector<std::string>& vars, Formula body) {
  Formula result = std::move(body);
  for (size_t i = vars.size(); i-- > 0;) {
    result = Exists(vars[i], std::move(result));
  }
  return result;
}

Formula ForallAll(const std::vector<std::string>& vars, Formula body) {
  Formula result = std::move(body);
  for (size_t i = vars.size(); i-- > 0;) {
    result = Forall(vars[i], std::move(result));
  }
  return result;
}

namespace {

// Distinct fresh variable names "<var>$k" for counting quantifiers.
std::vector<std::string> CountingVars(const std::string& var, int count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (int i = 0; i < count; ++i) {
    names.push_back(var + "$" + std::to_string(i));
  }
  return names;
}

}  // namespace

Formula AtLeast(int count, const std::string& var, const Formula& body) {
  IPDB_CHECK_GE(count, 0);
  if (count == 0) return Truth();
  std::vector<std::string> names = CountingVars(var, count);
  std::vector<Formula> conjuncts;
  for (int i = 0; i < count; ++i) {
    conjuncts.push_back(body.Substitute(var, Term::Var(names[i])));
    for (int j = 0; j < i; ++j) {
      conjuncts.push_back(
          Not(Eq(Term::Var(names[i]), Term::Var(names[j]))));
    }
  }
  return ExistsAll(names, And(std::move(conjuncts)));
}

Formula AtMost(int count, const std::string& var, const Formula& body) {
  return Not(AtLeast(count + 1, var, body));
}

Formula Exactly(int count, const std::string& var, const Formula& body) {
  return And(AtLeast(count, var, body), AtMost(count, var, body));
}

std::vector<std::string> Formula::FreeVariables() const {
  std::set<std::string> free;
  std::vector<std::string> bound;
  // Recursive walk tracking the bound-variable stack.
  struct Walker {
    std::set<std::string>* free;
    std::vector<std::string>* bound;
    void Walk(const Formula& f) {
      switch (f.kind()) {
        case FormulaKind::kAtom:
        case FormulaKind::kEquals:
          for (const Term& t : f.terms()) {
            if (t.is_var() &&
                std::find(bound->begin(), bound->end(), t.var()) ==
                    bound->end()) {
              free->insert(t.var());
            }
          }
          break;
        case FormulaKind::kExists:
        case FormulaKind::kForall:
          bound->push_back(f.quantified_var());
          Walk(f.children()[0]);
          bound->pop_back();
          break;
        default:
          for (const Formula& child : f.children()) Walk(child);
          break;
      }
    }
  };
  Walker walker{&free, &bound};
  walker.Walk(*this);
  return std::vector<std::string>(free.begin(), free.end());
}

std::vector<rel::Value> Formula::Constants() const {
  std::set<rel::Value> constants;
  struct Walker {
    std::set<rel::Value>* constants;
    void Walk(const Formula& f) {
      for (const Term& t : f.terms()) {
        if (t.is_const()) constants->insert(t.value());
      }
      for (const Formula& child : f.children()) Walk(child);
    }
  };
  Walker walker{&constants};
  walker.Walk(*this);
  return std::vector<rel::Value>(constants.begin(), constants.end());
}

int Formula::QuantifierRank() const {
  int best = 0;
  for (const Formula& child : children()) {
    best = std::max(best, child.QuantifierRank());
  }
  if (kind() == FormulaKind::kExists || kind() == FormulaKind::kForall) {
    return best + 1;
  }
  return best;
}

int Formula::Size() const {
  int total = 1;
  for (const Formula& child : children()) total += child.Size();
  return total;
}

bool Formula::MatchesSchema(const rel::Schema& schema) const {
  if (kind() == FormulaKind::kAtom) {
    if (!schema.has_relation(relation())) return false;
    if (schema.arity(relation()) != static_cast<int>(terms().size())) {
      return false;
    }
  }
  for (const Formula& child : children()) {
    if (!child.MatchesSchema(schema)) return false;
  }
  return true;
}

std::string Formula::ToString(const rel::Schema& schema) const {
  switch (kind()) {
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kAtom: {
      std::string out = schema.has_relation(relation())
                            ? schema.relation_name(relation())
                            : "R#" + std::to_string(relation());
      out += "(";
      for (size_t i = 0; i < terms().size(); ++i) {
        if (i > 0) out += ", ";
        out += terms()[i].ToString();
      }
      return out + ")";
    }
    case FormulaKind::kEquals:
      return terms()[0].ToString() + " = " + terms()[1].ToString();
    case FormulaKind::kNot:
      return "!(" + children()[0].ToString(schema) + ")";
    case FormulaKind::kAnd: {
      if (children().empty()) return "true";
      std::string out = "(";
      for (size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += " & ";
        out += children()[i].ToString(schema);
      }
      return out + ")";
    }
    case FormulaKind::kOr: {
      if (children().empty()) return "false";
      std::string out = "(";
      for (size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += " | ";
        out += children()[i].ToString(schema);
      }
      return out + ")";
    }
    case FormulaKind::kImplies:
      return "(" + children()[0].ToString(schema) + " -> " +
             children()[1].ToString(schema) + ")";
    case FormulaKind::kIff:
      return "(" + children()[0].ToString(schema) + " <-> " +
             children()[1].ToString(schema) + ")";
    case FormulaKind::kExists:
      return "exists " + quantified_var() + ". (" +
             children()[0].ToString(schema) + ")";
    case FormulaKind::kForall:
      return "forall " + quantified_var() + ". (" +
             children()[0].ToString(schema) + ")";
  }
  return "?";
}

std::string Formula::ToString() const { return ToString(rel::Schema()); }

namespace {

// Returns a variable name based on `base` that is not in `taken`.
std::string FreshName(const std::string& base,
                      const std::vector<std::string>& taken) {
  std::string candidate = base;
  int suffix = 0;
  while (std::find(taken.begin(), taken.end(), candidate) != taken.end()) {
    candidate = base + "'" + std::to_string(++suffix);
  }
  return candidate;
}

}  // namespace

Formula Formula::Substitute(const std::string& var, const Term& term) const {
  switch (kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return *this;
    case FormulaKind::kAtom:
    case FormulaKind::kEquals: {
      std::vector<Term> new_terms = terms();
      bool changed = false;
      for (Term& t : new_terms) {
        if (t.is_var() && t.var() == var) {
          t = term;
          changed = true;
        }
      }
      if (!changed) return *this;
      if (kind() == FormulaKind::kAtom) {
        return Atom(relation(), std::move(new_terms));
      }
      return Eq(new_terms[0], new_terms[1]);
    }
    case FormulaKind::kNot:
      return Not(children()[0].Substitute(var, term));
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      std::vector<Formula> new_children;
      new_children.reserve(children().size());
      for (const Formula& child : children()) {
        new_children.push_back(child.Substitute(var, term));
      }
      Node n;
      n.kind = kind();
      n.children = std::move(new_children);
      return MakeFormula(std::move(n));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const std::string& bound = quantified_var();
      if (bound == var) return *this;  // `var` is not free below.
      Formula body = children()[0];
      std::string new_bound = bound;
      if (term.is_var() && term.var() == bound) {
        // Rename the bound variable to avoid capture.
        std::vector<std::string> taken = body.FreeVariables();
        taken.push_back(var);
        taken.push_back(term.var());
        new_bound = FreshName(bound, taken);
        body = body.Substitute(bound, Term::Var(new_bound));
      }
      body = body.Substitute(var, term);
      return kind() == FormulaKind::kExists ? Exists(new_bound, body)
                                            : Forall(new_bound, body);
    }
  }
  return *this;
}

bool operator==(const Formula& a, const Formula& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  if (a.kind() == FormulaKind::kAtom && a.relation() != b.relation()) {
    return false;
  }
  if (a.terms() != b.terms()) return false;
  if (a.kind() == FormulaKind::kExists || a.kind() == FormulaKind::kForall) {
    if (a.quantified_var() != b.quantified_var()) return false;
  }
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!(a.children()[i] == b.children()[i])) return false;
  }
  return true;
}

}  // namespace logic
}  // namespace ipdb
