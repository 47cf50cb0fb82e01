#include "logic/guards.h"

#include "util/check.h"

namespace ipdb {
namespace logic {

GuardedFormula::GuardedFormula(const Formula& formula,
                               const std::vector<std::string>& free_vars)
    : constants_(formula.Constants()), rank_(formula.QuantifierRank()) {
  for (const std::vector<std::string>& names :
       {free_vars, formula.FreeVariables()}) {
    for (const std::string& var : names) {
      if (std::find(slot_names_.begin(), slot_names_.end(), var) ==
          slot_names_.end()) {
        slot_names_.push_back(var);
      }
    }
  }
  num_free_ = num_slots();
  std::vector<std::pair<std::string, int>> scope;
  for (int slot = 0; slot < num_free_; ++slot) {
    scope.emplace_back(slot_names_[static_cast<size_t>(slot)], slot);
  }
  root_ = Build(formula, &scope);
  for (int slot = 0; slot < num_free_; ++slot) {
    head_guards_.push_back(Guard(root_, slot, 0));
  }
}

int GuardedFormula::free_slot(const std::string& name) const {
  const auto it = std::find(slot_names_.begin(),
                            slot_names_.begin() + num_free_, name);
  return it == slot_names_.begin() + num_free_
             ? -1
             : static_cast<int>(it - slot_names_.begin());
}

bool GuardedFormula::MatchesSchema(const rel::Schema& schema) const {
  return std::all_of(nodes_.begin(), nodes_.end(), [&schema](const Node& n) {
    return n.kind != FormulaKind::kAtom ||
           (schema.has_relation(n.relation) &&
            schema.arity(n.relation) == static_cast<int>(n.terms.size()));
  });
}

int GuardedFormula::Build(const Formula& formula,
                          std::vector<std::pair<std::string, int>>* scope) {
  Node node;
  node.kind = formula.kind();
  switch (formula.kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      node.relation = formula.relation();
      for (const logic::Term& t : formula.terms()) {
        Term term;
        if (t.is_const()) {
          term.index = static_cast<int>(
              std::lower_bound(constants_.begin(), constants_.end(),
                               t.value()) -
              constants_.begin());
        } else {
          // Innermost binding wins: that is what shadowing means.
          auto it = std::find_if(
              scope->rbegin(), scope->rend(),
              [&t](const auto& entry) { return entry.first == t.var(); });
          IPDB_CHECK(it != scope->rend()) << "unresolved variable " << t.var();
          term.is_slot = true;
          term.index = it->second;
        }
        node.terms.push_back(term);
      }
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      node.slot = num_slots();
      slot_names_.push_back(formula.quantified_var());
      scope->emplace_back(formula.quantified_var(), node.slot);
      node.children.push_back(Build(formula.children()[0], scope));
      scope->pop_back();
      // Slots below this one are bound when the quantifier runs; the
      // body's own binders are wildcards.
      node.guard = formula.kind() == FormulaKind::kExists
                       ? Guard(node.children[0], node.slot, node.slot)
                       : CoGuard(node.children[0], node.slot, node.slot);
      break;
    }
    default:
      for (const Formula& child : formula.children()) {
        node.children.push_back(Build(child, scope));
      }
      break;
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int GuardedFormula::AddPlan(Plan plan) {
  plans_.push_back(std::move(plan));
  return static_cast<int>(plans_.size()) - 1;
}

int GuardedFormula::UnionOf(std::vector<int> children) {
  for (int child : children) {
    if (child < 0) return -1;
  }
  if (children.size() == 1) return children[0];
  Plan plan;
  plan.kind = PlanKind::kUnion;
  plan.children = std::move(children);
  return AddPlan(std::move(plan));
}

int GuardedFormula::Guard(int id, int target, int bound_below) {
  const Node& node = nodes_[static_cast<size_t>(id)];
  switch (node.kind) {
    case FormulaKind::kAtom: {
      Plan plan;
      plan.relation = node.relation;
      bool mentions = false;
      for (const Term& term : node.terms) {
        Position position;
        position.index = term.index;
        if (!term.is_slot) {
          position.role = Role::kConst;
        } else if (term.index == target) {
          position.role = Role::kTarget;
          mentions = true;
        } else if (term.index < bound_below) {
          position.role = Role::kBound;
        }
        plan.positions.push_back(position);
      }
      return mentions ? AddPlan(std::move(plan)) : -1;
    }
    case FormulaKind::kAnd: {
      Plan plan;
      plan.kind = PlanKind::kCheapest;
      for (int child : node.children) {
        const int guard = Guard(child, target, bound_below);
        if (guard >= 0) plan.children.push_back(guard);
      }
      if (plan.children.size() <= 1) {
        return plan.children.empty() ? -1 : plan.children[0];
      }
      return AddPlan(std::move(plan));
    }
    case FormulaKind::kOr: {
      std::vector<int> children;
      for (int child : node.children) {
        children.push_back(Guard(child, target, bound_below));
      }
      return UnionOf(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      return Guard(node.children[0], target, bound_below);
    default:
      return -1;
  }
}

int GuardedFormula::CoGuard(int id, int target, int bound_below) {
  const Node& node = nodes_[static_cast<size_t>(id)];
  switch (node.kind) {
    case FormulaKind::kImplies:
    case FormulaKind::kNot:
      return Guard(node.children[0], target, bound_below);
    case FormulaKind::kOr:
      for (int child : node.children) {
        const Node& disjunct = nodes_[static_cast<size_t>(child)];
        if (disjunct.kind != FormulaKind::kNot) continue;
        const int guard = Guard(disjunct.children[0], target, bound_below);
        if (guard >= 0) return guard;
      }
      return -1;
    case FormulaKind::kAnd: {
      std::vector<int> children;
      for (int child : node.children) {
        children.push_back(CoGuard(child, target, bound_below));
      }
      return UnionOf(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      return CoGuard(node.children[0], target, bound_below);
    default:
      return -1;
  }
}

}  // namespace logic
}  // namespace ipdb
