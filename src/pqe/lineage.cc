#include "pqe/lineage.h"

#include <algorithm>
#include <limits>
#include <set>

#include "logic/evaluator.h"
#include "relational/fact.h"
#include "util/check.h"

namespace ipdb {
namespace pqe {

Lineage::Lineage() {
  nodes_.push_back({NodeKind::kTrue, -1, {}});
  nodes_.push_back({NodeKind::kFalse, -1, {}});
  support_cache_.resize(2);
  support_cached_.resize(2, true);
}

uint64_t Lineage::NodeHashKey(const Node& node) const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(node.kind));
  mix(static_cast<uint64_t>(node.variable) + 0x9e3779b9u);
  for (NodeId c : node.children) mix(static_cast<uint64_t>(c));
  return h;
}

NodeId Lineage::Intern(Node node) {
  uint64_t key = NodeHashKey(node);
  auto& bucket = intern_[key];
  for (NodeId id : bucket) {
    const Node& existing = nodes_[id];
    if (existing.kind == node.kind && existing.variable == node.variable &&
        existing.children == node.children) {
      return id;
    }
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  support_cache_.emplace_back();
  support_cached_.push_back(false);
  bucket.push_back(id);
  return id;
}

NodeId Lineage::Var(int variable) {
  IPDB_CHECK_GE(variable, 0);
  return Intern({NodeKind::kVar, variable, {}});
}

NodeId Lineage::MakeNot(NodeId operand) {
  if (operand == kTrueId) return kFalseId;
  if (operand == kFalseId) return kTrueId;
  if (nodes_[operand].kind == NodeKind::kNot) {
    return nodes_[operand].children[0];
  }
  return Intern({NodeKind::kNot, -1, {operand}});
}

NodeId Lineage::MakeAnd(std::vector<NodeId> operands) {
  std::vector<NodeId> flat;
  for (NodeId id : operands) {
    if (id == kFalseId) return kFalseId;
    if (id == kTrueId) continue;
    if (nodes_[id].kind == NodeKind::kAnd) {
      for (NodeId c : nodes_[id].children) flat.push_back(c);
    } else {
      flat.push_back(id);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.empty()) return kTrueId;
  if (flat.size() == 1) return flat[0];
  // x ∧ ¬x = false.
  for (NodeId id : flat) {
    if (nodes_[id].kind == NodeKind::kNot &&
        std::binary_search(flat.begin(), flat.end(),
                           nodes_[id].children[0])) {
      return kFalseId;
    }
  }
  return Intern({NodeKind::kAnd, -1, std::move(flat)});
}

NodeId Lineage::MakeOr(std::vector<NodeId> operands) {
  std::vector<NodeId> flat;
  for (NodeId id : operands) {
    if (id == kTrueId) return kTrueId;
    if (id == kFalseId) continue;
    if (nodes_[id].kind == NodeKind::kOr) {
      for (NodeId c : nodes_[id].children) flat.push_back(c);
    } else {
      flat.push_back(id);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.empty()) return kFalseId;
  if (flat.size() == 1) return flat[0];
  for (NodeId id : flat) {
    if (nodes_[id].kind == NodeKind::kNot &&
        std::binary_search(flat.begin(), flat.end(),
                           nodes_[id].children[0])) {
      return kTrueId;
    }
  }
  return Intern({NodeKind::kOr, -1, std::move(flat)});
}

const std::vector<int>& Lineage::Support(NodeId id) {
  if (support_cached_[id]) return support_cache_[id];
  std::set<int> vars;
  const Node& node = nodes_[id];
  if (node.kind == NodeKind::kVar) {
    vars.insert(node.variable);
  } else {
    for (NodeId c : node.children) {
      const std::vector<int>& sub = Support(c);
      vars.insert(sub.begin(), sub.end());
    }
  }
  support_cache_[id].assign(vars.begin(), vars.end());
  support_cached_[id] = true;
  return support_cache_[id];
}

bool Lineage::Evaluate(NodeId id, const std::vector<bool>& assignment) const {
  const Node& node = nodes_[id];
  switch (node.kind) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kFalse:
      return false;
    case NodeKind::kVar:
      IPDB_CHECK_LT(static_cast<size_t>(node.variable), assignment.size());
      return assignment[node.variable];
    case NodeKind::kNot:
      return !Evaluate(node.children[0], assignment);
    case NodeKind::kAnd:
      for (NodeId c : node.children) {
        if (!Evaluate(c, assignment)) return false;
      }
      return true;
    case NodeKind::kOr:
      for (NodeId c : node.children) {
        if (Evaluate(c, assignment)) return true;
      }
      return false;
  }
  return false;
}

NodeId Lineage::Restrict(NodeId id, int variable, bool value) {
  // Memo local to one (variable, value) restriction pass.
  std::unordered_map<NodeId, NodeId> memo;
  struct Walker {
    Lineage* lineage;
    int variable;
    bool value;
    std::unordered_map<NodeId, NodeId>* memo;
    NodeId Walk(NodeId id) {
      auto it = memo->find(id);
      if (it != memo->end()) return it->second;
      // Copy the node's payload: recursive Walk calls can grow nodes_
      // and invalidate references.
      NodeKind kind = lineage->nodes_[id].kind;
      int node_variable = lineage->nodes_[id].variable;
      std::vector<NodeId> original = lineage->nodes_[id].children;
      NodeId result = id;
      switch (kind) {
        case NodeKind::kTrue:
        case NodeKind::kFalse:
          break;
        case NodeKind::kVar:
          if (node_variable == variable) {
            result = value ? kTrueId : kFalseId;
          }
          break;
        case NodeKind::kNot:
          result = lineage->MakeNot(Walk(original[0]));
          break;
        case NodeKind::kAnd:
        case NodeKind::kOr: {
          std::vector<NodeId> children;
          children.reserve(original.size());
          for (NodeId c : original) children.push_back(Walk(c));
          result = kind == NodeKind::kAnd
                       ? lineage->MakeAnd(std::move(children))
                       : lineage->MakeOr(std::move(children));
          break;
        }
      }
      (*memo)[id] = result;
      return result;
    }
  };
  Walker walker{this, variable, value, &memo};
  return walker.Walk(id);
}

std::string Lineage::ToString(NodeId id) const {
  const Node& node = nodes_[id];
  switch (node.kind) {
    case NodeKind::kTrue:
      return "T";
    case NodeKind::kFalse:
      return "F";
    case NodeKind::kVar:
      return "x" + std::to_string(node.variable);
    case NodeKind::kNot:
      return "!" + ToString(node.children[0]);
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += node.kind == NodeKind::kAnd ? " & " : " | ";
        out += ToString(node.children[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

using logic::Formula;
using logic::FormulaKind;
using logic::Term;

struct GroundContext {
  Lineage* lineage;
  /// Atoms resolve by dictionary probe + one binary search in the
  /// relation's sorted run.
  const storage::TiStore* store;
  std::vector<rel::Value> domain;
};

StatusOr<rel::Value> ResolveTerm(const Term& term,
                                 const logic::Assignment& assignment) {
  if (term.is_const()) return term.value();
  auto it = assignment.find(term.var());
  if (it == assignment.end()) {
    return InvalidArgumentError("unbound variable in grounding: " +
                                term.var());
  }
  return it->second;
}

StatusOr<NodeId> Ground(GroundContext& context, const Formula& formula,
                        logic::Assignment* assignment) {
  Lineage& lineage = *context.lineage;
  switch (formula.kind()) {
    case FormulaKind::kTrue:
      return lineage.True();
    case FormulaKind::kFalse:
      return lineage.False();
    case FormulaKind::kAtom: {
      std::vector<rel::Value> args;
      for (const Term& t : formula.terms()) {
        StatusOr<rel::Value> v = ResolveTerm(t, *assignment);
        if (!v.ok()) return v.status();
        args.push_back(std::move(v).value());
      }
      rel::Fact fact(formula.relation(), std::move(args));
      // Closed-world over the fact set: facts outside T(I) never occur.
      const int64_t i = context.store->FindFact(fact);
      if (i < 0) return lineage.False();
      return lineage.Var(static_cast<int>(i));
    }
    case FormulaKind::kEquals: {
      StatusOr<rel::Value> lhs = ResolveTerm(formula.terms()[0], *assignment);
      if (!lhs.ok()) return lhs.status();
      StatusOr<rel::Value> rhs = ResolveTerm(formula.terms()[1], *assignment);
      if (!rhs.ok()) return rhs.status();
      return lhs.value() == rhs.value() ? lineage.True() : lineage.False();
    }
    case FormulaKind::kNot: {
      StatusOr<NodeId> inner =
          Ground(context, formula.children()[0], assignment);
      if (!inner.ok()) return inner.status();
      return lineage.MakeNot(inner.value());
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<NodeId> children;
      for (const Formula& child : formula.children()) {
        StatusOr<NodeId> c = Ground(context, child, assignment);
        if (!c.ok()) return c.status();
        children.push_back(c.value());
        // Short-circuit on constants.
        if (formula.kind() == FormulaKind::kAnd &&
            c.value() == Lineage::kFalseId) {
          return lineage.False();
        }
        if (formula.kind() == FormulaKind::kOr &&
            c.value() == Lineage::kTrueId) {
          return lineage.True();
        }
      }
      return formula.kind() == FormulaKind::kAnd
                 ? lineage.MakeAnd(std::move(children))
                 : lineage.MakeOr(std::move(children));
    }
    case FormulaKind::kImplies: {
      StatusOr<NodeId> premise =
          Ground(context, formula.children()[0], assignment);
      if (!premise.ok()) return premise.status();
      StatusOr<NodeId> conclusion =
          Ground(context, formula.children()[1], assignment);
      if (!conclusion.ok()) return conclusion.status();
      return lineage.MakeOr({lineage.MakeNot(premise.value()),
                             conclusion.value()});
    }
    case FormulaKind::kIff: {
      StatusOr<NodeId> lhs =
          Ground(context, formula.children()[0], assignment);
      if (!lhs.ok()) return lhs.status();
      StatusOr<NodeId> rhs =
          Ground(context, formula.children()[1], assignment);
      if (!rhs.ok()) return rhs.status();
      NodeId both = lineage.MakeAnd({lhs.value(), rhs.value()});
      NodeId neither = lineage.MakeAnd({lineage.MakeNot(lhs.value()),
                                        lineage.MakeNot(rhs.value())});
      return lineage.MakeOr({both, neither});
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const bool is_exists = formula.kind() == FormulaKind::kExists;
      const std::string& var = formula.quantified_var();
      auto outer = assignment->find(var);
      bool had_outer = outer != assignment->end();
      rel::Value saved = had_outer ? outer->second : rel::Value();
      std::vector<NodeId> children;
      for (const rel::Value& candidate : context.domain) {
        (*assignment)[var] = candidate;
        StatusOr<NodeId> c =
            Ground(context, formula.children()[0], assignment);
        if (!c.ok()) return c.status();
        children.push_back(c.value());
      }
      if (had_outer) {
        (*assignment)[var] = saved;
      } else {
        assignment->erase(var);
      }
      return is_exists ? lineage.MakeOr(std::move(children))
                       : lineage.MakeAnd(std::move(children));
    }
  }
  return InternalError("unhandled formula kind in grounding");
}

}  // namespace

StatusOr<NodeId> GroundSentence(const pdb::TiPdb<double>& ti,
                                const logic::Formula& sentence,
                                Lineage* lineage) {
  return GroundSentence(*ti.store(), sentence, lineage);
}

StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::Formula& sentence,
                                Lineage* lineage) {
  if (!sentence.FreeVariables().empty()) {
    return InvalidArgumentError("grounding requires a sentence");
  }
  if (!sentence.MatchesSchema(store.schema())) {
    return InvalidArgumentError("sentence does not match the TI schema");
  }
  if (store.num_facts() > std::numeric_limits<NodeId>::max()) {
    return InvalidArgumentError(
        "lineage variables are 32-bit: the store has too many facts to "
        "ground");
  }
  GroundContext context{lineage, &store, store.SortedDomain()};
  std::vector<rel::Value>& domain = context.domain;
  // Constants and fresh witnesses join the active domain; sort + unique
  // makes it one ordered set whatever a value's origin, so node ids and
  // fingerprints depend only on the facts and the sentence.
  for (const rel::Value& v : sentence.Constants()) domain.push_back(v);
  const int rank = sentence.QuantifierRank();
  for (int i = 0; i < rank; ++i) {
    domain.push_back(rel::Value::Symbol("$fresh" + std::to_string(i)));
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  logic::Assignment assignment;
  return Ground(context, sentence, &assignment);
}

}  // namespace pqe
}  // namespace ipdb
