#include "pqe/lineage.h"

#include <algorithm>
#include <limits>
#include <set>

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

using logic::FormulaKind;
using logic::GuardedFormula;

/// The store as the guard analysis reads it: values are dictionary ids,
/// a bound argument prefix is a PrefixRange of the relation's sorted
/// run, and anything else one scan of the relation.
struct StoreFacts {
  using Value = uint32_t;

  const storage::TiStore* store;
  const std::vector<uint32_t>* constant_ids;
  const std::vector<uint32_t>* slots;

  Value Constant(int index) const {
    return (*constant_ids)[static_cast<size_t>(index)];
  }
  bool Slot(int slot, Value* value) const {
    *value = (*slots)[static_cast<size_t>(slot)];
    return true;
  }
  int64_t CountRows(rel::RelationId relation, const Value* key,
                    int key_len) const {
    const storage::ColumnTable& table = store->table(relation);
    if (key_len == 0) return table.num_rows();
    const auto [begin, end] = table.PrefixRange(key, key_len);
    return end - begin;
  }
  template <typename Fn>
  void ForEachRow(rel::RelationId relation, int /*arity*/, const Value* key,
                  int key_len, Fn fn) const {
    const storage::ColumnTable& table = store->table(relation);
    const auto visit = [&table, &fn](int64_t row) {
      fn([&table, row](int i) { return table.id(i, row); });
    };
    if (key_len == 0) {
      for (int64_t row = 0; row < table.num_rows(); ++row) visit(row);
      return;
    }
    const auto [begin, end] = table.PrefixRange(key, key_len);
    for (int64_t k = begin; k < end; ++k) visit(table.sorted_row(k));
  }
};

/// The dictionary id of each of `formula`'s constants; a constant absent
/// from the dictionary gets the next id from dictionary().size() up.
std::vector<uint32_t> ConstantIds(const storage::TiStore& store,
                                  const GuardedFormula& formula) {
  std::vector<uint32_t> ids;
  uint32_t next = static_cast<uint32_t>(store.dictionary().size());
  for (const rel::Value& value : formula.constants()) {
    const uint32_t id = store.dictionary().Find(value);
    ids.push_back(id == storage::Dictionary::kNotFound ? next++ : id);
  }
  return ids;
}

/// adom ∪ consts ∪ fresh is [0, DomainSize): the dictionary, the absent
/// constants, then one fresh witness per quantifier level.
uint32_t DomainSize(const storage::TiStore& store,
                    const GuardedFormula& formula,
                    const std::vector<uint32_t>& constant_ids) {
  uint32_t size = static_cast<uint32_t>(store.dictionary().size());
  for (uint32_t id : constant_ids) size = std::max(size, id + 1);
  return size + static_cast<uint32_t>(formula.quantifier_rank());
}

/// One grounding. The assignment is one dictionary id per slot.
/// Constants absent from the dictionary and the fresh witnesses take ids
/// from dictionary().size() up, so equality is an id compare and an atom
/// holding such an id is false without a probe; the whole quantifier
/// domain adom ∪ consts ∪ fresh is the id range [0, domain_size).
class Grounder {
 public:
  Grounder(const storage::TiStore& store, const GuardedFormula& formula,
           Lineage* lineage, const ExecutionBudget* budget)
      : store_(store),
        formula_(formula),
        lineage_(*lineage),
        dictionary_size_(static_cast<uint32_t>(store.dictionary().size())),
        constant_ids_(ConstantIds(store, formula)),
        domain_size_(DomainSize(store, formula, constant_ids_)),
        slots_(static_cast<size_t>(formula.num_slots()), 0),
        facts_{&store, &constant_ids_, &slots_},
        guards_(formula, facts_),
        meter_(budget, 0, "pqe.ground") {}

  StatusOr<NodeId> Ground(int id) {
    const GuardedFormula::Node& node = formula_.node(id);
    switch (node.kind) {
      case FormulaKind::kTrue:
        return lineage_.True();
      case FormulaKind::kFalse:
        return lineage_.False();
      case FormulaKind::kAtom: {
        // Closed-world over the fact set: facts outside T(I) never occur.
        ids_.clear();
        for (const GuardedFormula::Term& term : node.terms) {
          const uint32_t v = Resolve(term);
          if (v >= dictionary_size_) return lineage_.False();
          ids_.push_back(v);
        }
        const int64_t row = store_.table(node.relation).FindRow(ids_.data());
        if (row < 0) return lineage_.False();
        return lineage_.Var(
            static_cast<int>(store_.global_index(node.relation, row)));
      }
      case FormulaKind::kEquals:
        return Resolve(node.terms[0]) == Resolve(node.terms[1])
                   ? lineage_.True()
                   : lineage_.False();
      case FormulaKind::kNot: {
        StatusOr<NodeId> inner = Ground(node.children[0]);
        if (!inner.ok()) return inner.status();
        return lineage_.MakeNot(inner.value());
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        // The first child equal to `stop` decides the connective.
        const NodeId stop = node.kind == FormulaKind::kAnd
                                ? Lineage::kFalseId
                                : Lineage::kTrueId;
        std::vector<NodeId> children;
        for (int child : node.children) {
          StatusOr<NodeId> c = Ground(child);
          if (!c.ok()) return c.status();
          if (c.value() == stop) return stop;
          children.push_back(c.value());
        }
        return node.kind == FormulaKind::kAnd
                   ? lineage_.MakeAnd(std::move(children))
                   : lineage_.MakeOr(std::move(children));
      }
      case FormulaKind::kImplies: {
        StatusOr<NodeId> premise = Ground(node.children[0]);
        if (!premise.ok()) return premise.status();
        StatusOr<NodeId> conclusion = Ground(node.children[1]);
        if (!conclusion.ok()) return conclusion.status();
        return lineage_.MakeOr(
            {lineage_.MakeNot(premise.value()), conclusion.value()});
      }
      case FormulaKind::kIff: {
        StatusOr<NodeId> lhs = Ground(node.children[0]);
        if (!lhs.ok()) return lhs.status();
        StatusOr<NodeId> rhs = Ground(node.children[1]);
        if (!rhs.ok()) return rhs.status();
        NodeId both = lineage_.MakeAnd({lhs.value(), rhs.value()});
        NodeId neither = lineage_.MakeAnd({lineage_.MakeNot(lhs.value()),
                                           lineage_.MakeNot(rhs.value())});
        return lineage_.MakeOr({both, neither});
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        // ∃ is the disjunction of its body over the values tried, ∀ the
        // conjunction. A guarded quantifier tries only its candidates:
        // any other value grounds the body to False (∃) or True (∀),
        // which MakeOr / MakeAnd would drop. The rest try the domain.
        const bool is_exists = node.kind == FormulaKind::kExists;
        const NodeId stop = is_exists ? Lineage::kTrueId : Lineage::kFalseId;
        const bool guarded = node.guard >= 0;
        std::vector<uint32_t> candidates;
        if (guarded) guards_.Collect(node.guard, &candidates);
        const size_t count = guarded ? candidates.size() : domain_size_;
        std::vector<NodeId> children;
        for (size_t k = 0; k < count; ++k) {
          const uint32_t candidate =
              guarded ? candidates[k] : static_cast<uint32_t>(k);
          Status charged = meter_.Charge();
          if (!charged.ok()) return charged;
          slots_[static_cast<size_t>(node.slot)] = candidate;
          StatusOr<NodeId> c = Ground(node.children[0]);
          if (!c.ok()) return c.status();
          if (c.value() == stop) return stop;
          children.push_back(c.value());
        }
        return is_exists ? lineage_.MakeOr(std::move(children))
                         : lineage_.MakeAnd(std::move(children));
      }
    }
    return InternalError("unhandled formula kind in grounding");
  }

 private:
  uint32_t Resolve(const GuardedFormula::Term& term) const {
    return term.is_slot ? slots_[static_cast<size_t>(term.index)]
                        : constant_ids_[static_cast<size_t>(term.index)];
  }

  const storage::TiStore& store_;
  const GuardedFormula& formula_;
  Lineage& lineage_;
  const uint32_t dictionary_size_;
  const std::vector<uint32_t> constant_ids_;
  const uint32_t domain_size_;
  std::vector<uint32_t> slots_;
  StoreFacts facts_;
  logic::GuardReader<StoreFacts> guards_;
  BudgetMeter meter_;
  std::vector<uint32_t> ids_;  // atom probe key
};

}  // namespace

StatusOr<NodeId> GroundSentence(const pdb::TiPdb<double>& ti,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget) {
  return GroundSentence(*ti.store(), sentence, lineage, budget);
}

StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const logic::Formula& sentence,
                                Lineage* lineage,
                                const ExecutionBudget* budget) {
  return GroundSentence(store, GuardedFormula(sentence), lineage, budget);
}

StatusOr<NodeId> GroundSentence(const storage::TiStore& store,
                                const GuardedFormula& formula,
                                Lineage* lineage,
                                const ExecutionBudget* budget) {
  if (formula.num_free() > 0) {
    return InvalidArgumentError("grounding requires a sentence");
  }
  if (!formula.MatchesSchema(store.schema())) {
    return InvalidArgumentError("sentence does not match the TI schema");
  }
  if (store.num_facts() > std::numeric_limits<NodeId>::max()) {
    return InvalidArgumentError(
        "lineage variables are 32-bit: the store has too many facts to "
        "ground");
  }
  if (store.dictionary().size() + static_cast<int64_t>(
                                      formula.constants().size()) +
          formula.quantifier_rank() >=
      static_cast<int64_t>(storage::Dictionary::kNotFound)) {
    return InvalidArgumentError(
        "quantifier domain ids are 32-bit: the dictionary is too large to "
        "ground over");
  }
  Grounder grounder(store, formula, lineage, budget);
  return grounder.Ground(formula.root());
}

std::optional<std::vector<rel::Value>> GuardCandidates(
    const storage::TiStore& store, const logic::GuardedFormula& formula,
    int slot) {
  const int plan = formula.head_guard(slot);
  if (plan < 0) return std::nullopt;
  // A head guard binds no slot: its positions are constants or wildcards.
  const std::vector<uint32_t> constant_ids = ConstantIds(store, formula);
  const std::vector<uint32_t> slots(static_cast<size_t>(formula.num_slots()));
  const StoreFacts facts{&store, &constant_ids, &slots};
  std::vector<uint32_t> ids;
  logic::GuardReader<StoreFacts>(formula, facts).Collect(plan, &ids);
  std::vector<rel::Value> values;
  values.reserve(ids.size());
  for (uint32_t id : ids) values.push_back(store.dictionary().ValueAt(id));
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace pqe
}  // namespace ipdb
