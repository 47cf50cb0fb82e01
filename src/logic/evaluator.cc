#include "logic/evaluator.h"

#include <algorithm>
#include <set>
#include <string>

#include "logic/guards.h"
#include "relational/fact.h"
#include "util/check.h"

namespace ipdb {
namespace logic {

namespace {

/// A universe element by reference: slots, keys and guard candidates
/// point into the instance's facts, the formula's constants or the
/// quantifier domain, all of which outlive one evaluation.
struct ValueRef {
  const rel::Value* value = nullptr;
  friend bool operator==(ValueRef a, ValueRef b) {
    return *a.value == *b.value;
  }
  friend bool operator<(ValueRef a, ValueRef b) { return *a.value < *b.value; }
};

/// Three-way compare of `fact` against (relation, key[0..key_len)) in
/// rel::Fact order, looking only at the fact's first key_len arguments.
/// A fact that runs out of arguments first sorts before the key, as in
/// the lexicographic order of the instance's sorted fact vector.
int ComparePrefix(const rel::Fact& fact, rel::RelationId relation,
                  const ValueRef* key, int key_len) {
  if (fact.relation() != relation) return fact.relation() < relation ? -1 : 1;
  for (int i = 0; i < key_len; ++i) {
    if (i == fact.arity()) return -1;
    const rel::Value& arg = fact.args()[static_cast<size_t>(i)];
    if (arg != *key[i].value) return arg < *key[i].value ? -1 : 1;
  }
  return 0;
}

/// The instance as the guard analysis reads it: facts stay in the
/// instance's sorted vector, so a relation, or a relation with a bound
/// argument prefix, is one contiguous range.
struct InstanceFacts {
  using Value = ValueRef;

  const std::vector<rel::Fact>* facts;
  const GuardedFormula* formula;
  const std::vector<const rel::Value*>* slots;

  Value Constant(int index) const {
    return {&formula->constants()[static_cast<size_t>(index)]};
  }
  bool Slot(int slot, Value* value) const {
    value->value = (*slots)[static_cast<size_t>(slot)];
    return value->value != nullptr;
  }
  std::pair<std::vector<rel::Fact>::const_iterator,
            std::vector<rel::Fact>::const_iterator>
  Range(rel::RelationId relation, const Value* key, int key_len) const {
    auto lo = std::partition_point(
        facts->begin(), facts->end(), [&](const rel::Fact& fact) {
          return ComparePrefix(fact, relation, key, key_len) < 0;
        });
    auto hi = std::partition_point(lo, facts->end(), [&](const rel::Fact& f) {
      return ComparePrefix(f, relation, key, key_len) == 0;
    });
    return {lo, hi};
  }
  int64_t CountRows(rel::RelationId relation, const Value* key,
                    int key_len) const {
    auto [lo, hi] = Range(relation, key, key_len);
    return hi - lo;
  }
  template <typename Fn>
  void ForEachRow(rel::RelationId relation, int arity, const Value* key,
                  int key_len, Fn fn) const {
    auto [lo, hi] = Range(relation, key, key_len);
    for (auto it = lo; it != hi; ++it) {
      if (it->arity() != arity) continue;
      const std::vector<rel::Value>& args = it->args();
      fn([&args](int i) { return Value{&args[static_cast<size_t>(i)]}; });
    }
  }
};

/// One evaluation of a compiled formula over one instance.
class Evaluator {
 public:
  Evaluator(const rel::Instance& instance, const rel::Schema& schema,
            const GuardedFormula& formula, const EvalOptions& options)
      : instance_(instance),
        schema_(schema),
        formula_(formula),
        options_(options),
        slots_(static_cast<size_t>(formula.num_slots()), nullptr),
        facts_{&instance.facts(), &formula, &slots_},
        guards_(formula, facts_) {}

  std::vector<const rel::Value*>& slots() { return slots_; }
  const GuardReader<InstanceFacts>& guards() const { return guards_; }

  /// Extra domain elements beyond adom ∪ consts ∪ fresh (the values of
  /// the caller's assignment).
  void AddDomainValue(const rel::Value& value) { extra_.push_back(value); }

  StatusOr<bool> Eval(int id) {
    const GuardedFormula::Node& node = formula_.node(id);
    switch (node.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAtom: {
        const int arity = static_cast<int>(node.terms.size());
        if (!schema_.has_relation(node.relation) ||
            schema_.arity(node.relation) != arity) {
          return InvalidArgumentError("atom does not match schema: relation #" +
                                      std::to_string(node.relation));
        }
        key_.resize(node.terms.size());
        for (int i = 0; i < arity; ++i) {
          StatusOr<const rel::Value*> v = Resolve(node.terms[i]);
          if (!v.ok()) return v.status();
          key_[static_cast<size_t>(i)].value = v.value();
        }
        auto [lo, hi] = facts_.Range(node.relation, key_.data(), arity);
        for (auto it = lo; it != hi; ++it) {
          if (it->arity() == arity) return true;
        }
        return false;
      }
      case FormulaKind::kEquals: {
        StatusOr<const rel::Value*> lhs = Resolve(node.terms[0]);
        if (!lhs.ok()) return lhs.status();
        StatusOr<const rel::Value*> rhs = Resolve(node.terms[1]);
        if (!rhs.ok()) return rhs.status();
        return *lhs.value() == *rhs.value();
      }
      case FormulaKind::kNot: {
        StatusOr<bool> inner = Eval(node.children[0]);
        if (!inner.ok()) return inner.status();
        return !inner.value();
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        // The first child equal to `stop` decides the connective.
        const bool stop = node.kind == FormulaKind::kOr;
        for (int child : node.children) {
          StatusOr<bool> v = Eval(child);
          if (!v.ok()) return v.status();
          if (v.value() == stop) return stop;
        }
        return !stop;
      }
      case FormulaKind::kImplies: {
        StatusOr<bool> premise = Eval(node.children[0]);
        if (!premise.ok()) return premise.status();
        if (!premise.value()) return true;
        return Eval(node.children[1]);
      }
      case FormulaKind::kIff: {
        StatusOr<bool> lhs = Eval(node.children[0]);
        if (!lhs.ok()) return lhs.status();
        StatusOr<bool> rhs = Eval(node.children[1]);
        if (!rhs.ok()) return rhs.status();
        return lhs.value() == rhs.value();
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        // ∃ stops at the first true body, ∀ at the first false one. A
        // guarded quantifier tries only its candidates: outside them the
        // body is false (∃) or true (∀).
        const bool is_exists = node.kind == FormulaKind::kExists;
        const size_t slot = static_cast<size_t>(node.slot);
        if (options_.use_guards && node.guard >= 0) {
          std::vector<ValueRef> candidates;
          guards_.Collect(node.guard, &candidates);
          for (ValueRef candidate : candidates) {
            slots_[slot] = candidate.value;
            StatusOr<bool> v = Eval(node.children[0]);
            if (!v.ok()) return v.status();
            if (v.value() == is_exists) return is_exists;
          }
          return !is_exists;
        }
        for (const rel::Value& candidate : Domain()) {
          slots_[slot] = &candidate;
          StatusOr<bool> v = Eval(node.children[0]);
          if (!v.ok()) return v.status();
          if (v.value() == is_exists) return is_exists;
        }
        return !is_exists;
      }
    }
    return InternalError("unhandled formula kind");
  }

  /// adom(D) ∪ consts(φ) ∪ the assignment's values ∪ rank-many fresh
  /// elements, sorted; built on first use.
  const std::vector<rel::Value>& Domain() {
    if (!domain_built_) {
      std::set<rel::Value> domain(extra_.begin(), extra_.end());
      for (const rel::Value& v : instance_.ActiveDomain()) domain.insert(v);
      domain.insert(formula_.constants().begin(), formula_.constants().end());
      // Fresh generic elements, one per quantifier level, distinct from
      // everything above. Symbols beginning with '$' are reserved.
      for (int i = 0; i < formula_.quantifier_rank(); ++i) {
        domain.insert(rel::Value::Symbol("$fresh" + std::to_string(i)));
      }
      domain_.assign(domain.begin(), domain.end());
      domain_built_ = true;
    }
    return domain_;
  }

 private:
  StatusOr<const rel::Value*> Resolve(const GuardedFormula::Term& term) const {
    if (!term.is_slot) {
      return &formula_.constants()[static_cast<size_t>(term.index)];
    }
    const rel::Value* value = slots_[static_cast<size_t>(term.index)];
    if (value == nullptr) {
      return InvalidArgumentError("unbound variable: " +
                                  formula_.slot_name(term.index));
    }
    return value;
  }

  const rel::Instance& instance_;
  const rel::Schema& schema_;
  const GuardedFormula& formula_;
  EvalOptions options_;
  std::vector<const rel::Value*> slots_;
  InstanceFacts facts_;
  GuardReader<InstanceFacts> guards_;
  std::vector<ValueRef> key_;  // atom probe key
  std::vector<rel::Value> extra_;
  std::vector<rel::Value> domain_;
  bool domain_built_ = false;
};

}  // namespace

std::vector<rel::Value> QuantifierDomain(const rel::Instance& instance,
                                         const Formula& formula) {
  GuardedFormula compiled(formula);
  rel::Schema schema;
  Evaluator evaluator(instance, schema, compiled, {});
  return evaluator.Domain();
}

StatusOr<bool> Evaluate(const rel::Instance& instance,
                        const rel::Schema& schema, const Formula& formula,
                        const Assignment& assignment,
                        const EvalOptions& options) {
  GuardedFormula compiled(formula);
  Evaluator evaluator(instance, schema, compiled, options);
  for (const auto& [name, value] : assignment) {
    evaluator.AddDomainValue(value);
    for (int slot = 0; slot < compiled.num_free(); ++slot) {
      if (compiled.slot_name(slot) == name) {
        evaluator.slots()[static_cast<size_t>(slot)] = &value;
      }
    }
  }
  return evaluator.Eval(compiled.root());
}

bool Satisfies(const rel::Instance& instance, const rel::Schema& schema,
               const Formula& sentence) {
  StatusOr<bool> result = Evaluate(instance, schema, sentence);
  IPDB_CHECK(result.ok()) << result.status().ToString() << " in sentence "
                          << sentence.ToString(schema);
  return result.value();
}

StatusOr<std::vector<std::vector<rel::Value>>> EvaluateQuery(
    const rel::Instance& instance, const rel::Schema& schema,
    const Formula& formula, const std::vector<std::string>& free_vars) {
  // Verify coverage of free variables.
  std::vector<std::string> actual_free = formula.FreeVariables();
  for (const std::string& v : actual_free) {
    if (std::find(free_vars.begin(), free_vars.end(), v) ==
        free_vars.end()) {
      return InvalidArgumentError("free variable " + v +
                                  " not covered by the head");
    }
  }

  GuardedFormula compiled(formula, free_vars);
  Evaluator evaluator(instance, schema, compiled, {});
  std::vector<std::vector<rel::Value>> results;
  if (free_vars.empty()) {
    StatusOr<bool> v = evaluator.Eval(compiled.root());
    if (!v.ok()) return v.status();
    if (v.value()) results.push_back({});
    return results;
  }

  // Output candidates: adom ∪ consts only (no fresh elements) — the
  // output-safety convention. A guarded head variable takes its guard's
  // values instead: they occur in facts, so they already lie in adom.
  std::set<rel::Value> candidate_set;
  for (const rel::Value& v : instance.ActiveDomain()) {
    candidate_set.insert(v);
  }
  for (const rel::Value& v : formula.Constants()) candidate_set.insert(v);
  if (candidate_set.empty()) return results;
  std::vector<std::vector<rel::Value>> per_var(free_vars.size());
  std::vector<int> slot_of(free_vars.size());
  for (size_t i = 0; i < free_vars.size(); ++i) {
    slot_of[i] = compiled.free_slot(free_vars[i]);
    const int guard = compiled.head_guard(slot_of[i]);
    if (guard >= 0) {
      std::vector<ValueRef> candidates;
      evaluator.guards().Collect(guard, &candidates);
      for (ValueRef v : candidates) per_var[i].push_back(*v.value);
    } else {
      per_var[i].assign(candidate_set.begin(), candidate_set.end());
    }
    if (per_var[i].empty()) return results;
  }

  // Enumerate the product of the candidate lists with an odometer.
  std::vector<size_t> odometer(free_vars.size(), 0);
  std::vector<const rel::Value*>& slots = evaluator.slots();
  while (true) {
    for (size_t i = 0; i < free_vars.size(); ++i) {
      slots[static_cast<size_t>(slot_of[i])] = &per_var[i][odometer[i]];
    }
    StatusOr<bool> v = evaluator.Eval(compiled.root());
    if (!v.ok()) return v.status();
    if (v.value()) {
      std::vector<rel::Value> tuple;
      tuple.reserve(free_vars.size());
      for (size_t i = 0; i < free_vars.size(); ++i) {
        tuple.push_back(per_var[i][odometer[i]]);
      }
      results.push_back(std::move(tuple));
    }
    // Advance odometer.
    size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < per_var[pos].size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) break;
  }
  return results;
}

}  // namespace logic
}  // namespace ipdb
