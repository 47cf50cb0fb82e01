#include "pqe/safe_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "math/rational.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/fault.h"

namespace ipdb {
namespace pqe {

namespace {

using logic::FormulaKind;
using logic::Term;

/// Per-semiring arithmetic of the plan evaluator. Joins need the plain
/// product; projects need Π(1 − pᵢ), which each semiring accumulates its
/// own way — the double specialization avoids the catastrophic
/// cancellation of the naive running complement product.
template <typename T>
struct LiftedSemiring;

template <>
struct LiftedSemiring<double> {
  static double Zero() { return 0.0; }
  static double One() { return 1.0; }
  /// Accumulates Π(1 − pᵢ) as exp(Σ log1p(−pᵢ)) and returns
  /// 1 − Π via expm1, so many small marginals keep their full relative
  /// precision instead of vanishing against a running product ≈ 1.
  class ComplementProduct {
   public:
    void MulComplement(double p) {
      if (p >= 1.0) {
        certain_ = true;
        return;
      }
      log_none_ += std::log1p(-p);
    }
    double Result() const { return certain_ ? 1.0 : -std::expm1(log_none_); }

   private:
    double log_none_ = 0.0;
    bool certain_ = false;
  };
};

template <>
struct LiftedSemiring<math::Rational> {
  static math::Rational Zero() { return math::Rational(); }
  static math::Rational One() { return math::Rational(1); }
  class ComplementProduct {
   public:
    void MulComplement(const math::Rational& p) {
      none_ *= math::Rational(1) - p;
    }
    math::Rational Result() const { return math::Rational(1) - none_; }

   private:
    math::Rational none_ = math::Rational(1);
  };
};

template <>
struct LiftedSemiring<Interval> {
  static Interval Zero() { return Interval::Point(0.0); }
  static Interval One() { return Interval::Point(1.0); }
  class ComplementProduct {
   public:
    void MulComplement(const Interval& p) {
      none_ = none_ * (Interval::Point(1.0) - p);
    }
    Interval Result() const { return Interval::Point(1.0) - none_; }

   private:
    Interval none_ = Interval::Point(1.0);
  };
};

}  // namespace

/// Derives the plan from the hierarchy witness, writing nodes, children
/// and scopes straight into the plan's flat arrays.
class LiftedPlan::Compiler {
 public:
  explicit Compiler(LiftedPlan* plan)
      : plan_(*plan),
        atom_vars_(plan->atoms_.size()),
        bound_(plan->variables_.size(), false) {
    for (size_t a = 0; a < atom_vars_.size(); ++a) {
      const PlanAtom& atom = plan_.atoms_[a];
      std::vector<int>& vars = atom_vars_[a];
      for (int c = 0; c < atom.arity; ++c) {
        const size_t t = static_cast<size_t>(atom.first_term + c);
        if (plan_.terms_[t].var >= 0) vars.push_back(plan_.terms_[t].var);
      }
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    }
  }

  /// Appends the atoms of the ∃/∧ tree under node `id` to the plan's
  /// atoms and terms, in conjunct order. Fails with kFailedPrecondition
  /// on any other connective and on a relation already used (a
  /// self-join).
  static Status AddAtoms(const logic::GuardedFormula& formula, int id,
                         LiftedPlan* plan);

  /// Plan construction over a set of atoms, with bound_ marking the
  /// variables projected by enclosing nodes. Returns the node index, or
  /// kFailedPrecondition when a connected subquery has no root variable.
  StatusOr<int> Build(const std::vector<int>& atom_set, int depth);

 private:
  /// The first column of `atom` at or after `from` that holds a variable
  /// not yet bound: every column before it holds a constant or a bound
  /// variable. The atom's arity when there is none.
  int FirstUnfixed(int atom, int from) const {
    const PlanAtom& info = plan_.atoms_[static_cast<size_t>(atom)];
    for (int c = from; c < info.arity; ++c) {
      const int v = plan_.terms_[static_cast<size_t>(info.first_term + c)].var;
      if (v >= 0 && !bound_[static_cast<size_t>(v)]) return c;
    }
    return info.arity;
  }

  int AddNode(PlanNode node) {
    plan_.nodes_.push_back(node);
    return static_cast<int>(plan_.nodes_.size()) - 1;
  }

  LiftedPlan& plan_;
  /// Per atom: sorted distinct variable ids.
  std::vector<std::vector<int>> atom_vars_;
  std::vector<bool> bound_;
};

StatusOr<LiftedPlan> LiftedPlan::Compile(const logic::Formula& sentence) {
  return Compile(logic::GuardedFormula(sentence));
}

StatusOr<LiftedPlan> LiftedPlan::Compile(
    const logic::GuardedFormula& formula) {
  if (formula.num_free() > 0) {
    return FailedPreconditionError("safe plans evaluate boolean queries");
  }
  LiftedPlan plan;
  IPDB_RETURN_IF_ERROR(Compiler::AddAtoms(formula, formula.root(), &plan));
  // A closed formula's slots are its quantifiers, so they are the plan's
  // variable ids; the constants keep the formula's indexes.
  for (int slot = 0; slot < formula.num_slots(); ++slot) {
    plan.variables_.push_back(formula.slot_name(slot));
  }
  for (const rel::Value& value : formula.constants()) {
    plan.constants_.push_back(value);
  }
  if (!plan.atoms_.empty()) {
    std::vector<int> all(plan.atoms_.size());
    std::iota(all.begin(), all.end(), 0);
    Compiler compiler(&plan);
    StatusOr<int> root = compiler.Build(all, 0);
    if (!root.ok()) return root.status();
    plan.root_ = root.value();
  }
  return plan;
}

Status LiftedPlan::Compiler::AddAtoms(const logic::GuardedFormula& formula,
                                      int id, LiftedPlan* plan) {
  const logic::GuardedFormula::Node& node = formula.node(id);
  switch (node.kind) {
    case FormulaKind::kTrue:
      return Status::Ok();
    case FormulaKind::kAnd:
    case FormulaKind::kExists:
      for (int child : node.children) {
        IPDB_RETURN_IF_ERROR(AddAtoms(formula, child, plan));
      }
      return Status::Ok();
    case FormulaKind::kAtom:
      break;
    default:
      return FailedPreconditionError(
          "not a pure conjunctive query (only ∃, ∧ and relational atoms "
          "are supported by the safe plan)");
  }
  for (const PlanAtom& atom : plan->atoms_) {
    if (atom.relation == node.relation) {
      return FailedPreconditionError(
          "self-join detected (relation repeated); the dichotomy's safe "
          "plans require self-join-free queries");
    }
  }
  PlanAtom info;
  info.relation = node.relation;
  info.first_term = static_cast<int>(plan->terms_.size());
  info.arity = static_cast<int>(node.terms.size());
  for (const logic::GuardedFormula::Term& t : node.terms) {
    PlanTerm term;
    (t.is_slot ? term.var : term.constant) = t.index;
    plan->terms_.push_back(term);
  }
  while (info.leading_constants < info.arity &&
         plan->terms_[static_cast<size_t>(info.first_term +
                                          info.leading_constants)]
                 .var < 0) {
    ++info.leading_constants;
  }
  plan->atoms_.push_back(info);
  return Status::Ok();
}

StatusOr<int> LiftedPlan::Compiler::Build(const std::vector<int>& atom_set,
                                          int depth) {
  // Connected components over shared *unbound* variables.
  const int n = static_cast<int>(atom_set.size());
  std::vector<int> comp(n, -1);
  int num_comp = 0;
  for (int i = 0; i < n; ++i) {
    if (comp[i] != -1) continue;
    comp[i] = num_comp;
    std::vector<int> queue = {i};
    while (!queue.empty()) {
      const int a = queue.back();
      queue.pop_back();
      const std::vector<int>& va = atom_vars_[atom_set[a]];
      for (int j = 0; j < n; ++j) {
        if (comp[j] != -1) continue;
        const std::vector<int>& vj = atom_vars_[atom_set[j]];
        bool shares = false;
        for (int v : va) {
          if (bound_[v]) continue;
          if (std::binary_search(vj.begin(), vj.end(), v)) {
            shares = true;
            break;
          }
        }
        if (shares) {
          comp[j] = num_comp;
          queue.push_back(j);
        }
      }
    }
    ++num_comp;
  }

  if (num_comp > 1) {
    std::vector<int> children;
    for (int c = 0; c < num_comp; ++c) {
      std::vector<int> group;
      for (int i = 0; i < n; ++i) {
        if (comp[i] == c) group.push_back(atom_set[i]);
      }
      StatusOr<int> child = Build(group, depth);
      if (!child.ok()) return child.status();
      children.push_back(child.value());
    }
    PlanNode node;
    node.op = PlanOp::kIndependentJoin;
    node.first_child = static_cast<int>(plan_.child_ids_.size());
    node.num_children = num_comp;
    for (int child : children) plan_.child_ids_.push_back(child);
    return AddNode(node);
  }

  // Single connected component: ground atom, or independent project.
  bool has_unbound = false;
  for (int i = 0; i < n && !has_unbound; ++i) {
    for (int v : atom_vars_[atom_set[i]]) {
      if (!bound_[v]) {
        has_unbound = true;
        break;
      }
    }
  }
  if (!has_unbound) {
    // Atoms without shared unbound variables are singleton components.
    IPDB_CHECK_EQ(n, 1);
    PlanNode node;
    node.op = PlanOp::kGroundLookup;
    node.atom = atom_set[0];
    return AddNode(node);
  }

  // Root variable: an unbound variable occurring in EVERY atom of the
  // component. Its absence is the hierarchy witness's failure.
  int root_var = -1;
  for (int v : atom_vars_[atom_set[0]]) {
    if (bound_[v]) continue;
    bool in_all = true;
    for (int i = 1; i < n && in_all; ++i) {
      const std::vector<int>& vi = atom_vars_[atom_set[i]];
      in_all = std::binary_search(vi.begin(), vi.end(), v);
    }
    if (in_all) {
      root_var = v;
      break;
    }
  }
  if (root_var == -1) {
    return FailedPreconditionError(
        "no root variable in a connected subquery — the query is not "
        "hierarchical (#P-hard; use wmc.h)");
  }
  bound_[root_var] = true;
  StatusOr<int> child = Build(atom_set, depth + 1);
  bound_[root_var] = false;
  if (!child.ok()) return child.status();
  plan_.depth_ = std::max(plan_.depth_, depth + 1);

  PlanNode node;
  node.op = PlanOp::kIndependentProject;
  node.project_var = root_var;
  node.first_child = static_cast<int>(plan_.child_ids_.size());
  node.num_children = 1;
  plan_.child_ids_.push_back(child.value());
  node.first_scope = static_cast<int>(plan_.scope_.size());
  node.num_scope = n;
  for (int a : atom_set) {
    // Columns before FirstUnfixed are fixed over the atom's range when
    // this node runs, so its next column ascends within the range.
    ScopeEntry entry;
    entry.atom = a;
    entry.column = FirstUnfixed(a, 0);
    const PlanAtom& info = plan_.atoms_[static_cast<size_t>(a)];
    if (plan_.terms_[static_cast<size_t>(info.first_term + entry.column)].var ==
        root_var) {
      bound_[root_var] = true;
      entry.narrow_end = FirstUnfixed(a, entry.column + 1);
      bound_[root_var] = false;
    } else {
      entry.gathered = true;
      while (plan_.terms_[static_cast<size_t>(info.first_term + entry.column)]
                 .var != root_var) {
        ++entry.column;  // the root variable occurs in every scope atom
      }
      entry.narrow_end = entry.column + 1;
    }
    plan_.scope_.push_back(entry);
  }
  return AddNode(node);
}

template <typename T, typename ProbAt>
StatusOr<T> LiftedPlan::EvaluateStoreImpl(const storage::TiStore& store,
                                          ProbAt prob_at,
                                          const LiftedOptions& options) const {
  const rel::Schema& schema = store.schema();
  for (const PlanAtom& atom : atoms_) {
    if (!schema.has_relation(atom.relation) ||
        schema.arity(atom.relation) != atom.arity) {
      return InvalidArgumentError("query does not match the TI schema");
    }
  }
  IPDB_FAULT_POINT("pqe.lifted.evaluate");
  IPDB_OBS_SPAN("pqe.lifted_eval", "pqe");
  IPDB_OBS_SCOPED_TIMER("pqe.lifted.eval_ns");
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;
  if (budget != nullptr) {
    Status now = budget->CheckTime("pqe.lifted");
    if (!now.ok()) return now;
    // The plan's project-nesting depth is static: check it once here
    // instead of per recursion step.
    if (budget->max_recursion_depth > 0 &&
        depth_ > budget->max_recursion_depth) {
      return ResourceExhaustedError(
          "pqe.lifted plan depth " + std::to_string(depth_) +
          " exceeds the recursion cap of " +
          std::to_string(budget->max_recursion_depth));
    }
  }

  SafePlanStats local;
  for (const PlanNode& node : nodes_) {
    if (node.op == PlanOp::kIndependentJoin) ++local.independent_joins;
    if (node.op == PlanOp::kIndependentProject) ++local.independent_projects;
  }

  // Where an atom stands in the walk: a range of `rows`, which is the
  // table's sorted run or a gathered buffer, holding the rows that match
  // its constants and the values bound so far on its fixed columns.
  struct AtomState {
    const storage::ColumnTable* table = nullptr;
    const uint32_t* rows = nullptr;
    storage::RunRange range;
  };
  // The rows of a project's scope atom its merge has not passed yet, and
  // the ids of the column it groups by.
  struct Cursor {
    const uint32_t* rows = nullptr;
    storage::RunRange range;
    storage::RunRange group;
    const uint32_t* ids = nullptr;
  };

  // The recursive plan walk. A local struct so the recursion can carry
  // the sticky budget error without threading StatusOr through every
  // semiring operation (as the d-DNNF compiler does). All scratch is
  // sized by the plan and held inline for small plans, except the gather
  // buffers, which are reserved up front so the pointers into them stay
  // valid.
  struct Walker {
    const LiftedPlan& plan;
    ProbAt& prob_at;
    /// Null when the budget is unlimited: charging is then skipped.
    const ExecutionBudget* budget;
    BudgetMeter meter;
    SafePlanStats& stats;
    Status error;
    InlineVector<AtomState, 4> atoms;
    /// Per term: the dictionary id of its constant, or of its variable's
    /// value while the variable is bound.
    InlineVector<uint32_t, 8> term_ids;
    InlineVector<uint32_t, 4> bound;
    /// Per scope entry: the merge cursor of its project node (a node is
    /// never re-entered while it runs).
    InlineVector<Cursor, 8> cursors;
    /// Gathered (id << 32 | position) keys and the rows they sort into.
    std::vector<uint64_t> gather_keys;
    std::vector<uint32_t> gather_rows;

    bool Charge(int64_t units) {
      if (budget == nullptr) return true;
      Status charge = meter.Charge(units);
      if (charge.ok()) return true;
      error = std::move(charge);
      return false;
    }

    T Eval(int id) {
      if (!error.ok() || !Charge(1)) return LiftedSemiring<T>::Zero();
      const PlanNode& node = plan.nodes_[static_cast<size_t>(id)];
      switch (node.op) {
        case PlanOp::kGroundLookup:
          return Lookup(node);
        case PlanOp::kIndependentJoin: {
          T product = LiftedSemiring<T>::One();
          for (int child : plan.children(node)) {
            product = product * Eval(child);
            if (!error.ok()) return LiftedSemiring<T>::Zero();
          }
          return product;
        }
        case PlanOp::kIndependentProject:
          return EvalProject(node);
      }
      return LiftedSemiring<T>::Zero();
    }

    /// A ground lookup: every column is fixed, so the atom's range holds
    /// at most the one row.
    T Lookup(const PlanNode& node) {
      ++stats.ground_lookups;
      const AtomState& atom = atoms[static_cast<size_t>(node.atom)];
      return atom.range.empty()
                 ? LiftedSemiring<T>::Zero()
                 : prob_at(*atom.table, atom.rows[atom.range.begin]);
    }

    /// Sorts the atom's rows by their id in `column`, keeping run order
    /// within each id, into the gather buffers; returns the cursor.
    Cursor Gather(const AtomState& atom, int column) {
      const size_t base = gather_keys.size();
      for (int64_t k = atom.range.begin; k < atom.range.end; ++k) {
        gather_keys.push_back(
            static_cast<uint64_t>(atom.table->id(column, atom.rows[k])) << 32 |
            static_cast<uint64_t>(k - atom.range.begin));
      }
      std::sort(gather_keys.begin() + static_cast<ptrdiff_t>(base),
                gather_keys.end());
      for (size_t i = base; i < gather_keys.size(); ++i) {
        gather_rows.push_back(
            atom.rows[atom.range.begin +
                      static_cast<int64_t>(gather_keys[i] & 0xffffffffu)]);
      }
      return Cursor{gather_rows.data() + base,
                    {0, static_cast<int64_t>(gather_keys.size() - base)},
                    {},
                    nullptr};
    }

    T EvalProject(const PlanNode& node) {
      const ScopeEntry* entries = plan.scope_.data() + node.first_scope;
      Cursor* cursor = cursors.data() + node.first_scope;
      const int n = node.num_scope;
      typename LiftedSemiring<T>::ComplementProduct complement;
      const size_t first_atom = static_cast<size_t>(entries[0].atom);
      if (n == 1 && !entries[0].gathered &&
          entries[0].column == plan.atoms_[first_atom].arity - 1) {
        // The innermost project over an atom's last column: the other
        // columns are fixed, so each position is a group of one row and
        // the child is that row's lookup.
        const AtomState& atom = atoms[first_atom];
        for (int64_t k = atom.range.begin; k < atom.range.end; ++k) {
          if (!Charge(1)) return LiftedSemiring<T>::Zero();
          ++stats.ground_lookups;
          complement.MulComplement(prob_at(*atom.table, atom.rows[k]));
        }
        return complement.Result();
      }
      const size_t gather_base = gather_keys.size();
      for (int i = 0; i < n; ++i) {
        const AtomState& atom = atoms[static_cast<size_t>(entries[i].atom)];
        if (!entries[i].gathered) {
          cursor[i] = Cursor{atom.rows, atom.range, {}, nullptr};
        } else {
          if (!Charge(atom.range.size() + 1)) return LiftedSemiring<T>::Zero();
          cursor[i] = Gather(atom, entries[i].column);
        }
        cursor[i].ids = atom.table->column(entries[i].column).data();
      }
      // Merge the atoms' groups in ascending id: the candidate is the
      // largest id under the cursors, and an atom without it moves its
      // cursor past it.
      const uint32_t var = static_cast<uint32_t>(node.project_var);
      const int child = plan.children(node)[0];
      while (true) {
        uint32_t value = 0;
        bool exhausted = false;
        for (int i = 0; i < n && !exhausted; ++i) {
          if (cursor[i].range.empty()) {
            exhausted = true;
          } else {
            value = std::max(
                value, cursor[i].ids[cursor[i].rows[cursor[i].range.begin]]);
          }
        }
        if (exhausted || !Charge(1)) break;
        bool everywhere = true;
        for (int i = 0; i < n && everywhere; ++i) {
          cursor[i].group =
              atoms[static_cast<size_t>(entries[i].atom)].table->Narrow(
                  cursor[i].rows, cursor[i].range, entries[i].column, &value,
                  1);
          if (cursor[i].group.empty()) {
            cursor[i].range.begin = cursor[i].group.begin;
            everywhere = false;
          }
        }
        if (!everywhere) continue;
        bound[var] = value;
        // Bind the groups; an in-place atom keeps narrowing on the
        // constants and bound variables that follow the grouped column.
        bool nonempty = true;
        for (int i = 0; i < n; ++i) {
          const ScopeEntry& entry = entries[i];
          AtomState& atom = atoms[static_cast<size_t>(entry.atom)];
          cursor[i].range.begin = cursor[i].group.end;
          atom.rows = cursor[i].rows;
          atom.range = cursor[i].group;
          if (entry.gathered || entry.narrow_end == entry.column + 1) continue;
          const PlanAtom& info = plan.atoms_[static_cast<size_t>(entry.atom)];
          for (int c = entry.column + 1; c < entry.narrow_end; ++c) {
            const size_t t = static_cast<size_t>(info.first_term + c);
            const int v = plan.terms_[t].var;
            if (v >= 0) term_ids[t] = bound[static_cast<size_t>(v)];
          }
          atom.range = atom.table->Narrow(
              atom.rows, atom.range, entry.column + 1,
              term_ids.data() + info.first_term + entry.column + 1,
              entry.narrow_end - entry.column - 1);
          nonempty = nonempty && !atom.range.empty();
        }
        if (!nonempty) continue;
        const T p = Eval(child);
        if (!error.ok()) break;
        complement.MulComplement(p);
      }
      gather_keys.resize(gather_base);
      gather_rows.resize(gather_base);
      if (!error.ok()) return LiftedSemiring<T>::Zero();
      return complement.Result();
    }
  };

  T result = LiftedSemiring<T>::One();
  if (root_ >= 0) {
    Walker walker{*this,
                  prob_at,
                  budget,
                  BudgetMeter(budget, 0, "pqe.lifted"),
                  local,
                  Status::Ok(),
                  InlineVector<AtomState, 4>(atoms_.size()),
                  InlineVector<uint32_t, 8>(terms_.size()),
                  InlineVector<uint32_t, 4>(variables_.size()),
                  InlineVector<Cursor, 8>(scope_.size()),
                  {},
                  {}};
    // Constants resolve to dictionary ids once per call. One absent from
    // the dictionary occurs in no fact, so its atom's range is empty;
    // leading constants narrow the atom's sorted run.
    for (size_t a = 0; a < atoms_.size(); ++a) {
      const PlanAtom& info = atoms_[a];
      AtomState& atom = walker.atoms[a];
      atom.table = &store.table(info.relation);
      atom.rows = atom.table->sorted_run().data();
      atom.range = atom.table->whole_run();
      for (int c = 0; c < info.arity; ++c) {
        const size_t t = static_cast<size_t>(info.first_term + c);
        if (terms_[t].var >= 0) continue;
        walker.term_ids[t] = store.dictionary().Find(
            constants_[static_cast<size_t>(terms_[t].constant)]);
        if (walker.term_ids[t] == storage::Dictionary::kNotFound) {
          atom.range = {};
        }
      }
      atom.range = atom.table->Narrow(
          atom.range, 0, walker.term_ids.data() + info.first_term,
          info.leading_constants);
    }
    int64_t gathered_rows = 0;
    for (const ScopeEntry& entry : scope_) {
      if (entry.gathered) {
        gathered_rows += walker.atoms[static_cast<size_t>(entry.atom)]
                             .table->num_rows();
      }
    }
    walker.gather_keys.reserve(static_cast<size_t>(gathered_rows));
    walker.gather_rows.reserve(static_cast<size_t>(gathered_rows));
    result = walker.Eval(root_);
    if (!walker.error.ok()) {
      return IPDB_STATUS_FORWARD(walker.error) << "lifted evaluation aborted";
    }
  }

  IPDB_OBS_COUNT("pqe.lifted.evaluations", 1);
  IPDB_OBS_COUNT("pqe.lifted.independent_joins", local.independent_joins);
  IPDB_OBS_COUNT("pqe.lifted.independent_projects",
                 local.independent_projects);
  IPDB_OBS_COUNT("pqe.lifted.ground_lookups", local.ground_lookups);
  if (options.stats != nullptr) {
    options.stats->independent_joins += local.independent_joins;
    options.stats->independent_projects += local.independent_projects;
    options.stats->ground_lookups += local.ground_lookups;
  }
  return result;
}

StatusOr<double> LiftedPlan::Evaluate(const storage::TiStore& store,
                                      const LiftedOptions& options) const {
  return EvaluateStoreImpl<double>(
      store,
      [](const storage::ColumnTable& table, int64_t row) {
        return table.prob(row);
      },
      options);
}

template <typename P>
StatusOr<P> LiftedPlan::Evaluate(const pdb::TiPdb<P>& ti,
                                 const LiftedOptions& options) const {
  const storage::TiStore& store = *ti.store();
  if constexpr (!pdb::ProbTraits<P>::kExact) {
    return Evaluate(store, options);
  } else {
    for (const PlanAtom& atom : atoms_) {
      if (!store.schema().has_relation(atom.relation)) continue;  // below
      const storage::ColumnTable& table = store.table(atom.relation);
      if (table.num_exact() != table.num_rows()) {
        return FailedPreconditionError(
            "exact lifted evaluation requires an exact marginal for every "
            "fact of every queried relation");
      }
    }
    return EvaluateStoreImpl<math::Rational>(
        store,
        [](const storage::ColumnTable& table, int64_t row) {
          return *table.ExactAt(row);
        },
        options);
  }
}

template StatusOr<double> LiftedPlan::Evaluate<double>(
    const pdb::TiPdb<double>&, const LiftedOptions&) const;
template StatusOr<math::Rational> LiftedPlan::Evaluate<math::Rational>(
    const pdb::TiPdb<math::Rational>&, const LiftedOptions&) const;

StatusOr<Interval> LiftedPlan::EvaluateInterval(
    const pdb::TiPdb<double>& ti, const LiftedOptions& options) const {
  return EvaluateStoreImpl<Interval>(
      *ti.store(),
      [](const storage::ColumnTable& table, int64_t row) {
        return Interval::Point(table.prob(row));
      },
      options);
}

std::string LiftedPlan::NodeToString(int node,
                                     const rel::Schema& schema) const {
  const PlanNode& n = nodes_[static_cast<size_t>(node)];
  switch (n.op) {
    case PlanOp::kGroundLookup: {
      const PlanAtom& atom = atoms_[static_cast<size_t>(n.atom)];
      std::vector<Term> terms;
      for (int c = 0; c < atom.arity; ++c) {
        const PlanTerm& t = terms_[static_cast<size_t>(atom.first_term + c)];
        terms.push_back(
            t.var >= 0
                ? Term::Var(variables_[static_cast<size_t>(t.var)])
                : Term::Const(constants_[static_cast<size_t>(t.constant)]));
      }
      return "lookup(" +
             logic::Atom(atom.relation, std::move(terms)).ToString(schema) +
             ")";
    }
    case PlanOp::kIndependentProject:
      return "project[" + variables_[static_cast<size_t>(n.project_var)] +
             "](" + NodeToString(children(n)[0], schema) + ")";
    case PlanOp::kIndependentJoin: {
      std::string out;
      for (int child : children(n)) {
        out += out.empty() ? "join(" : ", ";
        out += NodeToString(child, schema);
      }
      return out + ")";
    }
  }
  return "?";
}

std::string LiftedPlan::ToString(const rel::Schema& schema) const {
  if (root_ < 0) return "true";
  return NodeToString(root_, schema);
}

StatusOr<double> SafeQueryProbability(const pdb::TiPdb<double>& ti,
                                      const logic::Formula& sentence,
                                      SafePlanStats* stats) {
  StatusOr<LiftedPlan> plan = LiftedPlan::Compile(sentence);
  if (!plan.ok()) return plan.status();
  LiftedOptions options;
  options.stats = stats;
  return plan.value().Evaluate(ti, options);
}

}  // namespace pqe
}  // namespace ipdb
