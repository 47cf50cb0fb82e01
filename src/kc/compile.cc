#include "kc/compile.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/fault.h"

namespace ipdb {
namespace kc {

namespace {

using pqe::Lineage;
using pqe::NodeKind;
using LineageId = pqe::NodeId;

class Compiler {
 public:
  Compiler(Lineage* lineage, CompileStats* stats, bool certify,
           const ExecutionBudget* budget)
      : lineage_(*lineage),
        stats_(*stats),
        certify_(certify),
        budget_(budget),
        max_depth_(budget != nullptr ? budget->max_recursion_depth : 0),
        meter_(budget, budget != nullptr ? budget->max_circuit_nodes : 0,
               "kc.compile circuit-node") {}

  Circuit&& TakeCircuit() { return std::move(circuit_); }

  /// OK, or the budget/fault error that aborted compilation. Once set,
  /// the compiler stops doing real work: every further Compile call
  /// returns a False placeholder and unwinds, so the (worthless) partial
  /// circuit is cheap to abandon.
  const Status& error() const { return error_; }

  void ReserveFor(size_t lineage_size) {
    circuit_.Reserve(lineage_size * 2 + 16);
    memo_.resize(lineage_size * 2 + 16, kUncompiled);
  }

  NodeId Compile(LineageId id, bool negated) {
    // Memo-free fast paths: constants and variables are already
    // canonical in the circuit (literal interning is the dedup).
    switch (lineage_.kind(id)) {
      case NodeKind::kTrue:
        return negated ? circuit_.False() : circuit_.True();
      case NodeKind::kFalse:
        return negated ? circuit_.True() : circuit_.False();
      case NodeKind::kVar:
        return circuit_.Literal(lineage_.variable(id), !negated);
      default:
        break;
    }
    // Aborted compilations unwind through here constantly; the False
    // placeholder keeps every caller's invariants (a valid NodeId)
    // without growing the circuit.
    if (!error_.ok()) return circuit_.False();
    // Dense memo indexed by (lineage id, polarity) — ids are small and
    // contiguous, and the lineage grows during compilation.
    const size_t key = (static_cast<size_t>(id) << 1) | (negated ? 1 : 0);
    if (key < memo_.size() && memo_[key] != kUncompiled) {
      ++stats_.cache_hits;
      return memo_[key];
    }
    NodeId result;
    if (lineage_.kind(id) == NodeKind::kNot) {
      result = Compile(lineage_.children(id)[0], !negated);
    } else {
      result = CompileGate(id, negated);
    }
    // Never memoize a placeholder produced while unwinding an abort.
    if (!error_.ok()) return circuit_.False();
    if (key >= memo_.size()) {
      memo_.resize(static_cast<size_t>(lineage_.size()) * 2, kUncompiled);
    }
    memo_[key] = result;
    return result;
  }

 private:
  /// The polarity-independent analysis of a gate: either its split into
  /// >1 variable-disjoint components (one hash-consed lineage node
  /// each), or the Shannon branch variable with both restrictions.
  /// Computed once per gate and shared by both polarities — the
  /// union-find and the Restrict calls are the expensive part of
  /// compilation, and the first-success chains need both polarities.
  struct GateStructure {
    std::vector<LineageId> component_ids;  // >= 2 entries iff decomposed
    int branch_var = -1;
    LineageId hi = -1;
    LineageId lo = -1;
  };

  const GateStructure& AnalyzeGate(LineageId id) {
    auto memo_it = structure_.find(id);
    if (memo_it != structure_.end()) return memo_it->second;

    const bool is_and = lineage_.kind(id) == NodeKind::kAnd;
    // Copy: compilation grows the lineage and may invalidate references.
    const std::vector<LineageId> children = lineage_.children(id);
    const int n = static_cast<int>(children.size());

    // Union-find over children via shared variables.
    std::vector<int> parent(n);
    for (int i = 0; i < n; ++i) parent[i] = i;
    auto find = [&parent](int x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    std::unordered_map<int, int> var_owner;
    for (int i = 0; i < n; ++i) {
      for (int v : lineage_.Support(children[i])) {
        auto [it, inserted] = var_owner.emplace(v, i);
        if (!inserted) parent[find(i)] = find(it->second);
      }
    }
    // Components in first-member order (deterministic output).
    std::vector<std::vector<LineageId>> components;
    std::unordered_map<int, int> component_of_root;
    for (int i = 0; i < n; ++i) {
      auto [it, inserted] = component_of_root.emplace(
          find(i), static_cast<int>(components.size()));
      if (inserted) components.emplace_back();
      components[it->second].push_back(children[i]);
    }

    GateStructure structure;
    if (components.size() > 1) {
      ++stats_.decompositions;
      // One (hash-consed) lineage node per component; compiling it hits
      // the (node, polarity) memo whenever the same sub-formula recurs.
      structure.component_ids.reserve(components.size());
      for (std::vector<LineageId>& members : components) {
        structure.component_ids.push_back(
            members.size() == 1
                ? members[0]
                : (is_and ? lineage_.MakeAnd(std::move(members))
                          : lineage_.MakeOr(std::move(members))));
      }
    } else {
      // Variable-connected: Shannon expansion on the variable shared by
      // the most children (ties broken toward the smallest variable).
      std::unordered_map<int, int> frequency;
      for (LineageId child : children) {
        for (int v : lineage_.Support(child)) ++frequency[v];
      }
      int best_var = -1;
      int best_count = 0;
      for (const auto& [v, count] : frequency) {
        if (count > best_count || (count == best_count && v < best_var)) {
          best_var = v;
          best_count = count;
        }
      }
      IPDB_CHECK_GE(best_var, 0);
      ++stats_.decisions;
      structure.branch_var = best_var;
      structure.hi = lineage_.Restrict(id, best_var, true);
      structure.lo = lineage_.Restrict(id, best_var, false);
    }
    return structure_.emplace(id, std::move(structure)).first->second;
  }

  NodeId CompileGate(LineageId id, bool negated) {
    ++depth_;
    NodeId result = CompileGateGoverned(id, negated);
    --depth_;
    return result;
  }

  /// Budget/fault gatekeeper around the real gate compilation. Charges
  /// the meter with the circuit's growth since the last gate (so `used`
  /// tracks actual circuit nodes, amortized) plus one progress unit, and
  /// enforces the recursion-depth cap exactly.
  NodeId CompileGateGoverned(LineageId id, bool negated) {
    if (budget_ != nullptr) {
      if (max_depth_ > 0 && depth_ > max_depth_) {
        error_ = ResourceExhaustedError(
            "kc.compile recursion depth cap of " +
            std::to_string(max_depth_) + " exceeded");
        return circuit_.False();
      }
      const int64_t size_now = circuit_.size();
      const int64_t growth = size_now > charged_ ? size_now - charged_ : 0;
      charged_ = size_now > charged_ ? size_now : charged_;
      Status status = meter_.Charge(growth + 1);
      if (!status.ok()) {
        error_ = std::move(status);
        return circuit_.False();
      }
    }
    if (IPDB_FAULT_FIRED("kc.compile.node_alloc")) {
      error_ = fault::InjectedFault("kc.compile.node_alloc");
      return circuit_.False();
    }
    const bool is_and = lineage_.kind(id) == NodeKind::kAnd;
    // Copy the structure: recursive Compile calls can rehash the memo.
    GateStructure structure = AnalyzeGate(id);
    if (structure.component_ids.empty()) {
      // Shannon decision gate on the shared branch variable.
      if (IPDB_FAULT_FIRED("kc.compile.shannon")) {
        error_ = fault::InjectedFault("kc.compile.shannon");
        return circuit_.False();
      }
      return circuit_.MakeDecision(structure.branch_var,
                                   Compile(structure.hi, negated),
                                   Compile(structure.lo, negated));
    }
    if (is_and != negated) {
      // ∧ᵢ Cᵢ (plain AND) or ∧ᵢ ¬Cᵢ (negated OR): a decomposable AND.
      std::vector<NodeId> parts;
      parts.reserve(structure.component_ids.size());
      for (LineageId c : structure.component_ids) {
        parts.push_back(Compile(c, negated));
      }
      return circuit_.MakeAnd(std::move(parts));
    }
    // ∨ᵢ Cᵢ (plain OR) or ∨ᵢ ¬Cᵢ (negated AND): the deterministic
    // first-success chain over elements eᵢ with polarity `element_neg`
    // mapping eᵢ to Compile(Cᵢ, ·).
    const bool element_negated = is_and;  // negated AND: elements are ¬Cᵢ
    return OrChain(structure.component_ids, 0, structure.component_ids.size(),
                   element_negated)
        .first;
  }

  /// Balanced deterministic disjunction of the independent elements
  /// eᵢ = Compile(componentᵢ, element_negated ⊕ ·):
  ///   pos(L ∪ R) = pos(L) ∨ (neg(L) ∧ pos(R)),  neg(L ∪ R) = neg(L) ∧ neg(R)
  /// Returns (⋁ eᵢ, ⋀ ¬eᵢ); every (pos, neg) pair is registered as a
  /// complement pair, which is exactly the exclusivity certificate the
  /// determinism checker consumes.
  std::pair<NodeId, NodeId> OrChain(const std::vector<LineageId>& elements,
                                    size_t lo, size_t hi,
                                    bool element_negated) {
    if (hi - lo == 1) {
      NodeId pos = Compile(elements[lo], element_negated);
      NodeId neg = Compile(elements[lo], !element_negated);
      if (certify_) circuit_.MarkComplements(pos, neg);
      return {pos, neg};
    }
    const size_t mid = lo + (hi - lo) / 2;
    auto [pl, nl] = OrChain(elements, lo, mid, element_negated);
    auto [pr, nr] = OrChain(elements, mid, hi, element_negated);
    NodeId pos = circuit_.MakeOr({pl, circuit_.MakeAnd({nl, pr})});
    NodeId neg = circuit_.MakeAnd({nl, nr});
    if (certify_) circuit_.MarkComplements(pos, neg);
    return {pos, neg};
  }

  static constexpr NodeId kUncompiled = -1;

  Lineage& lineage_;
  CompileStats& stats_;
  const bool certify_;
  const ExecutionBudget* budget_;
  const int64_t max_depth_;
  BudgetMeter meter_;
  int64_t depth_ = 0;
  int64_t charged_ = 0;  // circuit size already billed to the meter
  Status error_;
  Circuit circuit_;
  std::vector<NodeId> memo_;
  std::unordered_map<LineageId, GateStructure> structure_;
};

}  // namespace

StatusOr<CompiledQuery> CompileLineage(pqe::Lineage* lineage,
                                       pqe::NodeId root,
                                       const CompileOptions& options) {
  if (lineage == nullptr) return InvalidArgumentError("null lineage");
  if (root < 0 || root >= lineage->size()) {
    return InvalidArgumentError("lineage root out of range");
  }
  IPDB_OBS_SPAN("kc.compile", "kc");
  IPDB_OBS_SCOPED_TIMER("kc.compile_ns");
  const ExecutionBudget* budget =
      options.budget != nullptr && options.budget->unlimited()
          ? nullptr
          : options.budget;
  if (budget != nullptr) {
    IPDB_RETURN_IF_ERROR(budget->CheckTime("kc.compile"));
  }
  CompiledQuery compiled;
  Compiler compiler(lineage, &compiled.stats, /*certify=*/options.verify,
                    budget);
  compiler.ReserveFor(static_cast<size_t>(lineage->size()));
  compiled.root = compiler.Compile(root, /*negated=*/false);
  if (!compiler.error().ok()) {
    IPDB_OBS_COUNT("kc.compile.aborted", 1);
    return IPDB_STATUS_FORWARD(compiler.error())
           << "d-DNNF compilation aborted";
  }
  compiled.circuit = compiler.TakeCircuit();
  compiled.stats.circuit_nodes = compiled.circuit.size();
  compiled.stats.circuit_edges = compiled.circuit.num_edges();
  if (options.verify) {
    Status decomposable = compiled.circuit.CheckDecomposable(compiled.root);
    if (!decomposable.ok()) return decomposable;
    Status deterministic = compiled.circuit.CheckDeterministic(compiled.root);
    if (!deterministic.ok()) return deterministic;
  }
  IPDB_OBS_COUNT("kc.compiles", 1);
  IPDB_OBS_COUNT("kc.compile.decisions", compiled.stats.decisions);
  IPDB_OBS_COUNT("kc.compile.decompositions", compiled.stats.decompositions);
  IPDB_OBS_COUNT("kc.compile.circuit_nodes", compiled.stats.circuit_nodes);
  return compiled;
}

std::pair<uint64_t, uint64_t> LineageFingerprint(const pqe::Lineage& lineage,
                                                 pqe::NodeId root) {
  // Two independent FNV-style deep hashes, memoized per node;
  // iterative post-order to keep the stack flat on deep formulas.
  struct Hashes {
    uint64_t a = 0;
    uint64_t b = 0;
    bool done = false;
  };
  std::vector<Hashes> memo(static_cast<size_t>(lineage.size()));
  std::vector<std::pair<pqe::NodeId, bool>> stack;  // (node, expanded)
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (memo[id].done) continue;
    if (!expanded) {
      stack.emplace_back(id, true);
      for (pqe::NodeId c : lineage.children(id)) {
        if (!memo[c].done) stack.emplace_back(c, false);
      }
      continue;
    }
    uint64_t a = 1469598103934665603ULL;
    uint64_t b = 0xcbf29ce484222325ULL ^ 0x9e3779b97f4a7c15ULL;
    auto mix = [&a, &b](uint64_t x) {
      a = (a ^ x) * 1099511628211ULL;
      b = (b ^ (x + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
      b ^= b >> 29;
    };
    mix(static_cast<uint64_t>(lineage.kind(id)) + 1);
    mix(static_cast<uint64_t>(lineage.variable(id)) + 0x51ed270b);
    // AND/OR are commutative and hash-consing may store the children of
    // structurally equal formulas in different id orders across
    // lineages; mixing the child hashes in sorted order makes the
    // fingerprint order-insensitive (and still deep-structural).
    std::vector<std::pair<uint64_t, uint64_t>> child_hashes;
    child_hashes.reserve(lineage.children(id).size());
    for (pqe::NodeId c : lineage.children(id)) {
      child_hashes.emplace_back(memo[c].a, memo[c].b);
    }
    const pqe::NodeKind kind = lineage.kind(id);
    if (kind == pqe::NodeKind::kAnd || kind == pqe::NodeKind::kOr) {
      std::sort(child_hashes.begin(), child_hashes.end());
    }
    for (const auto& [ca, cb] : child_hashes) {
      mix(ca);
      mix(cb);
    }
    memo[id] = {a, b, true};
  }
  return {memo[root].a, memo[root].b};
}

}  // namespace kc
}  // namespace ipdb
