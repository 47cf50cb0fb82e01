#ifndef IPDB_LOGIC_EVALUATOR_H_
#define IPDB_LOGIC_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/status.h"

namespace ipdb {
namespace logic {

/// Model checking of first-order formulas over database instances with the
/// paper's semantics: quantifiers range over the *countably infinite*
/// universe U.
///
/// Since U is infinite, quantification cannot be enumerated directly.
/// We use the standard genericity argument: elements of U outside
/// adom(D) ∪ consts(φ) are pairwise interchangeable (the relations of D
/// cannot distinguish them, and only equality can tell them apart), so a
/// quantifier is faithfully decided by ranging over
///
///     adom(D) ∪ consts(φ) ∪ { q fresh pairwise-distinct elements },
///
/// where q is the quantifier rank of φ. Fresh elements are reserved
/// symbols "$fresh<i>" — user code must not use symbols starting with
/// '$'. This makes sentences like ∃x ¬R(x) true over finite instances,
/// exactly as the paper's semantics require.
///
/// Quantifiers are pruned by the guard/co-guard analysis of
/// logic/guards.h, the same analysis the grounder (pqe/lineage.h) and the
/// answer enumerator (pqe/expected_answers.h) run: a guarded quantifier
/// tries only the values that occur at its variable's positions in
/// matching facts, read from the instance's sorted fact vector (a bound
/// argument prefix is one binary-searched range).
///
/// A variable assignment maps variable names to universe elements.
using Assignment = std::map<std::string, rel::Value>;

/// Evaluation knobs. `use_guards = false` is the naive reference
/// semantics: every quantifier ranges over the whole domain and no guard
/// code runs. It is the one oracle that shares nothing with the grounder's
/// guard analysis, kept for the differential tests and the ablation
/// benchmark (BM_GuardAblation in fo_eval_bench).
struct EvalOptions {
  bool use_guards = true;
};

/// Decides D ⊨ φ[assignment]. `formula`'s free variables must all be bound
/// by `assignment`; otherwise an error is returned. Fails also when an
/// atom does not match the schema.
StatusOr<bool> Evaluate(const rel::Instance& instance,
                        const rel::Schema& schema, const Formula& formula,
                        const Assignment& assignment = {},
                        const EvalOptions& options = {});

/// Decides D ⊨ φ for a sentence (no free variables). Aborts on malformed
/// input; use `Evaluate` for recoverable handling. This is the hot-path
/// entry point used by the construction verifiers.
bool Satisfies(const rel::Instance& instance, const rel::Schema& schema,
               const Formula& sentence);

/// Computes the quantifier ground set for (instance, formula):
/// adom(instance) ∪ consts(formula) ∪ fresh elements (quantifier rank
/// many), the values an unguarded quantifier tries. Exposed for tests.
std::vector<rel::Value> QuantifierDomain(const rel::Instance& instance,
                                         const Formula& formula);

/// All tuples ā over adom(instance) ∪ consts(formula) such that
/// D ⊨ φ(ā), where the i-th position of each tuple binds `free_vars[i]`.
/// `free_vars` must cover the formula's free variables. This is the
/// relation defined by an FO formula in a view (Section 2, "Query
/// Semantics"); outputs are restricted to the active domain plus
/// constants, the output-safety convention documented in DESIGN.md.
StatusOr<std::vector<std::vector<rel::Value>>> EvaluateQuery(
    const rel::Instance& instance, const rel::Schema& schema,
    const Formula& formula, const std::vector<std::string>& free_vars);

}  // namespace logic
}  // namespace ipdb

#endif  // IPDB_LOGIC_EVALUATOR_H_
