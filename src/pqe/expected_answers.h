#ifndef IPDB_PQE_EXPECTED_ANSWERS_H_
#define IPDB_PQE_EXPECTED_ANSWERS_H_

#include <string>
#include <vector>

#include "logic/formula.h"
#include "pdb/sampling.h"
#include "pdb/ti_pdb.h"
#include "util/status.h"

namespace ipdb {
namespace pqe {

/// The expected answer count E[|q(D)|] of a non-boolean query over a
/// TI-PDB — the quantity whose boundedness Lemma 3.3 exploits to show
/// that FO-views preserve finite moments, here computed exactly.
///
/// By linearity of expectation,
///
///   E[|q(D)|] = Σ_ā Pr(D ⊨ q(ā)),
///
/// with ā ranging over (adom(T(I)) ∪ consts(q))^k (the output-safety
/// candidate set) and each summand evaluated by exact WMC. `head_vars`
/// orders the free variables, as in logic::EvaluateQuery. A head
/// variable covered by a guard (logic/guards.h) takes only the values its
/// guard reads from the store's facts: every other tuple has probability
/// exactly 0, so the answers are those of the full grid.
///
/// The per-tuple WMC calls are independent, so both entry points accept
/// an optional options knob whose `threads` field fans the candidate
/// grid out across workers; summands and answers are combined in
/// candidate order, making the result independent of the thread count
/// (options.shards is ignored — the computation is exact, not sampled).
StatusOr<double> ExpectedAnswerCount(
    const pdb::TiPdb<double>& ti, const logic::Formula& query,
    const std::vector<std::string>& head_vars,
    const pdb::SamplingOptions& options = {});

/// Per-tuple answer probabilities: the pairs (ā, Pr(D ⊨ q(ā))) with
/// positive probability — the standard "probabilistic answers, ranked"
/// output of a probabilistic database.
struct RankedAnswer {
  std::vector<rel::Value> tuple;
  double probability;
};
StatusOr<std::vector<RankedAnswer>> RankedAnswers(
    const pdb::TiPdb<double>& ti, const logic::Formula& query,
    const std::vector<std::string>& head_vars,
    const pdb::SamplingOptions& options = {});

}  // namespace pqe
}  // namespace ipdb

#endif  // IPDB_PQE_EXPECTED_ANSWERS_H_
