// The traced run's replay of the circuit rung through the library's
// public layer functions, and the per-layer metrics derived from spans.

#ifndef PERFBENCH_BENCH_LAYERS_H_
#define PERFBENCH_BENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "kc/cache.h"
#include "logic/formula.h"
#include "relational/value.h"
#include "storage/ti_store.h"
#include "util/status.h"

namespace perfbench {

/// Counts gathered while replaying.
struct ReplayCounts {
  std::vector<double> lineage_nodes;
  std::vector<double> domain_values;
  std::vector<double> circuit_nodes;
  int64_t probes = 0;
  int64_t hits = 0;
};

/// The circuit rung as pqe::QueryProbability and PreparedQuery run it:
/// GroundSentence -> LineageFingerprint -> GetOrCompile on `cache` (span
/// kc.probe on a hit, kc.compile on a miss) -> the probability vector
/// plus EvaluateCircuit (span kc.evaluate) -> freeing the lineage (span
/// pqe.release). `fill_probs` builds the
/// probability vector the way the replayed caller does. `fingerprint`
/// (may be null) receives the lineage fingerprint.
ipdb::StatusOr<double> ReplayCircuit(
    const ipdb::storage::TiStore& store, const ipdb::logic::Formula& sentence,
    const std::function<void(std::vector<double>*)>& fill_probs,
    ipdb::kc::CompiledQueryCache* cache, SpanRecorder* spans, int64_t op,
    ReplayCounts* counts, std::pair<uint64_t, uint64_t>* fingerprint);

/// The values each quantifier of `sentence` ranges over when grounded
/// against a store whose SortedDomain() is `sorted_domain`: the active
/// domain, the sentence's constants and one fresh value per quantifier
/// level, as the grounder builds it.
int64_t DomainValues(const std::vector<ipdb::rel::Value>& sorted_domain,
                     const ipdb::logic::Formula& sentence);

/// Adds `metric` = median self time per call of span `span`, divided by
/// `scale` (1e3 for us, 1e6 for ms, 1e9 for s), when the span occurred.
void PutMedianSelf(const SpanSummary& summary, const std::string& span,
                   const std::string& metric, double scale,
                   const std::string& unit, Result* result);

/// Adds the count metrics of a replay (pqe.lineage_nodes,
/// pqe.domain_values, kc.circuit_nodes, kc.hit_ratio) when it probed.
void PutReplayCounts(const ReplayCounts& counts, Result* result);

/// Report lines: the per-layer table (calls, median self time, share of
/// `op_span` time) and the coverage of each `replay_span` by its
/// children.
void ReportLayers(const SpanSummary& summary, const std::string& op_span,
                  Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LAYERS_H_
