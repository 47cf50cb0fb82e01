#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "kc/compile.h"
#include "kc/evaluate.h"
#include "pqe/lineage.h"

namespace perfbench {

using ipdb::StatusOr;

StatusOr<double> ReplayCircuit(
    const ipdb::storage::TiStore& store, const ipdb::logic::Formula& sentence,
    const std::function<void(std::vector<double>*)>& fill_probs,
    ipdb::kc::CompiledQueryCache* cache, SpanRecorder* spans, int64_t op,
    ReplayCounts* counts, std::pair<uint64_t, uint64_t>* fingerprint) {
  ipdb::pqe::Lineage lineage;
  StatusOr<ipdb::pqe::NodeId> root = [&] {
    ScopedSpan span(spans, "pqe.ground", op);
    return ipdb::pqe::GroundSentence(store, sentence, &lineage);
  }();
  if (!root.ok()) return root.status();
  counts->lineage_nodes.push_back(lineage.size());
  std::pair<uint64_t, uint64_t> key;
  {
    ScopedSpan span(spans, "kc.fingerprint", op);
    key = ipdb::kc::LineageFingerprint(lineage, root.value());
  }
  if (fingerprint != nullptr) *fingerprint = key;
  bool hit = false;
  StatusOr<std::shared_ptr<const ipdb::kc::CompiledQuery>> artifact = [&] {
    ScopedSpan span(spans, "kc.probe", op);
    auto compiled = cache->GetOrCompile(&lineage, root.value(), &hit);
    if (!hit) span.set_name("kc.compile");
    return compiled;
  }();
  if (!artifact.ok()) return artifact.status();
  ++counts->probes;
  if (hit) ++counts->hits;
  counts->circuit_nodes.push_back(artifact.value()->circuit.size());
  StatusOr<double> probability = [&] {
    ScopedSpan span(spans, "kc.evaluate", op);
    std::vector<double> probs;
    fill_probs(&probs);
    return ipdb::kc::EvaluateCircuit<double>(artifact.value()->circuit,
                                             artifact.value()->root, probs);
  }();
  // pqe::QueryProbability frees the lineage when it returns. Freeing it
  // took ~80 us per replay and up to 4 ms, so it gets a span of its own
  // rather than leaving a gap in the replay's coverage.
  ScopedSpan span(spans, "pqe.release", op);
  lineage = ipdb::pqe::Lineage();
  return probability;
}

int64_t DomainValues(const std::vector<ipdb::rel::Value>& sorted_domain,
                     const ipdb::logic::Formula& sentence) {
  std::vector<ipdb::rel::Value> domain = sorted_domain;
  for (const ipdb::rel::Value& value : sentence.Constants()) {
    domain.push_back(value);
  }
  for (int i = 0; i < sentence.QuantifierRank(); ++i) {
    domain.push_back(ipdb::rel::Value::Symbol("$fresh" + std::to_string(i)));
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return static_cast<int64_t>(domain.size());
}

void PutMedianSelf(const SpanSummary& summary, const std::string& span,
                   const std::string& metric, double scale,
                   const std::string& unit, Result* result) {
  auto it = summary.layers.find(span);
  if (it == summary.layers.end()) return;
  result->metrics[metric] = {Median(it->second.self_ns_per_call) / scale, unit};
}

void PutReplayCounts(const ReplayCounts& counts, Result* result) {
  if (counts.probes == 0) return;
  result->metrics["pqe.lineage_nodes"] = {Median(counts.lineage_nodes),
                                          "count"};
  if (!counts.domain_values.empty()) {
    result->metrics["pqe.domain_values"] = {Median(counts.domain_values),
                                            "count"};
  }
  result->metrics["kc.circuit_nodes"] = {Median(counts.circuit_nodes),
                                         "count"};
  result->metrics["kc.hit_ratio"] = {
      static_cast<double>(counts.hits) / static_cast<double>(counts.probes),
      "ratio"};
}

void ReportLayers(const SpanSummary& summary, const std::string& op_span,
                  Result* result) {
  auto op = summary.layers.find(op_span);
  const double op_ns = op == summary.layers.end() ? 0 : op->second.total_ns;
  result->report.push_back(
      "layer                     calls   median_self_us  share_of_" + op_span);
  for (const auto& [name, layer] : summary.layers) {
    char line[160];
    std::snprintf(line, sizeof line, "%-24s %7lld %16.3f %10.4f", name.c_str(),
                  static_cast<long long>(layer.calls),
                  Median(layer.self_ns_per_call) / 1e3,
                  op_ns > 0 ? layer.total_self_ns / op_ns : 0.0);
    result->report.push_back(line);
  }
  if (!summary.coverage.empty()) {
    const auto below = std::count_if(summary.coverage.begin(),
                                     summary.coverage.end(),
                                     [](double c) { return c < 0.9; });
    char line[200];
    std::snprintf(line, sizeof line,
                  "span coverage of replayed operations: n=%zu min=%.4f "
                  "p1=%.4f median=%.4f below_0.90=%lld",
                  summary.coverage.size(), Percentile(summary.coverage, 0.0),
                  Percentile(summary.coverage, 0.01),
                  Median(summary.coverage), static_cast<long long>(below));
    result->report.push_back(line);
    // A replaying thread preempted inside a microsecond gap between two
    // spans reads low (0.76 and 0.88 seen, about one replay in a
    // thousand). Spans that missed work would read low on many replays,
    // so the check allows 1% of them below 0.90.
    if (Percentile(summary.coverage, 0.01) < 0.9) {
      result->checks_ok = false;
      result->report.push_back(
          "CHECK FAILED: spans cover less than 0.90 of over 1% of the "
          "replayed operations");
    }
  }
}

}  // namespace perfbench
