#ifndef IPDB_SERVER_TENANT_H_
#define IPDB_SERVER_TENANT_H_

#include <cstdint>
#include <string>

#include "pqe/wmc.h"
#include "util/budget.h"
#include "util/status.h"

namespace ipdb {
namespace server {

/// The largest accepted budget_ms, 10^12 ms (about 31.7 years): a
/// larger budget would put the deadline past the range of the clock's
/// int64 nanoseconds.
inline constexpr int64_t kMaxBudgetMs = 1'000'000'000'000;

/// Per-tenant serving policy: how much work one tenant may have in
/// flight, how long a single query may run, and how its queries map
/// onto the pqe::QueryOptions degradation ladder. A default-constructed
/// config is permissive (no deadline, library-default fallback) except
/// for the in-flight cap, which always exists — an unbounded queue is
/// how one tenant starves the rest.
struct TenantConfig {
  /// Queries admitted but not yet finished; admission sheds above this.
  int64_t max_in_flight = 64;

  /// Per-query wall-clock budget in milliseconds, measured from
  /// admission (queue wait counts — a serving deadline, not a compute
  /// deadline). 0 = no deadline; at most kMaxBudgetMs.
  int64_t budget_ms = 0;
  /// Cap on compiled-circuit size per query (ExecutionBudget
  /// semantics); 0 = uncapped.
  int64_t max_circuit_nodes = 0;
  /// Cap on Monte Carlo samples per query; 0 = uncapped.
  int64_t max_samples = 0;

  /// QueryOptions pass-throughs (see pqe/wmc.h).
  bool fallback = true;
  int64_t fallback_samples = 100000;
  double fallback_confidence = 0.99;

  /// Sample count used when admission *degrades* this tenant's query to
  /// the sample-only rung (must be <= fallback_samples to mean
  /// anything).
  int64_t degraded_samples = 4096;

  /// Resident-footprint quota in the shared compiled-artifact cache
  /// (kc::CompiledQueryCache::SetOwnerLimits). 0 = uncapped.
  int64_t cache_max_bytes = 0;
  int64_t cache_max_entries = 0;

  /// Head-based trace sampling rate in [0, 1]: the fraction of this
  /// tenant's requests whose span trees are retained in the
  /// obs::TraceStore for the daemon's TRACE command. The decision is
  /// made once at admission (every Nth request for rate 1/N); Chrome
  /// trace export is unaffected.
  double trace_sample = 1.0;

  /// Declared SLOs, evaluated by the obs::ServiceStats burn-rate
  /// engine (fast 1m / slow 10m windows). 0 disables an objective.
  /// Latency objective: p99 of served requests <= slo_p99_ms (modelled
  /// as "at most 1% of requests slower than the threshold").
  double slo_p99_ms = 0.0;
  /// Availability objective: at least this fraction of submitted
  /// requests served without shed or error (e.g. 0.999).
  double slo_availability = 0.0;
  /// Burn-rate multiple that flips an objective to breaching.
  double slo_burn_alert = 1.0;
};

/// Parses "key=value key=value ..." (whitespace- and/or semicolon-
/// separated) into a TenantConfig. Unknown keys, non-numeric values,
/// out-of-range values (negative caps, budget_ms above kMaxBudgetMs,
/// confidence outside (0, 1)) all return kInvalidArgument — a malformed
/// tenant config must never abort a serving process. Boolean keys accept
/// 0/1/true/false.
///
/// Keys: max_in_flight, budget_ms, max_circuit_nodes, max_samples,
/// fallback, fallback_samples, fallback_confidence, degraded_samples,
/// cache_max_bytes, cache_max_entries, trace_sample, slo_p99_ms,
/// slo_availability, slo_burn_alert.
StatusOr<TenantConfig> ParseTenantConfig(const std::string& text);

/// Validates a config built in code (same rules as the parser).
Status ValidateTenantConfig(const TenantConfig& config);

/// Maps a config onto the pqe vocabulary for one query. `budget` is
/// caller-owned storage that must outlive the returned options (the
/// options hold a pointer into it); `deadline_start` anchors budget_ms.
/// `degraded` applies the admission controller's sample-only rung: the
/// compile rung is capped out (max_circuit_nodes = 1, so exact circuit
/// work trips immediately and certified sampling answers instead) and
/// the sample count drops to degraded_samples. A query the lifted rung
/// answers is still answered exactly in degraded mode — a safe-plan
/// answer is cheaper than sampling.
pqe::QueryOptions ToQueryOptions(const TenantConfig& config,
                                 ExecutionBudget* budget,
                                 ExecutionBudget::Clock::time_point
                                     deadline_start,
                                 bool degraded,
                                 const CancelToken* cancel);

}  // namespace server
}  // namespace ipdb

#endif  // IPDB_SERVER_TENANT_H_
