#ifndef IPDB_SERVER_ENGINE_H_
#define IPDB_SERVER_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "durability/manager.h"
#include "kc/cache.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "pdb/ti_pdb.h"
#include "pqe/prepared.h"
#include "pqe/wmc.h"
#include "server/admission.h"
#include "server/tenant.h"
#include "util/budget.h"
#include "util/parallel.h"
#include "util/status.h"

namespace ipdb {
namespace server {

/// Prepared queries each tenant keeps: a tenant's bounded LRU of
/// pqe::PreparedQuery handles, keyed by (instance, query text), holds at
/// most this many. A handle is the compiled query (~10 KB) plus the
/// fingerprint of its circuit, never the circuit itself.
inline constexpr int kPreparedPerTenant = 128;

/// Engine construction knobs.
struct EngineOptions {
  /// Serving worker threads executing queries (<= 0 means the hardware
  /// thread count). Workers are ThreadPool workers; queries are posted
  /// tasks, so `threads` queries execute truly concurrently.
  int threads = 0;
  AdmissionOptions admission;
  /// When non-empty, instances persist under this directory (one
  /// subdirectory per instance: snapshot.ipdb + wal.log) and every
  /// instance found there is restored at construction
  /// (boot_restored() / boot_restore_status() report the outcome).
  /// Empty = durability off; SAVE/LOAD return kFailedPrecondition.
  std::string durability_dir;
};

/// The outcome of one served query.
struct QueryResult {
  pqe::QueryAnswer answer;
  /// Admission ran this query on the sample-only rung.
  bool degraded = false;
  /// Admission -> execution start (time spent queued).
  int64_t queue_ns = 0;
  /// Admission -> completion (what a client observes).
  int64_t total_ns = 0;
  /// The request's trace id (TRACE <id> on the daemon; nonzero for
  /// every executed query).
  uint64_t trace_id = 0;
};

/// A submitted query's future result. Handles are shared_ptr-held by
/// both the submitter and the worker, so either side may outlive the
/// other.
class PendingQuery {
 public:
  /// Blocks until the query finishes. The reference stays valid for the
  /// handle's lifetime; repeated calls return the same result.
  const StatusOr<QueryResult>& Wait();
  bool done() const;

  /// The request's trace id, assigned at submission (available before
  /// the query finishes — the per-request trace handle).
  uint64_t trace_id() const { return trace_id_; }

 private:
  friend class Engine;
  void Fulfill(StatusOr<QueryResult> result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  uint64_t trace_id_ = 0;  // written once before the handle is shared
  StatusOr<QueryResult> result_{InternalError("query still pending")};
};

/// Aggregate per-tenant serving state (see Engine::Usage).
struct TenantUsage {
  int64_t in_flight = 0;
  int64_t admitted = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  /// The tenant's prepared-query LRU: resident handles (at most
  /// kPreparedPerTenant), and submissions whose text found a handle or
  /// had to be parsed (malformed texts included).
  int64_t prepared_entries = 0;
  int64_t prepared_hits = 0;
  int64_t prepared_misses = 0;
  /// This tenant's slice of the shared compiled-artifact cache.
  kc::CacheOwnerStats cache;
};

/// The in-process front door of the query engine: named TI instances,
/// named tenants with budgets/quotas, concurrent execution on a
/// ThreadPool, and a reject -> sample-only -> full admission ladder.
///
///  * Registration: `RegisterInstance` publishes an immutable
///    `pdb::TiPdb<double>`; `RegisterTenant` binds a TenantConfig
///    (parsed or built in code) and assigns the tenant a
///    kc::CacheOwner, so the tenant's traffic through the shared
///    compiled-artifact cache is accounted (and optionally capped) per
///    tenant while artifacts themselves stay shared — two tenants
///    asking the structurally same query share one circuit.
///  * Submission: `Submit` looks the (instance, query text) pair up in
///    the tenant's LRU of prepared queries (at most kPreparedPerTenant
///    pqe::PreparedQuery handles); a miss parses the text against the
///    instance's schema (parse errors come back from Submit), and the
///    worker compiles a handle, which joins the LRU once it has
///    answered.
///    Submit then runs admission (global queue depth + the fallback-rate
///    signal + the tenant's own in-flight quota) and posts execution to
///    the pool; `Wait` on the returned handle joins the result. `Query`
///    is the synchronous convenience. Every query is answered by its
///    handle's governed ladder (PreparedQuery::Answer) under its
///    tenant's budget, deadline, degraded rung and the engine's cancel
///    token, so a repeated text skips parsing and compiling, and while
///    the store's structure is unchanged its circuit answer skips
///    grounding too: one keyed artifact-cache probe, then the memoized
///    or re-evaluated answer. A text whose answer fails never becomes
///    resident.
///  * Shutdown: `Stop` rejects new admissions, cancels in-flight
///    queries through the engine-wide CancelToken (they drain as
///    degraded-but-clean answers), drains the pool, and freezes a
///    final metrics snapshot (`final_metrics_json`).
///
/// Thread-safe throughout; destruction stops the engine.
class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Publishes an instance under `name` (kInvalidArgument on duplicate
  /// or empty names). Instances are immutable once registered.
  Status RegisterInstance(const std::string& name,
                          pdb::TiPdb<double> instance);

  /// Registers a tenant with a validated config; duplicate names are
  /// rejected. The tenant's artifact-cache quota is installed on the
  /// global compiled-query cache.
  Status RegisterTenant(const std::string& name, const TenantConfig& config);
  /// Parses `config_text` (see ParseTenantConfig) and registers.
  Status RegisterTenant(const std::string& name,
                        const std::string& config_text);

  /// Admits and enqueues one query. Synchronous failures: unknown
  /// tenant/instance or parse errors (kInvalidArgument), admission shed
  /// or shutdown (kUnavailable).
  StatusOr<std::shared_ptr<PendingQuery>> Submit(
      const std::string& tenant, const std::string& instance,
      const std::string& query);

  /// Submit + Wait.
  StatusOr<QueryResult> Query(const std::string& tenant,
                              const std::string& instance,
                              const std::string& query);

  // --- Durability (requires EngineOptions::durability_dir) ---------

  /// Snapshots the named registered instance to disk (checksummed
  /// binary snapshot, temp-file + atomic rename) — the daemon's SAVE.
  Status SaveInstance(const std::string& name);

  /// Recovers the named instance from disk (snapshot + WAL replay) and
  /// registers it — the daemon's LOAD. Fails on a name that is already
  /// registered.
  Status LoadInstance(const std::string& name);

  /// Instances restored during construction, and how the boot restore
  /// went (Ok also when durability is off or the directory was empty;
  /// a failed restore of one instance does not abort the others — the
  /// first error is kept here).
  int boot_restored() const { return boot_restored_; }
  const Status& boot_restore_status() const { return boot_restore_status_; }

  /// Queries admitted and not yet completed, engine-wide.
  int64_t queue_depth() const {
    return in_flight_total_.load(std::memory_order_relaxed);
  }

  /// Per-tenant serving + cache accounting (kInvalidArgument for an
  /// unknown tenant).
  StatusOr<TenantUsage> Usage(const std::string& tenant) const;

  /// Drains and stops the engine (idempotent). After Stop, Submit
  /// returns kUnavailable and final_metrics_json() carries the frozen
  /// snapshot.
  Status Stop();
  bool stopped() const { return stopping_.load(std::memory_order_acquire); }

  /// The metrics snapshot frozen by Stop (empty before shutdown).
  std::string final_metrics_json() const;
  /// A live metrics snapshot (ipdb-metrics-v1 JSON).
  static std::string MetricsJson();

  /// Per-tenant rolling telemetry + SLO burn-rate report
  /// (ipdb-stats-v1 JSON; the daemon's STATS command).
  std::string StatsJson() const;

  /// The finished (or in-flight) span tree for a sampled request
  /// (ipdb-trace-tree-v1 JSON; the daemon's TRACE command).
  /// kInvalidArgument when the id is unknown — never sampled, or
  /// evicted from the bounded store.
  StatusOr<std::string> TraceJson(uint64_t trace_id) const;

  const AdmissionController& admission() const { return admission_; }

 private:
  struct TenantState {
    /// The prepared handle of `key` (see PreparedKey), moved to the front
    /// of the LRU; null when absent. Counts a hit or a miss.
    std::shared_ptr<pqe::PreparedQuery> FindPrepared(std::string_view key);
    /// Inserts `handle` under `key` at the front and returns the handle
    /// evicted from the back beyond kPreparedPerTenant, if any, for the
    /// caller to free off the answer's path; a no-op when a racing
    /// submission of the same text inserted its handle first.
    std::shared_ptr<pqe::PreparedQuery> InsertPrepared(
        std::string key, std::shared_ptr<pqe::PreparedQuery> handle);

    TenantConfig config;
    kc::CacheOwner owner = 0;
    std::atomic<int64_t> in_flight{0};
    std::atomic<int64_t> admitted{0};
    std::atomic<int64_t> degraded{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> errors{0};
    /// Interned tenant name for the serve.*{tenant=...} families.
    obs::LabelId label = 0;
    /// This tenant's rolling windows (owned by stats_).
    obs::TenantSeries* series = nullptr;
    /// Head-based sampling: every sample_period-th request is retained
    /// in the TraceStore (0 = never).
    uint64_t sample_period = 0;
    std::atomic<uint64_t> sample_counter{0};

    /// The prepared-query LRU, front = most recently used. The index
    /// keys view the list entries' own key strings.
    struct Prepared {
      std::string key;
      std::shared_ptr<pqe::PreparedQuery> handle;
    };
    std::mutex prepared_mu;
    std::list<Prepared> prepared;  // guarded by prepared_mu
    std::unordered_map<std::string_view, std::list<Prepared>::iterator>
        prepared_index;  // guarded by prepared_mu
    std::atomic<int64_t> prepared_entries{0};
    std::atomic<int64_t> prepared_hits{0};
    std::atomic<int64_t> prepared_misses{0};

    bool SampleTrace() {
      if (sample_period == 0) return false;
      return sample_counter.fetch_add(1, std::memory_order_relaxed) %
                 sample_period ==
             0;
    }
  };

  /// The per-query worker task (runs on the pool): answers from
  /// `handle`, the tenant's prepared query, or on a miss (null `handle`)
  /// compiles one from `sentence` over `instance` and inserts it into the
  /// tenant's LRU under `prepared_key` once it has answered. The
  /// request's TraceContext arrives via the pool's context propagation;
  /// `submitted_ns` (request entry) anchors the synthesized
  /// serve.request root span, `admitted_ns` the budget deadline and the
  /// serve.queue wait span.
  void Execute(TenantState* tenant,
               std::shared_ptr<const pdb::TiPdb<double>> instance,
               std::shared_ptr<pqe::PreparedQuery> handle,
               logic::Formula sentence, std::string prepared_key,
               bool degraded, int64_t submitted_ns, int64_t admitted_ns,
               std::shared_ptr<PendingQuery> pending);

  /// Loads every instance under the durability root; returns the count
  /// and records the first per-instance failure (boot continues).
  void RestoreOnBoot();

  EngineOptions options_;
  std::unique_ptr<durability::Manager> durability_;
  int boot_restored_ = 0;
  Status boot_restore_status_;
  std::unique_ptr<ThreadPool> pool_;
  AdmissionController admission_;
  CancelToken cancel_;
  /// Per-tenant time-series + SLO state. Engine-owned (not global) so
  /// two engines in one process report independently.
  obs::ServiceStats stats_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::map<std::string, std::shared_ptr<const pdb::TiPdb<double>>> instances_;
  kc::CacheOwner next_owner_ = 1;

  std::atomic<int64_t> in_flight_total_{0};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;          // guarded by mu_ (Stop idempotence)
  std::string final_metrics_json_;  // guarded by mu_
};

}  // namespace server
}  // namespace ipdb

#endif  // IPDB_SERVER_ENGINE_H_
