#include "server/engine.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace ipdb {
namespace server {

namespace {

/// Shed-rung labels, interned once. [[maybe_unused]] keeps the obs-off
/// build quiet (the labeled macros expand to nothing there).
[[maybe_unused]] const obs::LabelId kRungStopping =
    obs::InternLabel("stopping");
[[maybe_unused]] const obs::LabelId kRungTenantQuota =
    obs::InternLabel("tenant_quota");
[[maybe_unused]] const obs::LabelId kRungQueueDepth =
    obs::InternLabel("queue_depth");

obs::SloPolicy SloPolicyFor(const TenantConfig& config) {
  obs::SloPolicy policy;
  policy.latency_threshold_ms = config.slo_p99_ms;
  policy.latency_target = 0.99;  // "p99 <= threshold" as a burn objective
  policy.availability_target = config.slo_availability;
  policy.burn_alert = config.slo_burn_alert;
  return policy;
}

uint64_t SamplePeriodFor(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return 1;
  return static_cast<uint64_t>(std::llround(1.0 / rate));
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             ExecutionBudget::Clock::now().time_since_epoch())
      .count();
}

ExecutionBudget::Clock::time_point TimePointFromNs(int64_t ns) {
  return ExecutionBudget::Clock::time_point(
      std::chrono::duration_cast<ExecutionBudget::Clock::duration>(
          std::chrono::nanoseconds(ns)));
}

}  // namespace

const StatusOr<QueryResult>& PendingQuery::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool PendingQuery::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void PendingQuery::Fulfill(StatusOr<QueryResult> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

Engine::Engine(const EngineOptions& options)
    : options_(options), admission_(options.admission) {
  const int threads =
      options_.threads <= 0 ? HardwareThreadCount() : options_.threads;
  options_.threads = threads;
  // ThreadPool(n) spawns n - 1 workers (the caller is the n-th batch
  // participant), but posted tasks run on workers only — so ask for one
  // more to get `threads` true serving workers.
  pool_ = std::make_unique<ThreadPool>(threads + 1);
  if (!options_.durability_dir.empty()) {
    durability_ = std::make_unique<durability::Manager>(options_.durability_dir);
    RestoreOnBoot();
  }
}

void Engine::RestoreOnBoot() {
  auto names = durability_->List();
  if (!names.ok()) {
    boot_restore_status_ = names.status();
    return;
  }
  for (const std::string& name : *names) {
    const Status loaded = LoadInstance(name);
    if (loaded.ok()) {
      ++boot_restored_;
      IPDB_OBS_COUNT("dur.boot.restored", 1);
    } else {
      IPDB_OBS_COUNT("dur.boot.restore_errors", 1);
      if (boot_restore_status_.ok()) boot_restore_status_ = loaded;
    }
  }
}

Status Engine::SaveInstance(const std::string& name) {
  if (durability_ == nullptr) {
    return FailedPreconditionError(
        "durability is off (EngineOptions::durability_dir is empty)");
  }
  std::shared_ptr<const pdb::TiPdb<double>> instance;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instances_.find(name);
    if (it == instances_.end()) {
      return InvalidArgumentError("instance '" + name + "' is not registered");
    }
    instance = it->second;
  }
  IPDB_RETURN_IF_ERROR(durability_->Save(name, *instance->store()));
  IPDB_OBS_COUNT("serve.instance.saves", 1);
  return Status::Ok();
}

Status Engine::LoadInstance(const std::string& name) {
  if (durability_ == nullptr) {
    return FailedPreconditionError(
        "durability is off (EngineOptions::durability_dir is empty)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (instances_.count(name) != 0) {
      return InvalidArgumentError("instance '" + name +
                                  "' is already registered");
    }
  }
  auto durable = durability_->Load(name);
  if (!durable.ok()) return durable.status();
  auto instance = pdb::TiPdb<double>::FromStore(
      std::shared_ptr<const storage::TiStore>((*durable)->shared_store()));
  if (!instance.ok()) {
    return IPDB_STATUS_FORWARD(instance.status())
           << "while rebuilding instance '" << name << "' from its snapshot";
  }
  IPDB_RETURN_IF_ERROR(RegisterInstance(name, std::move(instance).value()));
  IPDB_OBS_COUNT("serve.instance.loads", 1);
  return Status::Ok();
}

Engine::~Engine() {
  Status status = Stop();
  (void)status;
}

Status Engine::RegisterInstance(const std::string& name,
                                pdb::TiPdb<double> instance) {
  if (name.empty()) {
    return InvalidArgumentError("instance name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto inserted = instances_.emplace(
      name, std::make_shared<const pdb::TiPdb<double>>(std::move(instance)));
  if (!inserted.second) {
    return InvalidArgumentError("instance '" + name + "' already registered");
  }
  return Status::Ok();
}

Status Engine::RegisterTenant(const std::string& name,
                              const TenantConfig& config) {
  if (name.empty()) {
    return InvalidArgumentError("tenant name must be non-empty");
  }
  IPDB_RETURN_IF_ERROR(ValidateTenantConfig(config));
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) != 0) {
    return InvalidArgumentError("tenant '" + name + "' already registered");
  }
  auto state = std::make_unique<TenantState>();
  state->config = config;
  state->owner = next_owner_++;
  state->label = obs::InternLabel(name);
  state->series = &stats_.GetSeries(name, SloPolicyFor(config));
  state->sample_period = SamplePeriodFor(config.trace_sample);
  kc::GlobalCompiledQueryCache().SetOwnerLimits(
      state->owner, config.cache_max_bytes, config.cache_max_entries);
  tenants_.emplace(name, std::move(state));
  return Status::Ok();
}

Status Engine::RegisterTenant(const std::string& name,
                              const std::string& config_text) {
  StatusOr<TenantConfig> config = ParseTenantConfig(config_text);
  if (!config.ok()) return config.status();
  return RegisterTenant(name, config.value());
}

StatusOr<std::shared_ptr<PendingQuery>> Engine::Submit(
    const std::string& tenant, const std::string& instance,
    const std::string& query) {
  return SubmitInternal(tenant, instance, query, /*prepared=*/false);
}

StatusOr<QueryResult> Engine::Query(const std::string& tenant,
                                    const std::string& instance,
                                    const std::string& query) {
  StatusOr<std::shared_ptr<PendingQuery>> pending =
      SubmitInternal(tenant, instance, query, /*prepared=*/false);
  if (!pending.ok()) return pending.status();
  return pending.value()->Wait();
}

StatusOr<QueryResult> Engine::QueryPrepared(const std::string& tenant,
                                            const std::string& instance,
                                            const std::string& query) {
  StatusOr<std::shared_ptr<PendingQuery>> pending =
      SubmitInternal(tenant, instance, query, /*prepared=*/true);
  if (!pending.ok()) return pending.status();
  return pending.value()->Wait();
}

StatusOr<std::shared_ptr<PendingQuery>> Engine::SubmitInternal(
    const std::string& tenant, const std::string& instance,
    const std::string& query, bool prepared) {
  IPDB_OBS_COUNT("serve.submitted", 1);
  if (stopping_.load(std::memory_order_acquire)) {
    IPDB_OBS_COUNT("serve.shed", 1);
    IPDB_OBS_COUNT_LABELED("serve.shed", "rung", kRungStopping, 1);
    return UnavailableError("query service is stopping");
  }

  TenantState* tenant_state = nullptr;
  std::shared_ptr<const pdb::TiPdb<double>> inst;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto tenant_it = tenants_.find(tenant);
    if (tenant_it == tenants_.end()) {
      return InvalidArgumentError("unknown tenant '" + tenant + "'");
    }
    tenant_state = tenant_it->second.get();
    auto instance_it = instances_.find(instance);
    if (instance_it == instances_.end()) {
      return InvalidArgumentError("unknown instance '" + instance + "'");
    }
    inst = instance_it->second;
  }

  // The request's trace context: every admitted-or-shed request gets a
  // trace id; head-based sampling decides whether the span tree is
  // retained for TRACE. ctx.span_id is the serve.request root — spans
  // opened below (and in the posted task) parent under it.
  obs::TraceContext ctx;
  ctx.trace_id = obs::NewTraceId();
  ctx.span_id = obs::NewSpanId();
  ctx.sampled = tenant_state->SampleTrace();
  if (ctx.sampled) obs::TraceStore::Global().Begin(ctx.trace_id);
  const uint64_t root_span_id = ctx.span_id;
  const int64_t submitted_ns = NowNs();
  obs::ScopedTraceContext trace_scope(ctx);
  // Closes the trace for requests that never reach a worker (parse
  // errors, shed): the root span still exists, so TRACE answers.
  auto finish_request = [&]() {
    obs::RecordCompletedSpan(ctx, root_span_id, 0, "serve.request", "serve",
                             submitted_ns, NowNs() - submitted_ns);
    obs::TraceStore::Global().Finish(ctx.trace_id);
  };

  // Parse outside the registry lock: parse cost is per-query, and a
  // malformed query must come back as a Status, never take the engine
  // down.
  StatusOr<logic::Formula> sentence = [&]() {
    IPDB_OBS_SPAN("serve.parse", "serve");
    return logic::ParseSentence(query, inst->schema());
  }();
  if (!sentence.ok()) {
    tenant_state->errors.fetch_add(1, std::memory_order_relaxed);
    tenant_state->series->RecordServed(obs::MonotonicNowNs(), 0, /*ok=*/false,
                                       /*degraded=*/false);
    IPDB_OBS_COUNT("serve.parse_errors", 1);
    finish_request();
    return sentence.status();
  }

  // Admission: the tenant's own in-flight quota first (a noisy tenant
  // sheds before it pressures anyone else), then the engine-wide ladder.
  // Scoped into a lambda so the serve.admission span closes before the
  // task is posted (the posted task must parent under serve.request,
  // not under admission).
  bool degraded = false;
  Status admit = [&]() -> Status {
    IPDB_OBS_SPAN("serve.admission", "serve");
    const int64_t tenant_in_flight =
        tenant_state->in_flight.load(std::memory_order_relaxed);
    if (tenant_in_flight >= tenant_state->config.max_in_flight) {
      tenant_state->shed.fetch_add(1, std::memory_order_relaxed);
      tenant_state->series->RecordShed(obs::MonotonicNowNs());
      IPDB_OBS_COUNT("serve.shed", 1);
      IPDB_OBS_COUNT("serve.tenant_shed", 1);
      IPDB_OBS_COUNT_LABELED("serve.shed", "rung", kRungTenantQuota,
                             1);
      return IPDB_STATUS(StatusCode::kUnavailable)
             << "tenant '" << tenant << "' at its in-flight quota ("
             << tenant_state->config.max_in_flight << ")";
    }
    const Admission decision =
        admission_.Decide(in_flight_total_.load(std::memory_order_relaxed));
    if (decision == Admission::kShed) {
      tenant_state->shed.fetch_add(1, std::memory_order_relaxed);
      tenant_state->series->RecordShed(obs::MonotonicNowNs());
      IPDB_OBS_COUNT("serve.shed", 1);
      IPDB_OBS_COUNT_LABELED("serve.shed", "rung", kRungQueueDepth,
                             1);
      return IPDB_STATUS(StatusCode::kUnavailable)
             << "query service overloaded (queue depth "
             << in_flight_total_.load(std::memory_order_relaxed) << " >= "
             << admission_.options().max_queue_depth << ")";
    }
    degraded = decision == Admission::kDegraded;
    return Status::Ok();
  }();
  if (!admit.ok()) {
    finish_request();
    return admit;
  }
  if (degraded) {
    tenant_state->degraded.fetch_add(1, std::memory_order_relaxed);
    IPDB_OBS_COUNT("serve.degraded", 1);
  }

  tenant_state->admitted.fetch_add(1, std::memory_order_relaxed);
  tenant_state->in_flight.fetch_add(1, std::memory_order_relaxed);
  [[maybe_unused]] const int64_t depth =
      in_flight_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  IPDB_OBS_GAUGE_SET("serve.queue_depth", depth);
  IPDB_OBS_COUNT("serve.admitted", 1);

  std::string prepared_key;
  if (prepared) {
    prepared_key = tenant;
    prepared_key.push_back('\x1f');
    prepared_key.append(instance);
    prepared_key.push_back('\x1f');
    prepared_key.append(query);
  }

  auto pending = std::make_shared<PendingQuery>();
  pending->trace_id_ = ctx.trace_id;
  logic::Formula parsed = std::move(sentence.value());
  const int64_t admitted_ns = NowNs();
  // Post runs under trace_scope, so the pool captures ctx (span_id =
  // root) into the task closure and Execute inherits it on the worker.
  pool_->Post([this, tenant_state, inst, parsed, prepared_key, degraded,
               submitted_ns, admitted_ns, pending]() mutable {
    Execute(tenant_state, std::move(inst), std::move(parsed), prepared_key,
            degraded, submitted_ns, admitted_ns, std::move(pending));
  });
  return pending;
}

void Engine::Execute(TenantState* tenant,
                     std::shared_ptr<const pdb::TiPdb<double>> instance,
                     logic::Formula sentence, const std::string& prepared_key,
                     bool degraded, int64_t submitted_ns, int64_t admitted_ns,
                     std::shared_ptr<PendingQuery> pending) {
  // The request context travelled here through ThreadPool::Post;
  // ctx.span_id is the serve.request root allocated at submission.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  const uint64_t root_span_id = ctx.span_id;
  const int64_t started_ns = NowNs();
  // The queue wait happened before any worker could open a span for it;
  // synthesize it from the recorded timestamps.
  obs::RecordCompletedSpan(ctx, obs::NewSpanId(), root_span_id, "serve.queue",
                           "serve", admitted_ns, started_ns - admitted_ns,
                           /*depth=*/1);

  StatusOr<QueryResult> outcome(InternalError("query never executed"));
  {
    IPDB_OBS_SPAN("serve.execute", "serve");

    // Everything this query does to the shared artifact cache — probes,
    // compiles, residency — is charged to its tenant.
    kc::ScopedCacheOwner owner_scope(tenant->owner);

    ExecutionBudget budget;
    const pqe::QueryOptions options =
        ToQueryOptions(tenant->config, &budget, TimePointFromNs(admitted_ns),
                       degraded, &cancel_);

    if (!prepared_key.empty()) {
      StatusOr<std::shared_ptr<pqe::PreparedQuery>> handle =
          PreparedHandle(prepared_key, instance, sentence);
      if (!handle.ok()) {
        outcome = handle.status();
      } else {
        StatusOr<double> value = handle.value()->Query();
        if (!value.ok()) {
          outcome = value.status();
        } else {
          QueryResult result;
          result.answer.probability = value.value();
          result.answer.half_width = 0.0;
          result.answer.confidence = 1.0;
          result.answer.quality = pqe::AnswerQuality::kExact;
          result.answer.lifted = handle.value()->lifted();
          result.prepared = true;
          result.degraded = degraded;
          outcome = result;
        }
      }
    } else {
      StatusOr<pqe::QueryAnswer> answer =
          pqe::QueryProbability(*instance, sentence, options);
      if (!answer.ok()) {
        outcome = answer.status();
      } else {
        QueryResult result;
        result.answer = answer.value();
        result.degraded = degraded;
        outcome = result;
      }
    }
  }

  const int64_t finished_ns = NowNs();
  const int64_t latency_ns = finished_ns - admitted_ns;
  bool fell_back;
  if (outcome.ok()) {
    QueryResult& result = outcome.value();
    result.queue_ns = started_ns - admitted_ns;
    result.total_ns = latency_ns;
    result.trace_id = ctx.trace_id;
    fell_back = result.answer.quality != pqe::AnswerQuality::kExact;
    tenant->completed.fetch_add(1, std::memory_order_relaxed);
    IPDB_OBS_COUNT("serve.completed", 1);
    if (fell_back) IPDB_OBS_COUNT("serve.fallback_answers", 1);
  } else {
    // A budget trip with fallback disabled is still load pressure; any
    // other error (bad query, evaluation failure) says nothing about
    // load, so it stays out of the admission window.
    fell_back = IsBudgetError(outcome.status());
    tenant->errors.fetch_add(1, std::memory_order_relaxed);
    IPDB_OBS_COUNT("serve.errors", 1);
  }
  if (outcome.ok() || IsBudgetError(outcome.status())) {
    admission_.RecordOutcome(fell_back);
  }

  IPDB_OBS_OBSERVE("serve.queue_ns",
                   static_cast<double>(started_ns - admitted_ns));
  IPDB_OBS_OBSERVE("serve.latency_ns", static_cast<double>(latency_ns));
  // The labeled observation records the same value as the unlabeled
  // aggregate above, so summing the per-tenant histograms reproduces it
  // exactly (the zero-drift gate in ci.sh). Families live in their own
  // registry namespace, so the shared name does not collide.
  IPDB_OBS_OBSERVE_LABELED("serve.latency_ns", "tenant", tenant->label,
                           latency_ns);
  tenant->series->RecordServed(obs::MonotonicNowNs(), latency_ns,
                               outcome.ok(), degraded);

  tenant->in_flight.fetch_sub(1, std::memory_order_relaxed);
  [[maybe_unused]] const int64_t depth =
      in_flight_total_.fetch_sub(1, std::memory_order_relaxed) - 1;
  IPDB_OBS_GAUGE_SET("serve.queue_depth", depth);

  // Close the request: the serve.request root spans submission to
  // completion and parents everything this request did.
  obs::RecordCompletedSpan(ctx, root_span_id, 0, "serve.request", "serve",
                           submitted_ns, finished_ns - submitted_ns,
                           /*depth=*/0);
  obs::TraceStore::Global().Finish(ctx.trace_id);

  pending->Fulfill(std::move(outcome));
}

StatusOr<std::shared_ptr<pqe::PreparedQuery>> Engine::PreparedHandle(
    const std::string& key,
    const std::shared_ptr<const pdb::TiPdb<double>>& instance,
    const logic::Formula& sentence) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(key);
    if (it != prepared_.end()) return it->second;
  }
  // Cold path outside the lock: preparing can compile. Two racers may
  // both prepare; the loser's handle is discarded (both are correct —
  // the artifact cache already dedupes the circuit underneath).
  StatusOr<pqe::PreparedQuery> built =
      pqe::PreparedQuery::Prepare(instance->store(), sentence);
  if (!built.ok()) return built.status();
  auto handle =
      std::make_shared<pqe::PreparedQuery>(std::move(built.value()));
  std::lock_guard<std::mutex> lock(mu_);
  auto inserted = prepared_.emplace(key, handle);
  return inserted.first->second;
}

StatusOr<TenantUsage> Engine::Usage(const std::string& tenant) const {
  kc::CacheOwner owner = 0;
  TenantUsage usage;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      return InvalidArgumentError("unknown tenant '" + tenant + "'");
    }
    const TenantState& state = *it->second;
    owner = state.owner;
    usage.in_flight = state.in_flight.load(std::memory_order_relaxed);
    usage.admitted = state.admitted.load(std::memory_order_relaxed);
    usage.degraded = state.degraded.load(std::memory_order_relaxed);
    usage.shed = state.shed.load(std::memory_order_relaxed);
    usage.completed = state.completed.load(std::memory_order_relaxed);
    usage.errors = state.errors.load(std::memory_order_relaxed);
  }
  usage.cache = kc::GlobalCompiledQueryCache().OwnerStats(owner);
  return usage;
}

Status Engine::Stop() {
  IPDB_OBS_SPAN("serve.shutdown", "serve");
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::Ok();
  }
  // Drain, don't drop: cancel makes in-flight exact work trip its
  // budget (queries with fallback degrade to clean answers; the rest
  // unwind as kCancelled), then the pool runs the queue dry.
  cancel_.Cancel();
  pool_->DrainTasks();
  IPDB_OBS_GAUGE_SET("serve.queue_depth", 0);
  // An injected fault here models a crash between drain and the final
  // flush: the engine is quiesced and Stop may be retried.
  IPDB_FAULT_POINT("server.shutdown");
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return Status::Ok();
  stopped_ = true;
  IPDB_OBS_COUNT("serve.shutdowns", 1);
  final_metrics_json_ = obs::GlobalMetrics().Snapshot().ToJson();
  return Status::Ok();
}

std::string Engine::final_metrics_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return final_metrics_json_;
}

std::string Engine::MetricsJson() {
  return obs::GlobalMetrics().Snapshot().ToJson();
}

std::string Engine::StatsJson() const { return stats_.ReportJson(NowNs()); }

StatusOr<std::string> Engine::TraceJson(uint64_t trace_id) const {
  std::string json = obs::TraceStore::Global().TreeJson(trace_id);
  if (json.empty()) {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "unknown trace id " << trace_id
           << " (not sampled, or evicted from the bounded store)";
  }
  return json;
}

}  // namespace server
}  // namespace ipdb
