#include "serve.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "kc/cache.h"
#include "layers.h"
#include "logic/parser.h"
#include "pqe/safe_plan.h"
#include "server/engine.h"
#include "server/tenant.h"

namespace perfbench {
namespace {

using ipdb::Status;
using ipdb::StatusOr;
using ipdb::pdb::TiPdb;

/// Operations per measured second a pass has room for: far above what
/// the workloads reach, so a faster library is measured for the whole
/// run.
constexpr int64_t kMaxRate = 8000;
/// Share of a traced run's time given to its untraced reference pass.
constexpr double kReferenceShare = 0.3;
constexpr char kInstance[] = "bench";
/// One tenant per client.
const char* const kTenants[] = {"tenant0", "tenant1"};

/// One served operation, written only by the client that ran it. Trivial,
/// so a pass can allocate its records without touching them: only the
/// pages of operations that ran become resident and count in peak_rss_mb.
struct Served {
  int64_t latency_ns;
  int64_t queue_ns;
  int64_t total_ns;
  double answer;
  int op_class;
  bool submitted;        // neither shed nor rejected
  bool ok;               // an exact answer came back
  bool replay_mismatch;  // traced: the replay differs from the answer
};

struct Setup {
  std::unique_ptr<ipdb::server::Engine> engine;
  /// The traced run's copy of the registered instance, for the replay.
  std::unique_ptr<TiPdb<double>> replica;
  std::vector<ipdb::rel::Value> sorted_domain;
};

/// Tears a set-up down and empties the artifact cache, so set-ups never
/// overlap in memory and each starts from an empty cache. Runs outside the
/// set-up clock.
void Teardown(Setup* setup) {
  *setup = Setup{};
  malloc_trim(0);
  ipdb::kc::GlobalCompiledQueryCache().Clear();
}

/// Builds a fresh engine (one worker per client) into a torn-down `setup`,
/// with the instance registered, the clients' tenants and a served
/// warm-up. `bytes_per_fact`, when set, receives the resident growth over
/// the instance build per fact.
Status BuildSetup(const ServeSpec& spec, bool keep_replica,
                  SpanRecorder* spans, Setup* setup, double* bytes_per_fact) {
  ipdb::server::EngineOptions engine_options;
  engine_options.threads = spec.clients;
  setup->engine = std::make_unique<ipdb::server::Engine>(engine_options);
  const int64_t rss_before = CurrentRssBytes();
  StatusOr<TiPdb<double>> instance = spec.build(spans);
  if (!instance.ok()) return instance.status();
  if (bytes_per_fact != nullptr) {
    *bytes_per_fact = static_cast<double>(CurrentRssBytes() - rss_before) /
                      static_cast<double>(instance.value().num_facts());
  }
  if (keep_replica) {
    setup->replica = std::make_unique<TiPdb<double>>(instance.value());
    setup->sorted_domain = instance.value().store()->SortedDomain();
  }
  IPDB_RETURN_IF_ERROR(
      setup->engine->RegisterInstance(kInstance, std::move(instance).value()));
  for (int c = 0; c < spec.clients; ++c) {
    IPDB_RETURN_IF_ERROR(setup->engine->RegisterTenant(
        kTenants[c], ipdb::server::TenantConfig{}));
  }
  // Alternate tenants so each owns an equal share of the warm artifacts:
  // the cache's fair-share eviction then only ever evicts one-off entries.
  for (size_t i = 0; i < spec.warmup.size(); ++i) {
    StatusOr<ipdb::server::QueryResult> result = setup->engine->Query(
        kTenants[i % spec.clients], kInstance, spec.warmup[i]);
    if (!result.ok()) return result.status();
    if (result.value().answer.quality != ipdb::pqe::AnswerQuality::kExact) {
      return ipdb::InternalError("warm-up answer is not exact: " +
                                 spec.warmup[i]);
    }
  }
  return Status::Ok();
}

/// Replays one served query through the layers in the order
/// pqe::QueryProbability calls them, one span per call. `sentence`
/// receives the parsed query; `grounded` whether the circuit rung ran.
StatusOr<double> Replay(const std::string& text, const TiPdb<double>& ti,
                        ipdb::kc::CompiledQueryCache* cache,
                        SpanRecorder* spans, int64_t op,
                        ipdb::logic::Formula* sentence, bool* grounded,
                        ReplayCounts* counts) {
  ScopedSpan replay(spans, "replay", op);
  *grounded = false;
  StatusOr<ipdb::logic::Formula> parsed = [&] {
    ScopedSpan span(spans, "logic.parse", op);
    return ipdb::logic::ParseSentence(text, ti.schema());
  }();
  if (!parsed.ok()) return parsed.status();
  *sentence = parsed.value();
  StatusOr<ipdb::pqe::LiftedPlan> plan = [&] {
    ScopedSpan span(spans, "pqe.plan", op);
    return ipdb::pqe::LiftedPlan::Compile(*sentence);
  }();
  if (plan.ok()) {
    ScopedSpan span(spans, "pqe.lifted", op);
    return plan.value().Evaluate(ti, ipdb::pqe::LiftedOptions{});
  }
  if (plan.status().code() != ipdb::StatusCode::kFailedPrecondition) {
    return plan.status();
  }
  *grounded = true;
  return ReplayCircuit(
      *ti.store(), *sentence,
      [&ti](std::vector<double>* probs) {
        probs->reserve(ti.facts().size());
        for (const auto& [fact, marginal] : ti.facts()) {
          probs->push_back(marginal);
        }
      },
      cache, spans, op, counts, nullptr);
}

struct Pass {
  int64_t ops = 0;
  double wall_s = 0;
  /// One record per operation the pass had room for; the first `ops` are
  /// written.
  std::unique_ptr<Served[]> records;
  std::vector<SpanRecorder> spans;   // traced: one per client
  std::vector<ReplayCounts> counts;  // traced: one per client
  /// Global artifact-cache traffic over the pass.
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t replay_evictions = 0;
  /// When each block's first operation was taken, then the pass's end
  /// (see BlockRate).
  std::vector<int64_t> block_ns;

  std::span<const Served> served() const {
    return {records.get(), static_cast<size_t>(ops)};
  }
};

/// Runs operations 0, 1, ... of the stream from the spec's closed-loop
/// clients: for `seconds` and then to the end of the current block (at
/// most `capacity` operations), or exactly `fixed_ops` operations. A
/// non-null `replay_cache` makes the pass traced: every operation is timed
/// in spans and replayed.
Pass RunPass(const ServeSpec& spec, int64_t capacity, const Setup& setup,
             double seconds, int64_t fixed_ops,
             ipdb::kc::CompiledQueryCache* replay_cache) {
  Pass pass;
  const bool traced = replay_cache != nullptr;
  // Allocated before the clock starts but not touched: a record's page
  // becomes resident when its operation runs.
  pass.records = std::make_unique_for_overwrite<Served[]>(
      static_cast<size_t>(fixed_ops >= 0 ? fixed_ops : capacity));
  if (traced) {
    pass.spans.resize(spec.clients);
    pass.counts.resize(spec.clients);
  }
  ipdb::kc::CompiledQueryCache& cache = ipdb::kc::GlobalCompiledQueryCache();
  const int64_t hits0 = cache.hits();
  const int64_t misses0 = cache.misses();
  const int64_t evictions0 = cache.evictions();
  const int64_t replay_evictions0 = traced ? replay_cache->evictions() : 0;

  // Operation indices are handed out under a lock so that the stop point
  // (the first block boundary after the deadline) is exact: every index
  // below it runs once, none above it runs at all.
  std::mutex take_mu;
  int64_t next = 0;
  int64_t stop_at =
      fixed_ops >= 0 ? fixed_ops : capacity / spec.block * spec.block;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  auto take = [&]() -> int64_t {
    std::lock_guard<std::mutex> lock(take_mu);
    const int64_t now = NowNs();
    if (fixed_ops < 0 && now >= deadline) {
      stop_at = std::min(stop_at, (next + spec.block - 1) / spec.block *
                                      spec.block);
    }
    if (next >= stop_at) return -1;
    if (next % spec.block == 0) pass.block_ns.push_back(now);
    return next++;
  };

  auto client = [&](int c) {
    SpanRecorder* spans = traced ? &pass.spans[c] : nullptr;
    for (int64_t i = take(); i >= 0; i = take()) {
      // Made from the seed before the operation's clock starts.
      const ServeOp op = spec.make_op(i);
      Served& out = pass.records[static_cast<size_t>(i)];
      out = Served{};
      out.op_class = op.op_class;
      ScopedSpan op_span(spans, "op", i);
      const int64_t begin = NowNs();
      StatusOr<std::shared_ptr<ipdb::server::PendingQuery>> pending = [&] {
        ScopedSpan span(spans, "server.submit", i);
        return setup.engine->Submit(kTenants[c], kInstance, op.text);
      }();
      if (!pending.ok()) {
        out.latency_ns = NowNs() - begin;
        continue;
      }
      out.submitted = true;
      const StatusOr<ipdb::server::QueryResult>* result = nullptr;
      {
        ScopedSpan span(spans, "server.wait", i);
        result = &pending.value()->Wait();
      }
      out.latency_ns = NowNs() - begin;
      if (!result->ok() || result->value().answer.quality !=
                               ipdb::pqe::AnswerQuality::kExact) {
        continue;
      }
      out.ok = true;
      out.answer = result->value().answer.probability;
      out.queue_ns = result->value().queue_ns;
      out.total_ns = result->value().total_ns;
      if (!traced) continue;
      ipdb::logic::Formula sentence;
      bool grounded = false;
      StatusOr<double> replayed =
          Replay(op.text, *setup.replica, replay_cache, spans, i, &sentence,
                 &grounded, &pass.counts[c]);
      out.replay_mismatch = !replayed.ok() || replayed.value() != out.answer;
      if (grounded) {
        pass.counts[c].domain_values.push_back(
            DomainValues(setup.sorted_domain, sentence));
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& thread : threads) thread.join();

  pass.block_ns.push_back(NowNs());
  pass.wall_s = static_cast<double>(pass.block_ns.back() - start) * 1e-9;
  pass.ops = stop_at;
  pass.hits = cache.hits() - hits0;
  pass.misses = cache.misses() - misses0;
  pass.evictions = cache.evictions() - evictions0;
  if (traced) pass.replay_evictions = replay_cache->evictions() - replay_evictions0;
  return pass;
}

/// Checks every answer of a pass against the oracle; returns the failed
/// operations (shed, error, non-exact, oracle mismatch or, traced, replay
/// mismatch) and reports the first few.
int64_t Verify(const ServeSpec& spec, const Pass& pass, Result* result) {
  std::unordered_map<std::string, double> oracle;
  int64_t failed = 0;
  for (int64_t i = 0; i < pass.ops; ++i) {
    const Served& served = pass.served()[static_cast<size_t>(i)];
    const std::string text = spec.make_op(i).text;
    std::string why;
    if (!served.ok) {
      why = served.submitted ? "error or non-exact answer" : "shed or rejected";
    } else {
      auto it = oracle.find(text);
      if (it == oracle.end()) it = oracle.emplace(text, spec.expected(i)).first;
      if (!Agrees(served.answer, it->second)) {
        char buffer[96];
        std::snprintf(buffer, sizeof buffer, "answer %.17g, oracle %.17g",
                      served.answer, it->second);
        why = buffer;
      } else if (served.replay_mismatch) {
        why = "replay differs from the served answer";
      }
    }
    if (why.empty()) continue;
    if (++failed <= 3) {
      result->report.push_back("FAILED op " + std::to_string(i) + " (" + why +
                               "): " + text);
    }
  }
  return failed;
}

std::vector<double> LatenciesMs(const Pass& pass) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(pass.ops));
  for (const Served& served : pass.served()) {
    ms.push_back(served.latency_ns * 1e-6);
  }
  return ms;
}

void ReportPass(const ServeSpec& spec, const Pass& pass,
                const std::string& label, Result* result) {
  std::vector<std::vector<double>> by_class(spec.classes.size());
  for (const Served& served : pass.served()) {
    by_class[static_cast<size_t>(served.op_class)].push_back(
        served.latency_ns * 1e-6);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "%s pass: ops=%lld wall=%.3f s mean rate=%.2f /s "
                "samples_beyond_p99=%lld cache hits=%lld misses=%lld "
                "evictions=%lld",
                label.c_str(), static_cast<long long>(pass.ops), pass.wall_s,
                static_cast<double>(pass.ops) / pass.wall_s,
                static_cast<long long>(SamplesBeyond(pass.ops, 0.99)),
                static_cast<long long>(pass.hits),
                static_cast<long long>(pass.misses),
                static_cast<long long>(pass.evictions));
  result->report.push_back(line);
  for (size_t c = 0; c < spec.classes.size(); ++c) {
    result->report.push_back(ClassLine(spec.classes[c], by_class[c]));
  }
}

double HitRatio(int64_t hits, int64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

}  // namespace

StatusOr<TiPdb<double>> FinishInstance(ipdb::storage::TiStore::Builder* builder,
                                       SpanRecorder* spans) {
  StatusOr<std::shared_ptr<ipdb::storage::TiStore>> store = [&] {
    ScopedSpan span(spans, "storage.finish", -1);
    return builder->Finish();
  }();
  if (!store.ok()) return store.status();
  ScopedSpan span(spans, "storage.from_store", -1);
  return TiPdb<double>::FromStore(std::move(store).value());
}

Result RunServe(const ServeSpec& spec, const Options& options) {
  Result result;
  result.meta["clients"] = std::to_string(spec.clients);
  result.meta["workers"] = std::to_string(spec.clients);
  result.meta["setups_per_run"] = std::to_string(spec.setups);
  result.meta["artifact_cache_capacity"] =
      std::to_string(ipdb::kc::GlobalCompiledQueryCache().capacity());

  // Room for up to kMaxRate operations per measured second.
  const int64_t capacity =
      (static_cast<int64_t>(options.seconds * kMaxRate) / spec.block + 2) *
      spec.block;

  Setup setup;
  SpanRecorder setup_spans;
  std::vector<double> setup_s;
  double bytes_per_fact = 0;
  for (int s = 0; s < spec.setups; ++s) {
    Teardown(&setup);
    // Set-ups rotate over the CPUs, except the last: the measured pass runs
    // on it, and its workers would inherit the pin.
    std::optional<ScopedCpuPin> pin;
    if (s + 1 < spec.setups) pin.emplace(s);
    const int64_t begin = NowNs();
    Status status =
        BuildSetup(spec, options.trace, options.trace ? &setup_spans : nullptr,
                   &setup, s == 0 ? &bytes_per_fact : nullptr);
    if (!status.ok()) {
      result.checks_ok = false;
      result.report.push_back("set-up failed: " + status.ToString());
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - begin) * 1e-9);
  }
  result.report.push_back(SetupLine(setup_s));

  if (!options.trace) {
    const Pass pass =
        RunPass(spec, capacity, setup, options.seconds, -1, nullptr);
    result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    result.attempted = pass.ops;
    result.failed = Verify(spec, pass, &result);
    ReportPass(spec, pass, "measured", &result);
    RequireTail(pass.ops, &result);
    result.report.push_back(
        "kc.hit_ratio (untraced) = " +
        Num(HitRatio(pass.hits, pass.misses)));
    result.metrics["qps"] = {BlockRate(pass.block_ns, spec.block), "1/s"};
    const std::vector<double> ms = LatenciesMs(pass);
    result.metrics["p50_ms"] = {Percentile(ms, 0.5), "ms"};
    result.metrics["p99_ms"] = {Percentile(ms, 0.99), "ms"};
    result.metrics["setup_s"] = {Median(setup_s), "s"};
  } else {
    // An untraced reference pass fixes the operation count and gives the
    // untraced p50 and hit ratio; the traced pass then re-runs exactly
    // those operations on a fresh set-up, so the replay sees the same
    // cache history as the served queries.
    const Pass reference = RunPass(
        spec, capacity, setup, options.seconds * kReferenceShare, -1, nullptr);
    result.failed += Verify(spec, reference, &result);
    ReportPass(spec, reference, "untraced reference", &result);

    Teardown(&setup);
    Status status = BuildSetup(spec, true, nullptr, &setup, nullptr);
    if (!status.ok()) {
      result.checks_ok = false;
      result.report.push_back("set-up failed: " + status.ToString());
      return result;
    }
    ipdb::kc::CompiledQueryCache replay_cache(
        ipdb::kc::GlobalCompiledQueryCache().capacity());
    ReplayCounts warm_counts;
    for (const std::string& text : spec.warmup) {
      ipdb::logic::Formula sentence;
      bool grounded = false;
      StatusOr<double> warmed = Replay(text, *setup.replica, &replay_cache,
                                       nullptr, -1, &sentence, &grounded,
                                       &warm_counts);
      if (!warmed.ok()) {
        result.checks_ok = false;
        result.report.push_back("replay warm-up failed: " +
                                warmed.status().ToString());
        return result;
      }
    }
    const Pass traced =
        RunPass(spec, capacity, setup, 0, reference.ops, &replay_cache);
    result.attempted = reference.ops + traced.ops;
    result.failed += Verify(spec, traced, &result);
    ReportPass(spec, traced, "traced", &result);

    std::vector<const SpanRecorder*> recorders;
    for (const SpanRecorder& spans : traced.spans) recorders.push_back(&spans);
    const SpanSummary summary = Summarize(recorders, "replay");
    ReplayCounts counts;
    std::vector<double> queue_us;
    std::vector<double> handoff_us;
    int64_t server_failed = 0;
    for (const ReplayCounts& part : traced.counts) {
      counts.lineage_nodes.insert(counts.lineage_nodes.end(),
                                  part.lineage_nodes.begin(),
                                  part.lineage_nodes.end());
      counts.domain_values.insert(counts.domain_values.end(),
                                  part.domain_values.begin(),
                                  part.domain_values.end());
      counts.circuit_nodes.insert(counts.circuit_nodes.end(),
                                  part.circuit_nodes.begin(),
                                  part.circuit_nodes.end());
      counts.probes += part.probes;
      counts.hits += part.hits;
    }
    for (const Served& served : traced.served()) {
      if (!served.submitted || !served.ok) ++server_failed;
      if (!served.ok) continue;
      queue_us.push_back(served.queue_ns * 1e-3);
      handoff_us.push_back((served.latency_ns - served.total_ns) * 1e-3);
    }
    PutMedianSelf(summary, "server.submit", "server.submit_us", 1e3, "us",
                  &result);
    result.metrics["server.queue_us"] = {Median(queue_us), "us"};
    result.metrics["server.handoff_us"] = {Median(handoff_us), "us"};
    result.metrics["server.failed"] = {static_cast<double>(server_failed),
                                       "count"};
    PutMedianSelf(summary, "logic.parse", "logic.parse_us", 1e3, "us", &result);
    PutMedianSelf(summary, "pqe.plan", "pqe.plan_us", 1e3, "us", &result);
    PutMedianSelf(summary, "pqe.lifted", "pqe.lifted_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "pqe.ground", "pqe.ground_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "kc.fingerprint", "kc.fingerprint_us", 1e3, "us",
                  &result);
    PutMedianSelf(summary, "kc.probe", "kc.probe_us", 1e3, "us", &result);
    PutMedianSelf(summary, "kc.compile", "kc.compile_ms", 1e6, "ms", &result);
    PutMedianSelf(summary, "kc.evaluate", "kc.evaluate_us", 1e3, "us",
                  &result);
    PutReplayCounts(counts, &result);
    if (counts.probes > 0) {
      result.metrics["pqe.ground_share"] = {
          summary.layers.at("pqe.ground").total_self_ns /
              summary.layers.at("replay").total_ns,
          "ratio"};
      result.metrics["kc.evictions"] = {
          static_cast<double>(traced.replay_evictions), "count"};
      // The replay must hit and miss exactly as the served queries did.
      const double served_ratio = HitRatio(reference.hits, reference.misses);
      const double replay_ratio = result.metrics["kc.hit_ratio"].value;
      result.report.push_back(
          "kc.hit_ratio untraced=" + Num(served_ratio) +
          " traced(replay)=" + Num(replay_ratio) + " traced(served)=" +
          Num(HitRatio(traced.hits, traced.misses)) +
          " evictions served=" + std::to_string(traced.evictions) +
          " replay=" + std::to_string(traced.replay_evictions));
      if (served_ratio != replay_ratio) {
        result.checks_ok = false;
        result.report.push_back("CHECK FAILED: replay hit ratio differs");
      }
    }
    // storage.build_s: Finish + FromStore of each set-up, median.
    const SpanSummary setup_summary = Summarize({&setup_spans}, "");
    const auto& finish = setup_summary.layers.at("storage.finish");
    const auto& from_store = setup_summary.layers.at("storage.from_store");
    std::vector<double> build_s;
    for (size_t s = 0; s < finish.self_ns_per_call.size(); ++s) {
      build_s.push_back(
          (finish.self_ns_per_call[s] + from_store.self_ns_per_call[s]) * 1e-9);
    }
    result.metrics["storage.build_s"] = {Median(build_s), "s"};
    result.metrics["storage.bytes_per_fact"] = {bytes_per_fact, "B/fact"};

    ReportLayers(summary, "op", &result);
    const double untraced_p50 = Percentile(LatenciesMs(reference), 0.5);
    const double traced_p50 = Percentile(LatenciesMs(traced), 0.5);
    result.report.push_back(
        "tracing overhead: p50 untraced=" + Num(untraced_p50) +
        " ms traced=" + Num(traced_p50) + " ms (" +
        Num((traced_p50 / untraced_p50 - 1) * 100) + " %)");
    const std::string span_file = options.work_dir + "/spans-" + spec.name +
                                  "-" + std::to_string(options.seed) +
                                  ".jsonl";
    result.report.push_back(WriteSpanFile(span_file, recorders)
                                ? "span file: " + span_file
                                : "span file not written: " + span_file);
  }

  Status accounting = ipdb::kc::GlobalCompiledQueryCache().CheckAccounting();
  result.report.push_back("artifact cache accounting: " +
                          accounting.ToString());
  if (!accounting.ok()) result.checks_ok = false;
  return result;
}

}  // namespace perfbench
