// Closed-loop (and open-arrival) load harness for the embedded query
// service — the gate for the serving PR. Drives a multi-tenant Engine
// with concurrent clients and reports, per load point:
//
//   * p50/p99 client-observed latency and sustained throughput,
//   * shed rate (kUnavailable admissions / offered load),
//   * degraded-admission and fallback-answer rates,
//   * the per-tenant artifact-cache hit breakdown, and
//   * accounting_drift: 0 iff the shared cache's per-tenant accounting
//     still partitions the resident set exactly after the run.
//
// Modes:
//   closed/N — N clients, each issuing the mixed workload synchronously
//              (a client's next request waits for its previous answer);
//              offered load adapts to service capacity, so shed_rate
//              stays ~0 and the row measures latency under concurrency.
//   open/overload — submissions arrive on a fixed schedule faster than
//              service capacity (no waiting), so the admission ladder
//              must shed; the row measures graceful degradation.
//
// Rows merge into BENCH_serve.json (ipdb-bench-v1, suite serve_bench):
//   {"suite": "serve_bench", "op": "closed/16", "ns_per_op": <mean>,
//    "iterations": <completed>, "counters": {"p50_ms": ..,
//    "p99_ms": .., "qps": .., "shed_rate": .., "degraded_rate": ..,
//    "fallback_rate": .., "lifted_rate": .., "cache_hits": ..,
//    "cache_misses": .., "prepared_hits": .., "prepared_entries": ..,
//    "accounting_drift": 0, "slo_breaching": .., "label_drift": 0},
//    "host": {..}}
//
// prepared_hits counts the row's submissions whose text found its
// tenant's prepared query (no parse, no compile); prepared_entries is the
// tenants' prepared-query residency after the row.
//
// slo_breaching counts tenants whose STATS burn-rate state reads
// "breaching" right after the row (the overload tenant carries an
// availability SLO, so the open/overload row must flip it); label_drift
// is |aggregate serve.latency_ns count - sum of per-tenant labeled
// counts| and must stay 0.
//
// A final daemon/roundtrip row drives the line protocol over loopback
// (QUERY -> TRACE <id> -> STATS) and reports queries_ok / trace_trees /
// stats_ok, or daemon_skipped=1 in sandboxes without sockets.
//
// Flags: --bench_json_out=PATH (default BENCH_serve.json),
//        --quick (CI-sized run), --clients_max=N (cap the closed rows),
//        --trace-out PATH (span tracing + Chrome-trace export; the CI
//        connectivity gate reassembles per-request span trees from it).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "kc/cache.h"
#include "pdb/ti_pdb.h"
#include "server/daemon.h"
#include "server/engine.h"
#include "server/tenant.h"
#include "util/status.h"

namespace ipdb {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

/// The served instance: R(x), S(x, y), T(y) with a few hub constants.
pdb::TiPdbD BuildInstance(int hubs) {
  rel::Schema schema({{"R", 1}, {"S", 2}, {"T", 1}});
  pdb::TiPdbD::FactList facts;
  for (int i = 0; i < hubs; ++i) {
    facts.emplace_back(rel::Fact(0, {rel::Value::Int(i)}),
                       0.25 + 0.03 * (i % 9));
    for (int j = 0; j < 3; ++j) {
      facts.emplace_back(
          rel::Fact(1, {rel::Value::Int(i), rel::Value::Int(j)}),
          0.15 + 0.02 * ((i + j) % 11));
    }
  }
  for (int j = 0; j < 3; ++j) {
    facts.emplace_back(rel::Fact(2, {rel::Value::Int(j)}),
                       0.3 + 0.1 * j);
  }
  return pdb::TiPdbD::CreateOrDie(schema, facts);
}

/// The mixed workload: a cheap lifted query, repeated unsafe queries
/// (cache hits after the first compile), and per-constant variants that
/// churn distinct artifacts through the shared cache.
std::vector<std::string> Workload() {
  std::vector<std::string> queries = {
      "exists x y. R(x) & S(x, y)",                     // lifted, exact
      "exists x y. R(x) & S(x, y) & T(y)",              // circuit, cached
      "exists x. R(x) & S(x, 0) & S(x, 1)",             // self-join: circuit
      "exists x y. R(x) & S(x, y) & T(y) & S(x, 2)",    // self-join: circuit
      "exists x y. S(x, y) & T(y)",                     // lifted, exact
  };
  return queries;
}

struct LoadPoint {
  std::string op;
  int64_t offered = 0;    // submissions attempted
  int64_t completed = 0;  // OK results
  int64_t shed = 0;       // kUnavailable at admission
  int64_t errors = 0;     // non-shed failures (should stay 0)
  int64_t degraded = 0;   // admitted on the sample-only rung
  int64_t fallback = 0;   // answers below kExact
  int64_t lifted = 0;     // answers from the safe-plan rung
  int64_t prepared_hits = 0;  // submissions answered by a prepared query
  std::vector<int64_t> latencies_ns;
  int64_t wall_ns = 1;
};

const char* const kTenants[] = {"alpha", "beta", "gamma"};

/// Prepared-query hits and resident handles summed over the tenants.
std::pair<int64_t, int64_t> PreparedTotals(const server::Engine& engine) {
  int64_t hits = 0;
  int64_t entries = 0;
  for (const char* tenant : kTenants) {
    const server::TenantUsage usage = engine.Usage(tenant).value();
    hits += usage.prepared_hits;
    entries += usage.prepared_entries;
  }
  return {hits, entries};
}

double PercentileMs(std::vector<int64_t>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(latencies->size() - 1) + 0.5);
  return static_cast<double>((*latencies)[index]) * 1e-6;
}

void Tally(const StatusOr<server::QueryResult>& result, LoadPoint* point,
           std::mutex* mu) {
  std::lock_guard<std::mutex> lock(*mu);
  if (result.ok()) {
    ++point->completed;
    point->latencies_ns.push_back(result.value().total_ns);
    if (result.value().degraded) ++point->degraded;
    if (result.value().answer.quality != pqe::AnswerQuality::kExact) {
      ++point->fallback;
    }
    if (result.value().answer.lifted) ++point->lifted;
  } else if (result.status().code() == StatusCode::kUnavailable) {
    ++point->shed;
  } else {
    ++point->errors;
  }
}

/// closed/N: each client waits for its own previous answer.
LoadPoint RunClosed(server::Engine* engine, int clients, int per_client) {
  LoadPoint point;
  point.op = "closed/" + std::to_string(clients);
  const std::vector<std::string> queries = Workload();
  std::mutex mu;
  const int64_t prepared_before = PreparedTotals(*engine).first;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string tenant = (c % 2 == 0) ? "alpha" : "beta";
      for (int i = 0; i < per_client; ++i) {
        const std::string& query =
            queries[static_cast<size_t>(c + i) % queries.size()];
        StatusOr<server::QueryResult> result =
            engine->Query(tenant, "db", query);
        Tally(result, &point, &mu);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  point.offered = static_cast<int64_t>(clients) * per_client;
  point.wall_ns = std::max<int64_t>(1, ElapsedNs(start));
  point.prepared_hits = PreparedTotals(*engine).first - prepared_before;
  return point;
}

/// open/overload: a fixed arrival schedule that outruns capacity — the
/// submitter never waits for completions, so the ladder must shed.
LoadPoint RunOpenOverload(server::Engine* engine, int submissions) {
  LoadPoint point;
  point.op = "open/overload";
  std::mutex mu;
  const int64_t prepared_before = PreparedTotals(*engine).first;
  const Clock::time_point start = Clock::now();
  std::vector<std::shared_ptr<server::PendingQuery>> pendings;
  pendings.reserve(static_cast<size_t>(submissions));
  // The overload tenant's compile rung is capped, and no tenant ever
  // compiled its query (a resident circuit would answer past the cap,
  // from the tenant's prepared query in microseconds), so every admitted
  // query grounds, trips the cap and Monte Carlos for a while: arrivals
  // outpace service by construction, whatever the host's core count.
  for (int i = 0; i < submissions; ++i) {
    StatusOr<std::shared_ptr<server::PendingQuery>> pending = engine->Submit(
        "gamma", "db", "exists x y. R(x) & S(x, y) & !T(y)");
    if (pending.ok()) {
      pendings.push_back(pending.value());
    } else {
      Tally(pending.status(), &point, &mu);
    }
  }
  for (const auto& pending : pendings) {
    Tally(pending->Wait(), &point, &mu);
  }
  point.offered = submissions;
  point.wall_ns = std::max<int64_t>(1, ElapsedNs(start));
  point.prepared_hits = PreparedTotals(*engine).first - prepared_before;
  return point;
}

/// Number of tenants whose STATS burn-rate state currently reads
/// "breaching" (substring scan; the report nests exactly one state per
/// tenant under "slo").
double SloBreachingTenants(const server::Engine& engine) {
  const std::string stats = engine.StatsJson();
  const std::string needle = "\"state\": \"breaching\"";
  double breaching = 0.0;
  for (size_t pos = stats.find(needle); pos != std::string::npos;
       pos = stats.find(needle, pos + needle.size())) {
    breaching += 1.0;
  }
  return breaching;
}

/// |aggregate serve.latency_ns observations - sum over the per-tenant
/// labeled family|. The engine records both adjacently, so any nonzero
/// value means the labeled pipeline lost or double-counted a request.
double LatencyLabelDrift() {
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Snapshot();
  int64_t labeled = 0;
  for (const auto& cell : snapshot.histogram_families) {
    if (cell.name == "serve.latency_ns" && cell.label_key == "tenant") {
      labeled += cell.stats.count;
    }
  }
  const obs::HistogramStats* aggregate =
      snapshot.FindHistogram("serve.latency_ns");
  const int64_t total = aggregate == nullptr ? 0 : aggregate->count;
  return static_cast<double>(total > labeled ? total - labeled
                                             : labeled - total);
}

std::string RowFor(server::Engine* engine, LoadPoint point) {
  const double completed = static_cast<double>(point.completed);
  const double offered =
      std::max<double>(1.0, static_cast<double>(point.offered));
  const double mean_ns =
      point.latencies_ns.empty()
          ? 0.0
          : [&] {
              double sum = 0.0;
              for (int64_t ns : point.latencies_ns) {
                sum += static_cast<double>(ns);
              }
              return sum / completed;
            }();
  const double p50 = PercentileMs(&point.latencies_ns, 0.50);
  const double p99 = PercentileMs(&point.latencies_ns, 0.99);
  const double qps = completed * 1e9 / static_cast<double>(point.wall_ns);

  server::TenantUsage alpha = engine->Usage("alpha").value();
  server::TenantUsage beta = engine->Usage("beta").value();
  server::TenantUsage gamma = engine->Usage("gamma").value();
  const double cache_hits = static_cast<double>(
      alpha.cache.hits + beta.cache.hits + gamma.cache.hits);
  const double cache_misses = static_cast<double>(
      alpha.cache.misses + beta.cache.misses + gamma.cache.misses);
  const double drift =
      kc::GlobalCompiledQueryCache().CheckAccounting().ok() ? 0.0 : 1.0;

  std::fprintf(stderr,
               "%-14s offered=%6lld completed=%6lld shed=%5lld "
               "p50=%8.3fms p99=%8.3fms qps=%9.1f shed_rate=%.3f\n",
               point.op.c_str(), static_cast<long long>(point.offered),
               static_cast<long long>(point.completed),
               static_cast<long long>(point.shed), p50, p99, qps,
               static_cast<double>(point.shed) / offered);

  return bench_json::ResultLine(
      "serve_bench", point.op, mean_ns, point.completed,
      {{"p50_ms", p50},
       {"p99_ms", p99},
       {"qps", qps},
       {"shed_rate", static_cast<double>(point.shed) / offered},
       {"error_rate", static_cast<double>(point.errors) / offered},
       {"degraded_rate", completed > 0 ? point.degraded / completed : 0.0},
       {"fallback_rate", completed > 0 ? point.fallback / completed : 0.0},
       {"lifted_rate", completed > 0 ? point.lifted / completed : 0.0},
       {"cache_hits", cache_hits},
       {"cache_misses", cache_misses},
       {"prepared_hits", static_cast<double>(point.prepared_hits)},
       {"prepared_entries",
        static_cast<double>(PreparedTotals(*engine).second)},
       {"accounting_drift", drift},
       {"slo_breaching", SloBreachingTenants(*engine)},
       {"label_drift", LatencyLabelDrift()}});
}

/// Minimal blocking loopback client for the daemon leg (same framing as
/// the daemon: one request line, one response line).
class LineClient {
 public:
  explicit LineClient(int port) {
    // Clients race the daemon's accept loop at startup: a connect that
    // lands before listen() is serving (or while the backlog drains)
    // fails transiently with ECONNREFUSED/ECONNRESET. Retry with capped
    // exponential backoff instead of failing the whole run.
    constexpr int kMaxAttempts = 8;
    int backoff_us = 1000;  // 1ms, doubling to a 100ms cap
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) return;
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(port));
      int rc;
      do {
        rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) return;
      const bool transient = errno == ECONNREFUSED || errno == ECONNRESET;
      ::close(fd_);
      fd_ = -1;
      if (!transient || attempt + 1 == kMaxAttempts) return;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min(backoff_us * 2, 100000);
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  std::string RoundTrip(const std::string& request) {
    std::string framed = request + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t newline = buffer_.find('\n');
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// daemon/roundtrip: the line protocol end to end — QUERY returns a
/// trace id, TRACE <id> returns that request's span tree, STATS returns
/// the tenant rollups. Sandboxes without loopback sockets report
/// daemon_skipped=1 instead of failing the run.
std::string RunDaemonLeg(server::Engine* engine, int queries) {
  double skipped = 0.0;
  double queries_ok = 0.0;
  double trace_trees = 0.0;
  double stats_ok = 0.0;
  int64_t wall_ns = 1;

  server::Daemon daemon(engine);
  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon leg skipped (no loopback): %s\n",
                 started.ToString().c_str());
    skipped = 1.0;
  } else {
    const Clock::time_point start = Clock::now();
    LineClient client(daemon.port());
    if (!client.ok()) {
      skipped = 1.0;
    } else {
      for (int i = 0; i < queries; ++i) {
        const std::string response =
            client.RoundTrip("QUERY alpha db exists x y. R(x) & S(x, y)");
        if (response.compare(0, 3, "OK ") != 0) continue;
        ++queries_ok;
        // The trace id is the final response field.
        const size_t space = response.find_last_of(' ');
        const std::string tree =
            client.RoundTrip("TRACE " + response.substr(space + 1));
        if (tree.find("ipdb-trace-tree-v1") != std::string::npos &&
            tree.find("serve.request") != std::string::npos) {
          ++trace_trees;
        }
      }
      if (client.RoundTrip("STATS").find("ipdb-stats-v1") !=
          std::string::npos) {
        stats_ok = 1.0;
      }
    }
    wall_ns = std::max<int64_t>(1, ElapsedNs(start));
    daemon.Stop();
  }

  std::fprintf(stderr,
               "daemon/roundtrip queries_ok=%.0f trace_trees=%.0f "
               "stats_ok=%.0f skipped=%.0f\n",
               queries_ok, trace_trees, stats_ok, skipped);
  return bench_json::ResultLine(
      "serve_bench", "daemon/roundtrip",
      queries_ok > 0 ? static_cast<double>(wall_ns) / queries_ok : 0.0,
      static_cast<int64_t>(queries_ok),
      {{"daemon_skipped", skipped},
       {"queries_ok", queries_ok},
       {"trace_trees", trace_trees},
       {"stats_ok", stats_ok}});
}

int Run(int argc, char** argv) {
  std::string json_path =
      bench_json::ExtractFlag(&argc, argv, "--bench_json_out");
  if (json_path.empty()) json_path = "BENCH_serve.json";
  // --quick is presence-only; ExtractFlag would swallow the next
  // argument as its value, so scan for the literal token instead.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  std::string clients_flag =
      bench_json::ExtractFlag(&argc, argv, "--clients_max");
  const int clients_max =
      clients_flag.empty() ? 16 : std::max(1, std::atoi(clients_flag.c_str()));
  const std::string trace_path =
      bench_json::ExtractFlag(&argc, argv, "--trace-out");
  if (!trace_path.empty()) obs::SetTracingEnabled(true);

  kc::GlobalCompiledQueryCache().Clear();
  server::EngineOptions options;
  options.admission.max_queue_depth = 64;
  server::Engine engine(options);
  Status status = engine.RegisterInstance("db", BuildInstance(quick ? 24 : 48));
  if (!status.ok()) {
    std::fprintf(stderr, "register instance: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  // Two well-behaved tenants with budgets and cache quotas (alpha's
  // residency is capped, so eviction fairness runs under load), plus
  // the overload tenant whose queries are deliberately expensive. The
  // SLOs are part of the gate: alpha/beta carry generous objectives
  // that must stay "ok" through the closed rows, while gamma's
  // availability SLO must flip to "breaching" once the open/overload
  // row sheds.
  const char* tenants[][2] = {
      {"alpha",
       "budget_ms=2000 cache_max_entries=8 slo_p99_ms=5000 "
       "slo_availability=0.999"},
      {"beta", "budget_ms=2000 slo_p99_ms=5000 slo_availability=0.999"},
      {"gamma",
       "max_circuit_nodes=1 fallback_samples=20000 "
       "degraded_samples=4000 max_in_flight=512 slo_availability=0.95"},
  };
  for (const auto& tenant : tenants) {
    status = engine.RegisterTenant(tenant[0], std::string(tenant[1]));
    if (!status.ok()) {
      std::fprintf(stderr, "register tenant %s: %s\n", tenant[0],
                   status.ToString().c_str());
      return 1;
    }
  }

  // Warmup compiles the workload's artifacts once, so the measured rows
  // see the steady-state hit path the service is designed around.
  for (const std::string& query : Workload()) {
    (void)engine.Query("alpha", "db", query);
    (void)engine.Query("beta", "db", query);
  }

  const int per_client = quick ? 40 : 200;
  std::vector<std::string> rows;
  for (int clients : {1, 4, 16}) {
    if (clients > clients_max) break;
    rows.push_back(
        RowFor(&engine, RunClosed(&engine, clients, per_client)));
  }
  rows.push_back(
      RowFor(&engine, RunOpenOverload(&engine, quick ? 400 : 1200)));
  rows.push_back(RunDaemonLeg(&engine, 20));

  status = engine.Stop();
  if (!status.ok()) {
    std::fprintf(stderr, "stop: %s\n", status.ToString().c_str());
    return 1;
  }
  bench_json::MergeIntoFile(json_path, rows);
  std::fprintf(stderr, "wrote %zu result(s) for suite 'serve_bench' to %s\n",
               rows.size(), json_path.c_str());

  if (!trace_path.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    const int64_t dropped = recorder.dropped_events();
    const std::vector<obs::TraceEvent> events = recorder.Drain();
    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Snapshot();
    Status written =
        obs::WriteChromeTrace(trace_path, events, &snapshot, dropped);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "wrote %zu span(s) (%lld dropped) and a metrics snapshot "
                 "to %s\n",
                 events.size(), static_cast<long long>(dropped),
                 trace_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ipdb

int main(int argc, char** argv) { return ipdb::Run(argc, argv); }
