// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <serve_circuit|serve_lifted|ingest_refresh>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--source-id <sha>]
//
// Prints report lines, one "META {...}" line with the run's metadata and,
// last, the result object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Normally started through run.py, which builds this binary first.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "common.h"
#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {"qps", "p50_ms", "p99_ms",
                                            "setup_s", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "server.submit_us",
    "server.queue_us",
    "server.handoff_us",
    "server.failed",
    "logic.parse_us",
    "pqe.plan_us",
    "pqe.lifted_ms",
    "pqe.ground_ms",
    "pqe.ground_share",
    "pqe.lineage_nodes",
    "pqe.domain_values",
    "pqe.refresh_us",
    "pqe.rebuild_ms",
    "kc.fingerprint_us",
    "kc.probe_us",
    "kc.compile_ms",
    "kc.hit_ratio",
    "kc.evictions",
    "kc.circuit_nodes",
    "kc.evaluate_us",
    "storage.build_s",
    "storage.bytes_per_fact",
    "durability.mutate_us",
    "durability.structural_us",
    "durability.flush_us",
    "durability.checkpoint_ms",
    "durability.wal_bytes_per_mutation",
    "durability.create_s",
    "durability.recover_ms",
};

const std::vector<std::pair<std::string, std::function<Result(const Options&)>>>
    kWorkloads = {{"serve_circuit", RunServeCircuit},
                  {"serve_lifted", RunServeLifted},
                  {"ingest_refresh", RunIngestRefresh}};

/// A traced run of a workload that does not reach some layer takes that
/// layer's metrics from a short traced run of a workload that does.
constexpr double kFillSeconds = 4;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--source-id") {
      options->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 && !options->workload.empty();
}

const std::function<Result(const Options&)>* FindWorkload(
    const std::string& name) {
  for (const auto& [workload, run] : kWorkloads) {
    if (workload == name) return &run;
  }
  return nullptr;
}

void FillMissingLayers(const Options& options, Result* result) {
  for (const auto& [name, run] : kWorkloads) {
    if (name == options.workload) continue;
    bool missing = false;
    for (const std::string& metric : kPerLayer) {
      missing = missing || result->metrics.count(metric) == 0;
    }
    if (!missing) return;
    Options fill = options;
    fill.workload = name;
    fill.seconds = kFillSeconds;
    const Result extra = run(fill);
    result->attempted += extra.attempted;
    result->failed += extra.failed;
    result->checks_ok = result->checks_ok && extra.checks_ok;
    for (const std::string& line : extra.report) {
      result->report.push_back("[" + name + "] " + line);
    }
    for (const std::string& metric : kPerLayer) {
      auto it = extra.metrics.find(metric);
      if (result->metrics.count(metric) == 0 && it != extra.metrics.end()) {
        result->metrics[metric] = it->second;
        result->report.push_back(metric + " is not reached by " +
                                 options.workload + "; measured on " + name);
      }
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--source-id <id>]\n",
                 argv[0]);
    return 2;
  }
  const auto* run = FindWorkload(options.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  Result result = (*run)(options);
  if (options.trace) FillMissingLayers(options, &result);

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  std::map<std::string, std::string> meta = result.meta;
  meta["workload"] = options.workload;
  meta["seed"] = std::to_string(options.seed);
  meta["seconds"] = Num(options.seconds);
  meta["trace"] = options.trace ? "1" : "0";
  meta["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  meta["cpu_model"] = CpuModel();
  meta["compiler"] = "g++ " __VERSION__;
  meta["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["ipdb_observability"] = PERFBENCH_OBSERVABILITY ? "ON" : "OFF";
  meta["obs_runtime"] =
      std::string("metrics=") + (ipdb::obs::MetricsEnabled() ? "on" : "off") +
      " tracing=" + (ipdb::obs::TracingEnabled() ? "on" : "off");
  meta["source_id"] = options.source_id;
  std::string meta_line = "META {";
  for (const auto& [key, value] : meta) {
    if (meta_line.size() > 6) meta_line += ", ";
    meta_line += Quote(key) + ": " + Quote(value);
  }
  std::printf("%s}\n", meta_line.c_str());

  const std::vector<std::string>& names = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const std::string& name : names) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      std::fflush(stdout);
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + Num(it->second.value) +
               ", \"unit\": " + Quote(it->second.unit) + "}";
  }
  const bool correct = result.failed == 0 && result.checks_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
