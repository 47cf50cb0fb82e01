#ifndef IPDB_BENCH_BENCH_JSON_H_
#define IPDB_BENCH_BENCH_JSON_H_

// Console reporting plus a machine-readable dump for before/after
// comparisons, shared by every Google-Benchmark binary in bench/. Each
// binary calls IPDB_BENCHMARK_JSON_MAIN(suite, default_path); results
// are merged into that file with one JSON object per line:
//
//   {
//     "schema": "ipdb-bench-v1",
//     "results": [
//       {"suite": "math_bench", "op": "BM_RationalSum/512",
//        "ns_per_op": 68839.2, "iterations": 10240,
//        "counters": {"shannon": 12}},
//       ...
//     ]
//   }
//
// ns_per_op is in nanoseconds whatever unit the benchmark displays in
// (->Unit(benchmark::kMillisecond) changes the console, not the file).
//
// Each fresh row also records the host it was measured on, under the
// field names of perfbench's META line:
//
//   "host": {"nproc": 4, "cpu_model": "...", "compiler": "g++ 12.2.0",
//            "cxx_flags": " -O2 -DNDEBUG", "build_type": "Release",
//            "ipdb_observability": "ON", "source_id": "<git sha>"}
//
// The build fields come from the CMake configure (bench/targets.cmake);
// source_id is the git sha at configure time, "unknown" outside a git
// checkout. Recorded rows keep what they carry.
//
// ResultLine is the single place that knows this schema: per-benchmark
// user counters (state.counters, e.g. pqe_bench's artifact_hits) ride
// along in each row instead of being dropped on the floor. Re-running a
// binary replaces only the rows whose (suite, op) it emitted again, so
// several binaries can feed one file, a --benchmark_filter run keeps its
// suite's other rows, and the recorded rows of deleted benchmarks stay
// as baselines.
//
// Every binary also understands two flags, parsed before Google
// Benchmark sees the command line:
//   --bench_json_out=PATH   where to merge the result rows
//   --trace-out PATH        enable span tracing for the run and write a
//                           Chrome-trace/Perfetto file (with the final
//                           metrics snapshot embedded under
//                           otherData.metrics) when the run finishes
// Both accept `--flag=value` and `--flag value`.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

// Set per bench target by bench/targets.cmake.
#ifndef IPDB_BENCH_CXX_FLAGS
#define IPDB_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef IPDB_BENCH_BUILD_TYPE
#define IPDB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef IPDB_BENCH_SOURCE_ID
#define IPDB_BENCH_SOURCE_ID "unknown"
#endif

namespace ipdb {
namespace bench_json {

// `text` as a JSON string literal.
inline std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

// The "host" object every fresh row carries (see the schema above).
inline const std::string& HostJson() {
  static const std::string json = [] {
    std::string cpu_model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.rfind("model name", 0) == 0) {
        const size_t colon = line.find(": ");
        cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
        break;
      }
    }
#if defined(IPDB_OBSERVABILITY_DISABLED)
    const char* observability = "OFF";
#else
    const char* observability = "ON";
#endif
    std::ostringstream host;
    host << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"cpu_model\": " << Quoted(cpu_model)
         << ", \"compiler\": " << Quoted("g++ " __VERSION__)
         << ", \"cxx_flags\": " << Quoted(IPDB_BENCH_CXX_FLAGS)
         << ", \"build_type\": " << Quoted(IPDB_BENCH_BUILD_TYPE)
         << ", \"ipdb_observability\": " << Quoted(observability)
         << ", \"source_id\": " << Quoted(IPDB_BENCH_SOURCE_ID) << '}';
    return host.str();
  }();
  return json;
}

// The one place that knows the per-result schema.
inline std::string ResultLine(
    const std::string& suite, const std::string& op, double ns_per_op,
    int64_t iterations,
    const std::vector<std::pair<std::string, double>>& counters) {
  std::ostringstream line;
  line << "{\"suite\": \"" << suite << "\", \"op\": \"" << op
       << "\", \"ns_per_op\": " << ns_per_op
       << ", \"iterations\": " << iterations;
  if (!counters.empty()) {
    line << ", \"counters\": {";
    for (size_t i = 0; i < counters.size(); ++i) {
      line << (i == 0 ? "" : ", ") << '"' << counters[i].first
           << "\": " << counters[i].second;
    }
    line << '}';
  }
  line << ", \"host\": " << HostJson() << '}';
  return line.str();
}

// A run's wall-clock time per iteration in nanoseconds.
// GetAdjustedRealTime() is in the run's display unit.
inline double NsPerOp(const benchmark::BenchmarkReporter::Run& run) {
  return run.GetAdjustedRealTime() * 1e9 /
         benchmark::GetTimeUnitMultiplier(run.time_unit);
}

class JsonDumpReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::vector<std::pair<std::string, double>> counters;
      counters.reserve(run.counters.size());
      for (const auto& [name, counter] : run.counters) {
        counters.emplace_back(name, static_cast<double>(counter));
      }
      lines_.push_back(ResultLine(suite_, run.benchmark_name(), NsPerOp(run),
                                  run.iterations, counters));
    }
  }

  void set_suite(std::string suite) { suite_ = std::move(suite); }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::string suite_;
  std::vector<std::string> lines_;
};

// Rewrites `path` with the `fresh` rows, replacing a recorded row only
// when `fresh` has a row with the same (suite, op).
inline void MergeIntoFile(const std::string& path,
                          const std::vector<std::string>& fresh) {
  // A row's (suite, op) identity: everything before its ns_per_op field.
  auto row_key = [](const std::string& line) {
    return line.substr(0, line.find(", \"ns_per_op\""));
  };
  std::set<std::string> replaced;
  for (const std::string& line : fresh) replaced.insert(row_key(line));
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    const std::string any = "{\"suite\": \"";
    while (std::getline(in, line)) {
      size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos) continue;
      std::string body = line.substr(start);
      if (body.compare(0, any.size(), any) != 0) continue;  // header/footer
      if (!body.empty() && body.back() == ',') body.pop_back();
      if (replaced.count(row_key(body)) != 0) continue;
      kept.push_back(body);
    }
  }
  kept.insert(kept.end(), fresh.begin(), fresh.end());
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"schema\": \"ipdb-bench-v1\",\n  \"results\": [\n";
  for (size_t i = 0; i < kept.size(); ++i) {
    out << "    " << kept[i] << (i + 1 < kept.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Removes `--name=value` or `--name value` from argv and returns the
// value ("" when the flag is absent).
inline std::string ExtractFlag(int* argc, char** argv,
                               const std::string& name) {
  const std::string with_equals = name + "=";
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    int consumed = 0;
    if (arg.compare(0, with_equals.size(), with_equals) == 0) {
      value = arg.substr(with_equals.size());
      consumed = 1;
    } else if (arg == name && i + 1 < *argc) {
      value = argv[i + 1];
      consumed = 2;
    } else {
      continue;
    }
    for (int j = i; j + consumed < *argc; ++j) argv[j] = argv[j + consumed];
    *argc -= consumed;
    return value;
  }
  return "";
}

// Drop-in replacement for BENCHMARK_MAIN(): runs all registered
// benchmarks with console output, merges the results into the JSON
// file, and honours --trace-out (span tracing + Chrome-trace export).
inline int RunWithJsonDump(int argc, char** argv, const std::string& suite,
                           const std::string& default_json_path) {
  std::string json_path = ExtractFlag(&argc, argv, "--bench_json_out");
  if (json_path.empty()) json_path = default_json_path;
  const std::string trace_path = ExtractFlag(&argc, argv, "--trace-out");
  if (!trace_path.empty()) obs::SetTracingEnabled(true);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonDumpReporter reporter;
  reporter.set_suite(suite);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  MergeIntoFile(json_path, reporter.lines());
  std::fprintf(stderr, "wrote %zu result(s) for suite '%s' to %s\n",
               reporter.lines().size(), suite.c_str(), json_path.c_str());

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

}  // namespace bench_json
}  // namespace ipdb

#define IPDB_BENCHMARK_JSON_MAIN(suite, default_path)                     \
  int main(int argc, char** argv) {                                       \
    return ipdb::bench_json::RunWithJsonDump(argc, argv, suite,           \
                                             default_path);               \
  }

#endif  // IPDB_BENCH_BENCH_JSON_H_
