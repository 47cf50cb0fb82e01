// Shared pieces of the perfbench program: clocks, seeded input
// generation, order statistics, process memory, the in-memory span
// recorder of the traced run, and the result line every run prints.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process started.
int64_t NowNs();

/// Command line of one run (see main.cc).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout: span files, durable stores.
  std::string work_dir = ".bench_build/run";
  /// Git sha or source digest of the checkout, computed by run.py.
  std::string source_id = "unknown";
};

// --- Seeded inputs -------------------------------------------------------

/// splitmix64 finalizer: a bijective 64-bit mix.
uint64_t Mix(uint64_t x);
/// A hash of (seed, a, b, c); the generators derive every input from it so
/// that a fact's marginal can be recomputed without storing the fact.
uint64_t Hash(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);
/// Uniform double in [lo, hi) from Hash(seed, a, b, c).
double Uniform(double lo, double hi, uint64_t seed, uint64_t a, uint64_t b = 0,
               uint64_t c = 0);

/// A small sequential generator for streams that need state.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed ^ 0x5eedULL)) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// `count` distinct values of [0, n), in seeded order.
std::vector<int> SampleDistinct(int n, int count, Rng* rng);

// --- Order statistics -----------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Samples strictly above the nearest-rank q-th percentile.
int64_t SamplesBeyond(int64_t n, double q);

/// Operations per second over a pass run in blocks of `ops_per_block`
/// operations with one fixed class mix: `ops_per_block` divided by the
/// 80th percentile of the block durations, where `block_start_ns` holds
/// each block's start and then the pass's end. Like p50 and p99 it is a
/// quantile, so a few stalled blocks move it little, where they move the
/// mean rate (operations / measured time) in full; see WORKLOADS.md for
/// the spreads of both.
double BlockRate(const std::vector<int64_t>& block_start_ns,
                 int64_t ops_per_block);

/// Answers from two evaluation orders of one probability agree when the
/// relative (or, near zero, absolute) difference is within 1e-9.
bool Agrees(double got, double want);

// --- Process -------------------------------------------------------------

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();
/// Current resident set in bytes.
int64_t CurrentRssBytes();
/// Filesystem type name of the filesystem holding `path` ("ext4",
/// "tmpfs", ... or the statfs magic in hex).
std::string FilesystemType(const std::string& path);

/// Pins the calling thread to the `index`-th of its allowed CPUs (modulo
/// their number) until destroyed, then restores its CPU mask. Threads it
/// starts meanwhile inherit the pin. Set-ups rotate over the CPUs with it:
/// on a shared host each CPU's speed drifts on its own, and set-ups that
/// all ran on the CPU the thread happened to land on measured that CPU.
/// Over 16 alternating runs, serve_lifted's setup_s spread (IQR/median)
/// was 0.23 unrotated and 0.06 rotated.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int index);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// --- Tracing --------------------------------------------------------------

/// One traced call: where it ran, what caused it, and which operation it
/// belongs to. `calls` > 1 marks a span that covers a loop of identical
/// calls (the per-call time is the duration divided by it).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index in the same recorder, -1 for a root
  int32_t calls;
  int64_t op;
};

/// Spans of one thread, kept in memory until the run ends. Not
/// thread-safe: each client thread owns one.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  int Begin(const char* name, int64_t op);
  void End(int index, int32_t calls = 1);
  /// Names a span after the fact (e.g. a cache probe that turned out to be
  /// a miss).
  void SetName(int index, const char* name) {
    spans_[static_cast<size_t>(index)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t op)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_, calls_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_calls(int32_t calls) { calls_ = calls; }
  void set_name(const char* name) {
    if (recorder_ != nullptr) recorder_->SetName(index_, name);
  }

 private:
  SpanRecorder* recorder_;
  int index_;
  int32_t calls_ = 1;
};

/// Self-time statistics of every span name over a set of recorders, plus
/// the coverage of each `root_name` span by its direct children.
struct SpanSummary {
  struct Layer {
    std::vector<double> self_ns_per_call;
    double total_self_ns = 0;
    double total_ns = 0;
    int64_t calls = 0;
  };
  std::map<std::string, Layer> layers;
  std::vector<double> coverage;  // one per root_name span
};
SpanSummary Summarize(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& root_name);

/// Writes every span as one JSON object per line.
bool WriteSpanFile(const std::string& path,
                   const std::vector<const SpanRecorder*>& recorders);

// --- Result ----------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

/// What a workload hands back to main: the counts, the metrics, and
/// human-readable report lines printed ahead of the result line.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-of-run checks (cache accounting, recovery, cache behaviour).
  bool checks_ok = true;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> meta;
  std::vector<std::string> report;
};

/// JSON string literal.
std::string Quote(const std::string& text);
/// A double with every significant digit.
std::string Num(double value);

/// Latency percentiles of one operation class, for the report.
std::string ClassLine(const std::string& name, const std::vector<double>& ms);

/// Every set-up time of a run and their median, for the report.
std::string SetupLine(const std::vector<double>& seconds);

/// Fails the run's checks unless a measured pass of `samples` operations
/// has at least 10 samples beyond its p99.
void RequireTail(int64_t samples, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
