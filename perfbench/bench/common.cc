#include "common.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Hash(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  return Mix(Mix(Mix(Mix(seed) ^ a) ^ b) ^ c);
}

double Uniform(double lo, double hi, uint64_t seed, uint64_t a, uint64_t b,
               uint64_t c) {
  const double unit =
      static_cast<double>(Hash(seed, a, b, c) >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::vector<int> SampleDistinct(int n, int count, Rng* rng) {
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const int j = i + static_cast<int>(rng->Below(static_cast<uint64_t>(n - i)));
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
  }
  all.resize(static_cast<size_t>(count));
  return all;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

int64_t SamplesBeyond(int64_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return n - static_cast<int64_t>(rank);
}

double BlockRate(const std::vector<int64_t>& block_start_ns,
                 int64_t ops_per_block) {
  std::vector<double> seconds;
  for (size_t b = 0; b + 1 < block_start_ns.size(); ++b) {
    seconds.push_back(
        static_cast<double>(block_start_ns[b + 1] - block_start_ns[b]) * 1e-9);
  }
  const double block_s = Percentile(std::move(seconds), 0.8);
  return block_s > 0 ? static_cast<double>(ops_per_block) / block_s : 0.0;
}

bool Agrees(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(std::fabs(want), 1e-6);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buffer;
    }
  }
}

ScopedCpuPin::ScopedCpuPin(int index) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed < 2) return;
  int skip = index % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

int SpanRecorder::Begin(const char* name, int64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, 1, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index, int32_t calls) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.calls = calls;
  open_.pop_back();
}

SpanSummary Summarize(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& root_name) {
  SpanSummary summary;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      const double self = duration - child_ns[i];
      SpanSummary::Layer& layer = summary.layers[span.name];
      layer.self_ns_per_call.push_back(self / span.calls);
      layer.total_self_ns += self;
      layer.total_ns += duration;
      layer.calls += span.calls;
      if (root_name == span.name) {
        summary.coverage.push_back(duration > 0 ? child_ns[i] / duration : 1.0);
      }
    }
  }
  return summary;
}

bool WriteSpanFile(const std::string& path,
                   const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t r = 0; r < recorders.size(); ++r) {
    for (const Span& span : recorders[r]->spans()) {
      std::fprintf(file,
                   "{\"thread\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"calls\": %d, "
                   "\"op\": %lld}\n",
                   r, span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent, span.calls,
                   static_cast<long long>(span.op));
    }
  }
  return std::fclose(file) == 0;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string ClassLine(const std::string& name, const std::vector<double>& ms) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "class %-10s n=%-6zu p50=%.3f ms p90=%.3f ms p99=%.3f ms "
                "max=%.3f ms",
                name.c_str(), ms.size(), Percentile(ms, 0.5),
                Percentile(ms, 0.9), Percentile(ms, 0.99),
                Percentile(ms, 1.0));
  return buffer;
}

std::string SetupLine(const std::vector<double>& seconds) {
  std::string line = "set-ups (s):";
  for (double s : seconds) line += " " + Num(s);
  return line + " median " + Num(Median(seconds));
}

void RequireTail(int64_t samples, Result* result) {
  if (SamplesBeyond(samples, 0.99) >= 10) return;
  result->checks_ok = false;
  result->report.push_back("CHECK FAILED: fewer than 10 samples beyond p99 (" +
                           std::to_string(samples) + " operations)");
}

}  // namespace perfbench
