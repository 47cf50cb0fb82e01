#ifndef IPDB_OBS_OBS_H_
#define IPDB_OBS_OBS_H_

/// Umbrella header for the observability layer: the metrics registry
/// (obs/metrics.h), scoped tracing (obs/trace.h), the runtime gates, and
/// the IPDB_OBS_* instrumentation macros the rest of the library uses.
///
/// Gating, from outermost to innermost:
///  * compile time — configuring with -DIPDB_OBSERVABILITY=OFF defines
///    IPDB_OBSERVABILITY_DISABLED, and every macro below expands to a
///    no-op statement: instrumented call sites compile to nothing;
///  * runtime — with instrumentation compiled in, metric updates are
///    skipped unless MetricsEnabled() (default on; env IPDB_OBS=0
///    disables) and spans are skipped unless tracing is enabled
///    (default off; env IPDB_TRACE=1 or --trace-out enables);
///  * per call — an enabled metric macro resolves its registry handle
///    once (function-local static) and then pays one relaxed atomic
///    add; a disabled-tracing span pays one relaxed atomic load.

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipdb {
namespace obs {

/// Runtime observability switches, applied with Configure. The
/// environment provides the initial values (IPDB_OBS / IPDB_TRACE).
struct ObsOptions {
  bool metrics = true;
  bool tracing = false;
};

void Configure(const ObsOptions& options);

/// Whether metric-update macros record (relaxed load; hot-path safe).
bool MetricsEnabled();
void SetMetricsEnabled(bool on);

inline bool TracingEnabled() { return TraceRecorder::Global().enabled(); }
inline void SetTracingEnabled(bool on) {
  TraceRecorder::Global().SetEnabled(on);
}

}  // namespace obs
}  // namespace ipdb

#if !defined(IPDB_OBSERVABILITY_DISABLED)

#define IPDB_OBS_INTERNAL_CONCAT2(a, b) a##b
#define IPDB_OBS_INTERNAL_CONCAT(a, b) IPDB_OBS_INTERNAL_CONCAT2(a, b)

/// Opens an RAII span for the rest of the enclosing scope. `name` and
/// `category` must be string literals (events keep the pointers).
#define IPDB_OBS_SPAN(name, category)                 \
  ::ipdb::obs::Span IPDB_OBS_INTERNAL_CONCAT(         \
      ipdb_obs_span_, __COUNTER__)(name, category)

/// Adds `delta` to the named counter. The registry lookup happens once
/// per call site (function-local static handle).
#define IPDB_OBS_COUNT(name, delta)                             \
  do {                                                          \
    if (::ipdb::obs::MetricsEnabled()) {                        \
      static ::ipdb::obs::Counter& ipdb_obs_counter =           \
          ::ipdb::obs::GlobalMetrics().GetCounter(name);        \
      ipdb_obs_counter.Increment(delta);                        \
    }                                                           \
  } while (0)

#define IPDB_OBS_GAUGE_SET(name, value)                         \
  do {                                                          \
    if (::ipdb::obs::MetricsEnabled()) {                        \
      static ::ipdb::obs::Gauge& ipdb_obs_gauge =               \
          ::ipdb::obs::GlobalMetrics().GetGauge(name);          \
      ipdb_obs_gauge.Set(value);                                \
    }                                                           \
  } while (0)

#define IPDB_OBS_GAUGE_ADD(name, delta)                         \
  do {                                                          \
    if (::ipdb::obs::MetricsEnabled()) {                        \
      static ::ipdb::obs::Gauge& ipdb_obs_gauge =               \
          ::ipdb::obs::GlobalMetrics().GetGauge(name);          \
      ipdb_obs_gauge.Add(delta);                                \
    }                                                           \
  } while (0)

/// Records `value` into the named histogram.
#define IPDB_OBS_OBSERVE(name, value)                           \
  do {                                                          \
    if (::ipdb::obs::MetricsEnabled()) {                        \
      static ::ipdb::obs::Histogram& ipdb_obs_histogram =       \
          ::ipdb::obs::GlobalMetrics().GetHistogram(name);      \
      ipdb_obs_histogram.Observe(value);                        \
    }                                                           \
  } while (0)

/// Adds `delta` to the `label_id` cell of the named counter family.
/// `name` and `label_key` are resolved once per call site; the hot path
/// is one slot-array load plus the counter's relaxed shard add.
/// `label_id` must come from ::ipdb::obs::InternLabel.
#define IPDB_OBS_COUNT_LABELED(name, label_key, label_id, delta)            \
  do {                                                                      \
    if (::ipdb::obs::MetricsEnabled()) {                                    \
      static ::ipdb::obs::CounterFamily& ipdb_obs_counter_family =          \
          ::ipdb::obs::GlobalMetrics().GetCounterFamily(name, label_key);   \
      ipdb_obs_counter_family.At(label_id).Increment(delta);                \
    }                                                                       \
  } while (0)

/// Records `value` into the `label_id` cell of the named histogram
/// family.
#define IPDB_OBS_OBSERVE_LABELED(name, label_key, label_id, value)          \
  do {                                                                      \
    if (::ipdb::obs::MetricsEnabled()) {                                    \
      static ::ipdb::obs::HistogramFamily& ipdb_obs_histogram_family =      \
          ::ipdb::obs::GlobalMetrics().GetHistogramFamily(name, label_key); \
      ipdb_obs_histogram_family.At(label_id).Observe(value);                \
    }                                                                       \
  } while (0)

/// Times the rest of the enclosing scope into the named histogram
/// (no-op when metrics are runtime-disabled). The registry lookup
/// happens once per call site, as for the other macros.
#define IPDB_OBS_SCOPED_TIMER(name)                                      \
  ::ipdb::obs::ScopedTimer IPDB_OBS_INTERNAL_CONCAT(                     \
      ipdb_obs_timer_, __COUNTER__)([]() -> ::ipdb::obs::Histogram* {    \
    if (!::ipdb::obs::MetricsEnabled()) return nullptr;                  \
    static ::ipdb::obs::Histogram& ipdb_obs_histogram =                  \
        ::ipdb::obs::GlobalMetrics().GetHistogram(name);                 \
    return &ipdb_obs_histogram;                                          \
  }())

#else  // IPDB_OBSERVABILITY_DISABLED

#define IPDB_OBS_SPAN(name, category) \
  do {                                \
  } while (0)
#define IPDB_OBS_COUNT(name, delta) \
  do {                              \
  } while (0)
#define IPDB_OBS_GAUGE_SET(name, value) \
  do {                                  \
  } while (0)
#define IPDB_OBS_GAUGE_ADD(name, delta) \
  do {                                  \
  } while (0)
#define IPDB_OBS_OBSERVE(name, value) \
  do {                                \
  } while (0)
#define IPDB_OBS_COUNT_LABELED(name, label_key, label_id, delta) \
  do {                                                           \
  } while (0)
#define IPDB_OBS_OBSERVE_LABELED(name, label_key, label_id, value) \
  do {                                                             \
  } while (0)
#define IPDB_OBS_SCOPED_TIMER(name) \
  do {                              \
  } while (0)

#endif  // IPDB_OBSERVABILITY_DISABLED

#endif  // IPDB_OBS_OBS_H_
