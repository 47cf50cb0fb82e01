#ifndef IPDB_SERVER_ADMISSION_H_
#define IPDB_SERVER_ADMISSION_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace ipdb {
namespace server {

/// Knobs for the engine-wide admission ladder.
struct AdmissionOptions {
  /// Queries in flight (queued + executing) across all tenants; a
  /// submission arriving above this is shed outright.
  int64_t max_queue_depth = 128;
  /// Fraction of max_queue_depth above which new queries are admitted
  /// *degraded* (sample-only rung) instead of full-fidelity.
  double degrade_fraction = 0.5;
  /// Recent-fallback-rate threshold: when at least this fraction of a
  /// sliding window of completed queries ran out of time on the exact
  /// rung (exact_error or the error status is kDeadlineExceeded), the
  /// exact rungs are presumed over budget for the current load and new
  /// queries are admitted degraded even at low queue depth. Fallbacks
  /// forced by a circuit-node cap or by cancellation do not count: they
  /// say nothing about load. Set > 1 to disable.
  double fallback_degrade_rate = 0.75;
  /// Completed queries in the sliding outcome window.
  int window = 64;
};

/// What the controller decided for one submission.
enum class Admission {
  kFull,      // run the whole ladder (lifted -> compile -> fallback)
  kDegraded,  // sample-only: lifted stays, compile rung capped out
  kShed,      // reject now (kUnavailable); client retries or gives up
};

const char* AdmissionName(Admission admission);

/// Closed-loop load control for the query service, in the spirit of
/// queue-depth-driven load shedding: pressure is read from the live
/// queue-depth gauge at submission time, and from a sliding window of
/// completion outcomes fed back by the engine (a query whose exact rung
/// hit its deadline is evidence the exact rungs do not fit the current
/// load). The ladder is reject -> sample-only -> full:
/// above max_queue_depth requests shed; above degrade_fraction (or a
/// saturated fallback window) they degrade; otherwise they run full.
///
/// Thread-safe; Decide and RecordOutcome are called from submission and
/// worker threads respectively.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options = {});

  /// Decision for a submission arriving when `queue_depth` queries are
  /// already in flight (the arriving query excluded).
  Admission Decide(int64_t queue_depth);

  /// Feedback from a completed query: whether its exact rung ran out of
  /// time (the engine passes exact_error or the error status ==
  /// kDeadlineExceeded).
  void RecordOutcome(bool fell_back);

  /// Fallback fraction of the current window (0 while the window has
  /// fewer than window/2 samples — too little signal to act on).
  double FallbackRate() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::vector<uint8_t> window_;  // ring buffer of outcomes
  int next_ = 0;
  int filled_ = 0;
  int fallbacks_ = 0;
};

}  // namespace server
}  // namespace ipdb

#endif  // IPDB_SERVER_ADMISSION_H_
