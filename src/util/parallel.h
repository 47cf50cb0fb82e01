#ifndef IPDB_UTIL_PARALLEL_H_
#define IPDB_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/budget.h"
#include "util/status.h"

namespace ipdb {

/// Number of hardware threads (always >= 1; falls back to 1 when the
/// platform reports nothing).
int HardwareThreadCount();

/// A small fixed-size pool of worker threads running posted tasks. The
/// pool exists so that the Monte Carlo hot paths (pdb::Accumulate,
/// pqe::EstimateQueryProbability) can fan work out without paying
/// thread creation per call, and so that the serving layer has one
/// executor for its queries.
///
/// ParallelFor is built on Post: it posts helper tasks that claim
/// indices from a counter shared by that one call, while the caller
/// claims indices too. The caller waits only for indices that were
/// claimed, never for a helper to start, so ParallelFor may be called
/// concurrently from several threads and from inside fn (nesting), on
/// the same pool, without deadlock.
///
/// Determinism: the pool schedules *which thread* runs which index
/// non-deterministically, so callers that need reproducible results must
/// make each index's work a pure function of the index (e.g. one RNG
/// substream per index, see Pcg32::Split) and combine per-index results
/// in index order. ParallelFor itself guarantees only that every index
/// in [0, n) runs exactly once and has completed when the call returns.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; `threads <= 0` means
  /// HardwareThreadCount(). The calling thread takes part in its own
  /// ParallelFor calls, so a call runs on up to `threads` threads.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a ParallelFor call can use (workers plus the caller).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n); blocks until all indices complete.
  /// Indices are claimed dynamically (an atomic counter), so fn must be
  /// safe to call concurrently from multiple threads. Reentrant: fn may
  /// call ParallelFor, and several threads may call it at once.
  ///
  /// The caller's obs::TraceContext travels with every helper (see
  /// Post), so spans opened inside fn join the submitting request's
  /// span tree.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Error-propagating ParallelFor. Runs fn(i) for i in [0, n) until the
  /// first error: once any index returns non-OK (or `cancel` trips), the
  /// remaining unstarted indices are *drained* — claimed but not
  /// executed — so the call still completes promptly. In-flight indices
  /// on other threads run to completion; fn is never interrupted
  /// mid-call.
  ///
  /// Returns OK when every index ran and succeeded; otherwise the error
  /// of the lowest-numbered failed index that actually executed (so a
  /// deterministic fn yields a deterministic error), or kCancelled when
  /// the token tripped before any index failed. `cancel` may be null.
  Status TryParallelFor(int64_t n, const std::function<Status(int64_t)>& fn,
                        const CancelToken* cancel = nullptr);

  /// Enqueues a one-off task for the worker threads and returns
  /// immediately. Tasks run concurrently with each other on whichever
  /// worker picks them up first, in FIFO claim order; they are the
  /// serving layer's unit of work (one posted task per admitted query)
  /// and ParallelFor's helpers. On a pool with no workers
  /// (`threads == 1`) the task runs inline before Post returns.
  ///
  /// Tasks posted before the destructor runs are drained, not dropped:
  /// the pool joins only after the queue is empty.
  ///
  /// When the posting thread carries an active obs::TraceContext it is
  /// captured into the task closure and restored around the task's
  /// execution in the worker (request-scoped tracing across the
  /// queue-hop).
  void Post(std::function<void()> task);

  /// Posted tasks not yet finished (queued plus running).
  int64_t pending_tasks() const;

  /// Blocks until every posted task has finished — including tasks
  /// posted by other threads while the wait is in progress. The serving
  /// layer's shutdown drain.
  void DrainTasks();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable tasks_cv_;
  std::deque<std::function<void()>> tasks_;  // posted, not yet claimed
  int64_t running_tasks_ = 0;        // claimed, not yet finished
  bool stop_ = false;
};

/// ParallelFor on the process-wide pool (HardwareThreadCount() threads,
/// created on first use): runs fn(i) for i in [0, n) on up to `threads`
/// threads, the caller included. threads == 1 (or n <= 1) degrades to a
/// plain sequential loop with zero threading overhead; threads <= 0
/// means HardwareThreadCount().
void ParallelFor(int threads, int64_t n,
                 const std::function<void(int64_t)>& fn);

/// TryParallelFor on the process-wide pool; same error/drain semantics
/// as ThreadPool::TryParallelFor. threads == 1 (or n <= 1) degrades to a
/// sequential loop that stops at the first error.
Status TryParallelFor(int threads, int64_t n,
                      const std::function<Status(int64_t)>& fn,
                      const CancelToken* cancel = nullptr);

}  // namespace ipdb

#endif  // IPDB_UTIL_PARALLEL_H_
