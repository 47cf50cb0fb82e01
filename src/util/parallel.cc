#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/context.h"
#include "obs/obs.h"
#include "util/fault.h"

namespace ipdb {

namespace {

/// Shared state for one TryParallelFor batch: a lock-free "someone
/// failed, start draining" flag plus the lowest-index error seen among
/// indices that actually executed (lowest index so a deterministic fn
/// yields a deterministic error regardless of scheduling).
struct TryBatchState {
  std::atomic<bool> failed{false};
  std::mutex mu;
  Status first_error;
  int64_t first_error_index = -1;

  void Record(int64_t index, Status status) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error_index < 0 || index < first_error_index) {
      first_error_index = index;
      first_error = std::move(status);
    }
    failed.store(true, std::memory_order_release);
  }

  /// Wraps the Status-returning fn into the void task the pool runs.
  std::function<void(int64_t)> Wrap(
      const std::function<Status(int64_t)>& fn, const CancelToken* cancel) {
    return [this, &fn, cancel](int64_t i) {
      // Drain mode: after the first error the batch still claims every
      // remaining index (the pool's completion count needs them) but
      // skips the work.
      if (failed.load(std::memory_order_acquire)) return;
      if (cancel != nullptr && cancel->cancelled()) {
        Record(i, CancelledError("parallel batch cancelled"));
        return;
      }
      if (IPDB_FAULT_FIRED("util.pool.task")) {
        Record(i, fault::InjectedFault("util.pool.task"));
        return;
      }
      Status status = fn(i);
      if (!status.ok()) Record(i, std::move(status));
    };
  }

  Status Result(const CancelToken* cancel) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error_index >= 0) return first_error;
    if (cancel != nullptr && cancel->cancelled()) {
      return CancelledError("parallel batch cancelled");
    }
    return Status::Ok();
  }
};

/// One ParallelFor call's shared state. Helpers hold it by shared_ptr,
/// so a helper that starts after the call returned finds the counter
/// exhausted and retires without touching fn.
struct Batch {
  Batch(int64_t n, const std::function<void(int64_t)>& fn)
      : size(n), fn(&fn) {}

  /// Claims and runs indices until none is left.
  void Run() {
    int64_t done = 0;
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= size) break;
      (*fn)(i);
      ++done;
    }
    if (done == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    completed += done;
    if (completed == size) done_cv.notify_all();
  }

  std::atomic<int64_t> next{0};
  const int64_t size;
  const std::function<void(int64_t)>* const fn;
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t completed = 0;  // guarded by mu
};

/// ParallelFor over `pool` with at most `helpers` posted helper tasks.
/// The caller claims indices too and then waits only for indices that
/// other threads claimed, never for a queued helper to start — which is
/// what makes nested and concurrent calls deadlock-free.
void RunBatch(ThreadPool& pool, int64_t n,
              const std::function<void(int64_t)>& fn, int64_t helpers) {
  if (n <= 0) return;
  IPDB_OBS_COUNT("util.pool.batches", 1);
  IPDB_OBS_COUNT("util.pool.indices", n);
  helpers = std::min({helpers, static_cast<int64_t>(pool.thread_count() - 1),
                      n - 1});
  if (helpers <= 0) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>(n, fn);
  for (int64_t h = 0; h < helpers; ++h) pool.Post([batch] { batch->Run(); });
  batch->Run();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] { return batch->completed == n; });
}

/// The free functions' executor: one pool for the whole process, so a
/// call pays no thread creation.
ThreadPool& SharedPool() {
  static ThreadPool pool(HardwareThreadCount());
  return pool;
}

}  // namespace

int HardwareThreadCount() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = HardwareThreadCount();
  // The calling thread participates, so spawn threads - 1 workers.
  int workers = std::max(0, threads - 1);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      // Tasks are drained even while stopping: a task accepted by Post
      // must run.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++running_tasks_;
    }
    task();
    std::lock_guard<std::mutex> lock(mu_);
    --running_tasks_;
    if (tasks_.empty() && running_tasks_ == 0) tasks_cv_.notify_all();
  }
}

void ThreadPool::Post(std::function<void()> task) {
  IPDB_OBS_COUNT("util.pool.tasks", 1);
  if (workers_.empty()) {
    // A one-thread pool has nobody to hand the task to; run it inline
    // so Post keeps its "the task will run" contract. The submitter's
    // trace context is already current, so no capture is needed.
    task();
    return;
  }
  const obs::TraceContext context = obs::CurrentTraceContext();
  if (context.active()) {
    // Carry the submitter's request context into the worker so spans
    // opened by the task land in the same span tree.
    task = [context, inner = std::move(task)]() {
      obs::ScopedTraceContext scope(context);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    IPDB_OBS_GAUGE_SET("util.pool.task_queue_depth",
                       static_cast<int64_t>(tasks_.size()) + running_tasks_);
  }
  work_cv_.notify_one();
}

int64_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(tasks_.size()) + running_tasks_;
}

void ThreadPool::DrainTasks() {
  std::unique_lock<std::mutex> lock(mu_);
  tasks_cv_.wait(lock, [&] { return tasks_.empty() && running_tasks_ == 0; });
  IPDB_OBS_GAUGE_SET("util.pool.task_queue_depth", 0);
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  RunBatch(*this, n, fn, thread_count() - 1);
}

Status ThreadPool::TryParallelFor(int64_t n,
                                  const std::function<Status(int64_t)>& fn,
                                  const CancelToken* cancel) {
  if (n <= 0) return Status::Ok();
  TryBatchState state;
  RunBatch(*this, n, state.Wrap(fn, cancel), thread_count() - 1);
  return state.Result(cancel);
}

void ParallelFor(int threads, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (threads <= 0) threads = HardwareThreadCount();
  if (threads == 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RunBatch(SharedPool(), n, fn, threads - 1);
}

Status TryParallelFor(int threads, int64_t n,
                      const std::function<Status(int64_t)>& fn,
                      const CancelToken* cancel) {
  if (n <= 0) return Status::Ok();
  if (threads <= 0) threads = HardwareThreadCount();
  if (threads == 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        return CancelledError("parallel batch cancelled");
      }
      if (IPDB_FAULT_FIRED("util.pool.task")) {
        return fault::InjectedFault("util.pool.task");
      }
      IPDB_RETURN_IF_ERROR(fn(i));
    }
    return Status::Ok();
  }
  TryBatchState state;
  RunBatch(SharedPool(), n, state.Wrap(fn, cancel), threads - 1);
  return state.Result(cancel);
}

}  // namespace ipdb
