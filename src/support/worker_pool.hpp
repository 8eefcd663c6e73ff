// Persistent worker pool with a spin-then-park dispatch barrier.
//
// The pool is spawned once (workers - 1 threads; worker 0 is always the
// calling thread) and parked between dispatches, so a long-lived owner —
// the SyncEngine keeps one for its whole lifetime — pays thread creation
// exactly once no matter how many runs and rounds it drives. Dispatch is
// a sense-reversing barrier generalized to a monotone epoch counter: the
// driver publishes the job and bumps `epoch_`; workers compare the epoch
// against the last value they served. Both sides spin briefly on the
// atomics before falling back to a mutex + condvar park, so back-to-back
// round stages cost two uncontended atomic round-trips per worker while
// an idle pool (between runs, or a destroyed engine) consumes no CPU.
//
// Memory ordering: the job pointer/context are written before the
// release bump of `epoch_`, and workers acquire-load the epoch before
// reading them. Completion is an acq_rel fetch_sub chain on
// `outstanding_`; the driver's acquire load of zero synchronizes with
// every worker's decrement (RMWs extend the release sequence), so all
// shard state written by a job is visible to the driver when run()
// returns — the same happens-before the old per-run condvar barrier
// provided, without its two syscalls per stage. Parking is the one
// Dekker-style handshake: the driver stores `driver_parked_` then loads
// `outstanding_`, the last worker decrements `outstanding_` then loads
// `driver_parked_`; all four are seq_cst so at least one side sees the
// other and the wake-up cannot be lost.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace dsnd {

class WorkerPool {
 public:
  /// Spawns `workers - 1` parked threads (clamped to at least one
  /// worker, the caller). The threads live until destruction.
  explicit WorkerPool(unsigned workers);

  /// Wakes any parked thread with a stop epoch and joins. Safe to run
  /// immediately after construction or between dispatches; never call
  /// concurrently with run().
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned workers() const { return workers_; }

  /// Runs fn(w) once for every worker index w in [0, workers()) — w = 0
  /// on the calling thread — and returns after all have finished. Not
  /// reentrant and single-driver: only one run() at a time.
  template <typename F>
  void run(F&& fn) {
    if (workers_ == 1) {
      fn(0u);
      return;
    }
    const auto invoke = [](void* ctx, unsigned w) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(w);
    };
    dispatch(invoke, &fn);
  }

 private:
  void dispatch(void (*job)(void*, unsigned), void* ctx);
  void worker_loop(unsigned w);

  unsigned workers_;
  void (*job_)(void*, unsigned) = nullptr;
  void* job_ctx_ = nullptr;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<unsigned> outstanding_{0};
  std::atomic<bool> stop_{false};
  // True only while the driver is inside (or committing to) a cv_done_
  // wait; lets workers skip the notify mutex on the fast path.
  std::atomic<bool> driver_parked_{false};

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
};

}  // namespace dsnd
