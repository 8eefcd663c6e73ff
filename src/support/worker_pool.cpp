#include "support/worker_pool.hpp"

namespace dsnd {

namespace {

// Spin budget before parking on the condvar. Sized so the inter-stage
// gaps of a parallel round (exchange + roll-up on the driver) stay
// inside the spin window, while a pool left idle between runs parks
// after roughly a microsecond-scale burn.
constexpr int kSpinIterations = 1 << 14;

}  // namespace

WorkerPool::WorkerPool(unsigned workers)
    : workers_(workers == 0 ? 1 : workers) {
  if (workers_ > 1) {
    threads_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

WorkerPool::~WorkerPool() {
  if (workers_ > 1) {
    {
      // The lock pairs the stop+epoch publication with a worker's
      // decision to park, so the wakeup cannot be missed.
      const std::scoped_lock lock(mutex_);
      stop_.store(true, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void WorkerPool::worker_loop(const unsigned w) {
  std::uint64_t served = 0;
  for (;;) {
    std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (int spin = kSpinIterations; epoch == served && spin > 0; --spin) {
      if ((spin & 1023) == 0) std::this_thread::yield();
      epoch = epoch_.load(std::memory_order_acquire);
    }
    if (epoch == served) {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] {
        return epoch_.load(std::memory_order_relaxed) != served;
      });
      epoch = epoch_.load(std::memory_order_relaxed);
    }
    served = epoch;
    if (stop_.load(std::memory_order_acquire)) return;
    job_(job_ctx_, w);
    // seq_cst: this is the worker half of the park handshake (see
    // dispatch); weaker orders let the last worker skip the notify while
    // the driver goes to sleep.
    if (outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        driver_parked_.load(std::memory_order_seq_cst)) {
      // Last one out wakes a parked driver. Taking the mutex orders the
      // notify after the driver's predicate check, so it cannot be lost;
      // a driver still spinning never sets driver_parked_ and skips this.
      const std::scoped_lock lock(mutex_);
      cv_done_.notify_one();
    }
  }
}

void WorkerPool::dispatch(void (*job)(void*, unsigned), void* ctx) {
  job_ = job;
  job_ctx_ = ctx;
  outstanding_.store(workers_ - 1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();
  job(ctx, 0);
  for (int spin = kSpinIterations;
       outstanding_.load(std::memory_order_acquire) != 0; --spin) {
    if (spin > 0) {
      if ((spin & 1023) == 0) std::this_thread::yield();
      continue;
    }
    std::unique_lock lock(mutex_);
    // Store-then-load against the last worker's decrement-then-load: in
    // the single seq_cst order either the worker sees the flag (and
    // notifies under the mutex, after this wait has begun) or this
    // predicate sees outstanding_ == 0 (and never waits).
    driver_parked_.store(true, std::memory_order_seq_cst);
    cv_done_.wait(lock, [&] {
      return outstanding_.load(std::memory_order_seq_cst) == 0;
    });
    driver_parked_.store(false, std::memory_order_release);
    break;
  }
}

}  // namespace dsnd
