// The WorkerPool dispatch barrier: every run() executes each worker index
// exactly once and returns only after all of them finished — including
// when the driver outlasts its spin budget and parks on the condvar
// while a straggler is still running. That park/notify handshake is
// where a lost wake-up hangs the driver forever, so a regression here
// shows up as a ctest TIMEOUT, not as a failed assertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/worker_pool.hpp"

namespace dsnd {
namespace {

TEST(WorkerPool, ParkedDriverIsAlwaysWoken) {
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kRuns = 100000;
  WorkerPool pool(kWorkers);
  std::vector<std::uint64_t> runs(kWorkers, 0);
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    pool.run([&](unsigned w) {
      ++runs[w];
      if (w == kWorkers - 1) {
        // A straggler of varying length: often long enough that the
        // driver exhausts its spin budget and parks, so the last
        // worker's notify races the driver's decision to sleep.
        volatile std::uint64_t sink = 0;
        for (std::uint64_t s = (i * 7919) % 60000; s > 0; --s) {
          sink = sink + s;
        }
      }
    });
  }
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(runs[w], kRuns) << "worker " << w;
  }
}

}  // namespace
}  // namespace dsnd
