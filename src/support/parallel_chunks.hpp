// Fork-join over a contiguous partition of [0, items): the threads of the
// chunk-parallel generators and of the edge-list kernel's row sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace dsnd {

/// Runs fn(chunk_index, begin, end) over a contiguous partition of
/// [0, items) — inline when one thread suffices. The partition only
/// distributes work; each unit draws from its own stream, so results
/// never depend on the chunking.
template <typename Fn>
void parallel_chunks(std::size_t items, unsigned threads, Fn&& fn) {
  if (threads <= 1 || items < 2) {
    fn(0u, std::size_t{0}, items);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const std::size_t chunk = (items + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t begin = std::min(items, t * chunk);
    const std::size_t end = std::min(items, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back([&fn, t, begin, end] { fn(t, begin, end); });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace dsnd
