// Cache-line-padded per-worker accumulator slots.
//
// The engine's parallel rounds give every worker thread an index
// (Protocol::begin_workers announces the count, Outbox::worker() the
// slot); protocols keep one accumulator per worker and fold the slots on
// the driving thread when a total is read (e.g. in finished()).
// This replaces shared atomic counters: no cross-core cache-line
// bouncing during the round, and the engine's round barrier provides
// the happens-before for every fold.
#pragma once

#include <cstddef>
#include <vector>

namespace dsnd {

template <typename T>
class PerWorker {
 public:
  /// (Re)creates `workers` value-initialized slots; called from
  /// Protocol::begin_workers (and from begin() with one slot so a
  /// protocol driven without an engine still works).
  void reset(unsigned workers) {
    slots_.assign(workers == 0 ? 1 : workers, Slot{});
  }

  T& operator[](unsigned worker) { return slots_[worker].value; }
  const T& operator[](unsigned worker) const {
    return slots_[worker].value;
  }

  /// Folds all slots on the calling thread: fn(accumulated, slot value).
  template <typename Acc, typename Fn>
  Acc fold(Acc init, Fn&& fn) const {
    for (const Slot& slot : slots_) init = fn(init, slot.value);
    return init;
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace dsnd
