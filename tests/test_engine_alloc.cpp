// Verifies the arena engine's zero-per-message-allocation guarantee:
// once the engine's buffers are warm (first run), a full run making
// hundreds of thousands of sends performs only a small constant number
// of heap allocations (the metrics snapshot returned at the end) —
// none per message, per inbox, or per round.
//
// The global operator new/delete are replaced with counting versions.
// Each test brackets its own measurement window with before/after
// counter reads, so gtest bookkeeping between tests never pollutes a
// window.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "service/decomposition_service.hpp"
#include "simulator/engine.hpp"
#include "simulator/transport.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dsnd {
namespace {

/// Every vertex broadcasts a fixed-width message to all neighbors every
/// round — the allocation-heavy worst case for the old per-message
/// std::vector engine, allocation-free on the arena engine.
class BroadcastStorm final : public Protocol {
 public:
  void begin(const Graph&) override {}
  // Every vertex wakes itself every round, so the message volume is
  // maximal.
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView>, Outbox& out) override {
    out.send_to_all_neighbors({static_cast<std::uint64_t>(v), round});
    out.wake_self_in(1);
  }
  bool finished() const override { return false; }
};

TEST(EngineAllocations, SteadyStateRoundsAllocateNothingPerMessage) {
  const Graph g = make_gnp(500, 8.0 / 499.0, 5);
  BroadcastStorm protocol;
  SyncEngine engine(g);

  // Warm-up run: grows every engine buffer to its steady-state capacity.
  engine.run(protocol, 50);

  const std::size_t before = g_allocations.load();
  const SimMetrics metrics = engine.run(protocol, 50);
  const std::size_t during = g_allocations.load() - before;

  // ~2 messages per edge per round for 50 rounds: a lot of traffic.
  EXPECT_GT(metrics.messages, 100000u);
  // The only allocations permitted are the O(1) end-of-run metrics
  // snapshot — nothing proportional to messages or rounds.
  EXPECT_LE(during, 16u);
}

// The warm path end to end: a reusable CarveContext whose engine, pool,
// and protocol arrays were warmed by a cold run must execute further
// full carves — salted Lemma 1 recarves included — allocating only for
// the returned result (clustering, metrics series), nothing per
// message, per round, or per retry.
TEST(EngineAllocations, WarmCarveContextRunsAllocateOnlyTheResult) {
  const VertexId n = 20000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  // The overflow-smoke configuration: a threshold low enough that the
  // recarve loop fires on this seed, so the measured warm runs cover the
  // salted resampling path too.
  CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  schedule.radius_overflow_at = 8.5;
  schedule.max_retries_per_phase = 64;

  CarveContext context(g);
  const DistributedRun cold = run_schedule_distributed(context, schedule, 42);
  ASSERT_GT(cold.run.carve.retries, 0);

  const std::size_t before_a = g_allocations.load();
  const DistributedRun warm_a =
      run_schedule_distributed(context, schedule, 42);
  const std::size_t allocs_a = g_allocations.load() - before_a;

  const std::size_t before_b = g_allocations.load();
  const DistributedRun warm_b =
      run_schedule_distributed(context, schedule, 42);
  const std::size_t allocs_b = g_allocations.load() - before_b;

  EXPECT_GT(warm_a.sim.messages, 50000u);
  EXPECT_GT(static_cast<std::uint64_t>(warm_a.sim.rounds), 100u);
  EXPECT_GT(warm_a.run.carve.retries, 0);
  EXPECT_EQ(warm_b.sim.messages, warm_a.sim.messages);
  // Later warm runs never allocate more than earlier ones (all buffer
  // capacity is retained), and the absolute count stays result-sized:
  // orders of magnitude below the message/round volume above.
  EXPECT_LE(allocs_b, allocs_a);
  EXPECT_LE(allocs_b, 4096u);
}

// The warm guarantee through the service layer: after the first
// submission for a graph has built its pooled context, further
// cache-bypassing submissions run on that warm context and allocate
// only result-sized state (response, clustering, validation scratch) —
// the service adds scheduling and accounting, never a per-request
// engine rebuild.
TEST(EngineAllocations, WarmServiceSubmissionsAllocateOnlyTheResult) {
  const VertexId n = 20000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  ServiceOptions options;
  options.cache_capacity = 0;  // every submission must really carve
  DecompositionService service(options);
  service.register_graph("g", g);
  ServiceRequest request;
  request.graph_id = "g";
  request.schedule = theorem1_schedule(n, 0, 4.0);
  request.seed = 42;
  const ServiceResponse cold = service.submit(request);
  ASSERT_EQ(cold.status, "ok");

  const std::size_t before_a = g_allocations.load();
  const ServiceResponse warm_a = service.submit(request);
  const std::size_t allocs_a = g_allocations.load() - before_a;

  const std::size_t before_b = g_allocations.load();
  const ServiceResponse warm_b = service.submit(request);
  const std::size_t allocs_b = g_allocations.load() - before_b;

  EXPECT_GT(warm_a.result->run.sim.messages, 50000u);
  EXPECT_EQ(warm_b.result->run.sim.messages,
            warm_a.result->run.sim.messages);
  EXPECT_EQ(service.stats().contexts_created, 1u);
  EXPECT_LE(allocs_b, allocs_a);
  EXPECT_LE(allocs_b, 4096u);
}

// The same warm guarantee under recovery: a faulted context whose first
// run exercised checkpoint capture, rollback restore, and replay has
// sized the RecoveryArena's buffers — two further faulted carves of one
// seed (the same rollbacks, the same replays) stay result-sized,
// allocating nothing per checkpoint, per rollback, or per validated
// phase.
TEST(EngineAllocations, WarmFaultedContextRecoveryAllocatesOnlyTheResult) {
  const VertexId n = 128;
  const Graph g = make_gnp(n, 0.05, 1);
  const CarveSchedule schedule = theorem1_schedule(n, 4, 4.0);
  FaultPlan plan;
  plan.seed = 8;
  plan.drop_rate = 0.05;
  plan.crashes.push_back(
      CrashSpan{100, 110, std::uint64_t{8}, std::uint64_t{20}});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;

  CarveContext context(g, engine);
  const DistributedRun cold = run_schedule_distributed(context, schedule, 1);
  // The measurement below must cover the recovery machinery, not a
  // clean first-attempt pass.
  ASSERT_GT(cold.run.carve.rollbacks, 0);

  const std::size_t before_a = g_allocations.load();
  const DistributedRun warm_a = run_schedule_distributed(context, schedule, 3);
  const std::size_t allocs_a = g_allocations.load() - before_a;

  const std::size_t before_b = g_allocations.load();
  const DistributedRun warm_b = run_schedule_distributed(context, schedule, 3);
  const std::size_t allocs_b = g_allocations.load() - before_b;

  // The measured runs must recover too; seeds 1 and 3 are different
  // runs, so only the two seed-3 runs are compared with each other.
  ASSERT_GT(warm_a.run.carve.rollbacks, 0);
  EXPECT_EQ(warm_b.run.carve.rollbacks, warm_a.run.carve.rollbacks);
  EXPECT_EQ(warm_b.run.carve.replayed_phases,
            warm_a.run.carve.replayed_phases);
  EXPECT_EQ(warm_b.sim.messages, warm_a.sim.messages);
  EXPECT_LE(allocs_b, allocs_a);
  EXPECT_LE(allocs_b, 4096u);
}

}  // namespace
}  // namespace dsnd
