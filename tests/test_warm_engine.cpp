// The warm-path contract: a reusable CarveContext (persistent worker
// pool, retained engine arenas, retained protocol arrays) must be
// invisible in the results — every warm run is bit-identical to a cold
// run of the same inputs, for every thread count, across interleaved
// seeds, across Lemma 1 recarves, and with the quiet-round barrier
// elision on or off (reliable and faulty transports alike). Also pins
// the batched radius sampler to the scalar stream bit for bit — the
// equality every chunk-parallel sampling pass rests on — and that a
// throw inside a chunk-parallel pass reaches the caller and leaves the
// engine reusable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomposition/carving.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"
#include "simulator/engine.hpp"
#include "simulator/transport.hpp"

namespace dsnd {
namespace {

void expect_identical(const DistributedRun& a, const DistributedRun& b,
                      const std::string& label) {
  ASSERT_EQ(a.sim.rounds, b.sim.rounds) << label;
  EXPECT_EQ(a.sim.messages, b.sim.messages) << label;
  EXPECT_EQ(a.sim.words, b.sim.words) << label;
  EXPECT_EQ(a.sim.vertex_activations, b.sim.vertex_activations) << label;
  EXPECT_EQ(a.sim.messages_per_round, b.sim.messages_per_round) << label;
  EXPECT_EQ(a.run.carve.phases_used, b.run.carve.phases_used) << label;
  EXPECT_EQ(a.run.carve.retries, b.run.carve.retries) << label;
  EXPECT_EQ(a.run.carve.rounds, b.run.carve.rounds) << label;
  EXPECT_EQ(a.run.carve.carved_per_phase, b.run.carve.carved_per_phase)
      << label;
  EXPECT_DOUBLE_EQ(a.run.carve.max_sampled_radius,
                   b.run.carve.max_sampled_radius)
      << label;
  const Clustering& ca = a.run.clustering();
  const Clustering& cb = b.run.clustering();
  ASSERT_EQ(ca.num_clusters(), cb.num_clusters()) << label;
  for (VertexId v = 0; v < ca.num_vertices(); ++v) {
    ASSERT_EQ(ca.cluster_of(v), cb.cluster_of(v)) << label << " v=" << v;
  }
  for (ClusterId c = 0; c < ca.num_clusters(); ++c) {
    ASSERT_EQ(ca.center_of(c), cb.center_of(c)) << label << " c=" << c;
    ASSERT_EQ(ca.color_of(c), cb.color_of(c)) << label << " c=" << c;
  }
}

// The batched sampler must reproduce the scalar per-vertex stream
// exactly (EXPECT_EQ on doubles, not NEAR): same seed, phase, retry,
// vertex => same bits, and the folded stats must equal the scalar fold.
TEST(WarmEngine, BatchedSamplerMatchesScalarBitForBit) {
  const VertexId n = 4096;
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < n; ++v) {
    if (v % 3 != 1) vertices.push_back(v);  // a strided live subset
  }
  std::vector<double> scratch(vertices.size());
  std::vector<double> radii(static_cast<std::size_t>(n), -1.0);
  const double beta = 1.25;
  const double overflow_at = 7.0;
  for (const std::int32_t phase : {0, 3}) {
    for (const std::int32_t retry : {0, 2}) {
      const RadiusBatchStats stats =
          carve_radius_sample_batch(99, phase, beta, retry, vertices,
                                    /*names=*/{}, scratch, radii,
                                    overflow_at);
      double max_radius = 0.0;
      bool overflow = false;
      for (const VertexId v : vertices) {
        const double expected = carve_radius_sample(99, phase, v, beta,
                                                    retry);
        EXPECT_EQ(radii[static_cast<std::size_t>(v)], expected)
            << "phase=" << phase << " retry=" << retry << " v=" << v;
        max_radius = std::max(max_radius, expected);
        overflow = overflow || expected >= overflow_at;
      }
      EXPECT_EQ(stats.max_radius, max_radius);
      EXPECT_EQ(stats.overflow, overflow);
    }
  }
}

// With a name map (the relabeled-graph path) the batch must key each
// vertex's stream by its ORIGINAL id, exactly like the scalar call the
// protocol used to make per vertex.
TEST(WarmEngine, BatchedSamplerHonorsNameMap) {
  const VertexId n = 512;
  std::vector<VertexId> names(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    names[static_cast<std::size_t>(v)] = n - 1 - v;  // reversal layout
  }
  std::vector<VertexId> vertices(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) vertices[static_cast<std::size_t>(v)] = v;
  std::vector<double> scratch(static_cast<std::size_t>(n));
  std::vector<double> radii(static_cast<std::size_t>(n));
  carve_radius_sample_batch(7, 1, 0.9, 1, vertices, names, scratch, radii,
                            100.0);
  for (const VertexId v : vertices) {
    EXPECT_EQ(radii[static_cast<std::size_t>(v)],
              carve_radius_sample(7, 1, names[static_cast<std::size_t>(v)],
                                  0.9, 1))
        << "v=" << v;
  }
}

// Warm runs on a reused context are bit-identical to cold runs, for
// serial and multi-threaded engines, with seeds interleaved so a run's
// leftover state would be caught by the NEXT seed's comparison.
TEST(WarmEngine, WarmRunsMatchColdRunsAcrossThreadsAndSeeds) {
  const VertexId n = 3000;  // above the chunk-parallel sampling threshold
  const Graph g = make_gnp(n, 6.0 / (n - 1), 3);
  const CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  const std::uint64_t seeds[] = {42, 7, 1, 42};
  for (const unsigned threads : {1u, 2u, 4u}) {
    EngineOptions options;
    options.threads = threads;
    CarveContext context(g, options);
    for (const std::uint64_t seed : seeds) {
      const DistributedRun warm =
          run_schedule_distributed(context, schedule, seed);
      const DistributedRun cold =
          run_schedule_distributed(g, schedule, seed, options);
      expect_identical(warm, cold,
                       "threads=" + std::to_string(threads) +
                           " seed=" + std::to_string(seed));
    }
  }
}

// Each theorem's schedule on one shared warm context, which carries all
// three theorems back to back, is the same run as on a cold engine.
TEST(WarmEngine, TheoremSchedulesMatchOnContext) {
  const VertexId n = 600;
  const Graph g = make_gnp(n, 6.0 / (n - 1), 9);
  EngineOptions options;
  options.threads = 2;
  CarveContext context(g, options);
  const CarveSchedule t1 = theorem1_schedule(n);
  expect_identical(run_schedule_distributed(context, t1, 11),
                   run_schedule_distributed(g, t1, 11, options), "theorem1");
  const CarveSchedule t2 = theorem2_schedule(n);
  expect_identical(run_schedule_distributed(context, t2, 12),
                   run_schedule_distributed(g, t2, 12, options), "theorem2");
  const CarveSchedule t3 = theorem3_schedule(n, 2);
  expect_identical(run_schedule_distributed(context, t3, 13),
                   run_schedule_distributed(g, t3, 13, options), "theorem3");
}

// A reused context through the Las Vegas recarve loop: the overflow
// threshold is lowered so salted per-phase resamples fire, and the warm
// replays must reproduce the cold run — retries, extra rounds, and all.
TEST(WarmEngine, ReusedContextRecarvesIdentically) {
  const VertexId n = 3000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  schedule.radius_overflow_at = 5.5;
  schedule.max_retries_per_phase = 64;
  for (const unsigned threads : {1u, 4u}) {
    EngineOptions options;
    options.threads = threads;
    CarveContext context(g, options);
    const DistributedRun first =
        run_schedule_distributed(context, schedule, 42);
    ASSERT_GT(first.run.carve.retries, 0);
    const DistributedRun second =
        run_schedule_distributed(context, schedule, 42);
    const DistributedRun cold =
        run_schedule_distributed(g, schedule, 42, options);
    expect_identical(first, cold,
                     "recarve cold threads=" + std::to_string(threads));
    expect_identical(second, cold,
                     "recarve warm threads=" + std::to_string(threads));
  }
}

// Quiet-round elision is pure mechanics: disabling it must not move a
// single bit of the results — on the reliable transport and under a
// fault plan whose delay calendar forces pending() to hold rounds open.
TEST(WarmEngine, ElisionOnOffParity) {
  const VertexId n = 1500;
  const Graph g = make_gnp(n, 6.0 / (n - 1), 5);
  const CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  for (const unsigned threads : {1u, 3u}) {
    EngineOptions on;
    on.threads = threads;
    on.elide_quiet_rounds = true;
    EngineOptions off = on;
    off.elide_quiet_rounds = false;
    expect_identical(run_schedule_distributed(g, schedule, 42, on),
                     run_schedule_distributed(g, schedule, 42, off),
                     "reliable threads=" + std::to_string(threads));

    FaultPlan plan;
    plan.seed = 1009;
    plan.drop_rate = 0.001;
    plan.delay_rate = 0.02;
    plan.max_delay_rounds = 3;
    FaultyTransport chaos_on(plan);
    FaultyTransport chaos_off(plan);
    on.transport = &chaos_on;
    off.transport = &chaos_off;
    const DistributedRun faulty_on =
        run_schedule_distributed(g, schedule, 42, on);
    const DistributedRun faulty_off =
        run_schedule_distributed(g, schedule, 42, off);
    expect_identical(faulty_on, faulty_off,
                     "faulty threads=" + std::to_string(threads));
    EXPECT_EQ(faulty_on.run.carve.faults.dropped,
              faulty_off.run.carve.faults.dropped);
    EXPECT_EQ(faulty_on.run.carve.faults.delayed,
              faulty_off.run.carve.faults.delayed);
    EXPECT_GT(faulty_on.run.carve.faults.delayed, 0u);
  }
}

/// Fills a per-vertex array chunk-parallel in every pre-round hook and,
/// while armed, throws from worker 1's chunk.
class ChunkThrowProtocol final : public Protocol {
 public:
  bool armed = true;
  std::vector<int> filled;

  void begin(const Graph& g) override {
    filled.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    rounds_ = 0;
  }
  void on_round_begin(std::size_t /*round*/, RoundPool& pool) override {
    ++rounds_;
    pool.for_chunks(filled.size(), [&](std::size_t begin, std::size_t end,
                                       unsigned worker) {
      if (armed && worker == 1) throw std::runtime_error("chunk of worker 1");
      for (std::size_t i = begin; i < end; ++i) ++filled[i];
    });
  }
  void on_round(VertexId, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    out.wake_self_in(1);
  }
  bool finished() const override { return rounds_ >= 3; }

 private:
  int rounds_ = 0;
};

// A chunk that throws on a worker thread must surface on the caller once
// every chunk has finished (not escape its thread and terminate the
// process), and the same engine must then complete a normal run.
TEST(WarmEngine, ChunkExceptionReachesCallerAndEngineRecovers) {
  const Graph g = make_cycle(4096);  // above the chunk-parallel threshold
  EngineOptions options;
  options.threads = 2;
  SyncEngine engine(g, options);
  ChunkThrowProtocol protocol;
  try {
    engine.run(protocol, 8);
    ADD_FAILURE() << "the worker's exception was swallowed";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk of worker 1");
  }
  protocol.armed = false;
  const SimMetrics sim = engine.run(protocol, 8);
  EXPECT_EQ(sim.rounds, 3u);
  for (const int count : protocol.filled) ASSERT_EQ(count, 3);
}

// Rapid run churn on one context: the parked pool must wake and park
// cleanly across many back-to-back runs (the classic teardown/startup
// race surface), with every run reproducing the first.
TEST(WarmEngine, PoolSurvivesRapidRunChurn) {
  const VertexId n = 3000;
  const Graph g = make_gnp(n, 6.0 / (n - 1), 3);
  const CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  EngineOptions options;
  options.threads = 4;
  CarveContext context(g, options);
  const DistributedRun baseline =
      run_schedule_distributed(context, schedule, 42);
  for (int i = 0; i < 8; ++i) {
    const DistributedRun again =
        run_schedule_distributed(context, schedule, 42);
    ASSERT_EQ(again.sim.messages, baseline.sim.messages) << "run " << i;
    ASSERT_EQ(again.sim.rounds, baseline.sim.rounds) << "run " << i;
  }
}

}  // namespace
}  // namespace dsnd
