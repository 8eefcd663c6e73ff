// Generic CONGEST carving protocol: the library's one carve
// implementation, for an arbitrary beta schedule, which makes all three
// theorems runnable as genuine distributed algorithms on the synchronous
// simulator, in the CONGEST spirit of Section 2's closing remark —
// run_schedule_distributed() (or run_schedule(), carve_schedule.hpp,
// which keeps only the decomposition) with the theorem's factory:
//   - Theorem 1: constant beta = ln(cn)/k             (theorem1_schedule)
//   - Theorem 2: stage-decaying beta_i = ln(cn/e^i)/k (theorem2_schedule)
//   - Theorem 3: beta = (cn)^{-1/lambda}, long phases (theorem3_schedule)
//
// Each phase occupies phase_rounds + 1 simulated rounds:
//   step 0:            live vertices sample r_v ~ EXP(beta_t) from the
//                      shared (seed, phase, vertex) stream and broadcast
//                      their own entry one hop (if ⌊r_v⌋ >= 1);
//   steps 1..L-1:      merge incoming entries, forward top-2 improvements
//                      one hop farther while dist + 1 <= ⌊r⌋;
//   step L:            final merge, join rule m1 - m2 > 1; joiners
//                      announce departure so neighbors learn G_{t+1}.
//
// Message discipline (the paper's CONGEST observation): each vertex
// forwards only its top-2 shifted values, one entry per message —
// [tag, center, radius-bits, dist], 4 words. That loses nothing, because
// clustering decisions depend only on each vertex's two largest shifted
// values, and a value that is not in the top-2 anywhere along a shortest
// path can never enter the top-2 downstream. An entry is (re)sent only
// when it changed at this vertex, so traffic per phase is proportional
// to the number of top-2 improvements rather than phase length.
//
// On the same seed the protocol is bit-identical to the dense reference
// carver the tests keep (tests/reference_carver.hpp): both draw r_v from
// stream (seed, phase, retry, vertex), merge entries with the same
// merge_entry, advance the same CarveProgress record and assemble the
// result with the same carve_result (carving.hpp, carve_schedule.hpp);
// only how entries travel differs (asserted by the parity tests).
//
// Lemma 1 recovery (max_retries_per_phase > 0, the default): when any live
// vertex samples r_v >= radius_overflow_at at an attempt's sampling
// round, the overflow bit aggregates during the phase broadcast (in the
// simulation: folded between rounds by the serial Protocol::on_round_begin
// hook), the deciding step re-arms every live vertex instead of joining,
// and the phase replays with freshly salted radii — so the whp guarantee
// becomes Las Vegas (always-valid output) at a cost of one phase length
// of rounds per retry, billed in CarveResult::extra_rounds.
#pragma once

#include <cstdint>
#include <memory>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving.hpp"
#include "graph/graph.hpp"
#include "graph/relabel.hpp"
#include "simulator/engine.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

/// A distributed decomposition run: the theorem-level result plus the
/// simulator's message/round accounting.
struct DistributedRun {
  DecompositionRun run;
  SimMetrics sim;
};

/// Reusable warm-run state for repeated distributed carves on ONE graph:
/// the SyncEngine (whose worker pool stays spawned and parked between
/// runs, and whose shard arrays/arenas keep their capacity) plus the
/// carving protocol's per-vertex arrays and, on lossy layout runs, the
/// reconstructed original graph used for validation. Construct once,
/// then feed it to run_schedule_distributed as often as wanted —
/// attempt 2..N of the verify-and-recover loop and every warm re-run
/// pay zero setup. The borrowed graph (and layout) and any borrowed
/// transport must outlive the context. Results are bit-identical to the
/// context-free overloads: a run never observes whether the engine it
/// ran on was cold or warm (pinned by test).
class CarveContext {
 public:
  explicit CarveContext(const Graph& g, const EngineOptions& options = {});
  /// Layout-aware twin: runs on lg.graph while keying all randomness and
  /// the emitted clustering to ORIGINAL ids via lg.layout.
  explicit CarveContext(const LayoutGraph& lg,
                        const EngineOptions& options = {});
  ~CarveContext();

  CarveContext(const CarveContext&) = delete;
  CarveContext& operator=(const CarveContext&) = delete;

  SyncEngine& engine();
  const SyncEngine& engine() const;

 private:
  friend DistributedRun run_schedule_distributed(
      CarveContext& context, const CarveSchedule& schedule,
      std::uint64_t seed);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The full schedule (verify-and-recover loop included) on a reusable
/// context — the warm-path twin of the overloads below. Different
/// schedules and seeds may share one context freely; only the graph is
/// fixed at construction. The schedule is borrowed for the length of the
/// call and checked with CarveSchedule::require_runnable() before any
/// round runs. Each attempt's round budget is schedule.round_budget(n).
DistributedRun run_schedule_distributed(CarveContext& context,
                                        const CarveSchedule& schedule,
                                        std::uint64_t seed);

/// Executes the schedule through the generic carving protocol on a cold
/// engine and attaches the schedule's bounds; run_schedule(g, schedule,
/// seed) is this call's `run` on the default engine. engine_options
/// tunes the simulator (threads, transport); on a reliable
/// transport no option changes the CarveResult.
DistributedRun run_schedule_distributed(
    const Graph& g, const CarveSchedule& schedule, std::uint64_t seed,
    const EngineOptions& engine_options = {});

/// Layout-aware twin: runs on lg.graph (the relabeled topology, built by
/// make_layout_graph with e.g. bfs_layout or grid_bucket_layout) while
/// keying all randomness and the returned clustering to ORIGINAL vertex
/// ids via lg.layout — bit-identical to run_schedule_distributed on the
/// original graph with the same seed, with the cache behavior of the
/// relabeled layout.
DistributedRun run_schedule_distributed(
    const LayoutGraph& lg, const CarveSchedule& schedule, std::uint64_t seed,
    const EngineOptions& engine_options = {});

/// Upper bound on words per message the protocol may emit: one entry per
/// message — [tag, center, radius, dist] — and at most two such messages
/// per edge per round (the top-2). Exported so tests and the CONGEST
/// bench can assert O(1)-word messages.
inline constexpr std::size_t kCarveProtocolMaxWords = 4;

}  // namespace dsnd
