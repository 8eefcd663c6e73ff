// Shared machinery for shifted-exponential block carving (Section 2 of
// the paper). All three theorems instantiate the same per-phase process
// with different beta schedules:
//
//   phase t on the surviving graph G_t:
//     every live vertex v samples r_v ~ EXP(beta_t);
//     v's value is broadcast ⌊r_v⌋ hops through G_t, so a vertex y learns
//       m_i = r_{v_i} - d_{G_t}(y, v_i) for every v_i whose broadcast
//       reaches it (including itself, giving m >= 0 always);
//     y joins the block W_t iff m_1 - m_2 > 1 (m_2 := 0 when only one
//       broadcast arrived), choosing the argmax center v_1;
//     W_t is removed: G_{t+1} = G_t \ W_t.
//
// Clusters are the per-(phase, center) groups; Claim 3 of the paper makes
// them connected with strong diameter <= 2k-2 provided no sampled radius
// reached k+1 (Lemma 1's event).
//
// The library carves with one implementation, the CONGEST protocol
// (carving_protocol.hpp), which sends these entries as messages on the
// simulator; run_schedule and run_schedule_distributed both run it. The
// dense reference carver in tests/reference_carver.hpp relaxes the same
// top-2 merges in memory and is the tests' oracle. Both feed entries
// through one merge_entry, decide with one phase_join_decision, advance
// one CarveProgress record, and assemble the result with one
// carve_result — so they agree bit for bit on the same seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "decomposition/partition.hpp"
#include "graph/graph.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

/// How a carving run ended. Everything but kOk is a NAMED failure: under
/// a lossy transport the contract is "a validated decomposition or a
/// named status, never a silently wrong answer" (the PR 5 Las Vegas
/// stance, generalized from radius overflow to transport faults).
/// Reliable runs always report kOk — anything else throws instead, as a
/// reliable run cannot legitimately fail.
enum class CarveStatus {
  /// The run exhausted the graph; on a faulted run the clustering also
  /// passed validate_decomposition_fast.
  kOk,
  /// The engine's round budget ran out before the graph was exhausted
  /// (the named replacement for a no-progress hang under loss).
  kRoundBudgetExhausted,
  /// The engine went quiescent with unclustered vertices left — faults
  /// broke the protocol's wake chain (should not happen: self-wakes are
  /// transport-immune; kept as a named outcome rather than an abort).
  kStalled,
  /// Every attempt that completed produced a clustering that failed
  /// validation (or accepted a radius overflow), and the run-retry
  /// budget is exhausted.
  kRejected,
};

const char* carve_status_name(CarveStatus status);

/// One (center, shifted value) candidate tracked during a phase.
struct CarveEntry {
  double radius = -1.0;   // r_v sampled at the center
  std::int32_t dist = 0;  // hops travelled from the center so far
  VertexId center = -1;

  double value() const { return radius - static_cast<double>(dist); }

  /// Ordering used everywhere: larger shifted value wins; ties (measure
  /// zero with continuous radii, but possible in adversarial tests) break
  /// toward the smaller center id so all nodes agree.
  bool beats(const CarveEntry& other) const {
    if (!valid()) return false;
    if (!other.valid()) return true;
    const double lhs = value();
    const double rhs = other.value();
    if (lhs != rhs) return lhs > rhs;
    return center < other.center;
  }

  bool valid() const { return center >= 0; }
};

/// Inserts `candidate` into a vertex's (best, second) slots, keeping one
/// entry per center: a later entry for a stored center replaces it only
/// if it carries a larger shifted value. Returns true if the slots
/// changed. The one top-2 merge the protocol and the reference carver run.
inline bool merge_entry(CarveEntry& best, CarveEntry& second,
                        const CarveEntry& candidate) {
  if (!candidate.valid()) return false;
  if (best.valid() && best.center == candidate.center) {
    if (!candidate.beats(best)) return false;
    best = candidate;
    return true;
  }
  if (second.valid() && second.center == candidate.center) {
    if (!candidate.beats(second)) return false;
    second = candidate;
    // The improved second entry may now beat the best.
    if (second.beats(best)) std::swap(best, second);
    return true;
  }
  if (candidate.beats(best)) {
    second = best;
    best = candidate;
    return true;
  }
  if (!candidate.beats(second)) return false;
  second = candidate;
  return true;
}

/// Default per-phase resample budget (CarveSchedule::max_retries_per_phase)
/// for Lemma 1's bad event: some live vertex samples r_v >=
/// radius_overflow_at, so the ceil(k)-round broadcast would truncate it
/// and Claim 3's connectivity certificate is void. Such an attempt is
/// aborted before joining and every live vertex resamples with a fresh
/// per-retry salt — the Elkin–Neiman whp guarantee becomes a Las Vegas
/// one (valid output unconditionally, expected O(1) extra phases; each
/// retry costs phase_rounds + 1 simulated rounds, billed in
/// CarveResult::extra_rounds). Once a phase's budget is spent — at once
/// with a budget of 0, the ablation setting — the radii are truncated to
/// the broadcast budget, the join rule runs anyway, and the run reports
/// radius_overflow: the output may contain disconnected clusters. Each
/// retry fails with probability <= 2/c (Lemma 1), so blowing 16 in a row
/// is astronomically unlikely in the theorem regimes.
inline constexpr std::int32_t kDefaultMaxRetriesPerPhase = 16;

struct CarveResult {
  Clustering clustering;
  /// Phases actually executed (== colors used, since phase = color).
  std::int32_t phases_used = 0;
  /// Scheduled phases (the theorem's lambda).
  std::int32_t target_phases = 0;
  /// True iff the graph was exhausted within target_phases.
  bool exhausted_within_target = false;
  /// True iff a phase ACCEPTED samples containing a radius >=
  /// radius_overflow_at — only possible once a phase's retry budget is
  /// spent (max_retries_per_phase = 0 spends it at once). This is the
  /// "output may be invalid" flag: with an intact budget it is always
  /// false and the clustering is valid unconditionally (the Las Vegas
  /// guarantee).
  bool radius_overflow = false;
  /// Largest radius sampled across ALL attempts, including the discarded
  /// ones — so logs show the Lemma 1 event that actually fired even when
  /// a retry recovered from it.
  double max_sampled_radius = 0.0;
  /// Lemma 1 recoveries: total resample retries across all phases.
  std::int32_t retries = 0;
  /// Rounds spent on aborted attempts: retries * (phase_rounds + 1). The
  /// price of the Las Vegas guarantee, reported separately so the
  /// theorems' round bounds stay comparable (measured rounds should meet
  /// bounds.rounds + extra_rounds).
  std::int64_t extra_rounds = 0;
  /// Vertices carved in each executed phase.
  std::vector<VertexId> carved_per_phase;
  /// Simulated distributed rounds: (phases_used + retries) *
  /// (phase_rounds + 1); each attempt spends phase_rounds broadcasting
  /// plus one round announcing membership (or, for an aborted attempt,
  /// aggregating the overflow bit) so neighbors learn the surviving
  /// graph.
  std::int64_t rounds = 0;
  /// How the run ended (see CarveStatus). Reliable runs always report
  /// kOk.
  CarveStatus status = CarveStatus::kOk;
  /// Whole-run restarts spent by the verify-and-recover loop of
  /// run_schedule_distributed under a lossy transport (attempt i > 0
  /// reseeds via stream_seed(seed, 1, i)). Always 0 on reliable runs;
  /// distinct from `retries`, which counts PR 5's per-phase resamples
  /// within one run.
  std::int32_t run_retries = 0;
  /// Checkpoint rollbacks spent by the recovery loop: failed runs that
  /// restored the last validated phase-boundary checkpoint and replayed
  /// only the suffix phases on the a = 2 salt channel
  /// (stream_seed(seed, 2, rollback)). Preferred over whole-run retries;
  /// see CarveSchedule::max_rollbacks. Always 0 on reliable runs.
  std::int32_t rollbacks = 0;
  /// Phases re-executed by recovery runs: each rollback bills the phases
  /// past its restored checkpoint, each whole-run retry bills every phase
  /// it ran. The A/B cost metric — on the same fault plan, rollback
  /// recovery replays strictly fewer phases than whole-run retry.
  std::int64_t replayed_phases = 0;
  /// Transport fault events aggregated across every attempt of the run
  /// (all zeros on a reliable transport); faults.rejoined counts the
  /// crash-recovery rejoin events.
  FaultCounters faults;

  /// Field for field: the clustering and every counter above.
  bool operator==(const CarveResult&) const = default;
};

/// What a batched sampling pass observed: the fold every carve feeds
/// into CarveResult::max_sampled_radius and the Lemma 1 overflow event.
/// Combining per-chunk stats (max / OR) is order-independent, so
/// chunk-parallel batches report identical stats for every chunking.
struct RadiusBatchStats {
  double max_radius = 0.0;
  bool overflow = false;  // some sampled radius >= overflow_at

  void merge(const RadiusBatchStats& other) {
    max_radius = std::max(max_radius, other.max_radius);
    overflow = overflow || other.overflow;
  }
};

/// Samples r_v ~ EXP(beta) for phase `phase`: fills radii[v] for every v
/// in `vertices` (radii is indexed by vertex id; entries of vertices not
/// listed are untouched) and returns the max/overflow fold. Each value
/// is drawn from its own per-(seed, phase, name, retry) stream — `names`
/// maps vertex ids to the stream key (empty = identity; layout runs pass
/// the original ids) — so it does not depend on the batch it rides in.
/// `retry` is the per-phase resample index of the Las Vegas recarve
/// loop: retry 0 is the unsalted stream, retry r > 0 mixes a fresh salt
/// into the seed so aborted attempts never correlate with their
/// replacements. The scalar carve_radius_sample of the reference carver
/// (tests/reference_carver.hpp) draws the same bits (pinned by test).
/// Two passes: stream seeding + the uniform draw into `unit_scratch`
/// (which must hold at least vertices.size() doubles), then the
/// log1p transform over the dense scratch, one inverse-CDF call per
/// element, so vectorizing the first pass can never change a bit of the
/// second.
RadiusBatchStats carve_radius_sample_batch(
    std::uint64_t seed, std::int32_t phase, double beta, std::int32_t retry,
    std::span<const VertexId> vertices, std::span<const VertexId> names,
    std::span<double> unit_scratch, std::span<double> radii,
    double overflow_at);

/// Join rule applied to a vertex's phase state (the m1 - m2 > margin test).
bool phase_join_decision(const CarveEntry& best, const CarveEntry& second,
                         double margin);

/// The carving state the protocol, the reference carver, the Linial–Saks
/// protocol and its oracle advance: who is still live, what each carved
/// vertex chose, and the run-level counters. carve_result
/// (carve_schedule.hpp) assembles a CarveResult from it, and the
/// protocol's phase-boundary checkpoint (checkpoint.hpp) is a copy of it.
/// Indexed by the backend's vertex ids; the chosen centers are names
/// (original ids on a relabeled run), as entries carry them.
struct CarveProgress {
  std::vector<char> alive;
  /// The live vertices, ascending; compacted at each phase advance.
  std::vector<VertexId> live;
  std::vector<VertexId> chosen_center;     // -1 while live
  std::vector<std::int32_t> chosen_phase;  // -1 while live
  /// The phase being carved.
  std::int32_t phase = 0;
  /// Phases that sampled radii: phase + 1 once the phase has sampled.
  std::int32_t phases_used = 0;
  /// Lemma 1 replays over all phases.
  std::int32_t retries = 0;
  /// Over every attempt, the replayed ones included, so logs show the
  /// Lemma 1 event that actually fired.
  double max_sampled_radius = 0.0;

  /// Every vertex live, nothing chosen, counters zero. Reuses capacity.
  void reset(VertexId num_vertices);

  /// v joins the cluster of `center` in the current phase. Touches only
  /// v's slots, so workers may join their own vertices concurrently.
  void join(VertexId v, VertexId center) {
    const auto vi = static_cast<std::size_t>(v);
    alive[vi] = 0;
    chosen_center[vi] = center;
    chosen_phase[vi] = phase;
  }

  /// Drops the phase's joiners from `live` and moves to the next phase.
  void advance_phase();
};

}  // namespace dsnd
