// The three theorems as genuine message-passing protocols on the
// synchronous simulator, in the CONGEST spirit of Section 2's closing
// remark: every message carries one (center, radius, distance) entry —
// 4 words — because clustering decisions depend only on each vertex's
// two largest shifted values, and a value that is not in the top-2
// anywhere along a shortest path can never enter the top-2 downstream.
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
// Every wrapper is a thin instantiation of run_schedule_distributed()
// (carving_protocol.hpp) with its theorem's schedule factory — the same
// CarveSchedule its centralized counterpart executes, so on the same
// seed the clusterings are bit-identical (asserted by the parity tests).
#pragma once

#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/graph.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

/// Theorem 1 distributed; options.margin must be 1. engine_options tunes
/// the simulator (scheduling, threads) without changing the clustering.
DistributedRun elkin_neiman_distributed(
    const Graph& g, const ElkinNeimanOptions& options,
    const EngineOptions& engine_options = {});

/// Theorem 2 (multistage beta schedule) distributed.
DistributedRun multistage_distributed(
    const Graph& g, const MultistageOptions& options,
    const EngineOptions& engine_options = {});

/// Theorem 3 (high radius regime) distributed.
DistributedRun high_radius_distributed(
    const Graph& g, const HighRadiusOptions& options,
    const EngineOptions& engine_options = {});

/// Upper bound on words per message the protocol may emit: one entry per
/// message — [tag, center, radius, dist] — and at most two such messages
/// per edge per round (the top-2). Exported so tests and the CONGEST
/// bench can assert O(1)-word messages.
inline constexpr std::size_t kMaxProtocolMessageWords =
    kCarveProtocolMaxWords;

}  // namespace dsnd
