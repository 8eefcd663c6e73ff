// Theorem 2 of the paper (Section 2.1, "Improved Number of Blocks"):
// for 1 <= k <= ln n and c > 5, a strong (2k-2, 4k(cn)^{1/k}) network
// decomposition in O(k^2 (cn)^{1/k}) rounds with probability >= 1 - 5/c.
//
// Identical carving machinery, but the exponential parameter decays over
// stages: stage i runs s_i = ceil(2 (cn/e^i)^{1/k}) phases with
// beta_i = ln(cn/e^i)/k, for i = 0..floor(ln n). Smaller beta raises the
// per-phase join probability, so later (sparser) stages finish in fewer
// phases and the total color count drops from (cn)^{1/k} ln(cn) to
// 4k (cn)^{1/k}.
//
// theorem2_schedule() packages the decaying schedule + bounds, which
// run_schedule() and run_schedule_distributed() (carving_protocol.hpp)
// carve on the one CONGEST protocol.
#pragma once

#include <cstdint>
#include <vector>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// The per-phase beta schedule of Theorem 2 (one entry per phase).
std::vector<double> multistage_beta_schedule(VertexId n, std::int32_t k,
                                             double c);

/// Theorem 2's schedule: the stage-decaying betas above with k broadcast
/// rounds per phase and the theorem's bounds. k == 0 selects ceil(ln n);
/// success probability is 1 - 5/c.
CarveSchedule theorem2_schedule(VertexId n, std::int32_t k = 0,
                                double c = 6.0);

}  // namespace dsnd
