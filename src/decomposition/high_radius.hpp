// Theorem 3 of the paper (Section 2.2, "High Radius Regime"): for
// 1 <= lambda <= ln n and c > 3, a strong (2(cn)^{1/lambda} ln(cn),
// lambda) network decomposition in lambda (cn)^{1/lambda} ln(cn) rounds
// with probability >= 1 - 3/c.
//
// The inverse tradeoff of Theorem 1: fix the number of colors at lambda
// and pay radius k = (cn)^{1/lambda} ln(cn) instead. Same carving with a
// real-valued k: theorem3_schedule() derives lambda phases at
// beta = (cn)^{-1/lambda} with ceil(k) broadcast rounds each, which
// run_schedule() and run_schedule_distributed() (carving_protocol.hpp)
// carve on the one CONGEST protocol.
#pragma once

#include <cstdint>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// The derived radius parameter k = (cn)^{1/lambda} ln(cn).
double high_radius_k(VertexId n, std::int32_t lambda, double c);

/// Theorem 3's schedule: lambda phases (the desired number of colors) at
/// beta = ln(cn)/k = (cn)^{-1/lambda} with ceil(k) broadcast rounds per
/// phase (real-valued k); success probability is 1 - 3/c.
CarveSchedule theorem3_schedule(VertexId n, std::int32_t lambda,
                                double c = 4.0);

}  // namespace dsnd
