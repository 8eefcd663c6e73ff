#include "decomposition/carving.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace dsnd {

const char* carve_status_name(CarveStatus status) {
  // Failure names deliberately avoid the substring "INVALID": that
  // string is reserved for true contract violations (a run claiming kOk
  // whose clustering fails external validation), which CI greps for.
  switch (status) {
    case CarveStatus::kOk: return "ok";
    case CarveStatus::kRoundBudgetExhausted: return "round-budget";
    case CarveStatus::kStalled: return "stalled";
    case CarveStatus::kRejected: return "rejected";
  }
  return "unknown";
}

RadiusBatchStats carve_radius_sample_batch(
    std::uint64_t seed, std::int32_t phase, double beta, std::int32_t retry,
    std::span<const VertexId> vertices, std::span<const VertexId> names,
    std::span<double> unit_scratch, std::span<double> radii,
    double overflow_at) {
  DSND_REQUIRE(unit_scratch.size() >= vertices.size(),
               "batch sampling scratch smaller than the vertex batch");
  const std::uint64_t base =
      retry == 0 ? seed
                 : stream_seed(seed, 0, static_cast<std::uint64_t>(retry));
  const std::uint64_t phase_key = static_cast<std::uint64_t>(phase) + 1;
  const std::size_t count = vertices.size();
  // Pass 1: per-vertex stream seeding and the single uniform draw, into
  // the dense scratch. Each stream is independent, so the loop has no
  // cross-iteration state — the SplitMix64 seeding and xoshiro rotates
  // are pure integer lanes a vectorizer can chew on.
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = static_cast<std::size_t>(vertices[i]);
    const std::uint64_t key =
        names.empty() ? static_cast<std::uint64_t>(v)
                      : static_cast<std::uint64_t>(names[v]);
    Xoshiro256ss rng(stream_seed(base, phase_key, key + 1));
    unit_scratch[i] = uniform_unit(rng);
  }
  // Pass 2: the inverse-CDF transform, element for element the same call
  // the reference carver's scalar sampler makes — bit-identity with it
  // cannot drift no matter how pass 1 is scheduled.
  RadiusBatchStats stats;
  for (std::size_t i = 0; i < count; ++i) {
    const double r = exponential_inverse_cdf(unit_scratch[i], beta);
    radii[static_cast<std::size_t>(vertices[i])] = r;
    if (r > stats.max_radius) stats.max_radius = r;
    if (r >= overflow_at) stats.overflow = true;
  }
  return stats;
}

bool phase_join_decision(const CarveEntry& best, const CarveEntry& second,
                         double margin) {
  if (!best.valid()) return false;
  const double m1 = best.value();
  const double m2 = second.valid() ? second.value() : 0.0;
  return m1 - m2 > margin;
}

void CarveProgress::reset(VertexId num_vertices) {
  const auto n = static_cast<std::size_t>(num_vertices);
  alive.assign(n, 1);
  live.resize(n);
  std::iota(live.begin(), live.end(), VertexId{0});
  chosen_center.assign(n, -1);
  chosen_phase.assign(n, -1);
  phase = 0;
  phases_used = 0;
  retries = 0;
  max_sampled_radius = 0.0;
}

void CarveProgress::advance_phase() {
  live.erase(std::remove_if(live.begin(), live.end(),
                            [this](VertexId v) {
                              return alive[static_cast<std::size_t>(v)] == 0;
                            }),
             live.end());
  ++phase;
}

}  // namespace dsnd
