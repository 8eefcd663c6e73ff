#include "decomposition/carving.hpp"

#include <algorithm>
#include <cmath>
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

double carve_radius_sample(std::uint64_t seed, std::int32_t phase,
                           VertexId v, double beta, std::int32_t retry) {
  // Retry salt rides in the (a = 0) channel, which the (phase + 1,
  // vertex + 1) streams below never use, so retry 0 reproduces the
  // historical stream bit-for-bit and every retry draws from an
  // independent stream family.
  const std::uint64_t base =
      retry == 0 ? seed
                 : stream_seed(seed, 0, static_cast<std::uint64_t>(retry));
  Xoshiro256ss rng(stream_seed(base, static_cast<std::uint64_t>(phase) + 1,
                               static_cast<std::uint64_t>(v) + 1));
  return sample_exponential(rng, beta);
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
  // the scalar sampler makes — bit-identity with the scalar path cannot
  // drift no matter how pass 1 is scheduled.
  RadiusBatchStats stats;
  for (std::size_t i = 0; i < count; ++i) {
    const double r = exponential_inverse_cdf(unit_scratch[i], beta);
    radii[static_cast<std::size_t>(vertices[i])] = r;
    if (r > stats.max_radius) stats.max_radius = r;
    if (r >= overflow_at) stats.overflow = true;
  }
  return stats;
}

PhaseState run_phase_broadcast(const Graph& g, const std::vector<char>& alive,
                               const std::vector<double>& radii,
                               std::int32_t phase_rounds,
                               ForwardPolicy policy) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  DSND_REQUIRE(alive.size() == n, "alive mask size mismatch");
  DSND_REQUIRE(radii.size() == n, "radii size mismatch");
  DSND_REQUIRE(phase_rounds >= 0, "phase_rounds must be nonnegative");

  PhaseState state;
  state.best.assign(n, CarveEntry{});
  state.second.assign(n, CarveEntry{});

  for (std::size_t v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    // Every live vertex hears its own broadcast at distance 0.
    state.best[v] = CarveEntry{radii[v], 0, static_cast<VertexId>(v)};
  }

  // Synchronous top-2 relaxation: in each round every live vertex offers
  // its current top-2 entries (one hop farther) to its live neighbors.
  // This is exactly what the CONGEST protocol transmits; see
  // carving_protocol.cpp. Entries stop propagating once the hop
  // count would exceed ⌊r⌋ (the broadcast range) or the round budget.
  std::vector<CarveEntry> offer_best(n), offer_second(n);
  for (std::int32_t round = 0; round < phase_rounds; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      offer_best[v] = state.best[v];
      offer_second[v] = state.second[v];
    }
    bool changed = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      for (const CarveEntry* offered : {&offer_best[v], &offer_second[v]}) {
        if (policy == ForwardPolicy::kTop1 && offered == &offer_second[v]) {
          continue;  // ablation: suppress the second-best value
        }
        if (!offered->valid()) continue;
        const std::int32_t next_dist = offered->dist + 1;
        if (static_cast<double>(next_dist) >
            std::floor(offered->radius)) {
          continue;  // beyond the ⌊r_v⌋ broadcast range
        }
        const CarveEntry forwarded{offered->radius, next_dist,
                                   offered->center};
        for (VertexId w : g.neighbors(static_cast<VertexId>(v))) {
          if (!alive[static_cast<std::size_t>(w)]) continue;
          changed |= merge_entry(state.best[static_cast<std::size_t>(w)],
                                 state.second[static_cast<std::size_t>(w)],
                                 forwarded);
        }
      }
    }
    if (!changed) break;  // fixed point reached early; rounds still billed
  }
  return state;
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
