#include "reference_carver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "decomposition/elkin_neiman.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace dsnd {

double carve_radius_sample(std::uint64_t seed, std::int32_t phase,
                           VertexId v, double beta, std::int32_t retry) {
  // Retry salt rides in the (a = 0) channel, which the (phase + 1,
  // vertex + 1) streams below never use, so retry 0 is the unsalted
  // stream and every retry draws from an independent stream family.
  const std::uint64_t base =
      retry == 0 ? seed
                 : stream_seed(seed, 0, static_cast<std::uint64_t>(retry));
  Xoshiro256ss rng(stream_seed(base, static_cast<std::uint64_t>(phase) + 1,
                               static_cast<std::uint64_t>(v) + 1));
  return sample_exponential(rng, beta);
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
  // Entries stop propagating once the hop count would exceed ⌊r⌋ (the
  // broadcast range) or the round budget.
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

CarveResult carve_decomposition(const Graph& g, const CarveSchedule& schedule,
                                std::uint64_t seed, double margin,
                                ForwardPolicy forward_policy) {
  schedule.require_runnable();

  const auto n = static_cast<std::size_t>(g.num_vertices());
  CarveProgress progress;
  progress.reset(g.num_vertices());
  std::vector<double> radii(n, 0.0);
  std::vector<double> unit_scratch(n);
  bool radius_overflow = false;

  // Cap runaway loops: even beta close to 0 empties the graph in one
  // phase, so this bound is never hit in practice.
  const std::int32_t hard_cap =
      schedule.target_phases() * 16 + g.num_vertices() + 16;

  while (!progress.live.empty()) {
    DSND_CHECK(progress.phase < hard_cap, "carving failed to converge");
    // Las Vegas recarve loop: resample the whole phase (fresh per-retry
    // salt) while Lemma 1's event holds and the schedule replays it.
    progress.phases_used = progress.phase + 1;
    for (std::int32_t retry = 0;; ++retry) {
      const RadiusBatchStats stats = carve_radius_sample_batch(
          seed, progress.phase, schedule.beta_at(progress.phase), retry,
          progress.live, /*names=*/{}, unit_scratch, radii,
          schedule.radius_overflow_at);
      progress.max_sampled_radius =
          std::max(progress.max_sampled_radius, stats.max_radius);
      if (!stats.overflow) break;
      if (!schedule.replays(retry)) {
        radius_overflow = true;
        break;
      }
      ++progress.retries;
    }

    const PhaseState state = run_phase_broadcast(
        g, progress.alive, radii, schedule.phase_rounds, forward_policy);
    for (const VertexId v : progress.live) {
      const auto vi = static_cast<std::size_t>(v);
      if (phase_join_decision(state.best[vi], state.second[vi], margin)) {
        progress.join(v, state.best[vi].center);
      }
    }
    progress.advance_phase();
  }
  return carve_result(schedule.target_phases(), schedule.phase_rounds,
                      progress, /*names=*/{}, radius_overflow);
}

CarveResult reference_linial_saks(const Graph& g,
                                  const LinialSaksOptions& options) {
  const VertexId n = g.num_vertices();
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  // LS93's parameters: radii capped at k - 1 (k >= 2, or nothing is ever
  // retained), the expected phase count lambda = n^{1/k} ln n, and
  // beta = -ln p, under which the floor of an EXP(beta) draw has the
  // tail Pr[r >= j] = p^j.
  const std::int32_t k = std::max(resolve_k(n, options.k), 2);
  const auto lambda = static_cast<std::int32_t>(
      std::ceil(std::pow(static_cast<double>(n), 1.0 / k) *
                    std::log(static_cast<double>(std::max<VertexId>(n, 2))) +
                1.0));
  const double beta = -std::log(linial_saks_p(n, k));
  const auto radius = [k](double draw) {
    return std::min(std::floor(draw), static_cast<double>(k - 1));
  };
  const std::int32_t hard_cap = lambda * 16 + n + 16;

  const auto nn = static_cast<std::size_t>(n);
  CarveProgress progress;
  progress.reset(n);
  std::vector<double> draws(nn);
  std::vector<double> unit_scratch(nn);
  // claimed[y] == phase: a smaller-id center's broadcast reached y.
  std::vector<std::int32_t> claimed(nn, -1);
  BfsArena arena(n);

  while (!progress.live.empty()) {
    const std::int32_t phase = progress.phase;
    DSND_CHECK(phase < hard_cap, "Linial–Saks failed to converge");
    progress.phases_used = phase + 1;
    const RadiusBatchStats stats = carve_radius_sample_batch(
        options.seed, phase, beta, /*retry=*/0, progress.live,
        /*names=*/{}, unit_scratch, draws,
        /*overflow_at=*/std::numeric_limits<double>::infinity());
    progress.max_sampled_radius =
        std::max(progress.max_sampled_radius, radius(stats.max_radius));

    // The phase's graph G_t: joiners leave only at the phase advance.
    const auto in_phase = [&progress, phase](VertexId u) {
      const auto ui = static_cast<std::size_t>(u);
      return progress.alive[ui] != 0 || progress.chosen_phase[ui] == phase;
    };
    // Each live y goes to the minimum-id center whose r_v-hop broadcast
    // reaches it in G_t: centers claim unclaimed vertices by radius-capped
    // BFS in increasing id order, so an earlier claim always wins the id
    // tie-break. Retention rule: y joins iff d(y, center) < r_center.
    for (const VertexId v : progress.live) {
      const auto r = static_cast<std::int32_t>(
          radius(draws[static_cast<std::size_t>(v)]));
      for (const VertexId u : bfs(g, {&v, 1}, arena, in_phase, r)) {
        std::int32_t& claim = claimed[static_cast<std::size_t>(u)];
        if (claim == phase) continue;
        claim = phase;
        if (arena.distance(u) < r) progress.join(u, v);
      }
      arena.reset();
    }
    progress.advance_phase();
  }
  // k + 1 rounds per phase: k broadcast rounds plus one announcement.
  return carve_result(lambda, k, progress, /*names=*/{},
                      /*radius_overflow=*/false);
}

void PrintTo(const CarveResult& result, std::ostream* os) {
  *os << "{status=" << carve_status_name(result.status)
      << " phases_used=" << result.phases_used
      << " target_phases=" << result.target_phases
      << " rounds=" << result.rounds << " retries=" << result.retries
      << " extra_rounds=" << result.extra_rounds
      << " radius_overflow=" << result.radius_overflow
      << " max_sampled_radius=" << result.max_sampled_radius
      << " clusters=" << result.clustering.num_clusters()
      << " run_retries=" << result.run_retries
      << " rollbacks=" << result.rollbacks << "}";
}

}  // namespace dsnd
