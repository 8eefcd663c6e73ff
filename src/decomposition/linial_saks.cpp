#include "decomposition/linial_saks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "graph/traversal.hpp"
#include "support/assert.hpp"
#include "support/per_worker.hpp"

namespace dsnd {

double linial_saks_p(VertexId n, std::int32_t k) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(k >= 1, "k must be positive");
  // p = n^{-1/k}; clamp away from the degenerate endpoints for n = 1.
  return std::pow(static_cast<double>(std::max<VertexId>(n, 2)), -1.0 / k);
}

namespace {

/// What both backends derive from (n, options).
struct LsParams {
  /// At least 2: k = 1 truncates every radius to 0 and no vertex is ever
  /// retained (LS93's k = 1 regime degenerates to singleton clusters
  /// with ~n colors and is of no practical interest). Radii are capped
  /// at k - 1, and each phase is k broadcast rounds plus one
  /// announcement, as in [LS93].
  std::int32_t k = 2;
  /// The expected phase count O(n^{1/k} ln n).
  std::int32_t lambda = 1;
  /// -ln p: the floor of an EXP(beta) draw has Pr[r >= j] = p^j.
  double beta = 0.0;
  TheoremBounds bounds;

  /// Both backends' result: the carve core's assembly (clusters by
  /// phase, then by first member; k + 1 rounds per phase) plus LS93's
  /// parameters and bounds.
  DecompositionRun run(const CarveProgress& progress) const {
    return {carve_result(lambda, k, progress, /*names=*/{},
                         /*radius_overflow=*/false),
            bounds, static_cast<double>(k), 1.0};
  }
};

LsParams ls_params(VertexId n, const LinialSaksOptions& options) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  LsParams params;
  params.k = std::max(resolve_k(n, options.k), 2);
  params.lambda = static_cast<std::int32_t>(std::ceil(
      std::pow(static_cast<double>(n), 1.0 / params.k) *
          std::log(static_cast<double>(std::max<VertexId>(n, 2))) +
      1.0));
  params.beta = -std::log(linial_saks_p(n, params.k));
  params.bounds.strong_diameter = 2.0 * params.k - 2.0;  // WEAK bound
  params.bounds.colors = static_cast<double>(params.lambda);
  params.bounds.rounds = static_cast<double>(params.lambda) * params.k;
  params.bounds.success_probability = 0.5;  // expected-time statement
  return params;
}

/// Fills radii[v] for every v in `vertices` with phase `phase`'s LS93
/// radius: the carve's EXP(beta) draw on the (seed, phase + 1, v + 1)
/// stream, floored and capped at k - 1. Returns the largest such radius
/// (floor and cap are monotone, so it is the capped batch maximum).
double sample_ls_radii(const LsParams& params, std::uint64_t seed,
                       std::int32_t phase, std::span<const VertexId> vertices,
                       std::span<double> unit_scratch,
                       std::span<double> radii) {
  const auto cap = static_cast<double>(params.k - 1);
  const RadiusBatchStats stats = carve_radius_sample_batch(
      seed, phase, params.beta, /*retry=*/0, vertices, /*names=*/{},
      unit_scratch, radii,
      /*overflow_at=*/std::numeric_limits<double>::infinity());
  for (const VertexId v : vertices) {
    double& r = radii[static_cast<std::size_t>(v)];
    r = std::min(std::floor(r), cap);
  }
  return std::min(std::floor(stats.max_radius), cap);
}

constexpr std::uint64_t kTagEntry = 1;
constexpr std::uint64_t kTagLeave = 2;

struct LsEntry {
  VertexId id = -1;
  std::int32_t radius = 0;
  std::int32_t dist = 0;

  std::int32_t remaining() const { return radius - dist; }
};

/// Each phase is k + 1 rounds: step 0 broadcasts the radii on_round_begin
/// drew, steps 1..k - 1 flood the frontier, step k decides and announces.
class LinialSaksProtocol final : public Protocol {
 public:
  LinialSaksProtocol(const LsParams& params, std::uint64_t seed)
      : params_(params), seed_(seed) {}

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    progress_.reset(g.num_vertices());
    frontier_.assign(n, {});
    radii_.resize(n);
    unit_scratch_.resize(n);
    begin_workers(1);
  }

  void begin_workers(unsigned workers) override {
    workers_ = workers == 0 ? 1 : workers;
    joined_.reset(workers_);
    chunk_max_.assign(workers_, 0.0);
  }

  /// At each phase's first round: drop the last phase's joiners and draw
  /// the live vertices' radii, chunk-parallel on the parked pool. Every
  /// value comes from its own stream and the max fold is
  /// order-independent, so outputs are identical for every worker count.
  void on_round_begin(std::size_t round, RoundPool& pool) override {
    if (round % phase_length() != 0) return;
    if (round > 0) {
      progress_.advance_phase();
      joined_.reset(workers_);
    }
    const std::int32_t phase = progress_.phase;
    progress_.phases_used = phase + 1;
    std::fill(chunk_max_.begin(), chunk_max_.end(), 0.0);
    const std::span<const VertexId> live(progress_.live);
    const std::span<double> scratch(unit_scratch_);
    pool.for_chunks(live.size(), [&](std::size_t chunk_begin,
                                     std::size_t chunk_end, unsigned w) {
      const std::size_t count = chunk_end - chunk_begin;
      chunk_max_[w] = sample_ls_radii(params_, seed_, phase,
                                      live.subspan(chunk_begin, count),
                                      scratch.subspan(chunk_begin, count),
                                      radii_);
    });
    for (const double chunk_max : chunk_max_) {
      progress_.max_sampled_radius =
          std::max(progress_.max_sampled_radius, chunk_max);
    }
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    if (!progress_.alive[vi]) return;
    const auto step = static_cast<std::int32_t>(round % phase_length());

    if (step == 0) {
      const LsEntry own{v, static_cast<std::int32_t>(radii_[vi]), 0};
      frontier_[vi].assign(1, own);
      forward(own, out);
      // Quiet flooding steps run on inbox arrivals; the deciding step
      // must run even if nothing arrived.
      out.wake_self_in(static_cast<std::size_t>(params_.k));
      return;
    }

    for (const MessageView& msg : inbox) {
      if (msg.words.empty() || msg.words[0] != kTagEntry) continue;
      DSND_CHECK(msg.words.size() == 4, "malformed LS entry message");
      const LsEntry entry{static_cast<VertexId>(msg.words[1]),
                          static_cast<std::int32_t>(msg.words[2]),
                          static_cast<std::int32_t>(msg.words[3])};
      if (insert(vi, entry) && step < params_.k) forward(entry, out);
    }

    if (step < params_.k) return;

    // Deciding step: the frontier's first entry is the min-id broadcast
    // that reached this vertex; retained iff strictly inside its radius.
    DSND_CHECK(!frontier_[vi].empty(), "own broadcast must be present");
    const LsEntry winner = frontier_[vi].front();
    if (winner.dist < winner.radius) {
      progress_.join(v, winner.id);
      ++joined_[out.worker()];
      out.send_to_all_neighbors({kTagLeave});
    } else {
      // Survivors sample again at the next phase's step 0.
      out.wake_self_in(1);
    }
  }

  bool finished() const override { return remaining() == 0; }

  /// The live list, less this phase's joiners (the list is compacted only
  /// at the phase advance).
  VertexId remaining() const {
    return joined_.fold(static_cast<VertexId>(progress_.live.size()),
                        [](VertexId acc, VertexId joined) {
                          return acc - joined;
                        });
  }

  const CarveProgress& progress() const { return progress_; }

 private:
  std::size_t phase_length() const {
    return static_cast<std::size_t>(params_.k) + 1;
  }

  /// Pareto insert: keep ids ascending with strictly increasing remaining
  /// range. Returns true if the entry was inserted (needs forwarding).
  bool insert(std::size_t vi, const LsEntry& entry) {
    auto& frontier = frontier_[vi];
    // Position of the first kept entry with id >= entry.id.
    std::size_t pos = 0;
    while (pos < frontier.size() && frontier[pos].id < entry.id) ++pos;
    if (pos < frontier.size() && frontier[pos].id == entry.id) {
      // Synchronous flooding delivers each id first along a shortest
      // path, so a duplicate can never improve the stored distance.
      return false;
    }
    // Dominated by a smaller id with at least as much range?
    if (pos > 0 && frontier[pos - 1].remaining() >= entry.remaining()) {
      return false;
    }
    // Evict larger ids the new entry dominates.
    std::size_t last = pos;
    while (last < frontier.size() &&
           frontier[last].remaining() <= entry.remaining()) {
      ++last;
    }
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pos),
                   frontier.begin() + static_cast<std::ptrdiff_t>(last));
    frontier.insert(frontier.begin() + static_cast<std::ptrdiff_t>(pos),
                    entry);
    return true;
  }

  void forward(const LsEntry& entry, Outbox& out) {
    if (entry.dist + 1 > entry.radius) return;  // range exhausted
    out.send_to_all_neighbors({kTagEntry, static_cast<std::uint64_t>(entry.id),
                               static_cast<std::uint64_t>(entry.radius),
                               static_cast<std::uint64_t>(entry.dist + 1)});
  }

  const LsParams params_;
  const std::uint64_t seed_;
  // The run's record: workers write their own vertices' slots during the
  // deciding step; everything else moves only in on_round_begin.
  CarveProgress progress_;
  std::vector<std::vector<LsEntry>> frontier_;
  std::vector<double> radii_;
  std::vector<double> unit_scratch_;
  unsigned workers_ = 1;
  // This phase's joiners per worker; folded by remaining(), zeroed at the
  // phase advance.
  PerWorker<VertexId> joined_;
  // Each sampling chunk's largest radius (serial state).
  std::vector<double> chunk_max_;
};

}  // namespace

DecompositionRun linial_saks_decomposition(const Graph& g,
                                           const LinialSaksOptions& options) {
  const VertexId n = g.num_vertices();
  const LsParams params = ls_params(n, options);
  // Expected phase count lambda; the hard cap only guards bugs.
  const std::int32_t hard_cap = params.lambda * 16 + n + 16;

  const auto nn = static_cast<std::size_t>(n);
  CarveProgress progress;
  progress.reset(n);
  std::vector<double> radii(nn);
  std::vector<double> unit_scratch(nn);
  // claimed[y] == phase: a smaller-id center's broadcast reached y.
  std::vector<std::int32_t> claimed(nn, -1);
  BfsArena arena(n);

  while (!progress.live.empty()) {
    const std::int32_t phase = progress.phase;
    DSND_CHECK(phase < hard_cap, "Linial–Saks failed to converge");
    progress.phases_used = phase + 1;
    progress.max_sampled_radius = std::max(
        progress.max_sampled_radius,
        sample_ls_radii(params, options.seed, phase, progress.live,
                        unit_scratch, radii));

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
      const auto r =
          static_cast<std::int32_t>(radii[static_cast<std::size_t>(v)]);
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
  return params.run(progress);
}

DistributedRun linial_saks_distributed(const Graph& g,
                                       const LinialSaksOptions& options,
                                       const EngineOptions& engine_options) {
  const VertexId n = g.num_vertices();
  const LsParams params = ls_params(n, options);
  LinialSaksProtocol protocol(params, options.seed);
  SyncEngine engine(g, engine_options);
  const std::size_t max_rounds =
      (static_cast<std::size_t>(params.lambda) * 16 +
       static_cast<std::size_t>(n) + 64) *
      (static_cast<std::size_t>(params.k) + 1);
  DistributedRun result;
  result.sim = engine.run(protocol, max_rounds);
  DSND_CHECK(protocol.remaining() == 0,
             "distributed Linial–Saks failed to exhaust the graph");
  result.run = params.run(protocol.progress());
  return result;
}

}  // namespace dsnd
