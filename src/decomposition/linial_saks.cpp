#include "decomposition/linial_saks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

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
  /// Radii are capped at k - 1; beta = -ln p, so the floor of an
  /// EXP(beta) draw has LS93's tail Pr[r >= j] = p^j.
  LinialSaksProtocol(std::int32_t k, double beta, std::uint64_t seed)
      : k_(k), beta_(beta), seed_(seed) {}

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    progress_.reset(g.num_vertices());
    frontier_.assign(n, {});
    draws_.resize(n);
    unit_scratch_.resize(n);
    begin_workers(1);
  }

  void begin_workers(unsigned workers) override {
    workers_ = workers == 0 ? 1 : workers;
    joined_.reset(workers_);
    chunk_max_.assign(workers_, 0.0);
  }

  /// At each phase's first round: drop the last phase's joiners and draw
  /// the live vertices' EXP(beta) values on the (seed, phase + 1, v + 1)
  /// streams, chunk-parallel on the parked pool. Every value comes from
  /// its own stream and the max fold is order-independent, so outputs
  /// are identical for every worker count.
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
      chunk_max_[w] =
          carve_radius_sample_batch(
              seed_, phase, beta_, /*retry=*/0,
              live.subspan(chunk_begin, count), /*names=*/{},
              scratch.subspan(chunk_begin, count), draws_,
              /*overflow_at=*/std::numeric_limits<double>::infinity())
              .max_radius;
    });
    // Floor and cap are monotone: the largest radius is the capped
    // floor of the largest draw.
    for (const double chunk_max : chunk_max_) {
      progress_.max_sampled_radius =
          std::max(progress_.max_sampled_radius, ls_radius(chunk_max));
    }
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    if (!progress_.alive[vi]) return;
    const auto step = static_cast<std::int32_t>(round % phase_length());

    if (step == 0) {
      const LsEntry own{v, static_cast<std::int32_t>(ls_radius(draws_[vi])),
                        0};
      frontier_[vi].assign(1, own);
      forward(own, out);
      // Quiet flooding steps run on inbox arrivals; the deciding step
      // must run even if nothing arrived.
      out.wake_self_in(static_cast<std::size_t>(k_));
      return;
    }

    for (const MessageView& msg : inbox) {
      if (msg.words.empty() || msg.words[0] != kTagEntry) continue;
      DSND_CHECK(msg.words.size() == 4, "malformed LS entry message");
      const LsEntry entry{static_cast<VertexId>(msg.words[1]),
                          static_cast<std::int32_t>(msg.words[2]),
                          static_cast<std::int32_t>(msg.words[3])};
      if (insert(vi, entry) && step < k_) forward(entry, out);
    }

    if (step < k_) return;

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
    return static_cast<std::size_t>(k_) + 1;
  }

  /// LS93's radius: the floor of the carve's draw, capped at k - 1.
  double ls_radius(double draw) const {
    return std::min(std::floor(draw), static_cast<double>(k_ - 1));
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

  const std::int32_t k_;
  const double beta_;
  const std::uint64_t seed_;
  // The run's record: workers write their own vertices' slots during the
  // deciding step; everything else moves only in on_round_begin.
  CarveProgress progress_;
  std::vector<std::vector<LsEntry>> frontier_;
  // This phase's EXP(beta) draws, per vertex.
  std::vector<double> draws_;
  std::vector<double> unit_scratch_;
  unsigned workers_ = 1;
  // This phase's joiners per worker; folded by remaining(), zeroed at the
  // phase advance.
  PerWorker<VertexId> joined_;
  // Each sampling chunk's largest draw (serial state).
  std::vector<double> chunk_max_;
};

}  // namespace

DistributedRun linial_saks_distributed(const Graph& g,
                                       const LinialSaksOptions& options,
                                       const EngineOptions& engine_options) {
  const VertexId n = g.num_vertices();
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  // At least 2: k = 1 truncates every radius to 0 and no vertex is ever
  // retained (LS93's k = 1 regime degenerates to singleton clusters with
  // ~n colors and is of no practical interest).
  const std::int32_t k = std::max(resolve_k(n, options.k), 2);
  // The expected phase count O(n^{1/k} ln n).
  const auto lambda = static_cast<std::int32_t>(
      std::ceil(std::pow(static_cast<double>(n), 1.0 / k) *
                    std::log(static_cast<double>(std::max<VertexId>(n, 2))) +
                1.0));
  SyncEngine engine(g, engine_options);
  // Nothing here validates or recovers: a dropped entry or leave notice
  // silently breaks the coloring.
  DSND_REQUIRE(!engine.transport().lossy(),
               "Linial–Saks needs a reliable transport");
  LinialSaksProtocol protocol(k, -std::log(linial_saks_p(n, k)), options.seed);
  // Expected phase count lambda; the cap only guards bugs.
  const std::size_t max_rounds =
      (static_cast<std::size_t>(lambda) * 16 + static_cast<std::size_t>(n) +
       64) *
      (static_cast<std::size_t>(k) + 1);
  DistributedRun result;
  result.sim = engine.run(protocol, max_rounds);
  DSND_CHECK(protocol.remaining() == 0,
             "distributed Linial–Saks failed to exhaust the graph");
  // The carve core's assembly: clusters by phase, then by first member;
  // k + 1 rounds per phase.
  result.run.carve = carve_result(lambda, k, protocol.progress(),
                                  /*names=*/{}, /*radius_overflow=*/false);
  TheoremBounds& bounds = result.run.bounds;
  bounds.strong_diameter = 2.0 * k - 2.0;  // the WEAK bound
  bounds.colors = static_cast<double>(lambda);
  bounds.rounds = static_cast<double>(lambda) * k;
  bounds.success_probability = 0.5;  // expected-time statement
  result.run.k = static_cast<double>(k);
  result.run.c = 1.0;
  return result;
}

DecompositionRun linial_saks_decomposition(const Graph& g,
                                           const LinialSaksOptions& options) {
  return linial_saks_distributed(g, options).run;
}

}  // namespace dsnd
