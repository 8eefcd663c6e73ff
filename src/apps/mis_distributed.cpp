#include "apps/mis_distributed.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "decomposition/supergraph.hpp"
#include "simulator/engine.hpp"
#include "support/assert.hpp"
#include "support/per_worker.hpp"

namespace dsnd {

namespace {

constexpr std::uint64_t kTagTree = 1;      // [tag, cluster]
constexpr std::uint64_t kTagGather = 2;    // [tag, n, records...]
constexpr std::uint64_t kTagDecide = 3;    // [tag, n, (vertex, in)...]
constexpr std::uint64_t kTagAnnounce = 4;  // [tag, in]

/// An owned copy of a decision broadcast buffered for relaying next
/// round (MessageView payloads only live for one on_round call).
struct StoredDecision {
  VertexId from = -1;
  std::vector<std::uint64_t> words;
};

/// One vertex's contribution to the convergecast: id, external-block
/// flag, then its same-cluster neighbor list.
struct GatherRecord {
  VertexId vertex = -1;
  bool blocked = false;
  std::vector<VertexId> internal_neighbors;
};

void append_record(std::vector<std::uint64_t>& words,
                   const GatherRecord& record) {
  words.push_back(static_cast<std::uint64_t>(record.vertex));
  words.push_back(record.blocked ? 1 : 0);
  words.push_back(record.internal_neighbors.size());
  for (const VertexId w : record.internal_neighbors) {
    words.push_back(static_cast<std::uint64_t>(w));
  }
}

class MisPipelineProtocol final : public Protocol {
 public:
  /// A carve's colors are its phase indices, and many phases carve
  /// nothing: each color in use gets one window, in color order.
  MisPipelineProtocol(const Clustering& clustering, std::int32_t k)
      : clustering_(clustering), k_(k), rounds_per_class_(3 * k + 2) {
    std::vector<char> used(static_cast<std::size_t>(clustering.num_colors()),
                           0);
    for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
      used[static_cast<std::size_t>(clustering.color_of(c))] = 1;
    }
    class_of_color_.assign(used.size(), -1);
    for (std::size_t color = 0; color < used.size(); ++color) {
      if (used[color]) class_of_color_[color] = classes_++;
    }
  }

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    graph_ = &g;
    depth_.assign(n, -1);
    parent_.assign(n, -1);
    decided_.assign(n, 0);
    in_mis_.assign(n, 0);
    neighbor_in_mis_.assign(n, 0);
    pending_records_.assign(n, {});
    relay_decisions_.assign(n, std::nullopt);
    accum_.reset(1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const ClusterId c = clustering_.cluster_of(v);
      if (clustering_.center_of(c) == v) {
        depth_[static_cast<std::size_t>(v)] = 0;
      }
    }
  }

  void begin_workers(unsigned workers) override { accum_.reset(workers); }

  /// The pipeline is time-driven: vertices act at fixed steps of their
  /// class window (seed/convergecast/solve/downcast/announce). Steps
  /// reached by mail (adoption, relays, bookkeeping) need nothing more;
  /// every step a vertex acts on with a possibly empty inbox is
  /// scheduled as a self-wake.
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    const auto per_class = static_cast<std::size_t>(rounds_per_class_);
    const auto class_index = static_cast<std::int32_t>(round / per_class);
    const auto step = static_cast<std::int32_t>(round % per_class);
    const ClusterId cluster = clustering_.cluster_of(v);
    const std::int32_t my_class = class_of_color_[static_cast<std::size_t>(
        clustering_.color_of(cluster))];

    // Round 0 runs every vertex: each wakes for its class's announce
    // step, and each center for its window's start (round 0 for class 0).
    if (round == 0) {
      const std::size_t window =
          static_cast<std::size_t>(my_class) * per_class;
      out.wake_self_in(window + static_cast<std::size_t>(3 * k_));
      if (depth_[vi] == 0 && window > 0) out.wake_self_in(window);
    }

    // Bookkeeping that applies regardless of the active class: frozen
    // decisions announced by neighbors, tree adoption, buffered
    // convergecast payloads.
    for (const MessageView& msg : inbox) {
      if (msg.words.empty()) continue;
      switch (msg.words[0]) {
        case kTagAnnounce:
          if (msg.words[1] != 0) neighbor_in_mis_[vi] = 1;
          break;
        case kTagTree:
          if (static_cast<ClusterId>(msg.words[1]) == cluster &&
              depth_[vi] == -1 && my_class == class_index) {
            depth_[vi] = step;  // tree messages sent at step d arrive d+1
            parent_[vi] = msg.from;
          }
          break;
        case kTagGather:
          for (std::size_t i = 2; i < msg.words.size();) {
            GatherRecord record;
            record.vertex = static_cast<VertexId>(msg.words[i++]);
            record.blocked = msg.words[i++] != 0;
            const auto count = static_cast<std::size_t>(msg.words[i++]);
            for (std::size_t j = 0; j < count; ++j) {
              record.internal_neighbors.push_back(
                  static_cast<VertexId>(msg.words[i++]));
            }
            pending_records_[vi].push_back(std::move(record));
          }
          break;
        case kTagDecide:
          for (std::size_t i = 2; i + 1 < msg.words.size(); i += 2) {
            if (static_cast<VertexId>(msg.words[i]) == v) {
              decide(vi, msg.words[i + 1] != 0, out.worker());
            }
          }
          relay_decisions_[vi] = StoredDecision{
              msg.from, {msg.words.begin(), msg.words.end()}};
          break;
        default:
          DSND_CHECK(false, "unknown pipeline message tag");
      }
    }

    if (my_class != class_index) return;

    // Tree building: the center seeds at step 0; adopters forward the
    // wave one step after adopting. Each then wakes for its next step:
    // the center's solve (2k), a depth-d adopter's convergecast
    // (2k - 1 - d).
    if (step < k_) {
      const bool seeded = depth_[vi] == 0 && step == 0;
      const bool adopted_now = depth_[vi] == step && step > 0;
      if (seeded || adopted_now) {
        for (const VertexId w : graph_->neighbors(v)) {
          if (clustering_.cluster_of(w) == cluster) {
            out.send(w, {kTagTree, static_cast<std::uint64_t>(cluster)});
          }
        }
        out.wake_self_in(
            static_cast<std::size_t>(seeded ? 2 * k_ : 2 * k_ - 1 - 2 * step));
      }
      return;
    }

    DSND_CHECK(depth_[vi] >= 0,
               "cluster radius exceeds k-1: BFS tree incomplete");

    // Convergecast: a vertex at depth d ships its aggregate (own record
    // plus everything buffered from its subtree) at step k + (k-1-d).
    if (step == k_ + (k_ - 1 - depth_[vi]) && depth_[vi] > 0) {
      GatherRecord own = make_own_record(v);
      std::vector<std::uint64_t> words = {kTagGather, 0};
      append_record(words, own);
      for (const GatherRecord& record : pending_records_[vi]) {
        append_record(words, record);
      }
      words[1] = 1 + pending_records_[vi].size();
      pending_records_[vi].clear();
      out.send(parent_[vi], words);
      return;
    }

    // Leader solves at step 2k and starts the downcast.
    if (step == 2 * k_ && depth_[vi] == 0) {
      std::vector<GatherRecord> records = std::move(pending_records_[vi]);
      pending_records_[vi].clear();
      records.push_back(make_own_record(v));
      std::sort(records.begin(), records.end(),
                [](const GatherRecord& a, const GatherRecord& b) {
                  return a.vertex < b.vertex;
                });
      // Greedy in vertex-id order — identical to mis_by_decomposition.
      std::map<VertexId, bool> solution;
      for (const GatherRecord& record : records) {
        bool blocked = record.blocked;
        for (const VertexId w : record.internal_neighbors) {
          const auto it = solution.find(w);
          if (it != solution.end() && it->second) blocked = true;
        }
        solution[record.vertex] = !blocked;
      }
      std::vector<std::uint64_t> words = {kTagDecide, solution.size()};
      for (const auto& [vertex, in] : solution) {
        words.push_back(static_cast<std::uint64_t>(vertex));
        words.push_back(in ? 1 : 0);
      }
      decide(vi, solution.at(v), out.worker());
      for (const VertexId w : graph_->neighbors(v)) {
        if (clustering_.cluster_of(w) == cluster) {
          out.send(w, words);
        }
      }
      return;
    }

    // Relay the decision broadcast one level down per round.
    if (step > 2 * k_ && step < 3 * k_ && relay_decisions_[vi]) {
      for (const VertexId w : graph_->neighbors(v)) {
        if (clustering_.cluster_of(w) == cluster && w != parent_[vi]) {
          out.send(w, relay_decisions_[vi]->words);
        }
      }
      relay_decisions_[vi].reset();
      return;
    }

    // Everyone announces at the class's fixed final step so adjacent
    // clusters of later classes see frozen state.
    if (step == 3 * k_) {
      DSND_CHECK(decided_[vi], "vertex missed its cluster's decision");
      out.send_to_all_neighbors(
          {kTagAnnounce, in_mis_[vi] ? 1ULL : 0ULL});
    }
  }

  bool finished() const override { return undecided() == 0; }

  std::vector<char> in_mis() const { return in_mis_; }
  std::int32_t rounds_per_class() const { return rounds_per_class_; }
  std::int32_t classes() const { return classes_; }
  VertexId undecided() const {
    const VertexId decided = accum_.fold(
        VertexId{0},
        [](VertexId acc, const Accum& a) { return acc + a.decided; });
    return graph_->num_vertices() - decided;
  }

 private:
  GatherRecord make_own_record(VertexId v) const {
    const auto vi = static_cast<std::size_t>(v);
    GatherRecord record;
    record.vertex = v;
    record.blocked = neighbor_in_mis_[vi] != 0;
    for (const VertexId w : graph_->neighbors(v)) {
      if (clustering_.cluster_of(w) == clustering_.cluster_of(v)) {
        record.internal_neighbors.push_back(w);
      }
    }
    return record;
  }

  void decide(std::size_t vi, bool in, unsigned worker) {
    if (decided_[vi]) return;
    decided_[vi] = 1;
    in_mis_[vi] = in ? 1 : 0;
    ++accum_[worker].decided;
  }

  const Clustering& clustering_;
  const std::int32_t k_;
  const std::int32_t rounds_per_class_;
  std::int32_t classes_ = 0;
  /// Each color's window index among the colors in use (-1: unused).
  std::vector<std::int32_t> class_of_color_;

  const Graph* graph_ = nullptr;
  std::vector<std::int32_t> depth_;
  std::vector<VertexId> parent_;
  std::vector<char> decided_;
  std::vector<char> in_mis_;
  std::vector<char> neighbor_in_mis_;
  std::vector<std::vector<GatherRecord>> pending_records_;
  std::vector<std::optional<StoredDecision>> relay_decisions_;
  /// Per-worker decided counter (support/per_worker.hpp): decide()
  /// touches only the deciding vertex's state plus its worker's slot, so
  /// parallel rounds stay race-free with no shared atomics.
  struct Accum {
    VertexId decided = 0;
  };
  PerWorker<Accum> accum_;
};

}  // namespace

DistributedMisResult mis_distributed_pipeline(
    const Graph& g, const Clustering& clustering, std::int32_t k,
    const EngineOptions& engine_options) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  DSND_REQUIRE(clustering.is_complete(),
               "pipeline requires a complete partition");
  DSND_REQUIRE(k >= 1, "k must be positive");
  DSND_REQUIRE(phase_coloring_is_proper(g, clustering),
               "pipeline requires a proper phase coloring");

  MisPipelineProtocol protocol(clustering, k);
  SyncEngine engine(g, engine_options);
  // Nothing here recovers a lost message: a dropped tree, gather or
  // decision message leaves vertices undecided or the set wrong.
  DSND_REQUIRE(!engine.transport().lossy(),
               "the MIS pipeline needs a reliable transport");
  const std::size_t max_rounds =
      static_cast<std::size_t>(protocol.classes()) *
      static_cast<std::size_t>(protocol.rounds_per_class());
  DistributedMisResult result;
  result.sim = engine.run(protocol, max_rounds);
  DSND_CHECK(protocol.undecided() == 0,
             "pipeline failed to decide every vertex");
  result.in_mis = protocol.in_mis();
  result.rounds_per_class = protocol.rounds_per_class();
  result.classes = protocol.classes();
  return result;
}

}  // namespace dsnd
