// E8 — the CONGEST claim at the end of Section 2: the protocol works
// with O(1)-word messages because each round a vertex forwards only its
// current top-2 shifted values. The table reports, for the actual
// message-passing execution on the simulator: the maximum message width
// observed (words), total messages/words, messages per round, and the
// equivalence check against the centralized reference: the dense
// reference carver of tests/reference_carver.hpp, whose whole
// CarveResult must equal the protocol's.
#include <iostream>

#include "bench_common.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/multistage.hpp"
#include "reference_carver.hpp"
#include "support/stats.hpp"

namespace {

using namespace dsnd;

/// Second table: message volume of the shifted-exponential protocol
/// (top-2 per vertex) vs the min-id Linial–Saks protocol (Pareto
/// frontier, up to k entries per vertex) — one concrete CONGEST
/// advantage of the paper's technique. Also exercises the Theorem 2/3
/// schedules end-to-end as distributed protocols.
void protocol_comparison(int seeds) {
  bench::print_header(
      "E8b / protocol message volume: Elkin–Neiman vs Linial–Saks",
      "EN forwards <= 2 entries per vertex per round; LS93's min-id rule "
      "needs a Pareto frontier of up to k entries");
  Table table({"protocol", "n", "k", "rounds", "words", "words/round",
               "max_msg_words"});
  const VertexId n = 256;
  const std::int32_t k = 5;
  Summary en_rounds, en_words, ls_rounds, ls_words;
  std::size_t en_width = 0, ls_width = 0;
  for (int s = 0; s < seeds; ++s) {
    const Graph g = make_gnp(n, 8.0 / (n - 1),
                             static_cast<std::uint64_t>(s) + 1);
    const std::uint64_t seed = static_cast<std::uint64_t>(s) * 961748941 + 3;
    const DistributedRun en_run =
        run_schedule_distributed(g, theorem1_schedule(n, k), seed);
    en_rounds.add(static_cast<double>(en_run.sim.rounds));
    en_words.add(static_cast<double>(en_run.sim.words));
    en_width = std::max(en_width, en_run.sim.max_message_words);

    LinialSaksOptions ls;
    ls.k = k;
    ls.seed = seed;
    const DistributedRun ls_run = linial_saks_distributed(g, ls);
    ls_rounds.add(static_cast<double>(ls_run.sim.rounds));
    ls_words.add(static_cast<double>(ls_run.sim.words));
    ls_width = std::max(ls_width, ls_run.sim.max_message_words);
  }
  table.row()
      .cell("Elkin–Neiman")
      .cell(static_cast<std::int64_t>(n))
      .cell(k)
      .cell(en_rounds.mean(), 0)
      .cell(en_words.mean(), 0)
      .cell(en_words.mean() / en_rounds.mean(), 0)
      .cell(static_cast<std::uint64_t>(en_width));
  table.row()
      .cell("Linial–Saks")
      .cell(static_cast<std::int64_t>(n))
      .cell(k)
      .cell(ls_rounds.mean(), 0)
      .cell(ls_words.mean(), 0)
      .cell(ls_words.mean() / ls_rounds.mean(), 0)
      .cell(static_cast<std::uint64_t>(ls_width));
  table.print(std::cout);

  bench::print_header(
      "E8c / Theorems 2 and 3 as distributed protocols",
      "the same CONGEST protocol under the multistage and high-radius "
      "schedules, cross-checked against the centralized references");
  Table t23({"schedule", "n", "phases", "sim_rounds", "max_msg_words",
             "identical"});
  {
    const Graph g = make_gnp(192, 6.0 / 191.0, 5);
    const CarveSchedule t2 = theorem2_schedule(g.num_vertices(), 4);
    const DistributedRun dist = run_schedule_distributed(g, t2, 77);
    const bool identical = carve_decomposition(g, t2, 77) == dist.run.carve;
    t23.row()
        .cell("Theorem 2 (multistage)")
        .cell(static_cast<std::int64_t>(g.num_vertices()))
        .cell(dist.run.carve.phases_used)
        .cell(static_cast<std::uint64_t>(dist.sim.rounds))
        .cell(static_cast<std::uint64_t>(dist.sim.max_message_words))
        .cell(identical ? "yes" : "NO");
  }
  {
    const Graph g = make_gnp(192, 6.0 / 191.0, 5);
    const CarveSchedule t3 = theorem3_schedule(g.num_vertices(), 3);
    const DistributedRun dist = run_schedule_distributed(g, t3, 77);
    const bool identical = carve_decomposition(g, t3, 77) == dist.run.carve;
    t23.row()
        .cell("Theorem 3 (high radius)")
        .cell(static_cast<std::int64_t>(g.num_vertices()))
        .cell(dist.run.carve.phases_used)
        .cell(static_cast<std::uint64_t>(dist.sim.rounds))
        .cell(static_cast<std::uint64_t>(dist.sim.max_message_words))
        .cell(identical ? "yes" : "NO");
  }
  t23.print(std::cout);
}

/// Third table: wall-clock of the full distributed run at n = 100k on
/// three families — the arena engine's headline numbers (tracked over
/// time in BENCH_engine.json; regenerate with `--json`). The ring is the
/// active-scheduling showcase: in most rounds almost every vertex is
/// quiet, so activations stay far below n * rounds.
void engine_wall_clock(bench::JsonWriter& json) {
  bench::print_header(
      "E8d / arena engine wall-clock at n = 100k",
      "wall time of the full distributed Theorem 1 run (graph "
      "construction excluded); activations = on_round calls the "
      "active-vertex scheduler actually made (vs n * rounds without it)");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  const VertexId n = 100000;
  const bench::EngineCaseOptions t1{1, 0, /*validate=*/true};
  bench::engine_scaling_case("gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1),
                             table, json, t1);
  bench::engine_scaling_case("ring", make_cycle(n), table, json, t1);
  bench::engine_scaling_case("rgg-deg8", family_by_name("rgg").make(n, 1),
                             table, json, t1);
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsnd;
  bench::JsonWriter json = bench::JsonWriter::from_args(argc, argv);
  bench::print_header(
      "E8 / CONGEST accounting of the distributed protocol",
      "claim: every message is O(1) words (here <= 4: tag, center, "
      "radius, distance); outputs identical to the centralized "
      "reference");

  const int seeds = 3 * bench::scale();
  Table table({"family", "n", "k", "rounds", "messages", "words",
               "max_msg_words", "msgs/round/edge", "identical"});
  for (const std::string& family : bench::default_families()) {
    for (const VertexId n : {128, 256, 512}) {
      const std::int32_t k = 4;
      Summary rounds, messages, words, per_round_edge;
      std::size_t max_width = 0;
      bool identical = true;
      for (int s = 0; s < seeds; ++s) {
        const Graph g = family_by_name(family).make(
            n, static_cast<std::uint64_t>(s) + 1);
        const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), k);
        const std::uint64_t seed =
            static_cast<std::uint64_t>(s) * 1299709 + 41;
        const DistributedRun dist = run_schedule_distributed(g, schedule, seed);
        if (carve_decomposition(g, schedule, seed) != dist.run.carve) {
          identical = false;
        }
        rounds.add(static_cast<double>(dist.sim.rounds));
        messages.add(static_cast<double>(dist.sim.messages));
        words.add(static_cast<double>(dist.sim.words));
        max_width = std::max(max_width, dist.sim.max_message_words);
        if (dist.sim.rounds > 0 && g.num_edges() > 0) {
          per_round_edge.add(static_cast<double>(dist.sim.messages) /
                             static_cast<double>(dist.sim.rounds) /
                             static_cast<double>(g.num_edges()));
        }
      }
      table.row()
          .cell(family)
          .cell(static_cast<std::int64_t>(n))
          .cell(k)
          .cell(rounds.mean(), 0)
          .cell(messages.mean(), 0)
          .cell(words.mean(), 0)
          .cell(static_cast<std::uint64_t>(max_width))
          .cell(per_round_edge.mean(), 2)
          .cell(identical ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nmax_msg_words must never exceed "
            << kCarveProtocolMaxWords
            << "; with change-based forwarding, msgs/round/edge stays far "
               "below the 4 (two directions x top-2) worst case.\n";

  protocol_comparison(4 * bench::scale());
  engine_wall_clock(json);
  return 0;
}
