// Watch the CONGEST protocol run: executes any of the three theorem
// schedules as a distributed algorithm on the synchronous simulator and
// prints the per-round message traffic, phase structure, the O(1)-word
// message guarantee, and the decomposition against the schedule's
// promised bounds. (test_distributed_parity pins the protocol against
// the dense reference carver.)
//
//   ./congest_trace [--theorem {1,2,3}] [n] [k] [seed]
//
// The third positional argument is the radius parameter k for Theorems
// 1-2 and the color budget lambda for Theorem 3.
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dsnd;
  int theorem = 1;
  const char* positional[3] = {"144", "4", "3"};  // n, k (or lambda), seed
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--theorem") == 0 && i + 1 < argc) {
      theorem = std::atoi(argv[++i]);
    } else if (npos < 3) {
      positional[npos++] = argv[i];
    }
  }
  if (theorem < 1 || theorem > 3) {
    std::cerr << "usage: congest_trace [--theorem {1,2,3}] [n] [k] [seed]\n";
    return 2;
  }
  const auto n = static_cast<VertexId>(std::atoi(positional[0]));
  const auto k = static_cast<std::int32_t>(std::atoi(positional[1]));
  const std::uint64_t seed = std::strtoull(positional[2], nullptr, 10);

  const Graph g = make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  std::cout << "network: " << describe(g) << "\n";

  // The theorem's schedule carries everything the run needs except the
  // seed, plus the bounds printed at the end.
  const CarveSchedule schedule =
      theorem == 1   ? theorem1_schedule(n, k, 4.0)
      : theorem == 2 ? theorem2_schedule(n, k, 6.0)
                     : theorem3_schedule(n, k, 4.0);
  std::cout << "schedule: " << schedule.name << " — "
            << schedule.target_phases() << " scheduled phases, "
            << schedule.phase_rounds << " broadcast rounds per phase\n";

  const DistributedRun dist = run_schedule_distributed(g, schedule, seed);

  std::cout << "protocol finished: " << dist.sim.rounds << " rounds, "
            << dist.sim.messages << " messages, " << dist.sim.words
            << " words, max message width " << dist.sim.max_message_words
            << " words (CONGEST bound: " << kCarveProtocolMaxWords
            << ")\n\n";

  // Per-round traffic, annotated with the phase structure: each phase is
  // phase_rounds broadcast steps followed by one membership-announcement
  // step.
  Table table({"round", "phase", "step", "messages"});
  const auto phase_len =
      static_cast<std::size_t>(schedule.phase_rounds) + 1;
  for (std::size_t r = 0; r < dist.sim.messages_per_round.size(); ++r) {
    const std::size_t phase = r / phase_len;
    const std::size_t step = r % phase_len;
    table.row()
        .cell(static_cast<std::uint64_t>(r))
        .cell(static_cast<std::uint64_t>(phase))
        .cell(step == phase_len - 1 ? "announce"
                                    : "broadcast " + std::to_string(step))
        .cell(dist.sim.messages_per_round[r]);
  }
  if (dist.sim.messages_per_round.size() > 160) {
    std::cout << "(" << dist.sim.messages_per_round.size()
              << " simulated rounds; printing the per-round table only for "
                 "short runs)\n";
  } else {
    table.print(std::cout);
  }

  std::cout << "\ndecomposition: " << dist.run.clustering().num_clusters()
            << " clusters, " << dist.run.carve.phases_used
            << " phases; promised colors <= " << schedule.bounds.colors
            << ", strong diameter <= " << schedule.bounds.strong_diameter
            << "\n";
  return 0;
}
