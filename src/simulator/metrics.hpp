// Cost accounting for the synchronous model: rounds, messages, words.
//
// The CONGEST claims of the paper ("each message consists of O(1) words")
// are verified against max_message_words; the round bounds of Theorems
// 1-3 against rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dsnd {

/// How a run() ended. Anything other than the first two is a *named*
/// failure: the engine refuses to hang or silently stop making progress,
/// it tells the caller why it gave up instead.
enum class RunStatus {
  /// The protocol's finished() predicate fired.
  kFinished,
  /// The run reached quiescence (no active vertex, no pending wake, no
  /// in-flight transport delivery) before finished().
  kQuiescent,
  /// The round budget ran out first — under a lossy transport this is
  /// the named replacement for a no-progress hang.
  kRoundBudgetExhausted,
};

const char* run_status_name(RunStatus status);

/// Fault events injected by a transport, per round or per run. All
/// zeros on a reliable transport.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  // Suppressed messages of crashed vertices: sends of any crashed
  // sender, plus (crash-RECOVERY spans only) deliveries addressed to a
  // vertex while it is down.
  std::uint64_t crashed = 0;
  /// Crash-recovery rejoin events: vertices whose CrashSpan rejoin round
  /// was reached, counted once per vertex per run. A recovery event, not
  /// a fault event — excluded from total(), which keeps counting
  /// injected perturbations only.
  std::uint64_t rejoined = 0;

  std::uint64_t total() const {
    return dropped + delayed + duplicated + crashed;
  }

  bool operator==(const FaultCounters&) const = default;

  FaultCounters& operator+=(const FaultCounters& other) {
    dropped += other.dropped;
    delayed += other.delayed;
    duplicated += other.duplicated;
    crashed += other.crashed;
    rejoined += other.rejoined;
    return *this;
  }
};

struct SimMetrics {
  std::size_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  /// Largest single message, in 64-bit words (CONGEST width check).
  std::size_t max_message_words = 0;
  /// Messages sent in each round (index = round). Always has exactly
  /// `rounds` entries; quiet rounds are explicit zeros.
  std::vector<std::uint64_t> messages_per_round;
  /// Total on_round() invocations across the run: how much work the
  /// engine actually did. Round 0 runs all n vertices; later rounds run
  /// only those with mail or a due wake, so this is at most n * rounds.
  std::uint64_t vertex_activations = 0;

  /// How the run ended (see RunStatus). kQuiescent and kFinished are the
  /// normal outcomes; kRoundBudgetExhausted is the named non-hang
  /// failure a lossy transport can force.
  RunStatus status = RunStatus::kFinished;

  /// Fault events injected by the transport across the whole run (all
  /// zeros on a reliable transport). `messages`/`words` above count what
  /// was DELIVERED, post-faults.
  FaultCounters faults;

  /// Average messages per round; 0 if no rounds elapsed.
  double avg_messages_per_round() const;

  std::string to_string() const;
};

}  // namespace dsnd
