// Metaheuristic scheduling engines: the quality/time middle ground between
// the list scheduler (milliseconds, greedy) and the paper's full MILP
// (seconds to proof, or a budget-limited incumbent).
//
// Two engines, both over the same schedule/binding model and both
// deterministic in their seed:
//
//   * schedule_with_sa -- restart-capable simulated annealing with a
//     reheating schedule and storage-aware neighborhood moves: relocation
//     within a device queue, device reassignment, adjacent swaps, and
//     targeted transport<->store flips that pull a cached transfer's
//     consumer directly behind its producer (forcing a handoff) or push a
//     handoff's consumer onto another device (freeing the producer early at
//     the cost of a store). The flips attack objective (6)'s storage term
//     directly instead of waiting for random relocation to find them.
//
//   * schedule_with_grasp -- greedy randomized adaptive search: each round
//     rebuilds a schedule with the list scheduler's scoring rule but picks
//     uniformly from a restricted candidate list (all placements within
//     rcl_alpha of the greedy best) instead of committing the argmin, then
//     anneals the construction. Round seeds are derived, not reused, so
//     restarts explore genuinely different constructions.
//
// Every engine honors a wall-clock budget and a cancel token, and never
// returns a schedule worse (under alpha/beta) than the optional `start`
// incumbent it was given.
#pragma once

#include <cstdint>
#include <optional>

#include "assay/sequencing_graph.h"
#include "common/interrupt.h"
#include "sched/timing.h"

namespace transtore::sched {

/// One SplitMix64 step over base ^ salt: cheap, well-mixed independent
/// streams for restart/round/racer seeds (so perturbed repeats actually
/// differ while staying reproducible from the one caller seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt);

struct sa_scheduler_options {
  int device_count = 1;
  timing_options timing{};
  double alpha = 1.0;
  double beta = 0.15;
  bool storage_aware = true;
  /// Total annealing iterations, split evenly across restarts.
  int iterations = 9000;
  /// Reheated restarts: each restart resumes from the best binding found
  /// so far with the temperature reset to a geometrically decaying
  /// starting temperature (a decaying reheat escapes local minima early
  /// and converges late).
  int restarts = 3;
  std::uint64_t seed = 1;
  /// Stage wall-clock budget in seconds (0 = unlimited) and cooperative
  /// cancellation; the anneal stops early with the best schedule so far.
  double time_budget_seconds = 0.0;
  cancel_token cancel;
  /// Starting incumbent; when absent one greedy list pass seeds the anneal.
  /// The result is never worse than this under alpha/beta.
  std::optional<schedule> start;
};

[[nodiscard]] schedule schedule_with_sa(const assay::sequencing_graph& graph,
                                        const sa_scheduler_options& options);

struct grasp_scheduler_options {
  int device_count = 1;
  timing_options timing{};
  double alpha = 1.0;
  double beta = 0.15;
  bool storage_aware = true;
  /// Construction + improvement rounds. Round 0 is one deterministic list
  /// pass (schedule_with_list with one restart), so GRASP starts no worse
  /// than it; later rounds construct from the randomized candidate list.
  int rounds = 8;
  /// SA iterations spent polishing each round's construction.
  int improvement_iterations = 1500;
  std::uint64_t seed = 1;
  double time_budget_seconds = 0.0;
  cancel_token cancel;
  /// Comparison floor: the result is never worse than this under
  /// alpha/beta (it does not seed the construction).
  std::optional<schedule> start;
};

[[nodiscard]] schedule schedule_with_grasp(
    const assay::sequencing_graph& graph,
    const grasp_scheduler_options& options);

} // namespace transtore::sched
