// Storage-aware list scheduling (heuristic counterpart of the paper's ILP).
//
// The greedy constructor repeatedly commits one ready operation onto one
// device, choosing the (operation, device) pair that minimizes
//
//     alpha * completion_time + beta * new_cache_hold_time
//
// with ties broken by the longest remaining dependency chain (critical-path
// priority) -- in storage-aware mode this naturally produces the
// depth-first consumption orders of the paper's Fig. 2(c). With beta = 0 it
// degenerates to classic makespan-only list scheduling (the paper's
// "optimize execution time only" baseline of Fig. 9).
//
// Multiple seeded restarts perturb the scoring to escape ties; the best
// schedule under the final objective (6) is returned. Deterministic in the
// options' seed.
//
// The same pass (greedy_pass below) is the only greedy construction in
// `sched`: GRASP builds its randomized starts with it and the fault
// splicer re-plans a schedule's remainder with it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "assay/sequencing_graph.h"
#include "common/interrupt.h"
#include "common/prng.h"
#include "common/stopwatch.h"
#include "sched/timing.h"

namespace transtore::sched {

struct list_scheduler_options {
  int device_count = 1;
  timing_options timing{};
  double alpha = 1.0;   // weight of tE in objective (6)
  double beta = 0.15;   // weight of storage time in objective (6)
  bool storage_aware = true; // false: minimize execution time only
  int restarts = 24;    // perturbed greedy restarts (>= 1)
  std::uint64_t seed = 1;
  /// Stage wall-clock budget in seconds (0 = unlimited) and cooperative
  /// cancellation. The first greedy pass always completes so a valid
  /// schedule exists; later restarts stop at the interrupt.
  double time_budget_seconds = 0.0;
  cancel_token cancel;
};

/// Longest execution-time path from each op to any sink (inclusive): the
/// critical-path priority that breaks storage-aware ties. The fault
/// re-scheduler (splice.h) uses it too.
[[nodiscard]] std::vector<int> remaining_path(
    const assay::sequencing_graph& graph);

/// One greedy construction rule: each step scores every ready (operation,
/// device) pair by objective (6)'s increment,
///
///     alpha * end + beta * cache_time_added,
///
/// and commits one of them. The candidate buffer is reused, so once warm a
/// pass allocates nothing per step.
class greedy_pass {
public:
  /// `beta` weighs storage only when `storage_aware`; a storage-blind pass
  /// scores by completion time alone and breaks ties by lowest id.
  greedy_pass(const assay::sequencing_graph& graph, int device_count,
              double alpha, double beta, bool storage_aware);

  /// 0 commits the best pair: lowest score, then the longest remaining
  /// chain (storage-aware) and the lowest id. Above 0, each step draws one
  /// pair uniformly from those scoring within rcl_alpha * (max - min) of
  /// the best: GRASP's restricted candidate list.
  double rcl_alpha = 0.0;
  /// When set, pairs for which it returns true are never placed; the fault
  /// splicer keeps failed devices and pinned consumers out this way.
  std::function<bool(int op, int device)> veto;

  /// Commit every operation `builder` has not committed yet, which is all
  /// of them on a reset builder or the remainder after a seeded prefix.
  /// With `noise` > 0, every candidate's score gets a draw from
  /// [0, noise), in enumeration order. Returns objective (6) summed over
  /// this pass's own commits.
  double run(timeline_builder& builder, prng& rng, double noise = 0.0);

  /// The restart ladder: up to `restarts` runs, each on `builder` after
  /// reset() and, when set, `seed(builder)`. The first run is pure
  /// greedy; each later one adds noise transport_time * (0.5 + 2u), u
  /// drawn from `rng`, and none starts once `budget` has expired. Without
  /// a seed a run scores by its own commits; with one, by its built
  /// schedule's objective (6), which counts the seeded prefix. Returns the
  /// best run's schedule.
  [[nodiscard]] schedule best_of_restarts(
      timeline_builder& builder,
      const std::function<void(timeline_builder&)>& seed, int restarts,
      int transport_time, prng& rng, const deadline& budget);

private:
  struct candidate {
    int op = -1;
    int device = -1;
    double score = 0.0;
  };

  const assay::sequencing_graph& graph_;
  int device_count_;
  double alpha_;
  double beta_; // 0 when storage-blind
  bool storage_aware_;
  std::vector<int> priority_; // remaining_path(graph_)
  std::vector<candidate> candidates_; // one step's pairs, for the RCL pick
};

/// Build a schedule heuristically. Throws invalid_input_error for malformed
/// inputs (empty graph, non-positive device count).
[[nodiscard]] schedule schedule_with_list(const assay::sequencing_graph& graph,
                                          const list_scheduler_options& options);

} // namespace transtore::sched
