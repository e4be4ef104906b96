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
#pragma once

#include <cstdint>
#include <vector>

#include "assay/sequencing_graph.h"
#include "common/interrupt.h"
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

/// Build a schedule heuristically. Throws invalid_input_error for malformed
/// inputs (empty graph, non-positive device count).
[[nodiscard]] schedule schedule_with_list(const assay::sequencing_graph& graph,
                                          const list_scheduler_options& options);

} // namespace transtore::sched
