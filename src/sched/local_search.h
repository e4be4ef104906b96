// Simulated-annealing improvement of a schedule.
//
// The greedy list scheduler commits operations one at a time and cannot
// undo an early mistake; the paper's ILP explores orders globally but only
// within its solver budget. This pass bridges the gap: starting from any
// valid schedule it perturbs the binding -- relocating an operation to
// another queue position, on its own device or another -- re-times each
// candidate with the full device-port model, and anneals on objective (6).
// All moves preserve precedence feasibility by construction; every
// accepted candidate is a valid schedule. Deterministic in the seed.
//
// improve_schedule is the annealing loop of metaheuristics.cpp with that
// plain relocation move set, on an RNG seeded with `seed` itself.
#pragma once

#include <cstdint>

#include "common/interrupt.h"
#include "sched/timing.h"

namespace transtore::sched {

struct local_search_options {
  double alpha = 1.0;
  double beta = 0.15;
  int iterations = 6000;
  std::uint64_t seed = 1;
  /// Stage wall-clock budget in seconds (0 = unlimited) and cooperative
  /// cancellation; the anneal stops early and returns the best schedule
  /// found so far (never worse than `start`).
  double time_budget_seconds = 0.0;
  cancel_token cancel;
};

/// Anneal `start` and return the best binding found, re-timed by
/// refine_timing even when no move improved on it; `start` itself only
/// when that re-timed schedule is worse under alpha/beta.
[[nodiscard]] schedule improve_schedule(const assay::sequencing_graph& graph,
                                        const schedule& start,
                                        const timing_options& timing,
                                        const local_search_options& options);

} // namespace transtore::sched
