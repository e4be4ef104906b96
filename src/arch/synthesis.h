// Architectural synthesis facade: placement + routing (heuristic engine),
// optionally followed by the paper's ILP to shrink segment usage.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "arch/fault.h"
#include "arch/ilp_synthesis.h"
#include "arch/placement.h"
#include "arch/router.h"
#include "common/interrupt.h"
#include "sched/schedule.h"

namespace transtore::arch {

enum class synthesis_engine {
  heuristic, // SA placement + time-multiplexed A* routing
  ilp,       // heuristic first, then ILP (8)-(12) warm-started with it
};

/// The engine's name as documents and requests spell it.
[[nodiscard]] const char* to_string(synthesis_engine engine);

/// The engine spelled `name`, or nullopt when no engine is.
[[nodiscard]] std::optional<synthesis_engine> synthesis_engine_named(
    std::string_view name);

struct arch_options {
  int grid_width = 4;
  int grid_height = 4;
  synthesis_engine engine = synthesis_engine::heuristic;
  placement_options placement{};
  router_options router{};
  /// Placement/routing restart attempts before giving up.
  int attempts = 16;
  ilp_synthesis_options ilp{};
  /// Whole-stage wall-clock budget in seconds (0 = unlimited) and
  /// cooperative cancellation. An expired budget skips only the ILP
  /// refinement (the cheap constructive attempts are the best-effort
  /// fallback and always run); a fired cancel token also stops the
  /// attempts loop -- before anything routed that throws cancelled_error,
  /// afterwards the routed chip is returned as-is.
  double time_budget_seconds = 0.0;
  cancel_token cancel;
  /// Faulted resources on this grid (valves/segments/storage; device
  /// exclusions are a scheduling concern and ignored here). The derived
  /// ban maps are copied into the placement, router, and ILP options.
  fault_set faults;
  /// Pin every device to the given grid node (skips placement); used by
  /// fault recovery to keep the executed prefix's geometry valid.
  std::optional<std::vector<int>> fixed_placement;
};

struct arch_result {
  chip result;
  routing_workload workload;
  double seconds = 0.0;
  int attempts_used = 1;
  /// The stage was cut short (budget/cancel) after a routable chip existed;
  /// the ILP refinement may be partial or skipped.
  bool interrupted = false;
  bool used_ilp = false;
  milp::solve_status ilp_status = milp::solve_status::no_solution;
  double ilp_objective = 0.0;
  double ilp_bound = 0.0;
  int ilp_variables = 0;
  int ilp_constraints = 0;
};

/// Synthesize the chip architecture for a schedule. Throws capacity_error
/// when no attempt can route the workload on the requested grid.
[[nodiscard]] arch_result synthesize_architecture(const sched::schedule& s,
                                                  const arch_options& options);

} // namespace transtore::arch
