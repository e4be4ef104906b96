// ILP architectural synthesis -- the paper's Section 3.2 formulation.
//
// We emit the paper's model with one documented strengthening: the
// degree-counting path constraints (9) (with their y_i,r big-M indicators)
// are replaced by an equivalent unit-flow formulation per transportation
// path -- two directed arc binaries per edge with flow conservation. Both
// describe simple source-sink paths on the connection grid; the flow form
// gives a much tighter LP relaxation and needs no big-M.
//
// Faithful elements:
//   * placement variables a_i,k (constraint (8)) -- here fixed to the
//     heuristic placement (constants), keeping the model at a size the
//     in-repo MILP solver handles; the paper's free-placement variant is
//     the same model with a_i,k binary;
//   * storage sub-paths p_r,1 / p_r,2 / p_r,3: segment-choice binaries
//     sigma_e,c with entry/exit endpoint selection feeding the flow
//     conservation right-hand sides;
//   * conflict constraints (10): overlapping-window paths are node- and
//     edge-disjoint; held segments exclude other paths while their end
//     nodes remain usable (the p'_r exception);
//   * objective (12): minimize the number of used channel segments s_j
//     with the linking constraints (11).
#pragma once

#include <optional>
#include <vector>

#include "arch/chip.h"
#include "milp/solver.h"

namespace transtore::arch {

struct ilp_synthesis_options {
  double time_limit_seconds = 30.0;
  /// Optional heuristic solution used as the MILP incumbent.
  std::optional<chip> warm_start;
  /// Cooperative cancellation, forwarded to the MILP solver.
  cancel_token cancel;
  /// Faulted resources (see arch/fault.h): no arc variables are created on
  /// banned nodes/edges and banned storage segments are never candidates.
  /// Empty = no bans; otherwise sized node_count / edge_count / edge_count.
  std::vector<bool> banned_nodes;
  std::vector<bool> banned_edges;
  std::vector<bool> banned_storage;
};

struct ilp_synthesis_result {
  chip result;
  milp::solve_status status = milp::solve_status::no_solution;
  double objective = 0.0;  // number of used segments in the incumbent
  double best_bound = 0.0;
  long nodes = 0;
  double seconds = 0.0;
  int variables = 0;
  int constraints = 0;
};

/// Synthesize the connection graph by ILP with devices fixed at
/// `device_nodes`. Throws capacity_error when the model is infeasible
/// (grid too small) and invalid_input_error on malformed input.
[[nodiscard]] ilp_synthesis_result synthesize_with_ilp(
    const connection_grid& grid, const routing_workload& workload,
    const std::vector<int>& device_nodes, const ilp_synthesis_options& options);

} // namespace transtore::arch
