// ILP scheduling & binding -- the paper's Table 1 formulation with
// objective (6), solved by the in-repo MILP solver.
//
// Faithful constraints:
//   (1) uniqueness      sum_k s_ik = 1
//   (2) duration        ts_i + u_i <= te_i
//   (3) precedence      ts_j - te_i >= uc * (1 - same_ij)   for edges (i,j)
//   (4) non-overlapping disjunctive big-M pairs per device
//   (5) makespan        te_i <= tE
//   (6) objective       min alpha*tE + beta * sum of cross-device u_ij
//
// Documented linearizations (DESIGN.md): the conditional constraint (4) is
// realized with pairwise ordering binaries o_ij and big-M = horizon; the
// paper's "d_i != d_j" objective filter is realized with per-device
// same-assignment indicators z_ijk (z <= s_ik, z <= s_jk) and storage-time
// variables w_ij >= ts_j - te_i - H*same_ij. Two problem reductions that do
// not change the optimum: ordering binaries are omitted for
// precedence-related pairs, and for pairs whose ASAP/ALAP windows cannot
// overlap within the horizon.
//
// The solver is seeded with a heuristic warm start and a hard time limit;
// on larger assays it returns the best-effort incumbent -- the same
// protocol as the paper's 30-minute Gurobi budget.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "assay/sequencing_graph.h"
#include "milp/solver.h"
#include "sched/timing.h"

namespace transtore::sched {

struct ilp_scheduler_options {
  int device_count = 1;
  timing_options timing{};
  double alpha = 1.0;
  double beta = 0.15;
  double time_limit_seconds = 30.0;
  /// Known-good schedule used as the MILP incumbent; its makespan is the
  /// scheduling horizon (upper bound on tE). Without one the horizon is a
  /// safe serial bound.
  std::optional<schedule> warm_start;
  /// Add the device-load valid inequalities sum_i u_i s_ik <= tE: operations
  /// bound to one device never overlap in time, so their total duration
  /// bounds the makespan. They cut no integer point but lift the LP
  /// relaxation's makespan bound from the critical path toward the
  /// total-work / device-count energetic bound -- the lever that lets
  /// branch and bound actually prove optimality on the multi-device assays
  /// (the paper's plain Table 1 rows leave the relaxation nearly vacuous).
  bool load_valid_inequalities = true;
  /// Break the device-permutation symmetry: devices are interchangeable in
  /// this model (uniform durations and transport), so every schedule has
  /// k! relabelings the search would otherwise prove separately. The
  /// standard scheme pins operation i to devices 0..i (s_ik = 0 for k > i,
  /// emitted as singleton rows the presolve folds into bounds); the warm
  /// start is relabeled by first device appearance so it stays feasible.
  bool break_device_symmetry = true;
  /// Unread: no library code reads this seed. It stays only because
  /// perfbench/src/layers.cpp (replay_schedule) still sets it, and goes
  /// together with that replay.
  std::uint64_t seed = 1;
  /// Base MILP solver configuration (branching rule, LP engine ablations).
  /// time_limit_seconds / warm_start above take precedence.
  milp::solver_options milp{};
};

struct ilp_schedule_result {
  schedule refined;          // extracted assignment/order, re-timed
  milp::solve_status status = milp::solve_status::no_solution;
  bool interrupted = false;  // stopped by the time limit or a cancel token
  /// Objective (6) of the MILP incumbent and the MILP's dual bound on it.
  /// Both are the model's: the model omits device-port serialization, so
  /// `refined`, re-timed with it, can score higher than either.
  double ilp_objective = 0.0;
  double ilp_bound = 0.0;
  long nodes = 0;
  long simplex_iterations = 0;
  double seconds = 0.0;
  int variables = 0;
  int constraints = 0;
  // Root presolve + cutting-plane footprint (milp/presolve.h, milp/cuts.h),
  // surfaced so schedule reports can show where the MILP work went.
  int presolve_rows_removed = 0;
  int presolve_bounds_tightened = 0;
  int cuts_added = 0;
  int cut_rounds = 0;
  double root_bound = 0.0;   // objective-(6) LP bound after presolve + cuts
  /// Threads the solve ran, and its per-worker breakdown (empty for a
  /// one-thread solve; see milp::solution::workers).
  int threads_used = 1;
  std::vector<milp::worker_stats> workers;
};

/// The Table 1 formulation as a standalone MILP, for callers that want to
/// solve it with custom solver options (benchmarks, ablations) instead of
/// running the full scheduling pipeline.
struct scheduling_ilp {
  milp::model model;
  std::vector<std::vector<milp::variable>> assign; // s_ik per op, device
  std::vector<milp::variable> start;               // ts_i
  std::vector<milp::variable> end;                 // te_i
  milp::variable makespan;                         // tE
  /// Warm-start assignment derived from options.warm_start (when given).
  std::optional<std::vector<double>> warm_assignment;
  // Enough structure to translate ANY feasible schedule into a full MILP
  // assignment after the fact (schedule_assignment below), as warm starts
  // and the benches' annealed incumbents are.
  std::vector<std::pair<int, int>> edge_list;      // graph edges (i, j)
  std::vector<std::vector<milp::variable>> same_z; // z_ijk per edge, device
  std::vector<milp::variable> storage;             // w_ij per edge
  struct order_pair {
    int i, j;
    milp::variable order; // 1 when i precedes j
  };
  std::vector<order_pair> order_pairs; // disjunctive pairs actually modeled
  int device_count = 0;
  bool symmetry_broken = false;
};

/// Translate a feasible schedule into a full variable assignment of
/// `ilp.model` (assignment binaries, times, same-device indicators, storage
/// slacks, ordering binaries), relabeling devices by first appearance when
/// the model breaks device symmetry. The schedule must cover the same
/// operation set the ILP was built from.
[[nodiscard]] std::vector<double> schedule_assignment(const scheduling_ilp& ilp,
                                                      const schedule& s);

/// Re-time an incumbent assignment optimally within its own binding: fix
/// every integer/binary variable at the incumbent's value and solve the
/// remaining LP over the continuous times. Heuristic schedules carry the
/// conservative simulated timing, so the polished assignment is often a
/// strictly better MILP incumbent for the same discrete decisions (on RA12
/// it tightens the list-schedule warm start from 279 to 246 and closes the
/// tree in ~0.6x the nodes). Returns nullopt when the restricted solve
/// fails inside `time_limit_seconds` or the polished point does not verify
/// against the full model; callers then keep the raw assignment.
[[nodiscard]] std::optional<std::vector<double>> polish_assignment(
    const scheduling_ilp& ilp, const std::vector<double>& assignment,
    double time_limit_seconds = 2.0, cancel_token cancel = {});

/// Build the paper's scheduling & binding MILP (Table 1, objective (6))
/// without solving it.
[[nodiscard]] scheduling_ilp build_scheduling_ilp(
    const assay::sequencing_graph& graph, const ilp_scheduler_options& options);

/// Solve scheduling & binding with the paper's ILP. Throws
/// invalid_input_error on malformed input; infeasibility cannot occur for a
/// valid DAG with horizon >= serial bound (an internal_error otherwise).
[[nodiscard]] ilp_schedule_result schedule_with_ilp(
    const assay::sequencing_graph& graph, const ilp_scheduler_options& options);

} // namespace transtore::sched
