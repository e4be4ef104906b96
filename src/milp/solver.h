// Branch-and-bound MILP solver.
//
// This is the repository's replacement for the commercial solver (Gurobi)
// used in the paper's experiments. It is a classic LP-based branch and
// bound:
//
//   * LP relaxations solved by the bounded-variable primal/dual simplex
//     (milp/simplex.h), warm started across nodes;
//   * iterated root presolve (milp/presolve.h) -- bound propagation,
//     singleton/redundant row removal, big-M coefficient strengthening --
//     which is what makes the paper's big-M scheduling formulation
//     tractable (with presolve off, the per-node propagation pass runs
//     over the root rows instead);
//   * root cutting planes (milp/cuts.h): Gomory mixed-integer and knapsack
//     cover cuts separated in rounds over the optimal root basis;
//   * per-node bound propagation: branching fixes collapse the big-M
//     disjunctions, pruning children before their LPs are solved;
//   * depth-first plunging: every backtrack takes the newest open node,
//     and every node re-solves from its parent's optimal basis, one bound
//     change away, so the dual simplex closes it in a few pivots -- which
//     is what lets the propagation+cuts stack prove optimality (`synth IVD
//     --devices 2 --engine ilp` closes in 34,339 nodes, 7-9 s on one
//     thread); global best-bound tracking reports the gap;
//   * pseudocost branching. A variable's pseudocosts are initialized by
//     strong-branching probes (cheap dual re-solves of up to 100
//     iterations) until each direction has a few observations. The
//     search-wide budget is 100 probes, and each node gets the allowance
//     left when it starts: a one-worker search stops at 100, but the
//     deterministic rounds give every node of a round the allowance left
//     when the round started, so they can run more (as can concurrent pool
//     workers);
//   * optional caller-supplied incumbent (used by the synthesis flow to
//     seed the search with the heuristic schedule), deterministic results,
//     and hard time/node limits returning best-effort incumbents -- the
//     paper's own protocol for the larger assays.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"

namespace transtore::milp {

enum class solve_status {
  optimal,          // proven optimal within tolerances
  feasible,         // feasible incumbent, optimality not proven (limits hit)
  infeasible,       // no feasible assignment exists
  unbounded,        // objective unbounded
  no_solution,      // limits hit before any incumbent was found
};

/// The status as documents and benches spell it ("optimal", "feasible", ...).
[[nodiscard]] const char* to_string(solve_status s);

/// The status spelled `name`, or nullopt when no status is.
[[nodiscard]] std::optional<solve_status> solve_status_named(
    std::string_view name);

/// Per-worker breakdown of a parallel tree search (solution::workers): how
/// many nodes each thread processed, the simplex work it spent on them, and
/// how many pool nodes it pulled that another worker produced ("steals").
/// Which worker processed which node is scheduling noise -- only the totals
/// are deterministic in deterministic mode.
struct worker_stats {
  long nodes = 0;
  long simplex_iterations = 0;
  long dual_simplex_iterations = 0;
  long steals = 0;
};

struct solver_options {
  double time_limit_seconds = 60.0;
  /// Cooperative cancellation: when the token fires, the search unwinds at
  /// the next node/LP-iteration boundary and returns the best incumbent so
  /// far (status feasible) or no_solution -- the same contract as the time
  /// limit. Default-constructed tokens never fire.
  cancel_token cancel;
  long max_nodes = 5'000'000;
  /// Iterated root presolve (presolve.h): singleton-row elimination,
  /// activity-based bound tightening, big-M coefficient strengthening,
  /// redundant-row removal, variable fixing. Off falls back to the per-node
  /// propagation over the root rows (up to 12 passes, stopping at a
  /// fixpoint), reproducing the pre-presolve solver for ablations.
  bool presolve = true;
  /// Root cutting planes (cuts.h): Gomory mixed-integer + knapsack cover
  /// cuts separated in rounds over the optimal root basis, appended as rows
  /// the dual simplex warm-restarts over. Off = no cutting (ablation).
  bool cuts = true;
  /// Per-node bound propagation: after applying a node's branching bound
  /// changes, a few interval-arithmetic passes over the rows (including cut
  /// rows) tighten the remaining variable bounds before the LP re-solve --
  /// on the big-M formulations a fixed binary collapses its disjunction, so
  /// children are often pruned without solving any LP. Off = root-only
  /// propagation.
  bool node_propagation = true;
  /// LP engine tunables, forwarded to the simplex: the iteration cap per
  /// solve and the basis engine (the dense engine is an ablation).
  simplex_options lp;
  /// Optional known-feasible assignment used as the initial incumbent.
  std::optional<std::vector<double>> warm_start;
  /// Worker threads for the branch-and-bound tree search; 0 or negative
  /// resolves to hardware_concurrency. Unless `deterministic` is set, the
  /// workers share one open pool and each dives on its own children; the
  /// first runs on the calling thread and starts with the root. At any
  /// count, every node re-solves from its parent's recorded optimal basis:
  /// a node pulled from the pool reloads it, and so does a dive child whose
  /// parent ran strong-branching probes. 1 (default) is the sequential
  /// plunge on one simplex instance; > 1 gives every further worker a
  /// private instance (first-come node order, so results are run-to-run
  /// nondeterministic). The pool and the deterministic rounds run the same
  /// node kernel; they differ only in where the next node comes from and
  /// in commit order.
  int threads = 1;
  /// Round-synchronized deterministic parallel search: workers expand a
  /// fixed-width round of the eight newest open nodes concurrently, then
  /// commit them in creation order (selection, incumbent acceptance, and
  /// pseudocost updates never depend on arrival time). Results are
  /// bit-identical for ANY `threads` value, including 1 -- but the
  /// trajectory intentionally differs from the one-worker pool's, which
  /// dives on the child it keeps in hand and commits one node at a time.
  /// Determinism holds as long as no time limit / cancellation fires
  /// mid-search (the same caveat as a one-thread solve).
  bool deterministic = false;
};

struct solution {
  solve_status status = solve_status::no_solution;
  double objective = 0.0;   // user-sense objective of the incumbent
  double best_bound = 0.0;  // user-sense dual bound
  std::vector<double> values;
  long nodes_explored = 0;
  long simplex_iterations = 0;       // total, including probes and cut rounds
  long dual_simplex_iterations = 0;  // subset taken by the dual method
  long strong_branch_probes = 0;     // reliability-initialization re-solves
  // Presolve + cutting-plane footprint of the root (all zero when the
  // respective options are off).
  int presolve_rows_removed = 0;
  int presolve_bounds_tightened = 0;
  int presolve_coefficients_tightened = 0;
  int presolve_variables_fixed = 0;
  int cut_rounds = 0;       // separation rounds run at the root
  int cuts_added = 0;       // cut rows appended across all rounds
  int cuts_active = 0;      // cut rows alive in the tree's LP (post purge)
  double root_bound = 0.0;  // user-sense LP bound after presolve + cuts
  double seconds = 0.0;
  /// True when the search stopped on the wall-clock limit or the cancel
  /// token (as opposed to node limits or natural exhaustion); the incumbent,
  /// if any, is best-effort.
  bool interrupted = false;
  /// Warm-start intake: whether solver_options::warm_start survived the
  /// rounding + feasibility re-validation and was installed as the initial
  /// incumbent, and the user-sense objective it arrived with (0 when none
  /// was given or it was rejected). Lets benches attribute node-count wins
  /// to the quality of the incumbent the search started from.
  bool warm_start_accepted = false;
  double warm_start_objective = 0.0;
  /// Worker threads the tree search actually ran (after resolving the
  /// 0 = auto convention).
  int threads_used = 1;
  /// Per-worker breakdown, filled by the deterministic rounds and by a pool
  /// search with more than one worker (empty for a one-thread pool search,
  /// so one-thread documents carry none). Sums across workers equal the tree-search part of
  /// the solution totals (the totals additionally include the root
  /// presolve/cut-loop simplex work, which runs before the workers start);
  /// the per-worker split is scheduling noise even in deterministic mode.
  std::vector<worker_stats> workers;

  [[nodiscard]] bool has_solution() const {
    return status == solve_status::optimal || status == solve_status::feasible;
  }
  [[nodiscard]] double value(variable v) const {
    return values.at(static_cast<std::size_t>(v.index));
  }
  /// Relative optimality gap (0 when proven optimal; large when unknown).
  [[nodiscard]] double gap() const;
};

/// Solve a MILP. Throws invalid_input_error for malformed models; limit and
/// infeasibility outcomes are reported through solution::status, not thrown.
solution solve(const model& m, const solver_options& options = {});

} // namespace transtore::milp
