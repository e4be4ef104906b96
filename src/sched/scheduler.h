// Scheduling facade: heuristic, ILP, or the combined strategy used by the
// synthesis flow (heuristic first, then the paper's ILP warm-started with
// it, keeping whichever refined schedule scores better on objective (6)).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "assay/sequencing_graph.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"

namespace transtore::sched {

enum class schedule_engine {
  heuristic, // list scheduling only
  ilp,       // paper ILP only (internally warm-started by one greedy pass)
  combined,  // heuristic + ILP improvement, best refined schedule wins
  // Metaheuristic engines (sched/metaheuristics.h): the quality/time middle
  // ground between the list scheduler and the full MILP. Each starts from
  // one greedy list pass and never returns worse than it.
  sa,        // restart/reheating simulated annealing, storage-aware moves
  grasp,     // randomized-greedy (RCL) construction + SA improvement
};

/// The engine's name as documents, requests and the CLI spell it.
[[nodiscard]] const char* to_string(schedule_engine engine);

/// The engine spelled `name`, or nullopt when no engine is.
[[nodiscard]] std::optional<schedule_engine> schedule_engine_named(
    std::string_view name);

struct scheduler_options {
  int device_count = 1;
  timing_options timing{};
  double alpha = 1.0;
  double beta = 0.15;
  /// false reproduces the "optimize execution time only" baseline (Fig. 9).
  bool storage_aware = true;
  schedule_engine engine = schedule_engine::combined;
  double ilp_time_limit_seconds = 10.0;
  /// ILP models above this row count are skipped in combined mode; the
  /// heuristic then carries the instance, mirroring the paper's best-effort
  /// protocol on the largest assays. The sparse-LU simplex lifted the old
  /// dense-basis ceiling of 2500 rows: CPA (~8.2k rows) and RA70 (~9.3k)
  /// are now attempted within the ILP time limit, leaving only RA100
  /// (~18k rows) to the heuristic by default.
  int ilp_row_limit = 10000;
  int heuristic_restarts = 24;
  /// Simulated-annealing iteration budget. For heuristic it is the
  /// improvement post-pass after the list scheduler; for ilp/combined
  /// it first polishes the heuristic incumbent BEFORE the MILP sees it (so
  /// the warm start is the best metaheuristic schedule) and then polishes
  /// the winner; the sa engine spends it as its main anneal, and grasp
  /// gives each of its 8 rounds' improvement phases iterations / 4 (twice
  /// what sa gets in total). 0 disables annealing everywhere.
  int local_search_iterations = 6000;
  /// Base seed for every stochastic component; per-restart/round
  /// streams are derived from it (sched::derive_seed), never reused.
  std::uint64_t seed = 1;
  /// Whole-stage wall-clock budget in seconds (0 = unlimited). The ILP time
  /// limit is clamped to the remaining budget and the heuristic/annealing
  /// passes stop early; a valid schedule is always returned.
  double time_budget_seconds = 0.0;
  /// Cooperative cancellation, threaded into every engine including the
  /// MILP branch-and-bound loop.
  cancel_token cancel;
  /// Worker threads for the MILP tree search (milp::solver_options::threads):
  /// 1 = sequential, 0 = hardware_concurrency, > 1 = parallel engine.
  int solver_threads = 1;
  /// Round-synchronized deterministic parallel search -- bit-identical
  /// results at any thread count (milp::solver_options::deterministic).
  bool solver_deterministic = false;
};

struct scheduling_result {
  schedule best;
  double seconds = 0.0;
  bool used_ilp = false;
  bool ilp_skipped_too_large = false;
  /// The ILP search was cut short by the time budget or a cancel token;
  /// `best` is the best-effort schedule (heuristic or partial ILP refine).
  bool ilp_interrupted = false;
  /// The stage's wall-clock budget (time_budget_seconds) was the binding
  /// constraint on the ILP: it was skipped outright or got less time than
  /// its configured ilp_time_limit_seconds. Lets callers tell "truncated
  /// by the caller's deadline" apart from "hit its ordinary solver cap".
  bool ilp_deadline_clamped = false;
  milp::solve_status ilp_status = milp::solve_status::no_solution;
  double ilp_objective = 0.0;
  double ilp_bound = 0.0;
  int ilp_variables = 0;
  int ilp_constraints = 0;
  long ilp_nodes = 0;
  /// MILP root presolve/cutting footprint (see milp::solution), surfaced
  /// into schedule reports.
  int ilp_presolve_rows_removed = 0;
  int ilp_cuts_added = 0;
  double ilp_root_bound = 0.0;
  /// Parallel-search footprint: threads the solve ran and its per-worker
  /// breakdown (empty for a one-thread solve).
  int ilp_threads = 1;
  std::vector<milp::worker_stats> ilp_workers;
};

/// Produce a validated schedule for `graph` under `options`.
[[nodiscard]] scheduling_result make_schedule(
    const assay::sequencing_graph& graph, const scheduler_options& options);

} // namespace transtore::sched
