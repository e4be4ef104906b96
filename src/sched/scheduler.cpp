#include "sched/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "sched/local_search.h"
#include "sched/metaheuristics.h"

namespace transtore::sched {
namespace {

/// The one table of engine names: to_string and schedule_engine_named
/// read it.
constexpr std::pair<schedule_engine, const char*> engine_names[] = {
    {schedule_engine::heuristic, "heuristic"},
    {schedule_engine::ilp, "ilp"},
    {schedule_engine::combined, "combined"},
    {schedule_engine::sa, "sa"},
    {schedule_engine::grasp, "grasp"},
};

bool is_metaheuristic(schedule_engine engine) {
  return engine == schedule_engine::sa || engine == schedule_engine::grasp;
}

list_scheduler_options heuristic_options(const scheduler_options& o) {
  list_scheduler_options lo;
  lo.device_count = o.device_count;
  lo.timing = o.timing;
  lo.alpha = o.alpha;
  lo.beta = o.beta;
  lo.storage_aware = o.storage_aware;
  lo.restarts = o.heuristic_restarts;
  lo.seed = o.seed;
  return lo;
}

ilp_scheduler_options ilp_options(const scheduler_options& o,
                                  const schedule& warm) {
  ilp_scheduler_options io;
  io.device_count = o.device_count;
  io.timing = o.timing;
  io.alpha = o.alpha;
  io.beta = o.storage_aware ? o.beta : 0.0;
  io.time_limit_seconds = o.ilp_time_limit_seconds;
  io.warm_start = warm;
  io.milp.threads = o.solver_threads;
  io.milp.deterministic = o.solver_deterministic;
  return io;
}

/// Estimated ILP row count before building the full model (cheap guard).
long estimate_ilp_rows(const assay::sequencing_graph& graph,
                       const scheduler_options& o) {
  const long n = graph.operation_count();
  const assay::reachability reach(graph);
  long unrelated_pairs = 0;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (!reach.reaches(i, j) && !reach.reaches(j, i)) ++unrelated_pairs;
  return 2 * n + n + graph.edge_count() * (2L * o.device_count + 2) +
         unrelated_pairs * 2L * o.device_count + n;
}

} // namespace

const char* to_string(schedule_engine engine) {
  for (const auto& [e, name] : engine_names)
    if (e == engine) return name;
  return "combined";
}

std::optional<schedule_engine> schedule_engine_named(std::string_view name) {
  for (const auto& [e, spelled] : engine_names)
    if (name == spelled) return e;
  return std::nullopt;
}

scheduling_result make_schedule(const assay::sequencing_graph& graph,
                                const scheduler_options& options) {
  stopwatch watch;
  const deadline budget(options.time_budget_seconds, options.cancel);
  scheduling_result result;

  // A heuristic schedule is always produced: it is either the answer, the
  // ILP warm start, the metaheuristic engines' starting incumbent and
  // never-worse floor, or several of these at once.
  list_scheduler_options lo = heuristic_options(options);
  lo.time_budget_seconds = options.time_budget_seconds;
  lo.cancel = options.cancel;
  if (options.engine == schedule_engine::ilp ||
      is_metaheuristic(options.engine))
    lo.restarts = 1; // single greedy pass: seed/floor, not the answer
  schedule heuristic = schedule_with_list(graph, lo);

  const double effective_beta = options.storage_aware ? options.beta : 0.0;

  if (is_metaheuristic(options.engine)) {
    const double remaining =
        options.time_budget_seconds > 0.0
            ? std::max(budget.remaining_seconds(), 1e-3)
            : 0.0;
    if (options.engine == schedule_engine::sa) {
      sa_scheduler_options so;
      so.device_count = options.device_count;
      so.timing = options.timing;
      so.alpha = options.alpha;
      so.beta = options.beta;
      so.storage_aware = options.storage_aware;
      so.iterations = options.local_search_iterations;
      so.seed = options.seed;
      so.time_budget_seconds = remaining;
      so.cancel = options.cancel;
      so.start = std::move(heuristic);
      result.best = schedule_with_sa(graph, so);
    } else { // schedule_engine::grasp
      grasp_scheduler_options go;
      go.device_count = options.device_count;
      go.timing = options.timing;
      go.alpha = options.alpha;
      go.beta = options.beta;
      go.storage_aware = options.storage_aware;
      go.improvement_iterations =
          std::max(0, options.local_search_iterations / 4);
      go.seed = options.seed;
      go.time_budget_seconds = remaining;
      go.cancel = options.cancel;
      go.start = std::move(heuristic);
      result.best = schedule_with_grasp(graph, go);
    }
    result.best.validate(graph);
    result.seconds = watch.elapsed_seconds();
    return result;
  }

  bool run_ilp = options.engine != schedule_engine::heuristic;
  if (run_ilp) {
    const long rows = estimate_ilp_rows(graph, options);
    if (options.engine == schedule_engine::combined &&
        rows > options.ilp_row_limit) {
      log_at(log_level::info, "scheduler: skipping ILP (", rows,
             " estimated rows > limit ", options.ilp_row_limit, ")");
      result.ilp_skipped_too_large = true;
      run_ilp = false;
    }
  }
  if (run_ilp && budget.expired()) {
    // Budget already gone: the heuristic carries the instance.
    result.ilp_interrupted = true;
    result.ilp_deadline_clamped = true;
    run_ilp = false;
  }

  if (run_ilp && options.local_search_iterations > 0 && !budget.expired()) {
    // Anneal the heuristic BEFORE the MILP sees it: the warm start handed
    // to the solver is then the best metaheuristic incumbent, so pruning
    // starts from a tight primal bound at the very first node.
    sa_scheduler_options so;
    so.device_count = options.device_count;
    so.timing = options.timing;
    so.alpha = options.alpha;
    so.beta = options.beta;
    so.storage_aware = options.storage_aware;
    so.iterations = options.local_search_iterations;
    so.restarts = 2;
    so.seed = derive_seed(options.seed, 0x5741524DULL);
    so.cancel = options.cancel;
    if (options.time_budget_seconds > 0.0)
      // Leave the bulk of the remaining budget to the ILP itself.
      so.time_budget_seconds =
          std::max(budget.remaining_seconds() * 0.25, 1e-3);
    so.start = heuristic;
    heuristic = schedule_with_sa(graph, so);
  }

  if (run_ilp) {
    ilp_scheduler_options io = ilp_options(options, heuristic);
    io.milp.cancel = options.cancel;
    // Clamp to the remaining stage budget; the 1ms floor keeps a raced-to-
    // zero remainder from reading as "unlimited" in the solver's deadline,
    // and a configured limit of 0 ("uncapped") becomes exactly the
    // remaining budget.
    if (options.time_budget_seconds > 0.0) {
      const double remaining = std::max(budget.remaining_seconds(), 1e-3);
      result.ilp_deadline_clamped =
          io.time_limit_seconds <= 0.0 || remaining < io.time_limit_seconds;
      io.time_limit_seconds = io.time_limit_seconds > 0.0
                                  ? std::min(io.time_limit_seconds, remaining)
                                  : remaining;
    }
    const ilp_schedule_result ilp = schedule_with_ilp(graph, io);
    result.used_ilp = true;
    result.ilp_status = ilp.status;
    result.ilp_interrupted = ilp.interrupted;
    result.ilp_objective = ilp.ilp_objective;
    result.ilp_bound = ilp.ilp_bound;
    result.ilp_variables = ilp.variables;
    result.ilp_constraints = ilp.constraints;
    result.ilp_nodes = ilp.nodes;
    result.ilp_presolve_rows_removed = ilp.presolve_rows_removed;
    result.ilp_cuts_added = ilp.cuts_added;
    result.ilp_root_bound = ilp.root_bound;
    result.ilp_threads = ilp.threads_used;
    result.ilp_workers = ilp.workers;
    // Keep whichever refined schedule scores better under objective (6);
    // the ILP does not model device-port serialization, so its extraction
    // can occasionally refine worse than the heuristic.
    const double ilp_score =
        ilp.refined.objective(options.alpha, effective_beta);
    const double heuristic_score =
        heuristic.objective(options.alpha, effective_beta);
    result.best =
        ilp_score <= heuristic_score ? ilp.refined : std::move(heuristic);
  } else {
    result.best = std::move(heuristic);
  }

  if (options.local_search_iterations > 0) {
    local_search_options lso;
    lso.alpha = options.alpha;
    lso.beta = effective_beta;
    lso.iterations = options.local_search_iterations;
    // Derived stream (uniform with every other engine): the post-pass must
    // not replay the pre-ILP anneal's exact trajectory.
    lso.seed = derive_seed(options.seed, 0x504F5354ULL);
    lso.cancel = options.cancel;
    if (options.time_budget_seconds > 0.0)
      lso.time_budget_seconds = std::max(budget.remaining_seconds(), 1e-3);
    result.best = improve_schedule(graph, result.best, options.timing, lso);
  }

  result.best.validate(graph);
  result.seconds = watch.elapsed_seconds();
  return result;
}

} // namespace transtore::sched
