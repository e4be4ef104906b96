#include "sched/list_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/prng.h"
#include "common/stopwatch.h"

namespace transtore::sched {

std::vector<int> remaining_path(const assay::sequencing_graph& graph) {
  std::vector<int> order = graph.topological_order();
  std::vector<int> path(static_cast<std::size_t>(graph.operation_count()), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int best = 0;
    for (int child : graph.children(*it))
      best = std::max(best, path[static_cast<std::size_t>(child)]);
    path[static_cast<std::size_t>(*it)] = best + graph.at(*it).duration;
  }
  return path;
}

namespace {

/// One greedy construction on `builder` (reset first), which then holds
/// the schedule. Returns its objective (6) under `final_beta`, summed from
/// the committed placements.
double greedy_pass(const assay::sequencing_graph& graph,
                   const list_scheduler_options& options,
                   const std::vector<int>& priority, prng& rng, double noise,
                   double final_beta, timeline_builder& builder) {
  builder.reset();
  const int n = graph.operation_count();
  const double beta = options.storage_aware ? options.beta : 0.0;
  int makespan = 0;
  long cache_time = 0;

  for (int step = 0; step < n; ++step) {
    int best_op = -1;
    int best_device = -1;
    double best_score = std::numeric_limits<double>::infinity();
    int best_priority = -1;

    for (int op = 0; op < n; ++op) {
      if (!builder.ready(op)) continue;
      for (int d = 0; d < options.device_count; ++d) {
        const auto placement = builder.preview(op, d);
        double score = options.alpha * placement.end +
                       beta * static_cast<double>(placement.cache_time_added);
        if (noise > 0.0) score += rng.uniform_real(0.0, noise);
        const int prio = priority[static_cast<std::size_t>(op)];
        // Tie-breaking: the storage-aware mode prefers deeper chains
        // (depth-first consumption, Fig. 2(c)); the time-only baseline is
        // deliberately storage-blind and just takes the lowest id, like a
        // makespan-only ILP that has no preference among its optima.
        bool tie_better;
        if (options.storage_aware)
          tie_better = prio > best_priority ||
                       (prio == best_priority && op < best_op);
        else
          tie_better = op < best_op;
        const bool better = score < best_score - 1e-9 ||
                            (score < best_score + 1e-9 && tie_better);
        if (better) {
          best_score = score;
          best_op = op;
          best_device = d;
          best_priority = prio;
        }
      }
    }
    check(best_op >= 0, "list scheduler: no ready operation (cycle?)");
    const timeline_builder::placement done =
        builder.commit(best_op, best_device);
    makespan = std::max(makespan, done.end);
    cache_time += done.cache_time_added;
  }
  return objective_value(options.alpha, final_beta, makespan, cache_time);
}

} // namespace

schedule schedule_with_list(const assay::sequencing_graph& graph,
                            const list_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0,
          "list scheduler: device count must be positive");
  require(options.restarts >= 1, "list scheduler: need at least one restart");

  const std::vector<int> priority = remaining_path(graph);
  prng rng(options.seed);

  const double final_beta = options.storage_aware ? options.beta : 0.0;
  schedule best;
  double best_objective = std::numeric_limits<double>::infinity();

  const deadline budget(options.time_budget_seconds, options.cancel);
  timeline_builder builder(graph, options.device_count, options.timing);
  for (int attempt = 0; attempt < options.restarts; ++attempt) {
    if (attempt > 0 && budget.expired()) break;
    // First pass is pure greedy; later passes add increasing noise.
    const double noise =
        attempt == 0 ? 0.0
                     : options.timing.transport_time *
                           (0.5 + 2.0 * rng.uniform_real());
    const double objective = greedy_pass(graph, options, priority, rng, noise,
                                         final_beta, builder);
    if (objective < best_objective) {
      best_objective = objective;
      builder.build_into(best);
    }
  }
  best.validate(graph);
  return best;
}

} // namespace transtore::sched
