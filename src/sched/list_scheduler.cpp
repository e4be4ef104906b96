#include "sched/list_scheduler.h"

#include <algorithm>
#include <limits>

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

greedy_pass::greedy_pass(const assay::sequencing_graph& graph,
                         int device_count, double alpha, double beta,
                         bool storage_aware)
    : graph_(graph), device_count_(device_count), alpha_(alpha),
      beta_(storage_aware ? beta : 0.0), storage_aware_(storage_aware),
      priority_(remaining_path(graph)) {}

double greedy_pass::run(timeline_builder& builder, prng& rng, double noise) {
  const int n = graph_.operation_count();
  const bool rcl = rcl_alpha > 0.0;
  int makespan = 0;
  long cache_time = 0;

  while (builder.committed_count() < n) {
    int best_op = -1;
    int best_device = -1;
    double best_score = std::numeric_limits<double>::infinity();
    int best_priority = -1;
    double worst_score = -std::numeric_limits<double>::infinity();
    candidates_.clear();

    for (int op = 0; op < n; ++op) {
      if (!builder.ready(op)) continue;
      for (int d = 0; d < device_count_; ++d) {
        if (veto && veto(op, d)) continue;
        const auto placement = builder.preview(op, d);
        double score = alpha_ * placement.end +
                       beta_ * static_cast<double>(placement.cache_time_added);
        if (noise > 0.0) score += rng.uniform_real(0.0, noise);
        if (rcl) {
          candidates_.push_back({op, d, score});
          best_score = std::min(best_score, score);
          worst_score = std::max(worst_score, score);
          continue;
        }
        const int prio = priority_[static_cast<std::size_t>(op)];
        // Tie-breaking: the storage-aware mode prefers deeper chains
        // (depth-first consumption, Fig. 2(c)); the time-only baseline is
        // deliberately storage-blind and just takes the lowest id, like a
        // makespan-only ILP that has no preference among its optima.
        bool tie_better;
        if (storage_aware_)
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
    if (rcl && !candidates_.empty()) {
      // One uniform draw among the candidates within the RCL threshold.
      const double threshold =
          best_score + rcl_alpha * (worst_score - best_score) + 1e-9;
      std::size_t eligible = 0;
      for (const candidate& c : candidates_)
        if (c.score <= threshold) ++eligible;
      std::size_t pick = rng.index(eligible);
      for (const candidate& c : candidates_)
        if (c.score <= threshold && pick-- == 0) {
          best_op = c.op;
          best_device = c.device;
          break;
        }
    }
    check(best_op >= 0, "greedy pass: no placeable operation (cycle?)");
    const timeline_builder::placement done =
        builder.commit(best_op, best_device);
    makespan = std::max(makespan, done.end);
    cache_time += done.cache_time_added;
  }
  return objective_value(alpha_, beta_, makespan, cache_time);
}

schedule greedy_pass::best_of_restarts(
    timeline_builder& builder,
    const std::function<void(timeline_builder&)>& seed, int restarts,
    int transport_time, prng& rng, const deadline& budget) {
  schedule best;
  schedule attempt;
  double best_objective = std::numeric_limits<double>::infinity();
  for (int k = 0; k < restarts; ++k) {
    if (k > 0 && budget.expired()) break;
    // First pass is pure greedy; later passes add increasing noise.
    const double noise =
        k == 0 ? 0.0 : transport_time * (0.5 + 2.0 * rng.uniform_real());
    builder.reset();
    if (seed) seed(builder);
    double objective = run(builder, rng, noise);
    if (seed) {
      builder.build_into(attempt);
      objective = attempt.objective(alpha_, beta_);
    }
    if (objective < best_objective) {
      best_objective = objective;
      builder.build_into(best);
    }
  }
  return best;
}

schedule schedule_with_list(const assay::sequencing_graph& graph,
                            const list_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0,
          "list scheduler: device count must be positive");
  require(options.restarts >= 1, "list scheduler: need at least one restart");

  greedy_pass pass(graph, options.device_count, options.alpha, options.beta,
                   options.storage_aware);
  prng rng(options.seed);
  const deadline budget(options.time_budget_seconds, options.cancel);
  timeline_builder builder(graph, options.device_count, options.timing);
  schedule best =
      pass.best_of_restarts(builder, {}, options.restarts,
                            options.timing.transport_time, rng, budget);
  best.validate(graph);
  return best;
}

} // namespace transtore::sched
