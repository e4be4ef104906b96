#include "sched/local_search.h"

#include <algorithm>
#include <cmath>

#include "common/prng.h"
#include "common/stopwatch.h"
#include "sched/moves.h" // relocate_op shared with metaheuristics.cpp

namespace transtore::sched {
namespace {

/// Starting temperature of the anneal, in objective units (seconds-ish).
constexpr double initial_temperature = 60.0;

} // namespace

schedule improve_schedule(const assay::sequencing_graph& graph,
                          const schedule& start,
                          const timing_options& timing,
                          const local_search_options& options) {
  require(options.iterations >= 0, "improve_schedule: negative iterations");
  const int devices = start.device_count;
  prng rng(options.seed);

  // One binding, moved in place: a rejected move is undone, an accepted
  // one kept. Each candidate is scored by one reused timer.
  binding current = extract_binding(start, devices);
  reserve_queues(current, current.device_of.size());
  double current_cost = start.objective(options.alpha, options.beta);
  binding best = current;
  double best_cost = current_cost;
  binding_timer timer(graph, devices, timing);
  const assay::reachability reach(graph);
  relocation move;

  double temperature = initial_temperature;
  const double cooling =
      options.iterations > 0
          ? std::pow(0.05, 1.0 / options.iterations)
          : 1.0;

  const deadline budget(options.time_budget_seconds, options.cancel);
  for (int iter = 0; iter < options.iterations; ++iter) {
    if ((iter & 255) == 0 && budget.expired()) break;
    // Pick a random operation and a move: a new device (sometimes) and a
    // position in its queue after the op's removal.
    const int op = static_cast<int>(rng.index(current.device_of.size()));
    const int from_device = current.device_of[static_cast<std::size_t>(op)];
    const int to_device =
        devices > 1 && rng.bernoulli(0.35)
            ? static_cast<int>(rng.index(static_cast<std::size_t>(devices)))
            : from_device;
    const std::size_t slots =
        current.device_order[static_cast<std::size_t>(to_device)].size() +
        (to_device == from_device ? 0 : 1);
    if (!relocate_op(reach, current, op, to_device, rng.index(slots), move) ||
        !timer.time(current)) {
      // Precedence-infeasible or a cross-device deadlock: reject.
      undo_relocation(current, move);
      temperature *= cooling;
      continue;
    }
    const double cost = timer.objective(options.alpha, options.beta);
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        rng.uniform_real() < std::exp(-delta / std::max(1e-9, temperature))) {
      current_cost = cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = current;
      }
    } else {
      undo_relocation(current, move);
    }
    temperature *= cooling;
  }

  schedule result = refine_timing(graph, best, devices, timing);
  result.validate(graph);
  // The annealer never returns something worse than its starting point.
  if (result.objective(options.alpha, options.beta) >
      start.objective(options.alpha, options.beta))
    return start;
  return result;
}

} // namespace transtore::sched
