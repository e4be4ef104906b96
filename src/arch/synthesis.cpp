#include "arch/synthesis.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace transtore::arch {
namespace {

/// The one table of engine names: to_string and synthesis_engine_named
/// read it.
constexpr std::pair<synthesis_engine, const char*> engine_names[] = {
    {synthesis_engine::heuristic, "heuristic"},
    {synthesis_engine::ilp, "ilp"},
};

} // namespace

const char* to_string(synthesis_engine engine) {
  for (const auto& [e, name] : engine_names)
    if (e == engine) return name;
  return "heuristic";
}

std::optional<synthesis_engine> synthesis_engine_named(std::string_view name) {
  for (const auto& [e, spelled] : engine_names)
    if (name == spelled) return e;
  return std::nullopt;
}

arch_result synthesize_architecture(const sched::schedule& s,
                                    const arch_options& options) {
  stopwatch watch;
  const deadline budget(options.time_budget_seconds, options.cancel);
  require(options.attempts >= 1, "synthesize_architecture: attempts >= 1");
  const connection_grid grid(options.grid_width, options.grid_height);
  routing_workload workload = derive_workload(s);

  fault_set faults = options.faults;
  faults.normalize();
  faults.validate(grid, workload.device_count);
  const std::vector<bool> banned_nodes =
      faults.empty() ? std::vector<bool>{} : banned_node_map(faults, grid);
  const std::vector<bool> banned_edges =
      faults.empty() ? std::vector<bool>{} : banned_edge_map(faults, grid);
  const std::vector<bool> banned_storage =
      faults.empty() ? std::vector<bool>{} : banned_storage_map(faults, grid);
  if (options.fixed_placement) {
    require(static_cast<int>(options.fixed_placement->size()) ==
                workload.device_count,
            "synthesize_architecture: fixed placement size mismatch");
    for (int node : *options.fixed_placement)
      require(node >= 0 && node < grid.node_count(),
              "synthesize_architecture: fixed placement node out of range");
  }

  std::optional<chip> routed;
  int attempts_used = 0;
  bool interrupted = false;
  std::string last_error;
  for (int attempt = 0; attempt < options.attempts && !routed; ++attempt) {
    // The constructive attempts ARE the best-effort fallback and each one
    // is cheap, so an expired deadline does not stop them -- it only skips
    // the ILP refinement below. Explicit cancellation stops everything.
    if (attempt > 0 && budget.cancelled()) {
      interrupted = true;
      break;
    }
    ++attempts_used;
    placement_options p = options.placement;
    p.seed = options.placement.seed + static_cast<std::uint64_t>(attempt);
    p.banned_nodes = banned_nodes;
    router_options r = options.router;
    r.seed = options.router.seed + static_cast<std::uint64_t>(attempt);
    r.banned_nodes = banned_nodes;
    r.banned_edges = banned_edges;
    r.banned_storage = banned_storage;
    try {
      const std::vector<int> nodes = options.fixed_placement
                                         ? *options.fixed_placement
                                         : place_devices(grid, workload, p);
      routed = route_workload(grid, workload, nodes, r);
    } catch (const capacity_error& e) {
      last_error = e.what();
      log_at(log_level::info, "arch: attempt ", attempt + 1, " failed: ",
             e.what());
    }
    // With a pinned placement every attempt is identical; retrying cannot
    // succeed where the first attempt failed.
    if (options.fixed_placement && !routed) break;
  }
  if (!routed) {
    if (interrupted)
      throw cancelled_error(
          "synthesize_architecture: interrupted before any attempt routed "
          "the workload");
    throw capacity_error("synthesize_architecture: all " +
                         std::to_string(options.attempts) +
                         " attempts failed; last error: " + last_error);
  }
  routed->validate(workload);

  arch_result result{*routed, std::move(workload)};
  result.attempts_used = attempts_used;
  result.interrupted = interrupted;

  if (options.engine == synthesis_engine::ilp && !budget.expired()) {
    ilp_synthesis_options io = options.ilp;
    io.warm_start = *routed;
    io.cancel = options.cancel;
    io.banned_nodes = banned_nodes;
    io.banned_edges = banned_edges;
    io.banned_storage = banned_storage;
    // Clamp to the remaining stage budget (1ms floor); a configured limit
    // of 0 ("uncapped") becomes exactly the remaining budget.
    if (options.time_budget_seconds > 0.0) {
      const double remaining = std::max(budget.remaining_seconds(), 1e-3);
      io.time_limit_seconds = io.time_limit_seconds > 0.0
                                  ? std::min(io.time_limit_seconds, remaining)
                                  : remaining;
    }
    const ilp_synthesis_result ilp = synthesize_with_ilp(
        grid, result.workload, routed->device_nodes(), io);
    result.used_ilp = true;
    result.ilp_status = ilp.status;
    result.ilp_objective = ilp.objective;
    result.ilp_bound = ilp.best_bound;
    result.ilp_variables = ilp.variables;
    result.ilp_constraints = ilp.constraints;
    if (ilp.result.used_edge_count() <= routed->used_edge_count())
      result.result = ilp.result;
  }
  if (budget.expired()) result.interrupted = true;

  result.seconds = watch.elapsed_seconds();
  return result;
}

} // namespace transtore::arch
