#include "arch/placement.h"

#include <algorithm>
#include <cmath>

#include "common/prng.h"

namespace transtore::arch {
namespace {

/// Starting temperature of the anneal, in placement-cost units; it cools
/// geometrically to 0.01 over the iterations.
constexpr double initial_temperature = 4.0;

/// The workload-invariant half of the placement cost, computed once per
/// place_devices call, plus the scratch one evaluation reuses.
class cost_model {
public:
  cost_model(const connection_grid& grid, const routing_workload& w)
      : grid_(grid), devices_(w.device_count),
        weight_(static_cast<std::size_t>(devices_) * devices_, 0),
        traffic_(static_cast<std::size_t>(devices_), 0),
        is_device_node_(static_cast<std::size_t>(grid.node_count()), 0) {
    // Device-pair communication weights: direct tasks count the device
    // pair; cached transfers count source->target.
    for (const auto& task : w.tasks)
      if (task.kind == task_kind::direct)
        ++weight_[pair(task.from_device, task.to_device)];
    for (const auto& cache : w.caches)
      ++weight_[pair(cache.source_device, cache.target_device)];
    // Port-starvation weights: a device's transport/storage traffic.
    for (const auto& task : w.tasks) {
      if (task.from_device >= 0)
        ++traffic_[static_cast<std::size_t>(task.from_device)];
      if (task.to_device >= 0 && task.to_device != task.from_device)
        ++traffic_[static_cast<std::size_t>(task.to_device)];
    }
  }

  /// The cost of one placement (one grid node per device).
  long cost(const std::vector<int>& device_nodes) {
    long cost = 0;
    for (int a = 0; a < devices_; ++a)
      for (int b = 0; b < devices_; ++b) {
        const int weight = weight_[pair(a, b)];
        if (weight == 0) continue;
        cost += static_cast<long>(weight) *
                std::max(1, grid_.distance(
                                device_nodes[static_cast<std::size_t>(a)],
                                device_nodes[static_cast<std::size_t>(b)]));
      }
    // Port-starvation term: a device with heavy transport/storage traffic
    // needs incident channel segments; penalize low-degree (corner/border)
    // nodes in proportion to the device's traffic so a busy device is not
    // walled in by held storage segments.
    for (int node : device_nodes)
      is_device_node_[static_cast<std::size_t>(node)] = 1;
    for (int a = 0; a < devices_; ++a) {
      long usable_ports = 0;
      for (const auto& [edge, neighbor] :
           grid_.incidences(device_nodes[static_cast<std::size_t>(a)])) {
        (void)edge;
        if (!is_device_node_[static_cast<std::size_t>(neighbor)])
          ++usable_ports;
      }
      cost += (4 - usable_ports) * traffic_[static_cast<std::size_t>(a)];
    }
    for (int node : device_nodes)
      is_device_node_[static_cast<std::size_t>(node)] = 0;
    return cost;
  }

private:
  [[nodiscard]] std::size_t pair(int a, int b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(devices_) +
           static_cast<std::size_t>(b);
  }

  const connection_grid& grid_;
  int devices_;
  std::vector<int> weight_;   // devices x devices, row-major
  std::vector<long> traffic_; // per device
  std::vector<char> is_device_node_; // per grid node; all 0 between calls
};

} // namespace

long placement_cost(const connection_grid& grid,
                    const routing_workload& workload,
                    const std::vector<int>& device_nodes) {
  return cost_model(grid, workload).cost(device_nodes);
}

std::vector<int> place_devices(const connection_grid& grid,
                               const routing_workload& workload,
                               const placement_options& options) {
  const int devices = workload.device_count;
  require(devices > 0, "place_devices: no devices");
  require(options.banned_nodes.empty() ||
              static_cast<int>(options.banned_nodes.size()) ==
                  grid.node_count(),
          "place_devices: banned_nodes size mismatch");
  auto banned = [&](int n) {
    return !options.banned_nodes.empty() &&
           options.banned_nodes[static_cast<std::size_t>(n)];
  };
  int free_nodes = 0;
  for (int n = 0; n < grid.node_count(); ++n)
    if (!banned(n)) ++free_nodes;
  if (devices > free_nodes)
    throw capacity_error(
        "place_devices: grid has fewer usable nodes than devices");

  prng rng(options.seed);

  // Initial placement: spread devices along the grid boundary (matches the
  // paper's Fig. 11 layouts where devices sit at the periphery and the
  // interior serves as routing/storage fabric).
  std::vector<int> boundary;
  for (int y = 0; y < grid.height(); ++y)
    for (int x = 0; x < grid.width(); ++x)
      if ((x == 0 || y == 0 || x == grid.width() - 1 ||
           y == grid.height() - 1) &&
          !banned(grid.node_at(x, y)))
        boundary.push_back(grid.node_at(x, y));
  std::vector<int> nodes;
  if (devices <= static_cast<int>(boundary.size())) {
    const double stride = static_cast<double>(boundary.size()) / devices;
    for (int d = 0; d < devices; ++d)
      nodes.push_back(boundary[static_cast<std::size_t>(
          std::min<double>(boundary.size() - 1, std::floor(d * stride)))]);
    // Deduplicate collisions (possible for tiny grids).
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }
  for (int n = 0; static_cast<int>(nodes.size()) < devices &&
                  n < grid.node_count();
       ++n)
    if (!banned(n) && std::find(nodes.begin(), nodes.end(), n) == nodes.end())
      nodes.push_back(n);
  nodes.resize(static_cast<std::size_t>(devices));

  std::vector<bool> occupied(static_cast<std::size_t>(grid.node_count()),
                             false);
  for (int n : nodes) occupied[static_cast<std::size_t>(n)] = true;

  cost_model model(grid, workload);
  long cost = model.cost(nodes);
  std::vector<int> best = nodes;
  long best_cost = cost;

  double temperature = initial_temperature;
  const double cooling =
      std::pow(0.01 / initial_temperature,
               1.0 / std::max(1, options.iterations));

  std::vector<int> candidate;
  for (int iter = 0; iter < options.iterations; ++iter) {
    // Move one device to a random free node, or swap two devices.
    const int d = static_cast<int>(rng.index(static_cast<std::size_t>(devices)));
    candidate = nodes;
    if (devices >= 2 && rng.bernoulli(0.3)) {
      int d2 = static_cast<int>(rng.index(static_cast<std::size_t>(devices)));
      while (d2 == d)
        d2 = static_cast<int>(rng.index(static_cast<std::size_t>(devices)));
      std::swap(candidate[static_cast<std::size_t>(d)],
                candidate[static_cast<std::size_t>(d2)]);
    } else {
      const int target =
          static_cast<int>(rng.index(static_cast<std::size_t>(grid.node_count())));
      if (occupied[static_cast<std::size_t>(target)] || banned(target))
        continue;
      candidate[static_cast<std::size_t>(d)] = target;
    }
    const long candidate_cost = model.cost(candidate);
    const long delta = candidate_cost - cost;
    if (delta <= 0 ||
        rng.uniform_real() < std::exp(-static_cast<double>(delta) /
                                      std::max(1e-9, temperature))) {
      for (int n : nodes) occupied[static_cast<std::size_t>(n)] = false;
      nodes.swap(candidate);
      for (int n : nodes) occupied[static_cast<std::size_t>(n)] = true;
      cost = candidate_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = nodes;
      }
    }
    temperature *= cooling;
  }
  return best;
}

} // namespace transtore::arch
