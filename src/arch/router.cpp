#include "arch/router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>

#include "common/prng.h"

namespace transtore::arch {
namespace {

/// A* cost of claiming an untouched segment (reuse costs
/// router_options::reuse_cost).
constexpr double new_edge_cost = 1.0;
/// Storage segments tried per cache, nearest to the consumer first.
constexpr int candidate_segments = 32;

/// Interval reservations on grid elements. Each element's busy set is kept
/// sorted by start time with overlapping/adjacent intervals coalesced, so
/// the free probes inside A* are a single binary search (O(log k)) instead
/// of a linear scan over every reservation.
class occupancy {
public:
  occupancy(int nodes, int edges)
      : node_busy_(static_cast<std::size_t>(nodes)),
        edge_busy_(static_cast<std::size_t>(edges)) {}

  [[nodiscard]] bool node_free(int node, const time_interval& w) const {
    return free_in(node_busy_[static_cast<std::size_t>(node)], w);
  }
  [[nodiscard]] bool edge_free(int edge, const time_interval& w) const {
    return free_in(edge_busy_[static_cast<std::size_t>(edge)], w);
  }
  void reserve_node(int node, const time_interval& w) {
    if (!w.empty()) insert(node_busy_[static_cast<std::size_t>(node)], w);
  }
  void reserve_edge(int edge, const time_interval& w) {
    if (!w.empty()) insert(edge_busy_[static_cast<std::size_t>(edge)], w);
  }

private:
  [[nodiscard]] static bool free_in(const std::vector<time_interval>& busy,
                                    const time_interval& w) {
    // An empty window occupies no time and can never conflict (a cache
    // whose fetch departs the instant its store arrives has such a hold).
    if (w.empty()) return true;
    // Intervals are disjoint and sorted by begin; only the last interval
    // starting before w.end can overlap w.
    auto it = std::lower_bound(
        busy.begin(), busy.end(), w,
        [](const time_interval& iv, const time_interval& probe) {
          return iv.begin < probe.end;
        });
    if (it == busy.begin()) return true;
    return (it - 1)->end <= w.begin;
  }

  static void insert(std::vector<time_interval>& busy, time_interval w) {
    // Coalescing keeps the disjoint-sorted invariant (reservations only
    // ever block, so merging cannot change any free_in answer) and keeps
    // the sets small under heavy reuse of the same element.
    auto first = std::lower_bound(
        busy.begin(), busy.end(), w,
        [](const time_interval& iv, const time_interval& probe) {
          return iv.end < probe.begin;
        });
    auto last = first;
    while (last != busy.end() && last->begin <= w.end) {
      w.begin = std::min(w.begin, last->begin);
      w.end = std::max(w.end, last->end);
      ++last;
    }
    if (first == last) {
      busy.insert(first, w);
    } else {
      *first = w;
      busy.erase(first + 1, last);
    }
  }

  std::vector<std::vector<time_interval>> node_busy_;
  std::vector<std::vector<time_interval>> edge_busy_;
};

struct found_path {
  std::vector<int> nodes;
  std::vector<int> edges;
};

/// Deterministic A* between grid nodes under occupancy constraints.
class path_finder {
public:
  path_finder(const connection_grid& grid, const occupancy& occ,
              const std::vector<int>& device_at_node,
              const std::vector<bool>& used_edges, const router_options& opt)
      : grid_(grid),
        occ_(occ),
        device_at_node_(device_at_node),
        used_edges_(used_edges),
        options_(opt) {}

  /// Path from `source` to `target` free during `w`. Nodes in
  /// `allowed_devices` may be used as terminals; other device nodes block.
  /// `banned_edge` (if >= 0) is never used. Returns nullopt on failure.
  [[nodiscard]] std::optional<found_path> find(int source, int target,
                                               const time_interval& w,
                                               int banned_edge) const {
    if (!occ_.node_free(source, w) || !occ_.node_free(target, w))
      return std::nullopt;
    if (source == target) return found_path{{source}, {}};

    const int n = grid_.node_count();
    std::vector<double> g(static_cast<std::size_t>(n),
                          std::numeric_limits<double>::infinity());
    std::vector<int> from_node(static_cast<std::size_t>(n), -1);
    std::vector<int> from_edge(static_cast<std::size_t>(n), -1);

    using entry = std::pair<double, int>; // (f-cost, node)
    std::priority_queue<entry, std::vector<entry>, std::greater<>> open;
    auto heuristic = [&](int node) {
      return options_.reuse_cost * grid_.distance(node, target);
    };
    g[static_cast<std::size_t>(source)] = 0.0;
    open.emplace(heuristic(source), source);

    while (!open.empty()) {
      const auto [f, node] = open.top();
      open.pop();
      if (f > g[static_cast<std::size_t>(node)] + heuristic(node) + 1e-12)
        continue;
      if (node == target) break;
      for (const auto& [edge, next] : grid_.incidences(node)) {
        if (edge == banned_edge) continue;
        if (next != target && device_at_node_[static_cast<std::size_t>(next)] >= 0)
          continue; // no transit through devices
        if (!occ_.edge_free(edge, w) || !occ_.node_free(next, w)) continue;
        double step = used_edges_[static_cast<std::size_t>(edge)]
                          ? options_.reuse_cost
                          : new_edge_cost;
        // Keep paths off foreign devices' doorsteps: their few port edges
        // must stay available for their own traffic.
        if (next != target &&
            foreign_device_adjacent(next, source, target))
          step += new_edge_cost;
        const double cost = g[static_cast<std::size_t>(node)] + step;
        if (cost < g[static_cast<std::size_t>(next)] - 1e-12) {
          g[static_cast<std::size_t>(next)] = cost;
          from_node[static_cast<std::size_t>(next)] = node;
          from_edge[static_cast<std::size_t>(next)] = edge;
          open.emplace(cost + heuristic(next), next);
        }
      }
    }
    if (g[static_cast<std::size_t>(target)] ==
        std::numeric_limits<double>::infinity())
      return std::nullopt;

    found_path path;
    for (int at = target; at != source;
         at = from_node[static_cast<std::size_t>(at)]) {
      path.nodes.push_back(at);
      path.edges.push_back(from_edge[static_cast<std::size_t>(at)]);
    }
    path.nodes.push_back(source);
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.edges.begin(), path.edges.end());
    return path;
  }

private:
  /// True when `node` touches a device that is neither endpoint's device.
  [[nodiscard]] bool foreign_device_adjacent(int node, int source,
                                             int target) const {
    for (const auto& [edge, neighbor] : grid_.incidences(node)) {
      (void)edge;
      if (neighbor == source || neighbor == target) continue;
      if (device_at_node_[static_cast<std::size_t>(neighbor)] >= 0)
        return true;
    }
    return false;
  }

  const connection_grid& grid_;
  const occupancy& occ_;
  const std::vector<int>& device_at_node_;
  const std::vector<bool>& used_edges_;
  const router_options& options_;
};

} // namespace

chip route_workload(const connection_grid& grid,
                    const routing_workload& workload,
                    const std::vector<int>& device_nodes,
                    const router_options& options) {
  require(static_cast<int>(device_nodes.size()) == workload.device_count,
          "route_workload: placement size mismatch");
  chip result(grid, device_nodes);
  occupancy occ(grid.node_count(), grid.edge_count());
  std::vector<bool> used(static_cast<std::size_t>(grid.edge_count()), false);
  std::vector<int> device_at_node(static_cast<std::size_t>(grid.node_count()),
                                  -1);
  for (std::size_t d = 0; d < device_nodes.size(); ++d)
    device_at_node[static_cast<std::size_t>(device_nodes[d])] =
        static_cast<int>(d);

  // Faulted resources are modelled as permanent reservations, so the path
  // finder avoids them without any special casing. Storage-only bans are
  // checked at segment selection below (a ban must also veto empty holds,
  // which never conflict with reservations).
  const time_interval forever{0, 1 << 30};
  if (!options.banned_nodes.empty()) {
    require(static_cast<int>(options.banned_nodes.size()) ==
                grid.node_count(),
            "route_workload: banned_nodes size mismatch");
    for (int n = 0; n < grid.node_count(); ++n)
      if (options.banned_nodes[static_cast<std::size_t>(n)])
        occ.reserve_node(n, forever);
  }
  if (!options.banned_edges.empty()) {
    require(static_cast<int>(options.banned_edges.size()) ==
                grid.edge_count(),
            "route_workload: banned_edges size mismatch");
    for (int e = 0; e < grid.edge_count(); ++e)
      if (options.banned_edges[static_cast<std::size_t>(e)])
        occ.reserve_edge(e, forever);
  }
  require(options.banned_storage.empty() ||
              static_cast<int>(options.banned_storage.size()) ==
                  grid.edge_count(),
          "route_workload: banned_storage size mismatch");
  auto storage_banned = [&](int e) {
    return !options.banned_storage.empty() &&
           options.banned_storage[static_cast<std::size_t>(e)];
  };

  path_finder finder(grid, occ, device_at_node, used, options);

  result.paths.resize(workload.tasks.size());
  result.caches.resize(workload.caches.size());

  auto commit_path = [&](const found_path& p, int task_id,
                         const time_interval& w) {
    routed_path rp;
    rp.task_id = task_id;
    rp.nodes = p.nodes;
    rp.edges = p.edges;
    rp.window = w;
    for (int node : p.nodes) occ.reserve_node(node, w);
    for (int edge : p.edges) {
      occ.reserve_edge(edge, w);
      used[static_cast<std::size_t>(edge)] = true;
    }
    result.paths[static_cast<std::size_t>(task_id)] = std::move(rp);
  };

  for (int task_id : workload.tasks_in_time_order()) {
    const transport_task& task =
        workload.tasks[static_cast<std::size_t>(task_id)];

    if (task.kind == task_kind::direct) {
      const int source = device_nodes[static_cast<std::size_t>(task.from_device)];
      const int target = device_nodes[static_cast<std::size_t>(task.to_device)];
      const auto path = finder.find(source, target, task.window, -1);
      if (!path)
        throw capacity_error(
            "route_workload: cannot route direct transport task " +
            std::to_string(task_id) + " (grid too small or congested)");
      commit_path(*path, task_id, task.window);
      continue;
    }

    if (task.kind == task_kind::fetch) continue; // routed with its store

    // Store task: choose the storage segment and route store+fetch jointly.
    const cache_request& cache =
        workload.caches[static_cast<std::size_t>(task.cache_id)];
    const transport_task& fetch_task =
        workload.tasks[static_cast<std::size_t>(cache.fetch_task)];
    const int source =
        device_nodes[static_cast<std::size_t>(task.from_device)];
    const int target =
        device_nodes[static_cast<std::size_t>(fetch_task.to_device)];

    // Candidate segments, nearest to the consumer first (the paper's
    // "on-the-spot caching ... closer to the target device").
    std::vector<int> candidates;
    for (int e = 0; e < grid.edge_count(); ++e) {
      if (storage_banned(e)) continue;
      if (!occ.edge_free(e, task.window) || !occ.edge_free(e, cache.hold) ||
          !occ.edge_free(e, fetch_task.window))
        continue;
      candidates.push_back(e);
    }
    // Prefer segments near the consumer but not glued to a device: a held
    // device-incident segment blocks that device's scarce port edges for
    // the whole hold.
    auto segment_score = [&](int e) {
      int score = 2 * grid.distance_to_edge(target, e) +
                  grid.distance_to_edge(source, e);
      const auto [u, v] = grid.endpoints(e);
      if (device_at_node[static_cast<std::size_t>(u)] >= 0 ||
          device_at_node[static_cast<std::size_t>(v)] >= 0)
        score += 6;
      return score;
    };
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      const int score_a = segment_score(a);
      const int score_b = segment_score(b);
      if (score_a != score_b) return score_a < score_b;
      return a < b;
    });
    if (static_cast<int>(candidates.size()) > candidate_segments)
      candidates.resize(static_cast<std::size_t>(candidate_segments));

    bool routed = false;
    for (int segment : candidates) {
      const auto [u, v] = grid.endpoints(segment);
      // A segment with a foreign-device endpoint can still hold a sample,
      // but the path may only touch that endpoint if it is a terminal.
      for (const auto& [entry_node, exit_of_entry] :
           {std::pair{u, v}, std::pair{v, u}}) {
        // Store path: source -> entry, then traverse the segment. The
        // entry node ends up mid-path, so it may only be a device node
        // when it is the source itself. The far endpoint is the path's
        // LAST node: the fluid stops inside the segment, so a device there
        // is fine (the paper's "on-the-spot" caching at a consumer port,
        // Fig. 3(b)) as long as the node is free for the window.
        if (device_at_node[static_cast<std::size_t>(entry_node)] >= 0 &&
            entry_node != source)
          continue;
        const auto store_head =
            finder.find(source, entry_node, task.window, segment);
        if (!store_head) continue;
        if (!occ.node_free(exit_of_entry, task.window)) continue;
        if (std::find(store_head->nodes.begin(), store_head->nodes.end(),
                      exit_of_entry) != store_head->nodes.end())
          continue; // appending the segment would revisit a node

        // Fetch path: traverse the segment, then exit -> target. Try both
        // exit directions.
        for (const auto& [fetch_first, fetch_second] :
             {std::pair{u, v}, std::pair{v, u}}) {
          // fetch_first is the path's first node (the fluid starts inside
          // the segment); a device there is acceptable. fetch_second sits
          // mid-path unless it is the target itself.
          if (device_at_node[static_cast<std::size_t>(fetch_second)] >= 0 &&
              fetch_second != target)
            continue;
          const auto fetch_tail = finder.find(fetch_second, target,
                                              fetch_task.window, segment);
          if (!fetch_tail) continue;
          if (!occ.node_free(fetch_first, fetch_task.window)) continue;
          if (std::find(fetch_tail->nodes.begin(), fetch_tail->nodes.end(),
                        fetch_first) != fetch_tail->nodes.end())
            continue; // prepending the segment would revisit a node

          // Commit: store path = head + segment traversal.
          found_path store_path = *store_head;
          store_path.nodes.push_back(exit_of_entry);
          store_path.edges.push_back(segment);
          commit_path(store_path, task_id, task.window);

          found_path fetch_path;
          fetch_path.nodes.push_back(fetch_first);
          fetch_path.edges.push_back(segment);
          fetch_path.nodes.insert(fetch_path.nodes.end(),
                                  fetch_tail->nodes.begin(),
                                  fetch_tail->nodes.end());
          fetch_path.edges.insert(fetch_path.edges.end(),
                                  fetch_tail->edges.begin(),
                                  fetch_tail->edges.end());
          commit_path(fetch_path, cache.fetch_task, fetch_task.window);

          occ.reserve_edge(segment, cache.hold);
          used[static_cast<std::size_t>(segment)] = true;
          cache_placement placement;
          placement.cache_id = cache.id;
          placement.edge = segment;
          placement.hold = cache.hold;
          result.caches[static_cast<std::size_t>(cache.id)] = placement;
          routed = true;
          break;
        }
        if (routed) break;
      }
      if (routed) break;
    }
    if (!routed)
      throw capacity_error(
          "route_workload: cannot place cache for store task " +
          std::to_string(task_id) + " (no free storage segment)");
  }

  return result;
}

} // namespace transtore::arch
