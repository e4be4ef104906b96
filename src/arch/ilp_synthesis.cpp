#include "arch/ilp_synthesis.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"

namespace transtore::arch {
namespace {

/// Candidate storage segments per cache (nearest to the consumer); bounds
/// the sigma variable count.
constexpr int candidate_segments = 10;

using milp::cmp;
using milp::linear_expr;
using milp::variable;

/// Per-task arc variables: arc[e][0] traverses edge e from its lower to its
/// higher endpoint, arc[e][1] the reverse. Missing (invalid) arcs are
/// represented by an invalid variable handle.
struct task_vars {
  std::vector<std::array<variable, 2>> arc;
};

/// Walks the selected arcs from `source`, erasing loops, until no out-arc
/// remains; returns the visited node sequence.
std::vector<int> loop_erased_walk(
    const connection_grid& grid, int source,
    const std::map<std::pair<int, int>, bool>& arc_selected) {
  std::vector<int> walk{source};
  std::set<std::pair<int, int>> consumed;
  while (true) {
    const int at = walk.back();
    int next = -1;
    for (const auto& [edge, neighbor] : grid.incidences(at)) {
      const auto key = std::make_pair(edge, at < neighbor ? 0 : 1);
      if (consumed.count(key)) continue;
      const auto it = arc_selected.find(key);
      if (it != arc_selected.end() && it->second) {
        next = neighbor;
        consumed.insert(key);
        break;
      }
    }
    if (next < 0) break;
    // Loop erasure: if we have seen `next`, cut the cycle out.
    const auto seen = std::find(walk.begin(), walk.end(), next);
    if (seen != walk.end()) {
      walk.erase(seen + 1, walk.end());
    } else {
      walk.push_back(next);
    }
  }
  return walk;
}

} // namespace

ilp_synthesis_result synthesize_with_ilp(const connection_grid& grid,
                                         const routing_workload& workload,
                                         const std::vector<int>& device_nodes,
                                         const ilp_synthesis_options& options) {
  require(static_cast<int>(device_nodes.size()) == workload.device_count,
          "synthesize_with_ilp: placement size mismatch");
  const int num_edges = grid.edge_count();
  const int num_nodes = grid.node_count();
  require(options.banned_nodes.empty() ||
              static_cast<int>(options.banned_nodes.size()) == num_nodes,
          "synthesize_with_ilp: banned_nodes size mismatch");
  require(options.banned_edges.empty() ||
              static_cast<int>(options.banned_edges.size()) == num_edges,
          "synthesize_with_ilp: banned_edges size mismatch");
  require(options.banned_storage.empty() ||
              static_cast<int>(options.banned_storage.size()) == num_edges,
          "synthesize_with_ilp: banned_storage size mismatch");
  auto node_banned = [&](int n) {
    return !options.banned_nodes.empty() &&
           options.banned_nodes[static_cast<std::size_t>(n)];
  };
  auto edge_banned = [&](int e) {
    if (!options.banned_edges.empty() &&
        options.banned_edges[static_cast<std::size_t>(e)])
      return true;
    const auto [u, v] = grid.endpoints(e);
    return node_banned(u) || node_banned(v);
  };
  auto storage_banned = [&](int e) {
    return edge_banned(e) ||
           (!options.banned_storage.empty() &&
            options.banned_storage[static_cast<std::size_t>(e)]);
  };
  std::vector<int> device_at_node(static_cast<std::size_t>(num_nodes), -1);
  for (std::size_t d = 0; d < device_nodes.size(); ++d)
    device_at_node[static_cast<std::size_t>(device_nodes[d])] =
        static_cast<int>(d);

  milp::model m;

  // ---- segment-use objective variables (constraint (11) / objective (12)).
  std::vector<variable> seg_used(static_cast<std::size_t>(num_edges));
  for (int e = 0; e < num_edges; ++e)
    seg_used[static_cast<std::size_t>(e)] =
        m.add_continuous(0.0, 1.0, "s_" + std::to_string(e));

  // ---- terminals and permitted device nodes per task.
  auto terminal_source = [&](const transport_task& t) {
    return t.from_device >= 0
               ? device_nodes[static_cast<std::size_t>(t.from_device)]
               : -1;
  };
  auto terminal_target = [&](const transport_task& t) {
    return t.to_device >= 0
               ? device_nodes[static_cast<std::size_t>(t.to_device)]
               : -1;
  };

  // ---- per-task arc variables (flow form of constraint (9)).
  std::vector<task_vars> tasks(workload.tasks.size());
  for (std::size_t r = 0; r < workload.tasks.size(); ++r) {
    const transport_task& task = workload.tasks[r];
    tasks[r].arc.resize(static_cast<std::size_t>(num_edges));
    const int src = terminal_source(task);
    const int dst = terminal_target(task);
    for (int e = 0; e < num_edges; ++e) {
      if (edge_banned(e)) continue; // faulted segment or valve
      const auto [u, v] = grid.endpoints(e);
      auto allowed_node = [&](int n) {
        const int dev = device_at_node[static_cast<std::size_t>(n)];
        return dev < 0 || n == src || n == dst;
      };
      if (!allowed_node(u) || !allowed_node(v)) continue; // no transit
      tasks[r].arc[static_cast<std::size_t>(e)][0] = m.add_binary(
          "f_" + std::to_string(r) + "_" + std::to_string(e) + "_fwd");
      tasks[r].arc[static_cast<std::size_t>(e)][1] = m.add_binary(
          "f_" + std::to_string(r) + "_" + std::to_string(e) + "_rev");
    }
  }

  /// Edge-use expression for one task.
  auto edge_use = [&](std::size_t r, int e) {
    linear_expr expr;
    const auto& a = tasks[r].arc[static_cast<std::size_t>(e)];
    if (a[0].valid()) expr += a[0];
    if (a[1].valid()) expr += a[1];
    return expr;
  };
  /// In-flow expression at a node for one task.
  auto in_flow = [&](std::size_t r, int n) {
    linear_expr expr;
    for (const auto& [edge, neighbor] : grid.incidences(n)) {
      const auto& a = tasks[r].arc[static_cast<std::size_t>(edge)];
      // Arc into n is the one departing from `neighbor`.
      const variable arc_in = neighbor < n ? a[0] : a[1];
      if (arc_in.valid()) expr += arc_in;
    }
    return expr;
  };
  auto out_flow = [&](std::size_t r, int n) {
    linear_expr expr;
    for (const auto& [edge, neighbor] : grid.incidences(n)) {
      const auto& a = tasks[r].arc[static_cast<std::size_t>(edge)];
      const variable arc_out = n < neighbor ? a[0] : a[1];
      if (arc_out.valid()) expr += arc_out;
    }
    return expr;
  };

  // ---- cache segment selection (sigma / entry / exit).
  struct cache_vars {
    std::vector<int> candidates;
    std::vector<variable> sigma;                  // per candidate
    std::vector<std::array<variable, 2>> entry;   // per candidate x side
    std::vector<std::array<variable, 2>> exit;    // per candidate x side
  };
  std::vector<cache_vars> caches(workload.caches.size());

  for (std::size_t c = 0; c < workload.caches.size(); ++c) {
    const cache_request& cache = workload.caches[c];
    const int src =
        device_nodes[static_cast<std::size_t>(cache.source_device)];
    const int dst =
        device_nodes[static_cast<std::size_t>(cache.target_device)];

    // Candidate segments: nearest to the consumer (plus the warm start's
    // segment so the incumbent stays representable).
    std::vector<int> ranked;
    for (int e = 0; e < num_edges; ++e) {
      if (storage_banned(e)) continue;
      const auto [u, v] = grid.endpoints(e);
      const bool u_dev = device_at_node[static_cast<std::size_t>(u)] >= 0;
      const bool v_dev = device_at_node[static_cast<std::size_t>(v)] >= 0;
      if (u_dev && v_dev) continue; // nowhere to open the segment
      ranked.push_back(e);
    }
    std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      const int sa = 2 * grid.distance_to_edge(dst, a) +
                     grid.distance_to_edge(src, a);
      const int sb = 2 * grid.distance_to_edge(dst, b) +
                     grid.distance_to_edge(src, b);
      if (sa != sb) return sa < sb;
      return a < b;
    });
    if (static_cast<int>(ranked.size()) > candidate_segments)
      ranked.resize(static_cast<std::size_t>(candidate_segments));
    if (options.warm_start) {
      const int ws_edge =
          options.warm_start->caches[static_cast<std::size_t>(c)].edge;
      if (std::find(ranked.begin(), ranked.end(), ws_edge) == ranked.end())
        ranked.push_back(ws_edge);
    }
    require(!ranked.empty(), "synthesize_with_ilp: no candidate segments");

    cache_vars& cv = caches[c];
    cv.candidates = ranked;
    linear_expr sigma_sum;
    for (std::size_t k = 0; k < ranked.size(); ++k) {
      const int e = ranked[k];
      const auto [u, v] = grid.endpoints(e);
      cv.sigma.push_back(m.add_binary("sig_" + std::to_string(c) + "_" +
                                      std::to_string(e)));
      sigma_sum += cv.sigma.back();
      m.add_constraint(linear_expr(seg_used[static_cast<std::size_t>(e)]) -
                           cv.sigma.back(),
                       cmp::greater_equal, 0.0);
      // Entry/exit endpoint selection; a device endpoint is only usable
      // when it is the respective terminal itself.
      std::array<variable, 2> entry{};
      std::array<variable, 2> exit{};
      const std::array<int, 2> side_node{u, v};
      linear_expr entry_sum, exit_sum;
      for (int side = 0; side < 2; ++side) {
        const int n = side_node[static_cast<std::size_t>(side)];
        const int dev = device_at_node[static_cast<std::size_t>(n)];
        if (dev < 0 || n == src) {
          entry[static_cast<std::size_t>(side)] =
              m.add_binary("ent_" + std::to_string(c) + "_" +
                           std::to_string(e) + "_" + std::to_string(side));
          entry_sum += entry[static_cast<std::size_t>(side)];
        }
        if (dev < 0 || n == dst) {
          exit[static_cast<std::size_t>(side)] =
              m.add_binary("exi_" + std::to_string(c) + "_" +
                           std::to_string(e) + "_" + std::to_string(side));
          exit_sum += exit[static_cast<std::size_t>(side)];
        }
      }
      m.add_constraint(entry_sum - cv.sigma.back(), cmp::equal, 0.0);
      m.add_constraint(exit_sum - cv.sigma.back(), cmp::equal, 0.0);
      cv.entry.push_back(entry);
      cv.exit.push_back(exit);
      // The store flow must not pass through the far endpoint of the
      // chosen segment (the realized path appends that node), and likewise
      // the fetch flow must not revisit the node prepended to it.
      const cache_request& cr = workload.caches[c];
      const std::size_t store_r = static_cast<std::size_t>(cr.store_task);
      const std::size_t fetch_r = static_cast<std::size_t>(cr.fetch_task);
      if (entry[0].valid()) {
        const linear_expr in_far = in_flow(store_r, v);
        if (!in_far.empty())
          m.add_constraint(in_far + entry[0], cmp::less_equal, 1.0);
      }
      if (entry[1].valid()) {
        const linear_expr in_far = in_flow(store_r, u);
        if (!in_far.empty())
          m.add_constraint(in_far + entry[1], cmp::less_equal, 1.0);
      }
      if (exit[0].valid()) {
        const linear_expr in_far = in_flow(fetch_r, v);
        if (!in_far.empty())
          m.add_constraint(in_far + exit[0], cmp::less_equal, 1.0);
      }
      if (exit[1].valid()) {
        const linear_expr in_far = in_flow(fetch_r, u);
        if (!in_far.empty())
          m.add_constraint(in_far + exit[1], cmp::less_equal, 1.0);
      }
      // Neither flow may route over the chosen segment edge itself: the
      // realized paths traverse it via the appended/prepended hop, so a
      // flow using it too would double-use the edge (an alternate optimum
      // the extraction cannot realize, e.g. a segment incident to the
      // source with the flow arriving through it).
      for (const std::size_t task_r : {store_r, fetch_r}) {
        const linear_expr on_segment = edge_use(task_r, e);
        if (!on_segment.empty())
          m.add_constraint(on_segment + cv.sigma.back(), cmp::less_equal,
                           1.0);
      }
    }
    m.add_constraint(sigma_sum, cmp::equal, 1.0,
                     "sigma_one_" + std::to_string(c));
  }

  // ---- flow conservation per task and node.
  for (std::size_t r = 0; r < workload.tasks.size(); ++r) {
    const transport_task& task = workload.tasks[r];
    const int src = terminal_source(task);
    const int dst = terminal_target(task);
    for (int n = 0; n < num_nodes; ++n) {
      linear_expr balance = out_flow(r, n) - in_flow(r, n);
      double rhs = 0.0;
      if (task.kind == task_kind::direct) {
        if (n == src) rhs += 1.0;
        if (n == dst) rhs -= 1.0;
      } else if (task.kind == task_kind::store) {
        if (n == src) rhs += 1.0;
        // Sink is the selected entry endpoint.
        const cache_vars& cv = caches[static_cast<std::size_t>(task.cache_id)];
        for (std::size_t k = 0; k < cv.candidates.size(); ++k) {
          const auto [u, v] = grid.endpoints(cv.candidates[k]);
          if (u == n && cv.entry[k][0].valid()) balance += cv.entry[k][0];
          if (v == n && cv.entry[k][1].valid()) balance += cv.entry[k][1];
        }
      } else { // fetch
        if (n == dst) rhs -= 1.0;
        const cache_vars& cv = caches[static_cast<std::size_t>(task.cache_id)];
        for (std::size_t k = 0; k < cv.candidates.size(); ++k) {
          const auto [u, v] = grid.endpoints(cv.candidates[k]);
          if (u == n && cv.exit[k][0].valid()) balance -= cv.exit[k][0];
          if (v == n && cv.exit[k][1].valid()) balance -= cv.exit[k][1];
        }
      }
      if (balance.empty() && rhs != 0.0)
        throw capacity_error(
            "synthesize_with_ilp: terminal node has no usable arcs");
      if (!balance.empty())
        m.add_constraint(balance, cmp::equal, rhs);
    }
    // Each edge used at most once per path (no back-and-forth).
    for (int e = 0; e < num_edges; ++e) {
      const linear_expr use = edge_use(r, e);
      if (!use.empty()) {
        m.add_constraint(use, cmp::less_equal, 1.0);
        m.add_constraint(linear_expr(seg_used[static_cast<std::size_t>(e)]) -
                             use,
                         cmp::greater_equal, 0.0); // constraint (11)
      }
    }
  }

  // ---- conflict constraints (10): overlapping-window tasks are node- and
  // edge-disjoint. Node usage of a task is its in-flow, plus its source
  // indicator, plus -- for store/fetch tasks -- the segment-endpoint
  // occupancy of the final/leading segment traversal (the realized path
  // covers both endpoints of the chosen segment).
  auto node_usage = [&](std::size_t r, int n, double& constant) {
    const transport_task& task = workload.tasks[r];
    linear_expr usage = in_flow(r, n);
    if (terminal_source(task) == n) constant += 1.0;
    if (task.kind == task_kind::store) {
      const cache_vars& cv = caches[static_cast<std::size_t>(task.cache_id)];
      for (std::size_t k = 0; k < cv.candidates.size(); ++k) {
        const auto [u, v] = grid.endpoints(cv.candidates[k]);
        // Entering at u puts the far endpoint v on the path, and vice versa.
        if (v == n && cv.entry[k][0].valid()) usage += cv.entry[k][0];
        if (u == n && cv.entry[k][1].valid()) usage += cv.entry[k][1];
      }
    } else if (task.kind == task_kind::fetch) {
      const cache_vars& cv = caches[static_cast<std::size_t>(task.cache_id)];
      for (std::size_t k = 0; k < cv.candidates.size(); ++k) {
        const auto [u, v] = grid.endpoints(cv.candidates[k]);
        // The fetch path covers both endpoints of the chosen segment.
        if (u == n || v == n) usage += cv.sigma[k];
      }
    }
    return usage;
  };

  for (std::size_t r1 = 0; r1 < workload.tasks.size(); ++r1) {
    for (std::size_t r2 = r1 + 1; r2 < workload.tasks.size(); ++r2) {
      if (!workload.tasks[r1].window.overlaps(workload.tasks[r2].window))
        continue;
      for (int e = 0; e < num_edges; ++e) {
        const linear_expr sum = edge_use(r1, e) + edge_use(r2, e);
        if (!sum.empty()) m.add_constraint(sum, cmp::less_equal, 1.0);
      }
      for (int n = 0; n < num_nodes; ++n) {
        double constant = 0.0;
        const linear_expr usage =
            node_usage(r1, n, constant) + node_usage(r2, n, constant);
        if (!usage.empty())
          m.add_constraint(usage, cmp::less_equal, 1.0 - constant);
      }
    }
  }

  // ---- held segments block overlapping paths (edge only: p'_r exception).
  for (std::size_t c = 0; c < workload.caches.size(); ++c) {
    const cache_request& cache = workload.caches[c];
    if (cache.hold.empty()) continue;
    for (std::size_t r = 0; r < workload.tasks.size(); ++r) {
      const transport_task& task = workload.tasks[r];
      if (static_cast<int>(r) == cache.store_task ||
          static_cast<int>(r) == cache.fetch_task)
        continue;
      if (!task.window.overlaps(cache.hold)) continue;
      for (std::size_t k = 0; k < caches[c].candidates.size(); ++k) {
        const linear_expr use = edge_use(r, caches[c].candidates[k]);
        if (!use.empty())
          m.add_constraint(use + caches[c].sigma[k], cmp::less_equal, 1.0);
      }
    }
    for (std::size_t c2 = c + 1; c2 < workload.caches.size(); ++c2) {
      if (!cache.hold.overlaps(workload.caches[c2].hold)) continue;
      for (std::size_t k = 0; k < caches[c].candidates.size(); ++k)
        for (std::size_t k2 = 0; k2 < caches[c2].candidates.size(); ++k2)
          if (caches[c].candidates[k] == caches[c2].candidates[k2])
            m.add_constraint(linear_expr(caches[c].sigma[k]) +
                                 caches[c2].sigma[k2],
                             cmp::less_equal, 1.0);
    }
  }

  // ---- objective (12).
  linear_expr objective;
  for (int e = 0; e < num_edges; ++e)
    objective += seg_used[static_cast<std::size_t>(e)];
  m.set_objective(objective, milp::objective_sense::minimize);

  // ---- warm start from a heuristic chip.
  milp::solver_options solver_options;
  solver_options.time_limit_seconds = options.time_limit_seconds;
  solver_options.cancel = options.cancel;
  if (options.warm_start) {
    const chip& ws = *options.warm_start;
    std::vector<double> assignment(
        static_cast<std::size_t>(m.variable_count()), 0.0);
    auto set = [&](variable v, double value) {
      if (v.valid()) assignment[static_cast<std::size_t>(v.index)] = value;
    };
    auto set_arc = [&](std::size_t r, int a, int b) {
      const int e = grid.edge_between(a, b);
      check(e >= 0, "warm start: nonadjacent path nodes");
      set(tasks[r].arc[static_cast<std::size_t>(e)][a < b ? 0 : 1], 1.0);
    };
    for (const auto& p : ws.paths) {
      const std::size_t r = static_cast<std::size_t>(p.task_id);
      const transport_task& task = workload.tasks[r];
      // Flow covers the path without the storage-segment traversal.
      std::size_t first = 0;
      std::size_t last = p.nodes.size() - 1;
      if (task.kind == task_kind::store) --last;   // drop final segment hop
      if (task.kind == task_kind::fetch) ++first;  // drop leading segment hop
      for (std::size_t i = first; i < last; ++i)
        set_arc(r, p.nodes[i], p.nodes[i + 1]);
    }
    for (const auto& cp : ws.caches) {
      const cache_vars& cv = caches[static_cast<std::size_t>(cp.cache_id)];
      const auto it =
          std::find(cv.candidates.begin(), cv.candidates.end(), cp.edge);
      check(it != cv.candidates.end(), "warm start: segment not a candidate");
      const std::size_t k =
          static_cast<std::size_t>(it - cv.candidates.begin());
      set(cv.sigma[k], 1.0);
      const auto [u, v] = grid.endpoints(cp.edge);
      // Entry endpoint: second-to-last node of the store path; exit
      // endpoint: second node of the fetch path.
      const cache_request& cr =
          workload.caches[static_cast<std::size_t>(cp.cache_id)];
      const auto& store_path =
          ws.paths[static_cast<std::size_t>(cr.store_task)];
      const auto& fetch_path =
          ws.paths[static_cast<std::size_t>(cr.fetch_task)];
      const int entry_node = store_path.nodes[store_path.nodes.size() - 2];
      const int exit_node = fetch_path.nodes[1];
      set(cv.entry[k][entry_node == u ? 0 : 1], 1.0);
      set(cv.exit[k][exit_node == u ? 0 : 1], 1.0);
    }
    const auto used = ws.used_edges();
    for (int e = 0; e < num_edges; ++e)
      if (used[static_cast<std::size_t>(e)])
        set(seg_used[static_cast<std::size_t>(e)], 1.0);
    solver_options.warm_start = std::move(assignment);
  }

  const milp::solution sol = milp::solve(m, solver_options);

  ilp_synthesis_result result{chip(grid, device_nodes)};
  result.status = sol.status;
  result.nodes = sol.nodes_explored;
  result.seconds = sol.seconds;
  result.variables = m.variable_count();
  result.constraints = m.constraint_count();

  if (sol.status == milp::solve_status::infeasible)
    throw capacity_error(
        "synthesize_with_ilp: infeasible (grid too small for the workload)");
  check(sol.has_solution(),
        "synthesize_with_ilp: solver returned no incumbent");
  result.objective = sol.objective;
  result.best_bound = sol.best_bound;

  // ---- extract chip from the incumbent.
  chip& out = result.result;
  out.paths.resize(workload.tasks.size());
  out.caches.resize(workload.caches.size());

  // Cache placements first (store/fetch extraction needs the segment).
  std::vector<int> chosen_edge(workload.caches.size(), -1);
  std::vector<int> chosen_entry(workload.caches.size(), -1);
  std::vector<int> chosen_exit(workload.caches.size(), -1);
  for (std::size_t c = 0; c < workload.caches.size(); ++c) {
    const cache_vars& cv = caches[c];
    for (std::size_t k = 0; k < cv.candidates.size(); ++k) {
      if (sol.value(cv.sigma[k]) < 0.5) continue;
      chosen_edge[c] = cv.candidates[k];
      const auto [u, v] = grid.endpoints(cv.candidates[k]);
      chosen_entry[c] = cv.entry[k][0].valid() && sol.value(cv.entry[k][0]) > 0.5
                            ? u
                            : v;
      chosen_exit[c] = cv.exit[k][0].valid() && sol.value(cv.exit[k][0]) > 0.5
                           ? u
                           : v;
    }
    check(chosen_edge[c] >= 0, "synthesize_with_ilp: cache without segment");
    cache_placement cp;
    cp.cache_id = static_cast<int>(c);
    cp.edge = chosen_edge[c];
    cp.hold = workload.caches[c].hold;
    out.caches[c] = cp;
  }

  for (std::size_t r = 0; r < workload.tasks.size(); ++r) {
    const transport_task& task = workload.tasks[r];
    std::map<std::pair<int, int>, bool> selected;
    for (int e = 0; e < num_edges; ++e) {
      const auto& a = tasks[r].arc[static_cast<std::size_t>(e)];
      if (a[0].valid() && sol.value(a[0]) > 0.5) selected[{e, 0}] = true;
      if (a[1].valid() && sol.value(a[1]) > 0.5) selected[{e, 1}] = true;
    }
    routed_path rp;
    rp.task_id = static_cast<int>(r);
    rp.window = task.window;
    if (task.kind == task_kind::direct || task.kind == task_kind::store) {
      rp.nodes = loop_erased_walk(grid, terminal_source(task), selected);
    } else {
      const std::size_t c = static_cast<std::size_t>(task.cache_id);
      rp.nodes = loop_erased_walk(grid, chosen_exit[c], selected);
    }
    if (task.kind == task_kind::store) {
      const std::size_t c = static_cast<std::size_t>(task.cache_id);
      check(rp.nodes.back() == chosen_entry[c],
            "synthesize_with_ilp: store flow does not reach the segment");
      const auto [u, v] = grid.endpoints(chosen_edge[c]);
      rp.nodes.push_back(chosen_entry[c] == u ? v : u);
    }
    if (task.kind == task_kind::fetch) {
      const std::size_t c = static_cast<std::size_t>(task.cache_id);
      const auto [u, v] = grid.endpoints(chosen_edge[c]);
      rp.nodes.insert(rp.nodes.begin(), chosen_exit[c] == u ? v : u);
    }
    rp.edges.reserve(rp.nodes.size() - 1);
    for (std::size_t i = 0; i + 1 < rp.nodes.size(); ++i) {
      const int e = grid.edge_between(rp.nodes[i], rp.nodes[i + 1]);
      check(e >= 0, "synthesize_with_ilp: extracted path disconnected");
      rp.edges.push_back(e);
    }
    out.paths[r] = std::move(rp);
  }

  out.validate(workload);
  return result;
}

} // namespace transtore::arch
