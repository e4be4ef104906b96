// Time-multiplexed routing of transport tasks on the connection grid.
//
// Tasks are routed in chronological order. Each cached transfer is routed
// jointly: the storage segment, the store path into it, and the fetch path
// out of it are chosen together (all windows are known offline), so a
// committed store can never strand its fetch. Conflict semantics follow
// constraint (10) and the p'_r exception:
//
//   * two paths with overlapping windows share no node and no edge;
//   * a held segment's edge is blocked for the hold, its end nodes are not;
//   * paths never pass through a device node except at their terminals.
//
// The A* cost prefers channel segments already used by earlier paths
// (time multiplexing), which is the heuristic counterpart of the paper's
// minimize-sum-s_j objective (12).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/chip.h"

namespace transtore::arch {

struct router_options {
  std::uint64_t seed = 1;
  /// A* cost of reusing an already-claimed segment; claiming an untouched
  /// one costs 1.
  double reuse_cost = 0.4;
  /// Faulted resources (see arch/fault.h): banned nodes/edges carry no
  /// path, banned storage segments cache no sample. Empty = no bans;
  /// otherwise sized node_count / edge_count / edge_count.
  std::vector<bool> banned_nodes;
  std::vector<bool> banned_edges;
  std::vector<bool> banned_storage;
};

/// Route every task of the workload on `grid` with devices at
/// `device_nodes`. Throws capacity_error when some task cannot be routed
/// (grid too small / too congested).
[[nodiscard]] chip route_workload(const connection_grid& grid,
                                  const routing_workload& workload,
                                  const std::vector<int>& device_nodes,
                                  const router_options& options);

} // namespace transtore::arch
