// Device placement on the connection grid by simulated annealing.
//
// The cost is the workload-weighted sum of Manhattan distances between
// communicating devices (direct tasks count the device pair; cached
// transfers count source->target since the storage segment will be chosen
// near the consumer), plus a port-starvation term that charges each device
// its traffic for every grid neighbour another device occupies or the grid
// border removes. Deterministic in the seed.
//
// The pair weights and per-device traffic depend only on the workload, so
// place_devices computes them once per call; each annealing move is then
// scored from those tables with reused scratch (the candidate node vector
// and the per-node device marks), and the loop allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/connection_grid.h"
#include "arch/workload.h"

namespace transtore::arch {

struct placement_options {
  std::uint64_t seed = 1;
  int iterations = 4000;
  /// Grid nodes devices may not occupy (failed valves; see arch/fault.h).
  /// Empty = no bans; otherwise sized node_count.
  std::vector<bool> banned_nodes;
};

/// Returns one grid node per device. Throws capacity_error when the grid
/// has fewer nodes than devices.
[[nodiscard]] std::vector<int> place_devices(const connection_grid& grid,
                                             const routing_workload& workload,
                                             const placement_options& options);

/// The cost that place_devices minimizes (exposed for tests/benches).
[[nodiscard]] long placement_cost(const connection_grid& grid,
                                  const routing_workload& workload,
                                  const std::vector<int>& device_nodes);

} // namespace transtore::arch
