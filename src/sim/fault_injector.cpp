#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.h"

namespace transtore::sim {
namespace {

/// cache_id owning each transfer index, or -1.
std::vector<int> cache_of_transfer(const sched::schedule& s,
                                   const arch::routing_workload& workload) {
  std::vector<int> cache(s.transfers.size(), -1);
  for (const arch::cache_request& cr : workload.caches) {
    check(cr.transfer_index >= 0 &&
              cr.transfer_index < static_cast<int>(cache.size()),
          "fault_injector: cache transfer index out of range");
    cache[static_cast<std::size_t>(cr.transfer_index)] = cr.id;
  }
  return cache;
}

std::vector<bool> failed_device_map(const arch::fault_set& faults,
                                    int device_count) {
  std::vector<bool> failed(static_cast<std::size_t>(device_count), false);
  for (int d : faults.devices)
    if (d >= 0 && d < device_count) failed[static_cast<std::size_t>(d)] = true;
  return failed;
}

} // namespace

checkpoint take_checkpoint(const sched::schedule& s, const arch::chip& chip,
                           const arch::routing_workload& workload,
                           const arch::fault_set& faults, int fault_time) {
  require(fault_time >= 0, "take_checkpoint: fault time must be >= 0");
  checkpoint cp;
  cp.faults = faults;
  cp.faults.normalize();
  cp.fault_time = fault_time;
  for (const sched::scheduled_op& so : s.ops) {
    if (so.end <= fault_time)
      cp.completed.push_back(so.op);
    else if (so.start < fault_time)
      cp.in_flight.push_back(so.op);
  }
  const std::vector<int> cache_id = cache_of_transfer(s, workload);
  for (std::size_t i = 0; i < s.transfers.size(); ++i) {
    const sched::crossing_state state =
        sched::classify_crossing(s, s.transfers[i], fault_time);
    if (state == sched::crossing_state::internal) continue;
    fluid_position fp;
    fp.transfer_index = static_cast<int>(i);
    fp.state = state;
    if (state == sched::crossing_state::stored) {
      const int c = cache_id[i];
      check(c >= 0 && c < static_cast<int>(chip.caches.size()),
            "take_checkpoint: stored transfer without cache placement");
      fp.chip_edge = chip.caches[static_cast<std::size_t>(c)].edge;
    }
    cp.fluids.push_back(fp);
  }
  return cp;
}

std::optional<std::string> recovery_blocker(
    const assay::sequencing_graph& graph, const sched::schedule& s,
    const arch::chip& chip, const arch::routing_workload& workload,
    const arch::fault_set& faults, int fault_time) {
  arch::fault_set f = faults;
  f.normalize();
  f.validate(chip.grid(), s.device_count);

  if (const auto blocked = sched::blocking_resource(
          graph, s, fault_time, failed_device_map(f, s.device_count)))
    return blocked;

  if (f.empty()) return std::nullopt;
  const std::vector<bool> banned = arch::banned_storage_map(f, chip.grid());
  const std::vector<int> cache_id = cache_of_transfer(s, workload);
  for (std::size_t i = 0; i < s.transfers.size(); ++i) {
    if (sched::classify_crossing(s, s.transfers[i], fault_time) !=
        sched::crossing_state::stored)
      continue;
    const int c = cache_id[i];
    check(c >= 0 && c < static_cast<int>(chip.caches.size()),
          "recovery_blocker: stored transfer without cache placement");
    const int edge = chip.caches[static_cast<std::size_t>(c)].edge;
    if (banned[static_cast<std::size_t>(edge)])
      return "sample of operation " +
             std::to_string(s.transfers[i].source_op) +
             " is parked on faulted storage segment " + std::to_string(edge);
  }
  return std::nullopt;
}

namespace {

/// First device whose failure at `fault_time` is survivable, preferring
/// devices that still have work after the fault (so recovery actually
/// re-plans); -1 when none is.
int pick_failed_device(const assay::sequencing_graph& graph,
                       const sched::schedule& s, int fault_time) {
  std::vector<bool> has_tail(static_cast<std::size_t>(s.device_count), false);
  for (const sched::scheduled_op& so : s.ops)
    if (so.start >= fault_time)
      has_tail[static_cast<std::size_t>(so.device)] = true;
  std::vector<int> candidates;
  for (int d = 0; d < s.device_count; ++d)
    if (has_tail[static_cast<std::size_t>(d)]) candidates.push_back(d);
  for (int d = 0; d < s.device_count; ++d)
    if (!has_tail[static_cast<std::size_t>(d)]) candidates.push_back(d);
  for (int d : candidates) {
    std::vector<bool> failed(static_cast<std::size_t>(s.device_count), false);
    failed[static_cast<std::size_t>(d)] = true;
    if (!sched::blocking_resource(graph, s, fault_time, failed)) return d;
  }
  return -1;
}

/// First segment that can fail survivably at `fault_time`: a cache segment
/// no sample has departed towards yet, falling back to any segment without
/// such a cache. Segments can host several cache placements, so the whole
/// edge must be clean, not just one placement. Returns -1 when every
/// segment is (conservatively) occupied.
int pick_failed_storage(const arch::chip& chip,
                        const arch::routing_workload& workload,
                        int fault_time) {
  std::vector<bool> unsafe(static_cast<std::size_t>(chip.grid().edge_count()),
                           false);
  for (const arch::cache_placement& cp : chip.caches) {
    const arch::cache_request& cache =
        workload.caches[static_cast<std::size_t>(cp.cache_id)];
    if (workload.tasks[static_cast<std::size_t>(cache.store_task)]
            .window.begin < fault_time)
      unsafe[static_cast<std::size_t>(cp.edge)] = true;
  }
  for (const arch::cache_placement& cp : chip.caches)
    if (!unsafe[static_cast<std::size_t>(cp.edge)]) return cp.edge;
  for (int e = 0; e < chip.grid().edge_count(); ++e)
    if (!unsafe[static_cast<std::size_t>(e)]) return e;
  return -1;
}

} // namespace

std::optional<fault_scenario> choose_fault_scenario(
    const assay::sequencing_graph& graph, const sched::schedule& s,
    const arch::chip& chip, const arch::routing_workload& workload,
    double fraction) {
  require(fraction >= 0.0 && fraction <= 1.0,
          "choose_fault_scenario: fraction must be in [0, 1]");
  const int target = std::max(
      0, static_cast<int>(std::floor(s.makespan() * fraction)));

  // Candidate fault times: the target first, then every operation boundary
  // by increasing distance from it. At a busy midpoint every device may
  // have an operation in flight (an unsurvivable failure), while one step
  // past a boundary some device is idle -- so a nearby time usually admits
  // a device fault when the exact target does not.
  std::vector<int> times = {target};
  for (const sched::scheduled_op& so : s.ops) {
    times.push_back(so.start);
    times.push_back(so.end);
  }
  std::sort(times.begin(), times.end(), [target](int a, int b) {
    const int da = std::abs(a - target), db = std::abs(b - target);
    return da != db ? da < db : a < b;
  });
  times.erase(std::unique(times.begin(), times.end()), times.end());

  const bool want_device = s.device_count > 1;
  auto build = [&](int fault_time, bool with_device)
      -> std::optional<fault_scenario> {
    fault_scenario scenario;
    scenario.fault_time = fault_time;
    if (with_device) {
      const int d = pick_failed_device(graph, s, fault_time);
      if (d < 0) return std::nullopt;
      scenario.faults.devices = {d};
    }
    const int segment = pick_failed_storage(chip, workload, fault_time);
    if (segment >= 0) scenario.faults.storage = {segment};
    if (scenario.faults.empty()) return std::nullopt;
    if (recovery_blocker(graph, s, chip, workload, scenario.faults,
                         scenario.fault_time))
      return std::nullopt;
    return scenario;
  };

  if (want_device)
    for (int t : times)
      if (auto scenario = build(t, true)) return scenario;
  // Single-device designs -- and designs where no device failure is ever
  // survivable -- degrade to a storage-only fault at the target time.
  for (int t : times)
    if (auto scenario = build(t, false)) return scenario;
  return std::nullopt;
}

} // namespace transtore::sim
