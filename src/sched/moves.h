// Shared neighborhood-move primitives for the annealing loop.
//
// The one annealing loop in metaheuristics.cpp serves the post-pass
// (local_search.h) and the SA and GRASP engines (metaheuristics.h). Every
// move it makes removes one operation from its device queue and reinserts
// it elsewhere. The feasibility rule is purely structural -- no descendant
// may sit earlier in the target queue and no ancestor later, answered from
// the graph's precomputed reachability closure -- so every move that
// passes it yields a binding refine_timing can realize (up to cross-device
// deadlock, which the loop detects and rejects).
//
// The loop moves its one current binding in place and undoes a rejected
// move with the relocation record, so no move copies a binding.
#pragma once

#include <algorithm>
#include <vector>

#include "assay/sequencing_graph.h"
#include "sched/timing.h"

namespace transtore::sched {

/// Can `op` legally sit at `position` in `queue` given the precedence
/// relation? (No descendant earlier, no ancestor later.) `queue` may still
/// contain `op`; its current slot is ignored.
[[nodiscard]] inline bool position_feasible(const assay::reachability& reach,
                                            const std::vector<int>& queue,
                                            int op, std::size_t position) {
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i] == op) continue;
    const std::size_t effective = i < position ? i : i + 1;
    if (effective < position && reach.reaches(op, queue[i])) return false;
    if (effective > position && reach.reaches(queue[i], op)) return false;
  }
  return true;
}

/// What relocate_op changed, so undo_relocation can put it back.
struct relocation {
  int op = -1;
  int from_device = -1;
  std::size_t from_index = 0;
  int to_device = -1;
  std::size_t to_index = 0;
  bool inserted = false; // false: `op` was removed but not reinserted
};

/// Remove `op` from its current queue in `b` and insert it at `position`
/// (an index into the target queue AFTER removal) on `to_device`. Returns
/// false when the position is precedence-infeasible; `b` is then left with
/// `op` removed from its queue. Either way `undo` records the change, and
/// undo_relocation(b, undo) restores `b` exactly.
[[nodiscard]] inline bool relocate_op(const assay::reachability& reach,
                                      binding& b, int op, int to_device,
                                      std::size_t position,
                                      relocation& undo) {
  const int from_device = b.device_of[static_cast<std::size_t>(op)];
  auto& from_queue = b.device_order[static_cast<std::size_t>(from_device)];
  const auto it = std::find(from_queue.begin(), from_queue.end(), op);
  check(it != from_queue.end(), "relocate_op: binding corrupt");
  undo.op = op;
  undo.from_device = from_device;
  undo.from_index = static_cast<std::size_t>(it - from_queue.begin());
  undo.to_device = to_device;
  undo.inserted = false;
  from_queue.erase(it);

  auto& to_queue = b.device_order[static_cast<std::size_t>(to_device)];
  if (position > to_queue.size()) position = to_queue.size();
  if (!position_feasible(reach, to_queue, op, position)) return false;
  to_queue.insert(to_queue.begin() + static_cast<std::ptrdiff_t>(position),
                  op);
  b.device_of[static_cast<std::size_t>(op)] = to_device;
  undo.to_index = position;
  undo.inserted = true;
  return true;
}

/// Reverse the relocate_op call that filled `r` (its last one on `b`).
inline void undo_relocation(binding& b, const relocation& r) {
  if (r.inserted) {
    auto& to_queue = b.device_order[static_cast<std::size_t>(r.to_device)];
    to_queue.erase(to_queue.begin() +
                   static_cast<std::ptrdiff_t>(r.to_index));
  }
  auto& from_queue = b.device_order[static_cast<std::size_t>(r.from_device)];
  from_queue.insert(from_queue.begin() +
                        static_cast<std::ptrdiff_t>(r.from_index),
                    r.op);
  b.device_of[static_cast<std::size_t>(r.op)] = r.from_device;
}

/// Give every device queue of `b` room for all `operations`, so moves and
/// their undos never reallocate a queue.
inline void reserve_queues(binding& b, std::size_t operations) {
  for (auto& queue : b.device_order) queue.reserve(operations);
}

/// Index of `op` inside its device queue in `b`.
[[nodiscard]] inline std::size_t queue_position(const binding& b, int op) {
  const auto& q =
      b.device_order[static_cast<std::size_t>(
          b.device_of[static_cast<std::size_t>(op)])];
  const auto it = std::find(q.begin(), q.end(), op);
  check(it != q.end(), "queue_position: binding corrupt");
  return static_cast<std::size_t>(it - q.begin());
}

} // namespace transtore::sched
