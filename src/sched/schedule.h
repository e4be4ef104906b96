// Schedule model: the output of scheduling & binding (paper Section 3.1).
//
// A schedule fixes, for every operation, its device and execution interval,
// and derives every fluid movement the chip must perform:
//
//   * handoff  -- the producing operation immediately precedes the consumer
//                 on the same device; the fluid never leaves the mixer.
//   * direct   -- one transport leg of length uc moves the fluid straight
//                 from producer to consumer device (ports of both devices
//                 are busy for the same window).
//   * cached   -- a store leg moves the fluid into channel storage, it is
//                 held there, and a fetch leg later moves it into the
//                 consumer; this is the paper's distributed channel storage.
//
// Storage analytics on this model reproduce the paper's Fig. 2 numbers:
// the 4-store/capacity-3 and 3-store/capacity-2 PCR schedules.
#pragma once

#include <vector>

#include "assay/sequencing_graph.h"
#include "common/geometry.h"

namespace transtore::sched {

enum class leg_kind { direct, store, fetch, reagent };
enum class transfer_kind { handoff, direct, cached };

/// One fluid movement occupying device ports for `window` (length uc).
struct transport_leg {
  leg_kind kind = leg_kind::direct;
  int source_op = -1;   // producing operation; -1 for reagent loads
  int target_op = -1;   // consuming operation
  int from_device = -1; // port busy at the source; -1 = chip inlet/storage
  int to_device = -1;   // port busy at the target; -1 = storage
  time_interval window;
};

/// How one sequencing-graph edge is realized.
struct edge_transfer {
  int source_op = -1;
  int target_op = -1;
  transfer_kind kind = transfer_kind::handoff;
  time_interval cache_hold; // meaningful when kind == cached
  int store_leg = -1;       // index into schedule::legs when cached
  int fetch_leg = -1;       // index into schedule::legs when cached
  int direct_leg = -1;      // index into schedule::legs when direct
};

/// Execution assignment of one operation.
struct scheduled_op {
  int op = -1;
  int device = -1;
  int start = 0; // execution start (seconds)
  int end = 0;   // execution end = start + duration
};

/// Objective (6) from its two terms: alpha * tE + beta * total cache time.
/// schedule::objective and every evaluator that keeps only the terms use
/// this one formula, so their doubles agree bit for bit.
[[nodiscard]] inline double objective_value(double alpha, double beta,
                                            int makespan, long cache_time) {
  return alpha * makespan + beta * static_cast<double>(cache_time);
}

/// Complete schedule with all derived transport and storage activity.
class schedule {
public:
  std::vector<scheduled_op> ops;      // indexed by operation id
  std::vector<transport_leg> legs;
  std::vector<edge_transfer> transfers; // one per graph edge
  int device_count = 0;
  int transport_time = 10; // uc: pure device-to-device transport seconds

  /// Latest operation ending time -- the paper's tE (constraint (5)).
  [[nodiscard]] int makespan() const;

  /// Number of cached transfers (= number of store ops = fetch ops).
  [[nodiscard]] int store_count() const;

  /// Peak number of simultaneously cached samples: the storage capacity a
  /// dedicated unit would need (paper Fig. 2 discussion).
  [[nodiscard]] int peak_concurrent_caches() const;

  /// Sum of cache-hold durations: the realized analogue of the paper's
  /// storage objective term sum of u_ij.
  [[nodiscard]] long total_cache_time() const;

  /// Transfers whose hold interval contains time t.
  [[nodiscard]] std::vector<int> caches_active_at(int t) const;

  /// Weighted objective alpha*tE + beta*total_cache_time (objective (6)).
  [[nodiscard]] double objective(double alpha, double beta) const;

  /// Verifies every structural invariant against the graph: each op
  /// scheduled exactly once with its full duration, precedence respected
  /// per transfer kind, no two activities overlap on any device port, legs
  /// have length uc, holds are non-negative. Throws internal_error on
  /// violation (a schedule produced by this library must always pass).
  void validate(const assay::sequencing_graph& graph) const;
};

} // namespace transtore::sched
