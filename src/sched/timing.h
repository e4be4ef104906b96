// Timing construction: turns a binding (device assignment + per-device
// operation order) into a fully timed schedule with every transport leg and
// cache hold derived.
//
// Device timing model (see DESIGN.md "Key modelling decisions"):
//   * A device is a single serial resource: mixing, loading an operand and
//     unloading a result each occupy it exclusively.
//   * Every transport leg lasts exactly uc seconds (the paper's constant
//     pure transportation time).
//   * A result leaves its mixer eagerly: the store-out leg departs as soon
//     as the producer's port is free -- matching the immediate "store"
//     blocks in the paper's Fig. 2/Fig. 4 timelines. The only exception is
//     a *handoff*: when the next operation on the same device consumes the
//     result, it stays in the mixer.
//   * A transfer is *direct* when the consumer can receive the fluid in the
//     very leg that leaves the producer (one uc leg, both ports busy for
//     the same window); otherwise the fluid is *cached* in channel storage
//     between the store leg and the fetch leg.
//
// With uc=10s and 30s mixes this model reproduces the paper's motivating
// numbers exactly: PCR on one mixer gives tE=290 with 4 stores/capacity 3
// for the Fig. 2(b) order and tE=270 with 3 stores/capacity 2 for the
// Fig. 2(c) order.
#pragma once

#include <optional>
#include <vector>

#include "assay/sequencing_graph.h"
#include "sched/schedule.h"

namespace transtore::sched {

/// Device assignment plus per-device execution order.
struct binding {
  std::vector<int> device_of;                // indexed by operation id
  std::vector<std::vector<int>> device_order; // per device, in execution order
};

struct timing_options {
  int transport_time = 10;        // uc in seconds
  bool count_reagent_loads = false; // include primary-input load legs
  /// 0 = distributed channel storage (the paper's proposal): samples are
  /// cached in channel segments, just-in-time transfers are direct.
  /// 1 = dedicated storage unit baseline (prior work / Fig. 10): every
  /// non-handoff transfer is deposited into the unit and fetched back, and
  /// all store/fetch accesses serialize through this many unit ports.
  int storage_ports = 0;
};

/// Incremental schedule constructor shared by the timing refinement and the
/// list scheduler. Operations are committed one at a time; preview() prices
/// a candidate without mutating the timeline.
///
/// preview() and commit() work in member scratch (the plan, a copy of the
/// port frontiers, the in-leg parent list), so once the first few calls
/// have sized it they allocate nothing; commit() grows only the leg list.
/// That scratch makes preview() a writer: one builder is not safe to share
/// between threads, not even through const.
class timeline_builder {
public:
  timeline_builder(const assay::sequencing_graph& graph, int device_count,
                   timing_options options);

  /// Outcome of placing `op` on `device` next.
  struct placement {
    int start = 0;
    int end = 0;
    long cache_time_added = 0; // sum of new hold durations
    bool uses_handoff = false;
  };

  /// Price committing `op` on `device` without changing state.
  /// Requires all parents of `op` to be committed.
  [[nodiscard]] placement preview(int op, int device) const;

  /// Commit `op` on `device`. Returns the realized placement.
  placement commit(int op, int device);

  [[nodiscard]] bool committed(int op) const;
  [[nodiscard]] int committed_count() const { return committed_count_; }

  /// All parents of `op` committed (so it can be placed).
  [[nodiscard]] bool ready(int op) const;

  // --- Checkpoint seeding (fault recovery) --------------------------------
  // These install a partially executed schedule verbatim so the remainder
  // of the assay can be re-planned after it. Seed operations in ascending
  // (start, id) order so every parent is committed before its children.

  /// Commit `op` on `device` with a fixed, already-executed interval.
  void seed_operation(int op, int device, int start, int end);

  /// Append an already-executed transport leg verbatim; returns its index
  /// in the final leg list (for remapping seed_transfer leg references).
  int seed_leg(const transport_leg& leg);

  /// Install an already-resolved edge transfer. Leg indices must be values
  /// returned by seed_leg. commit() of the consumer then treats the edge
  /// as delivered and only floors its start by the arrival time.
  void seed_transfer(const edge_transfer& tr);

  /// Record that the fluid of edge (parent, child) already left its
  /// producer with the given store-out window but was not delivered yet:
  /// committing the consumer re-creates the identical store leg and
  /// extends the hold up to its new fetch time.
  void seed_pending_out(int parent, int child, time_interval window);

  /// Raise every port frontier to at least `t` (no new activity may be
  /// planned before the fault time).
  void floor_ports(int t);

  /// Forget every commit and seed, back to the freshly constructed state.
  /// Keeps the edge index and every buffer's capacity, so one builder can
  /// time many bindings of the same graph without allocating.
  void reset();

  /// Assemble the final schedule; requires every operation committed.
  [[nodiscard]] schedule build() const;

  /// build() into `out`, reusing its buffers.
  void build_into(schedule& out) const;

private:
  struct pending_out {
    bool emitted = false;
    time_interval window{};
  };

  struct plan {
    placement result;
    std::vector<transport_leg> new_legs;
    std::vector<edge_transfer> new_transfers;
    // (edge index, window) of store-out reservations emitted by this commit.
    std::vector<std::pair<int, time_interval>> emitted_outs;
    std::vector<std::pair<int, int>> port_updates; // (device, new frontier)
  };

  /// Plan committing `op` on `device` into scratch_.
  void compute(int op, int device) const;
  void apply(const plan& p, int op, int device);

  const assay::sequencing_graph& graph_;
  timing_options options_;
  int device_count_ = 0;

  std::vector<int> edge_index_of_;        // flattened (parent,child) lookup
  std::vector<std::pair<int, int>> edges_;

  std::vector<bool> committed_ops_;
  std::vector<int> device_of_;
  std::vector<int> start_;
  std::vector<int> end_;
  std::vector<int> last_op_;   // per device
  std::vector<int> port_free_; // per device: port frontier time
  std::vector<pending_out> outs_; // per edge
  std::vector<transport_leg> legs_;
  std::vector<std::optional<edge_transfer>> transfers_; // per edge
  int committed_count_ = 0;

  // compute() scratch: its output and its working copies.
  mutable plan scratch_;
  mutable std::vector<int> port_;    // port frontiers as the plan moves them
  mutable std::vector<int> parents_; // parents still needing an in-leg

  [[nodiscard]] int edge_of(int parent, int child) const;
};

/// Re-times bindings of one graph, one after another, as the annealers do
/// on every move: one timeline_builder (with its n^2 edge index) and all
/// scratch are reused, and only the two terms of objective (6) are kept,
/// so timing a binding allocates nothing once the buffers are sized. A
/// schedule is built only on request.
class binding_timer {
public:
  binding_timer(const assay::sequencing_graph& graph, int device_count,
                const timing_options& options);

  /// Realize `b`. Throws invalid_input_error when it is malformed (the
  /// same checks and messages as refine_timing); returns false when its
  /// device orders deadlock across devices.
  [[nodiscard]] bool time(const binding& b);

  /// Objective (6) of the binding the last successful time() realized.
  [[nodiscard]] double objective(double alpha, double beta) const {
    return objective_value(alpha, beta, makespan_, cache_time_);
  }

  /// The schedule of `b`; only right after time(b) returned true.
  [[nodiscard]] schedule build() const { return builder_.build(); }
  void build_into(schedule& out) const { builder_.build_into(out); }

private:
  const assay::sequencing_graph& graph_;
  int device_count_;
  timeline_builder builder_;
  std::vector<char> seen_;        // per op
  std::vector<std::size_t> next_; // per device: next queue position
  int makespan_ = 0;
  long cache_time_ = 0;
};

/// Realize a binding as a timed schedule. Throws invalid_input_error when
/// the binding is malformed or its device orders deadlock across devices.
[[nodiscard]] schedule refine_timing(const assay::sequencing_graph& graph,
                                     const binding& b, int device_count,
                                     const timing_options& options = {});

/// Extract the binding (assignment + order by start time) from a schedule.
/// Throws invalid_input_error when an operation's device is outside
/// [0, device_count).
[[nodiscard]] binding extract_binding(const schedule& s, int device_count);

} // namespace transtore::sched
