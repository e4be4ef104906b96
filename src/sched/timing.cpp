#include "sched/timing.h"

#include <algorithm>
#include <limits>

namespace transtore::sched {

timeline_builder::timeline_builder(const assay::sequencing_graph& graph,
                                   int device_count, timing_options options)
    : graph_(graph), options_(options), device_count_(device_count) {
  require(device_count > 0, "timeline_builder: need at least one device");
  require(options.transport_time > 0,
          "timeline_builder: transport time must be positive");
  const int n = graph.operation_count();
  edges_ = graph.edges();
  edge_index_of_.assign(static_cast<std::size_t>(n) * n, -1);
  for (std::size_t e = 0; e < edges_.size(); ++e)
    edge_index_of_[static_cast<std::size_t>(edges_[e].first) * n +
                   edges_[e].second] = static_cast<int>(e);

  require(options.storage_ports >= 0,
          "timeline_builder: storage_ports must be non-negative");
  committed_ops_.assign(n, false);
  device_of_.assign(n, -1);
  start_.assign(n, 0);
  end_.assign(n, 0);
  last_op_.assign(device_count, -1);
  // One extra pseudo-port slot models the dedicated storage unit's port.
  port_free_.assign(device_count + (options.storage_ports > 0 ? 1 : 0), 0);
  outs_.assign(edges_.size(), pending_out{});
  transfers_.assign(edges_.size(), std::nullopt);
}

int timeline_builder::edge_of(int parent, int child) const {
  const int n = graph_.operation_count();
  const int e = edge_index_of_[static_cast<std::size_t>(parent) * n + child];
  check(e >= 0, "timeline_builder: unknown edge");
  return e;
}

bool timeline_builder::committed(int op) const {
  require(op >= 0 && op < graph_.operation_count(),
          "timeline_builder: unknown op");
  return committed_ops_[static_cast<std::size_t>(op)];
}

bool timeline_builder::ready(int op) const {
  if (committed(op)) return false;
  for (int parent : graph_.at(op).parents)
    if (!committed_ops_[static_cast<std::size_t>(parent)]) return false;
  return true;
}

void timeline_builder::compute(int op, int device) const {
  require(device >= 0 && device < device_count_,
          "timeline_builder: device out of range");
  require(!committed(op), "timeline_builder: op already committed");
  for (int parent : graph_.at(op).parents)
    require(committed_ops_[static_cast<std::size_t>(parent)],
            "timeline_builder: parents must be committed first");

  const int uc = options_.transport_time;
  const bool dedicated = options_.storage_ports > 0;
  const std::size_t storage_port = static_cast<std::size_t>(device_count_);
  plan& p = scratch_;
  p.result = placement{};
  p.new_legs.clear();
  p.new_transfers.clear();
  p.emitted_outs.clear();
  p.port_updates.clear();

  // Working copies of the port frontiers we may move.
  std::vector<int>& port = port_;
  port = port_free_;

  // Places a store-out leg: it occupies the producing device's port, and --
  // with a dedicated storage unit -- also the unit's single access port.
  auto place_out = [&](std::size_t producer_port) {
    int begin = port[producer_port];
    if (dedicated) begin = std::max(begin, port[storage_port]);
    const time_interval w{begin, begin + uc};
    port[producer_port] = w.end;
    if (dedicated) port[storage_port] = w.end;
    return w;
  };

  // 1. Finalize pending store-outs of the previous op on this device.
  //    A result may stay in the mixer only for a handoff to `op` itself.
  const int prev = last_op_[static_cast<std::size_t>(device)];
  int handoff_parent = -1;
  if (prev >= 0) {
    for (int child : graph_.children(prev)) {
      const int e = edge_of(prev, child);
      if (outs_[static_cast<std::size_t>(e)].emitted) continue;
      if (child == op && handoff_parent < 0) {
        handoff_parent = prev; // result stays in the mixer
        continue;
      }
      p.emitted_outs.emplace_back(
          e, place_out(static_cast<std::size_t>(device)));
    }
  }

  // Window of an edge's store-out reservation, whether pre-existing,
  // emitted within this plan, or still to be created eagerly now.
  auto out_window = [&](int e, int producer) -> time_interval {
    if (outs_[static_cast<std::size_t>(e)].emitted)
      return outs_[static_cast<std::size_t>(e)].window;
    for (const auto& [edge, w] : p.emitted_outs)
      if (edge == e) return w;
    // Producer is still the last op on its (idle-ported) device: the out
    // leg departs as soon as that port is free.
    const int pd = device_of_[static_cast<std::size_t>(producer)];
    port[static_cast<std::size_t>(pd)] =
        std::max(port[static_cast<std::size_t>(pd)],
                 end_[static_cast<std::size_t>(producer)]);
    const time_interval w = place_out(static_cast<std::size_t>(pd));
    p.emitted_outs.emplace_back(e, w);
    return w;
  };

  // 2. Place the in-legs for transported operands, earliest-available first.
  //    Edges whose transfer is already resolved (checkpoint seeding) need
  //    no new leg; they only floor the start by their arrival time.
  std::vector<int>& parents = parents_;
  parents = graph_.at(op).parents;
  if (handoff_parent >= 0)
    parents.erase(std::find(parents.begin(), parents.end(), handoff_parent));
  int arrival_floor = 0;
  for (auto it = parents.begin(); it != parents.end();) {
    const auto& tr = transfers_[static_cast<std::size_t>(edge_of(*it, op))];
    if (!tr.has_value()) {
      ++it;
      continue;
    }
    int arrival = end_[static_cast<std::size_t>(*it)];
    if (tr->kind == transfer_kind::cached)
      arrival = legs_[static_cast<std::size_t>(tr->fetch_leg)].window.end;
    else if (tr->kind == transfer_kind::direct)
      arrival = legs_[static_cast<std::size_t>(tr->direct_leg)].window.end;
    arrival_floor = std::max(arrival_floor, arrival);
    it = parents.erase(it);
  }
  std::sort(parents.begin(), parents.end(), [&](int a, int b) {
    const auto wa = outs_[static_cast<std::size_t>(edge_of(a, op))];
    const auto wb = outs_[static_cast<std::size_t>(edge_of(b, op))];
    const int ta = wa.emitted ? wa.window.begin
                              : end_[static_cast<std::size_t>(a)];
    const int tb = wb.emitted ? wb.window.begin
                              : end_[static_cast<std::size_t>(b)];
    if (ta != tb) return ta < tb;
    return a < b;
  });

  int t = std::max(port[static_cast<std::size_t>(device)], arrival_floor);
  for (int parent : parents) {
    const int e = edge_of(parent, op);
    const time_interval w = out_window(e, parent);
    const int pd = device_of_[static_cast<std::size_t>(parent)];

    edge_transfer tr;
    tr.source_op = parent;
    tr.target_op = op;
    if (!dedicated && t <= w.begin) {
      // Direct transfer: the out leg itself delivers the fluid.
      tr.kind = transfer_kind::direct;
      transport_leg leg;
      leg.kind = leg_kind::direct;
      leg.source_op = parent;
      leg.target_op = op;
      leg.from_device = pd;
      leg.to_device = device;
      leg.window = w;
      tr.direct_leg = static_cast<int>(legs_.size() + p.new_legs.size());
      p.new_legs.push_back(leg);
      // Remove the reservation: it became the direct leg.
      for (auto it = p.emitted_outs.begin(); it != p.emitted_outs.end(); ++it)
        if (it->first == e) {
          p.emitted_outs.erase(it);
          break;
        }
      t = w.end;
    } else {
      // Cached transfer: store leg (the reservation), hold, fetch leg. The
      // fetch also needs the unit's access port in the dedicated baseline.
      int fetch_begin = std::max(t, w.end);
      if (dedicated) {
        fetch_begin = std::max(fetch_begin, port[storage_port]);
        port[storage_port] = fetch_begin + uc;
      }
      tr.kind = transfer_kind::cached;
      transport_leg store;
      store.kind = leg_kind::store;
      store.source_op = parent;
      store.target_op = op;
      store.from_device = pd;
      store.to_device = -1;
      store.window = w;
      transport_leg fetch;
      fetch.kind = leg_kind::fetch;
      fetch.source_op = parent;
      fetch.target_op = op;
      fetch.from_device = -1;
      fetch.to_device = device;
      fetch.window = {fetch_begin, fetch_begin + uc};
      tr.store_leg = static_cast<int>(legs_.size() + p.new_legs.size());
      p.new_legs.push_back(store);
      tr.fetch_leg = static_cast<int>(legs_.size() + p.new_legs.size());
      p.new_legs.push_back(fetch);
      tr.cache_hold = {w.end, fetch_begin};
      p.result.cache_time_added += tr.cache_hold.length();
      // The reservation is realized as the store leg.
      for (auto it = p.emitted_outs.begin(); it != p.emitted_outs.end(); ++it)
        if (it->first == e) {
          p.emitted_outs.erase(it);
          break;
        }
      t = fetch_begin + uc;
    }
    p.new_transfers.push_back(tr);
  }

  // 3. Reagent loads (optional in the timing model; see DESIGN.md).
  if (options_.count_reagent_loads) {
    for (int k = 0; k < graph_.reagent_inputs(op); ++k) {
      transport_leg leg;
      leg.kind = leg_kind::reagent;
      leg.source_op = -1;
      leg.target_op = op;
      leg.from_device = -1;
      leg.to_device = device;
      leg.window = {t, t + uc};
      p.new_legs.push_back(leg);
      t += uc;
    }
  }

  // 4. Handoff transfer record (no legs).
  if (handoff_parent >= 0) {
    edge_transfer tr;
    tr.source_op = handoff_parent;
    tr.target_op = op;
    tr.kind = transfer_kind::handoff;
    p.new_transfers.push_back(tr);
    p.result.uses_handoff = true;
    t = std::max(t, end_[static_cast<std::size_t>(handoff_parent)]);
  }

  p.result.start = t;
  p.result.end = t + graph_.at(op).duration;
  port[static_cast<std::size_t>(device)] = p.result.end;

  for (std::size_t slot = 0; slot < port.size(); ++slot)
    if (port[slot] != port_free_[slot])
      p.port_updates.emplace_back(static_cast<int>(slot), port[slot]);
}

timeline_builder::placement timeline_builder::preview(int op,
                                                      int device) const {
  compute(op, device);
  return scratch_.result;
}

void timeline_builder::apply(const plan& p, int op, int device) {
  for (const auto& [e, w] : p.emitted_outs) {
    outs_[static_cast<std::size_t>(e)].emitted = true;
    outs_[static_cast<std::size_t>(e)].window = w;
  }
  for (const auto& leg : p.new_legs) legs_.push_back(leg);
  for (const auto& tr : p.new_transfers) {
    const int e = edge_of(tr.source_op, tr.target_op);
    check(!transfers_[static_cast<std::size_t>(e)].has_value(),
          "timeline_builder: transfer resolved twice");
    transfers_[static_cast<std::size_t>(e)] = tr;
    // Mark the edge's out as consumed so it is not re-finalized.
    outs_[static_cast<std::size_t>(e)].emitted = true;
    if (tr.kind == transfer_kind::cached)
      outs_[static_cast<std::size_t>(e)].window =
          legs_[static_cast<std::size_t>(tr.store_leg)].window;
    if (tr.kind == transfer_kind::direct)
      outs_[static_cast<std::size_t>(e)].window =
          legs_[static_cast<std::size_t>(tr.direct_leg)].window;
  }
  for (const auto& [d, frontier] : p.port_updates)
    port_free_[static_cast<std::size_t>(d)] = frontier;

  committed_ops_[static_cast<std::size_t>(op)] = true;
  device_of_[static_cast<std::size_t>(op)] = device;
  start_[static_cast<std::size_t>(op)] = p.result.start;
  end_[static_cast<std::size_t>(op)] = p.result.end;
  last_op_[static_cast<std::size_t>(device)] = op;
  ++committed_count_;
}

timeline_builder::placement timeline_builder::commit(int op, int device) {
  compute(op, device);
  apply(scratch_, op, device);
  return scratch_.result;
}

void timeline_builder::seed_operation(int op, int device, int start, int end) {
  require(device >= 0 && device < device_count_,
          "timeline_builder: seed device out of range");
  require(ready(op), "timeline_builder: seeded op not ready");
  require(start <= end, "timeline_builder: seeded interval is reversed");
  committed_ops_[static_cast<std::size_t>(op)] = true;
  device_of_[static_cast<std::size_t>(op)] = device;
  start_[static_cast<std::size_t>(op)] = start;
  end_[static_cast<std::size_t>(op)] = end;
  last_op_[static_cast<std::size_t>(device)] = op;
  port_free_[static_cast<std::size_t>(device)] =
      std::max(port_free_[static_cast<std::size_t>(device)], end);
  ++committed_count_;
}

int timeline_builder::seed_leg(const transport_leg& leg) {
  require(leg.window.length() == options_.transport_time,
          "timeline_builder: seeded leg has wrong length");
  auto floor_port = [&](int device) {
    if (device < 0) return;
    require(device < device_count_,
            "timeline_builder: seeded leg device out of range");
    port_free_[static_cast<std::size_t>(device)] = std::max(
        port_free_[static_cast<std::size_t>(device)], leg.window.end);
  };
  floor_port(leg.from_device);
  floor_port(leg.to_device);
  // In the dedicated-storage baseline, store and fetch legs also hold the
  // unit's access port.
  if (options_.storage_ports > 0 &&
      (leg.kind == leg_kind::store || leg.kind == leg_kind::fetch)) {
    const std::size_t storage_port = static_cast<std::size_t>(device_count_);
    port_free_[storage_port] =
        std::max(port_free_[storage_port], leg.window.end);
  }
  legs_.push_back(leg);
  return static_cast<int>(legs_.size()) - 1;
}

void timeline_builder::seed_transfer(const edge_transfer& tr) {
  const int e = edge_of(tr.source_op, tr.target_op);
  check(!transfers_[static_cast<std::size_t>(e)].has_value(),
        "timeline_builder: seeded transfer resolved twice");
  const int leg_count = static_cast<int>(legs_.size());
  auto require_leg = [&](int leg) {
    require(leg >= 0 && leg < leg_count,
            "timeline_builder: seeded transfer references unknown leg");
  };
  outs_[static_cast<std::size_t>(e)].emitted = true;
  if (tr.kind == transfer_kind::cached) {
    require_leg(tr.store_leg);
    require_leg(tr.fetch_leg);
    outs_[static_cast<std::size_t>(e)].window =
        legs_[static_cast<std::size_t>(tr.store_leg)].window;
  } else if (tr.kind == transfer_kind::direct) {
    require_leg(tr.direct_leg);
    outs_[static_cast<std::size_t>(e)].window =
        legs_[static_cast<std::size_t>(tr.direct_leg)].window;
  }
  transfers_[static_cast<std::size_t>(e)] = tr;
}

void timeline_builder::seed_pending_out(int parent, int child,
                                        time_interval window) {
  const int e = edge_of(parent, child);
  require(committed(parent),
          "timeline_builder: pending out before its producer");
  require(window.length() == options_.transport_time,
          "timeline_builder: pending out window has wrong length");
  outs_[static_cast<std::size_t>(e)].emitted = true;
  outs_[static_cast<std::size_t>(e)].window = window;
  const int pd = device_of_[static_cast<std::size_t>(parent)];
  port_free_[static_cast<std::size_t>(pd)] =
      std::max(port_free_[static_cast<std::size_t>(pd)], window.end);
}

void timeline_builder::floor_ports(int t) {
  for (int& frontier : port_free_) frontier = std::max(frontier, t);
}

void timeline_builder::reset() {
  std::fill(committed_ops_.begin(), committed_ops_.end(), false);
  std::fill(device_of_.begin(), device_of_.end(), -1);
  std::fill(start_.begin(), start_.end(), 0);
  std::fill(end_.begin(), end_.end(), 0);
  std::fill(last_op_.begin(), last_op_.end(), -1);
  std::fill(port_free_.begin(), port_free_.end(), 0);
  std::fill(outs_.begin(), outs_.end(), pending_out{});
  legs_.clear();
  std::fill(transfers_.begin(), transfers_.end(), std::nullopt);
  committed_count_ = 0;
}

schedule timeline_builder::build() const {
  schedule s;
  build_into(s);
  return s;
}

void timeline_builder::build_into(schedule& s) const {
  check(committed_count_ == graph_.operation_count(),
        "timeline_builder: build() before all ops committed");
  s.device_count = device_count_;
  s.transport_time = options_.transport_time;
  s.ops.resize(static_cast<std::size_t>(graph_.operation_count()));
  for (int i = 0; i < graph_.operation_count(); ++i) {
    scheduled_op so;
    so.op = i;
    so.device = device_of_[static_cast<std::size_t>(i)];
    so.start = start_[static_cast<std::size_t>(i)];
    so.end = end_[static_cast<std::size_t>(i)];
    s.ops[static_cast<std::size_t>(i)] = so;
  }
  s.legs = legs_;
  s.transfers.clear();
  s.transfers.reserve(transfers_.size());
  for (const auto& tr : transfers_) {
    check(tr.has_value(), "timeline_builder: unresolved transfer");
    s.transfers.push_back(*tr);
  }
}

binding_timer::binding_timer(const assay::sequencing_graph& graph,
                             int device_count, const timing_options& options)
    : graph_(graph), device_count_(device_count),
      builder_(graph, device_count, options),
      seen_(static_cast<std::size_t>(graph.operation_count()), 0),
      next_(static_cast<std::size_t>(device_count), 0) {}

namespace {

/// Throws invalid_input_error unless `b` binds every op of `graph` exactly
/// once, consistently, to one of `device_count` queues. `seen` is scratch.
void require_well_formed(const assay::sequencing_graph& graph,
                         const binding& b, int device_count,
                         std::vector<char>& seen) {
  const int n = graph.operation_count();
  require(static_cast<int>(b.device_of.size()) == n,
          "refine_timing: device_of size mismatch");
  require(static_cast<int>(b.device_order.size()) == device_count,
          "refine_timing: device_order size mismatch");
  seen.assign(static_cast<std::size_t>(n), 0);
  for (int d = 0; d < device_count; ++d)
    for (int op : b.device_order[static_cast<std::size_t>(d)]) {
      require(op >= 0 && op < n, "refine_timing: unknown op in order");
      require(!seen[static_cast<std::size_t>(op)],
              "refine_timing: op appears twice in device orders");
      require(b.device_of[static_cast<std::size_t>(op)] == d,
              "refine_timing: order and assignment disagree");
      seen[static_cast<std::size_t>(op)] = 1;
    }
  for (int i = 0; i < n; ++i)
    require(seen[static_cast<std::size_t>(i)],
            "refine_timing: op missing from device orders");
}

} // namespace

bool binding_timer::time(const binding& b) {
  const int n = graph_.operation_count();
  const int device_count = device_count_;
  require_well_formed(graph_, b, device_count, seen_);

  timeline_builder& builder = builder_;
  builder.reset();
  std::vector<std::size_t>& next = next_;
  std::fill(next.begin(), next.end(), 0);
  int makespan = 0;
  long cache_time = 0;

  for (int step = 0; step < n; ++step) {
    // Among device-queue heads whose parents are committed, commit the one
    // with the earliest previewed start (ties by op id).
    int best_op = -1;
    int best_device = -1;
    int best_start = std::numeric_limits<int>::max();
    for (int d = 0; d < device_count; ++d) {
      const auto& queue = b.device_order[static_cast<std::size_t>(d)];
      if (next[static_cast<std::size_t>(d)] >= queue.size()) continue;
      const int op = queue[next[static_cast<std::size_t>(d)]];
      if (!builder.ready(op)) continue;
      const auto placement = builder.preview(op, d);
      if (placement.start < best_start ||
          (placement.start == best_start && op < best_op)) {
        best_start = placement.start;
        best_op = op;
        best_device = d;
      }
    }
    if (best_op < 0) return false; // device orders deadlock
    const timeline_builder::placement done =
        builder.commit(best_op, best_device);
    makespan = std::max(makespan, done.end);
    cache_time += done.cache_time_added;
    ++next[static_cast<std::size_t>(best_device)];
  }
  makespan_ = makespan;
  cache_time_ = cache_time;
  return true;
}

schedule refine_timing(const assay::sequencing_graph& graph, const binding& b,
                       int device_count, const timing_options& options) {
  // Checked before the timer exists, so a malformed binding is reported
  // ahead of a bad device count or timing option.
  std::vector<char> seen;
  require_well_formed(graph, b, device_count, seen);
  binding_timer timer(graph, device_count, options);
  require(timer.time(b),
          "refine_timing: device orders deadlock across devices");
  return timer.build();
}

binding extract_binding(const schedule& s, int device_count) {
  binding b;
  b.device_of.resize(s.ops.size());
  b.device_order.assign(static_cast<std::size_t>(device_count), {});
  std::vector<int> order(s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i)
    order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b2) {
    if (s.ops[static_cast<std::size_t>(a)].start !=
        s.ops[static_cast<std::size_t>(b2)].start)
      return s.ops[static_cast<std::size_t>(a)].start <
             s.ops[static_cast<std::size_t>(b2)].start;
    return a < b2;
  });
  for (int op : order) {
    const int d = s.ops[static_cast<std::size_t>(op)].device;
    require(d >= 0 && d < device_count,
            "extract_binding: operation on a device out of range");
    b.device_of[static_cast<std::size_t>(op)] = d;
    b.device_order[static_cast<std::size_t>(d)].push_back(op);
  }
  return b;
}

} // namespace transtore::sched
