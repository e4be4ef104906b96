#include "sched/splice.h"

#include <algorithm>

#include "sched/list_scheduler.h"

namespace transtore::sched {

crossing_state classify_crossing(const schedule& s, const edge_transfer& tr,
                                 int fault_time) {
  if (s.ops[static_cast<std::size_t>(tr.target_op)].start < fault_time)
    return crossing_state::internal;
  switch (tr.kind) {
    case transfer_kind::handoff:
      return crossing_state::pending;
    case transfer_kind::direct:
      return s.legs[static_cast<std::size_t>(tr.direct_leg)].window.begin <
                     fault_time
                 ? crossing_state::delivered
                 : crossing_state::pending;
    case transfer_kind::cached:
      if (s.legs[static_cast<std::size_t>(tr.fetch_leg)].window.begin <
          fault_time)
        return crossing_state::delivered;
      if (s.legs[static_cast<std::size_t>(tr.store_leg)].window.begin <
          fault_time)
        return crossing_state::stored;
      return crossing_state::pending;
  }
  return crossing_state::pending;
}

std::optional<std::string> blocking_resource(
    const assay::sequencing_graph& graph, const schedule& original,
    int fault_time, const std::vector<bool>& failed_devices) {
  (void)graph;
  if (failed_devices.empty()) return std::nullopt;
  auto dev_failed = [&](int d) {
    return d >= 0 && d < static_cast<int>(failed_devices.size()) &&
           failed_devices[static_cast<std::size_t>(d)];
  };

  int healthy = 0;
  for (int d = 0; d < original.device_count; ++d)
    if (!dev_failed(d)) ++healthy;
  bool has_remainder = false;
  for (const scheduled_op& so : original.ops) {
    if (so.start >= fault_time) has_remainder = true;
    if (so.start < fault_time && so.end > fault_time && dev_failed(so.device))
      return "operation " + std::to_string(so.op) +
             " is in flight on failed device " + std::to_string(so.device);
  }
  if (has_remainder && healthy == 0) return std::string("every device failed");

  for (const edge_transfer& tr : original.transfers) {
    const scheduled_op& producer =
        original.ops[static_cast<std::size_t>(tr.source_op)];
    const scheduled_op& consumer =
        original.ops[static_cast<std::size_t>(tr.target_op)];
    const crossing_state cls = classify_crossing(original, tr, fault_time);
    if (cls == crossing_state::pending && producer.start < fault_time &&
        dev_failed(producer.device))
      return "result of operation " + std::to_string(tr.source_op) +
             " is trapped in failed device " + std::to_string(producer.device);
    if (cls == crossing_state::delivered && dev_failed(consumer.device))
      return "input of operation " + std::to_string(tr.target_op) +
             " was already delivered to failed device " +
             std::to_string(consumer.device);
  }
  return std::nullopt;
}

splice_result splice_schedule(const assay::sequencing_graph& graph,
                              const schedule& original, int fault_time,
                              const splice_options& options) {
  graph.validate();
  const int n = graph.operation_count();
  require(static_cast<int>(original.ops.size()) == n,
          "splice_schedule: schedule/graph op count mismatch");
  require(options.device_count == original.device_count,
          "splice_schedule: device count mismatch");
  require(options.timing.transport_time == original.transport_time,
          "splice_schedule: transport time mismatch");
  require(options.restarts >= 1, "splice_schedule: need at least one restart");
  require(fault_time >= 0, "splice_schedule: fault time must be >= 0");
  require(options.failed_devices.empty() ||
              static_cast<int>(options.failed_devices.size()) ==
                  options.device_count,
          "splice_schedule: failed_devices size mismatch");

  if (const auto blocked = blocking_resource(graph, original, fault_time,
                                             options.failed_devices))
    throw infeasible_error("splice_schedule: " + *blocked);

  splice_result out;
  for (int op = 0; op < n; ++op) {
    if (original.ops[static_cast<std::size_t>(op)].start < fault_time)
      out.prefix_ops.push_back(op);
    else
      out.remainder_ops.push_back(op);
  }
  if (out.remainder_ops.empty()) {
    out.spliced = original;
    return out;
  }

  auto dev_failed = [&](int d) {
    return !options.failed_devices.empty() &&
           options.failed_devices[static_cast<std::size_t>(d)];
  };

  // Classify every edge and derive which original legs survive verbatim
  // and which consumers are pinned (their operand already arrived at the
  // original device).
  std::vector<crossing_state> cls(original.transfers.size());
  std::vector<bool> keep_leg(original.legs.size(), false);
  std::vector<int> pinned(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < original.transfers.size(); ++i) {
    const edge_transfer& tr = original.transfers[i];
    cls[i] = classify_crossing(original, tr, fault_time);
    if (cls[i] != crossing_state::internal && cls[i] != crossing_state::delivered)
      continue;
    if (tr.kind == transfer_kind::cached) {
      keep_leg[static_cast<std::size_t>(tr.store_leg)] = true;
      keep_leg[static_cast<std::size_t>(tr.fetch_leg)] = true;
    } else if (tr.kind == transfer_kind::direct) {
      keep_leg[static_cast<std::size_t>(tr.direct_leg)] = true;
    }
    if (cls[i] == crossing_state::delivered)
      pinned[static_cast<std::size_t>(tr.target_op)] =
          original.ops[static_cast<std::size_t>(tr.target_op)].device;
  }
  for (std::size_t i = 0; i < original.legs.size(); ++i)
    if (original.legs[i].kind == leg_kind::reagent &&
        original.legs[i].target_op >= 0 &&
        original.ops[static_cast<std::size_t>(original.legs[i].target_op)]
                .start < fault_time)
      keep_leg[i] = true;

  // Prefix ops in (start, id) order: precedence guarantees every parent
  // starts strictly before its child, so parents seed first.
  std::vector<int> seed_order = out.prefix_ops;
  std::sort(seed_order.begin(), seed_order.end(), [&](int a, int b) {
    const int sa = original.ops[static_cast<std::size_t>(a)].start;
    const int sb = original.ops[static_cast<std::size_t>(b)].start;
    if (sa != sb) return sa < sb;
    return a < b;
  });

  // Installs the executed prefix on a reset builder before every attempt.
  auto seed_prefix = [&](timeline_builder& builder) {
    for (int op : seed_order) {
      const scheduled_op& so = original.ops[static_cast<std::size_t>(op)];
      builder.seed_operation(op, so.device, so.start, so.end);
    }
    std::vector<int> leg_map(original.legs.size(), -1);
    for (std::size_t i = 0; i < original.legs.size(); ++i)
      if (keep_leg[i])
        leg_map[i] = builder.seed_leg(original.legs[i]);
    for (std::size_t i = 0; i < original.transfers.size(); ++i) {
      const edge_transfer& tr = original.transfers[i];
      if (cls[i] == crossing_state::internal || cls[i] == crossing_state::delivered) {
        edge_transfer copy = tr;
        if (copy.store_leg >= 0)
          copy.store_leg = leg_map[static_cast<std::size_t>(copy.store_leg)];
        if (copy.fetch_leg >= 0)
          copy.fetch_leg = leg_map[static_cast<std::size_t>(copy.fetch_leg)];
        if (copy.direct_leg >= 0)
          copy.direct_leg = leg_map[static_cast<std::size_t>(copy.direct_leg)];
        builder.seed_transfer(copy);
      } else if (cls[i] == crossing_state::stored) {
        builder.seed_pending_out(
            tr.source_op, tr.target_op,
            original.legs[static_cast<std::size_t>(tr.store_leg)].window);
      }
    }
    builder.floor_ports(fault_time);
  };

  // The list scheduler's greedy pass and restart ladder re-plan the
  // remainder. No op goes to a failed device, and a pinned consumer goes
  // only to its pinned device.
  greedy_pass pass(graph, options.device_count, options.alpha, options.beta,
                   options.storage_aware);
  pass.veto = [&](int op, int d) {
    const int pin = pinned[static_cast<std::size_t>(op)];
    return dev_failed(d) || (pin >= 0 && d != pin);
  };
  prng rng(options.seed);
  const deadline budget(options.time_budget_seconds, options.cancel);
  timeline_builder builder(graph, options.device_count, options.timing);
  schedule best =
      pass.best_of_restarts(builder, seed_prefix, options.restarts,
                            options.timing.transport_time, rng, budget);
  best.validate(graph);
  out.spliced = std::move(best);
  return out;
}

} // namespace transtore::sched
