#include "api/recover.h"

#include <algorithm>
#include <utility>

#include "arch/synthesis.h"
#include "common/error.h"
#include "common/json.h"
#include "phys/layout.h"
#include "sched/splice.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace transtore::api {
namespace {

/// Assemble the recovered flow_result: compact the chip, replay the
/// schedule through the independent simulator, and zero every wall-clock
/// field so recovery documents are byte-identical across runs, machines,
/// and worker counts.
flow_result assemble_recovered(const assay::sequencing_graph& graph,
                               const sched::schedule& s,
                               arch::arch_result architecture,
                               const phys::phys_options& physical,
                               const cancel_token& cancel) {
  flow_result flow;
  flow.scheduling.best = s;
  phys::phys_options po = physical;
  po.cancel = cancel;
  flow.layout = phys::generate_layout(architecture.result, po);
  flow.stats = sim::simulate(graph, s, architecture.workload,
                             architecture.result);
  flow.architecture = std::move(architecture);
  flow.scheduling.seconds = 0.0;
  flow.architecture.seconds = 0.0;
  flow.layout.seconds = 0.0;
  flow.total_seconds = 0.0;
  return flow;
}

/// Shared arch configuration of the pinned rungs (1 and 2): original grid,
/// devices pinned to their original nodes, fault bans active.
arch::arch_options pinned_arch_options(const recovery_request& req,
                                       const arch::chip& chip,
                                       const arch::fault_set& faults,
                                       const run_context& ctx) {
  arch::arch_options ao;
  ao.grid_width = chip.grid().width();
  ao.grid_height = chip.grid().height();
  ao.attempts = req.options.arch_attempts;
  ao.placement.seed = req.options.seed;
  ao.router.seed = req.options.seed;
  ao.faults = faults;
  ao.fixed_placement = chip.device_nodes();
  ao.cancel = ctx.token();
  ao.time_budget_seconds = ctx.budget_or_zero();
  return ao;
}

result<recovery_result> finish(const run_context& ctx, recovery_result r) {
  r.recovered_makespan = r.recovered.scheduling.best.makespan();
  ctx.report("recover",
             std::string("done via ") + to_string(r.rung) + ", tE=" +
                 std::to_string(r.recovered_makespan) + " (was " +
                 std::to_string(r.original_makespan) + ")");
  if (r.recovered_makespan > r.original_makespan)
    return result<recovery_result>::partial(
        status::degraded, std::move(r),
        "recover: recovered schedule finishes at " +
            std::to_string(r.recovered_makespan) +
            " vs the original " + std::to_string(r.original_makespan));
  return result<recovery_result>::success(std::move(r));
}

} // namespace

const char* to_string(recovery_rung r) {
  switch (r) {
    case recovery_rung::none: return "none";
    case recovery_rung::reroute: return "reroute";
    case recovery_rung::reschedule: return "reschedule";
    case recovery_rung::resynthesize: return "resynthesize";
  }
  return "none";
}

result<recovery_result> recover(const recovery_request& req,
                                const run_context& ctx) {
  if (ctx.cancelled())
    return result<recovery_result>::failure(
        status::cancelled, "recover: cancelled before start");
  try {
    ctx.report("recover", "start " + req.graph.name());
    req.graph.validate();
    const sched::schedule& s = req.original.scheduling.best;
    s.validate(req.graph);
    const arch::chip& chip = req.original.architecture.result;
    const arch::routing_workload& workload =
        req.original.architecture.workload;
    require(req.fault_time >= 0, "recover: fault time must be >= 0");
    arch::fault_set faults = req.faults;
    faults.normalize();
    faults.validate(chip.grid(), s.device_count);
    require(!faults.empty(), "recover: fault set is empty");

    if (const auto blocked = sim::recovery_blocker(req.graph, s, chip,
                                                   workload, faults,
                                                   req.fault_time))
      return result<recovery_result>::failure(status::infeasible,
                                              "recover: " + *blocked);

    std::vector<bool> failed(static_cast<std::size_t>(s.device_count), false);
    for (int d : faults.devices) failed[static_cast<std::size_t>(d)] = true;

    recovery_result out;
    out.fault_time = req.fault_time;
    out.original_makespan = s.makespan();
    for (const sched::scheduled_op& so : s.ops)
      if (so.start < req.fault_time) out.completed_ops.push_back(so.op);
    std::sort(out.completed_ops.begin(), out.completed_ops.end());

    // ------------------------------------------------------ rung 1: reroute
    // Applicable only when the schedule itself survives the fault: no
    // operation still running or yet to run is bound to a failed device.
    // (In-flight ops on failed devices were already rejected above.)
    const bool schedule_survives = [&] {
      for (const sched::scheduled_op& so : s.ops)
        if (so.end > req.fault_time &&
            failed[static_cast<std::size_t>(so.device)])
          return false;
      return true;
    }();
    if (schedule_survives) {
      ctx.report("recover", "rung 1: reroute around the faults");
      try {
        arch::arch_result ar = arch::synthesize_architecture(
            s, pinned_arch_options(req, chip, faults, ctx));
        out.rung = recovery_rung::reroute;
        out.recovered = assemble_recovered(req.graph, s, std::move(ar),
                                           req.options.physical, ctx.token());
        return finish(ctx, std::move(out));
      } catch (const capacity_error&) {
        if (ctx.cancelled()) throw;
        // The faulted chip has no room to reroute the full workload;
        // climb to rung 2.
      }
    }

    // --------------------------------------------------- rung 2: reschedule
    ctx.report("recover", "rung 2: reschedule the remainder");
    sched::splice_options sp;
    sp.device_count = s.device_count;
    sp.timing = req.options.timing;
    sp.failed_devices = failed;
    sp.alpha = req.options.alpha;
    sp.beta = req.options.beta;
    sp.storage_aware = req.options.storage_aware;
    sp.restarts = std::max(1, req.options.heuristic_restarts);
    sp.seed = req.options.seed;
    sp.time_budget_seconds = ctx.budget_or_zero();
    sp.cancel = ctx.token();
    const sched::splice_result spliced =
        sched::splice_schedule(req.graph, s, req.fault_time, sp);
    out.completed_ops = spliced.prefix_ops;
    out.rescheduled_ops = spliced.remainder_ops;
    try {
      arch::arch_result ar = arch::synthesize_architecture(
          spliced.spliced, pinned_arch_options(req, chip, faults, ctx));
      out.rung = recovery_rung::reschedule;
      out.recovered =
          assemble_recovered(req.graph, spliced.spliced, std::move(ar),
                             req.options.physical, ctx.token());
      return finish(ctx, std::move(out));
    } catch (const capacity_error&) {
      if (ctx.cancelled()) throw;
      // Even the spliced schedule cannot be routed on the faulted chip;
      // climb to rung 3.
    }

    // ------------------------------------------------- rung 3: resynthesize
    // A replacement chip: grid-specific faults are gone with the broken
    // grid, the device exclusions already live in the spliced schedule.
    ctx.report("recover", "rung 3: resynthesize on a replacement grid");
    arch::arch_options ao;
    ao.grid_width = chip.grid().width();
    ao.grid_height = chip.grid().height();
    ao.attempts = req.options.arch_attempts;
    ao.placement.seed = req.options.seed;
    ao.router.seed = req.options.seed;
    ao.cancel = ctx.token();
    ao.time_budget_seconds = ctx.budget_or_zero();
    const int growth = std::max(req.options.grid_growth, 1);
    for (int extra = 0;; ++extra) {
      try {
        arch::arch_result ar =
            arch::synthesize_architecture(spliced.spliced, ao);
        out.rung = recovery_rung::resynthesize;
        out.recovered =
            assemble_recovered(req.graph, spliced.spliced, std::move(ar),
                               req.options.physical, ctx.token());
        return finish(ctx, std::move(out));
      } catch (const capacity_error&) {
        if (extra >= growth || ctx.cancelled()) throw;
        ++ao.grid_width;
        ++ao.grid_height;
      }
    }
  } catch (...) {
    return failure_from_current_exception<recovery_result>(ctx);
  }
}

result<recovery_result> recover(const checkpoint_document& doc,
                                const run_context& ctx) {
  recovery_request req;
  req.graph = doc.graph;
  req.options = doc.options;
  req.original = doc.flow;
  req.faults = doc.state.faults;
  req.fault_time = doc.state.fault_time;
  return recover(req, ctx);
}

std::string to_json(const assay::sequencing_graph& graph,
                    const pipeline_options& options,
                    const recovery_result& r) {
  json_writer w;
  w.begin_object();
  w.field("assay", graph.name());
  w.field("rung", to_string(r.rung));
  w.field("fault_time", r.fault_time);
  w.field("original_makespan", r.original_makespan);
  w.field("recovered_makespan", r.recovered_makespan);
  w.field("completed", static_cast<long>(r.completed_ops.size()));
  w.field("rescheduled", static_cast<long>(r.rescheduled_ops.size()));
  auto ints = [&w](const std::string& key, const std::vector<int>& values) {
    w.begin_array(key);
    for (int v : values) w.value(v);
    w.end_array();
  };
  ints("completed_ops", r.completed_ops);
  ints("rescheduled_ops", r.rescheduled_ops);
  w.key("result");
  w.value_raw(serialize_flow(graph, options, r.recovered));
  w.end_object();
  return w.str();
}

} // namespace transtore::api
