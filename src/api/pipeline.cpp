#include "api/pipeline.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "api/result_cache.h"
#include "api/serialize.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace transtore::api {
namespace {

/// Wrap a completed stage value: ok normally, partial when the run context
/// was interrupted while the stage still produced something usable.
template <typename T>
result<T> finish_stage(const run_context& ctx, const char* stage, T value) {
  if (ctx.cancelled())
    return result<T>::partial(status::cancelled, std::move(value),
                              std::string(stage) +
                                  ": cancelled; best-effort result delivered");
  if (ctx.deadline_expired())
    return result<T>::partial(status::time_limit, std::move(value),
                              std::string(stage) +
                                  ": deadline hit; best-effort result "
                                  "delivered");
  return result<T>::success(std::move(value));
}

// ---------------------------------------------------------- JSON sections

void write_schedule_section(json_writer& w, const assay::sequencing_graph& g,
                            const sched::scheduling_result& scheduling) {
  const sched::schedule& s = scheduling.best;
  w.key("schedule").begin_object();
  w.field("makespan", s.makespan());
  w.field("device_count", s.device_count);
  w.field("stores", s.store_count());
  w.field("peak_concurrent_caches", s.peak_concurrent_caches());
  w.field("total_cache_time", s.total_cache_time());
  w.field("used_ilp", scheduling.used_ilp);
  if (scheduling.used_ilp) {
    w.field("ilp_nodes", scheduling.ilp_nodes);
    w.field("ilp_presolve_rows_removed", scheduling.ilp_presolve_rows_removed);
    w.field("ilp_cuts_added", scheduling.ilp_cuts_added);
    w.field("ilp_root_bound", scheduling.ilp_root_bound);
    // Parallel-search footprint: emitted only when the parallel engine
    // actually ran, so sequential documents are unchanged.
    if (scheduling.ilp_threads > 1) w.field("ilp_threads", scheduling.ilp_threads);
    if (!scheduling.ilp_workers.empty()) {
      w.begin_array("ilp_workers");
      for (const auto& ws : scheduling.ilp_workers) {
        w.begin_object();
        w.field("nodes", ws.nodes);
        w.field("simplex_iterations", ws.simplex_iterations);
        w.field("steals", ws.steals);
        w.end_object();
      }
      w.end_array();
    }
  }
  w.begin_array("operations");
  for (const auto& op : s.ops) {
    w.begin_object();
    w.field("name", g.at(op.op).name);
    w.field("device", op.device);
    w.field("start", op.start);
    w.field("end", op.end);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_architecture_section(json_writer& w,
                                const arch::arch_result& architecture) {
  w.key("architecture").begin_object();
  w.field("grid_width", architecture.result.grid().width());
  w.field("grid_height", architecture.result.grid().height());
  w.field("used_edges", architecture.result.used_edge_count());
  w.field("valves", architecture.result.valve_count());
  w.field("edge_ratio", architecture.result.edge_ratio());
  w.field("valve_ratio", architecture.result.valve_ratio());
  w.field("paths", static_cast<long>(architecture.result.paths.size()));
  w.field("caches", static_cast<long>(architecture.result.caches.size()));
  w.end_object();
}

void write_layout_section(json_writer& w, const phys::layout_result& layout) {
  w.key("layout").begin_object();
  w.field("dr_width", layout.after_synthesis.width);
  w.field("dr_height", layout.after_synthesis.height);
  w.field("de_width", layout.after_devices.width);
  w.field("de_height", layout.after_devices.height);
  w.field("dp_width", layout.after_compression.width);
  w.field("dp_height", layout.after_compression.height);
  w.field("compression_iterations", layout.compression_iterations);
  w.field("bend_points", layout.bend_points);
  w.end_object();
}

void check_range(const char* field, long value, long lo, long hi) {
  if (value < lo || value > hi)
    throw invalid_input_error("pipeline_options." + std::string(field) +
                              " = " + std::to_string(value) +
                              " is outside [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
}

/// The architecture knobs one synthesize call runs with (the options, or
/// the call's overrides of them).
void check_arch_ranges(int width, int height, int growth, int attempts) {
  check_range("grid_width", width, 2, max_grid_side);
  check_range("grid_height", height, 2, max_grid_side);
  check_range("grid_growth", growth, 0,
              max_grid_side - std::max(width, height));
  check_range("arch_attempts", attempts, 1, max_arch_attempts);
}

void write_assay_header(json_writer& w, const assay::sequencing_graph& g) {
  w.field("assay", g.name());
  w.field("operations", g.operation_count());
  w.field("edges", g.edge_count());
}

} // namespace

// ------------------------------------------------------------- flow_result

std::string flow_result::report(const assay::sequencing_graph& graph) const {
  std::ostringstream out;
  const sched::schedule& s = scheduling.best;
  out << "assay " << graph.name() << ": |O|=" << graph.operation_count()
      << ", devices=" << s.device_count << "\n";
  out << "  schedule: tE=" << s.makespan() << "s, stores=" << s.store_count()
      << ", peak storage=" << s.peak_concurrent_caches()
      << ", cache time=" << s.total_cache_time() << "s\n";
  out << "  architecture: edges=" << architecture.result.used_edge_count()
      << ", valves=" << architecture.result.valve_count()
      << ", edge ratio=" << format_double(architecture.result.edge_ratio(), 2)
      << ", valve ratio="
      << format_double(architecture.result.valve_ratio(), 2) << "\n";
  out << "  layout: dr=" << format_dims(layout.after_synthesis.width,
                                        layout.after_synthesis.height)
      << ", de=" << format_dims(layout.after_devices.width,
                                layout.after_devices.height)
      << ", dp=" << format_dims(layout.after_compression.width,
                                layout.after_compression.height)
      << " (" << layout.compression_iterations << " compression iterations, "
      << layout.bend_points << " bends)\n";
  if (stats)
    out << "  verified: " << stats->transport_legs << " legs, "
        << stats->cached_samples << " cached samples, device utilization "
        << format_double(100.0 * stats->device_utilization, 1) << "%\n";
  if (baseline)
    out << "  dedicated-storage baseline: tE=" << baseline->makespan
        << "s, cells=" << baseline->storage_cells
        << ", valves=" << baseline->total_valves << "\n";
  return out.str();
}

std::string to_json(const assay::sequencing_graph& graph,
                    const flow_result& result, bool include_timing) {
  json_writer w;
  w.begin_object();
  write_assay_header(w, graph);
  write_schedule_section(w, graph, result.scheduling);
  write_architecture_section(w, result.architecture);
  write_layout_section(w, result.layout);
  if (result.stats) {
    w.key("verification").begin_object();
    w.field("transport_legs", result.stats->transport_legs);
    w.field("cached_samples", result.stats->cached_samples);
    w.field("max_active_segments", result.stats->max_active_segments);
    w.field("mean_active_segments", result.stats->mean_active_segments);
    w.field("device_utilization", result.stats->device_utilization);
    w.end_object();
  }
  if (result.baseline) {
    w.key("dedicated_storage_baseline").begin_object();
    w.field("makespan", result.baseline->makespan);
    w.field("storage_cells", result.baseline->storage_cells);
    w.field("unit_valves", result.baseline->unit_valves);
    w.field("total_valves", result.baseline->total_valves);
    w.end_object();
  }
  if (include_timing) w.field("total_seconds", result.total_seconds);
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------- pipeline

pipeline::pipeline(assay::sequencing_graph graph, pipeline_options options)
    : state_(std::make_shared<detail::job_state>(
          detail::job_state{std::move(graph), options})) {}

result<scheduled> pipeline::schedule(const run_context& ctx) const {
  if (ctx.cancelled())
    return result<scheduled>::failure(status::cancelled,
                                      "schedule: cancelled before start");
  try {
    ctx.report("schedule", "start " + state_->graph.name());
    state_->graph.validate();
    const pipeline_options& o = state_->options;
    check_range("device_count", o.device_count, 1, max_device_count);
    check_range("heuristic_restarts", o.heuristic_restarts, 1,
                max_heuristic_restarts);
    check_range("local_search_iterations", o.local_search_iterations, 0,
                max_local_search_iterations);
    check_arch_ranges(o.grid_width, o.grid_height, o.grid_growth,
                      o.arch_attempts);

    // Failed devices shrink the schedulable pool: the schedule is built
    // directly on the surviving count (device ids stay compact; fault ids
    // above the configured count are grid-specific noise and ignored here).
    arch::fault_set faults = o.faults;
    faults.normalize();
    int failed_devices = 0;
    for (int d : faults.devices)
      if (d < o.device_count) ++failed_devices;
    if (failed_devices >= o.device_count)
      throw infeasible_error("schedule: every device is failed");

    sched::scheduler_options so;
    so.device_count = o.device_count - failed_devices;
    so.timing = o.timing;
    so.alpha = o.alpha;
    so.beta = o.beta;
    so.storage_aware = o.storage_aware;
    so.engine = o.schedule_engine;
    so.ilp_time_limit_seconds = o.sched_ilp_time_limit;
    so.heuristic_restarts = o.heuristic_restarts;
    so.local_search_iterations = o.local_search_iterations;
    so.seed = o.seed;
    so.cancel = ctx.token();
    so.time_budget_seconds = ctx.budget_or_zero();
    // Thread budget is an execution-time property (executor oversubscription
    // guard), applied here so it never feeds into the cache key.
    so.solver_threads = ctx.clamp_threads(o.solver_threads);
    so.solver_deterministic = o.solver_deterministic;

    scheduled stage;
    stage.state_ = state_;
    stage.scheduling_ = std::make_shared<const sched::scheduling_result>(
        sched::make_schedule(state_->graph, so));
    ctx.report("schedule",
               "done, tE=" + std::to_string(stage.best().makespan()));
    if (stage.scheduling_->ilp_interrupted &&
        stage.scheduling_->ilp_deadline_clamped && !ctx.interrupted())
      // The ILP was truncated by its clamped share of the pipeline budget
      // even though the deadline has not formally passed yet; surface it.
      // (An ILP that merely hit its ordinary per-solver cap is NOT a
      // deadline outcome -- ilp_deadline_clamped tells the two apart.)
      return result<scheduled>::partial(
          status::time_limit, std::move(stage),
          "schedule: ILP truncated by the pipeline deadline; heuristic "
          "result delivered");
    return finish_stage(ctx, "schedule", std::move(stage));
  } catch (...) {
    return failure_from_current_exception<scheduled>(ctx);
  }
}

// --------------------------------------------------------------- scheduled

std::string scheduled::to_json() const {
  json_writer w;
  w.begin_object();
  write_assay_header(w, state_->graph);
  write_schedule_section(w, state_->graph, *scheduling_);
  w.end_object();
  return w.str();
}

result<synthesized> scheduled::synthesize(const run_context& ctx) const {
  return synthesize(synthesize_overrides{}, ctx);
}

result<synthesized> scheduled::synthesize(const synthesize_overrides& over,
                                          const run_context& ctx) const {
  if (ctx.cancelled())
    return result<synthesized>::failure(status::cancelled,
                                        "synthesize: cancelled before start");
  try {
    const pipeline_options& o = state_->options;
    arch::arch_options ao;
    ao.grid_width = over.grid_width.value_or(o.grid_width);
    ao.grid_height = over.grid_height.value_or(o.grid_height);
    ao.engine = over.engine.value_or(o.arch_engine);
    ao.attempts = over.attempts.value_or(o.arch_attempts);
    ao.placement.seed = o.seed;
    ao.router.seed = o.seed;
    ao.ilp.time_limit_seconds = o.arch_ilp_time_limit;
    ao.cancel = ctx.token();
    ao.time_budget_seconds = ctx.budget_or_zero();
    // Device faults were consumed at the scheduling stage (the schedule is
    // built on the surviving pool); only physical-resource faults reach
    // placement and routing.
    ao.faults = o.faults;
    ao.faults.devices.clear();
    const int growth = over.grid_growth.value_or(o.grid_growth);
    check_arch_ranges(ao.grid_width, ao.grid_height, growth, ao.attempts);

    synthesized stage;
    stage.state_ = state_;
    stage.scheduling_ = scheduling_;
    for (int extra = 0;; ++extra) {
      ctx.report("synthesize",
                 "grid " + std::to_string(ao.grid_width) + "x" +
                     std::to_string(ao.grid_height));
      try {
        stage.architecture_ = std::make_shared<const arch::arch_result>(
            arch::synthesize_architecture(scheduling_->best, ao));
        break;
      } catch (const capacity_error&) {
        // Grid growth stays available after a deadline expiry (the retry
        // is cheap heuristics only); explicit cancellation aborts.
        if (extra >= growth || ctx.cancelled()) throw;
        ++ao.grid_width;
        ++ao.grid_height;
      }
    }
    ctx.report("synthesize",
               "done, edges=" +
                   std::to_string(stage.chip().used_edge_count()));
    return finish_stage(ctx, "synthesize", std::move(stage));
  } catch (...) {
    return failure_from_current_exception<synthesized>(ctx);
  }
}

// ------------------------------------------------------------- synthesized

std::string synthesized::to_json() const {
  json_writer w;
  w.begin_object();
  write_assay_header(w, state_->graph);
  write_architecture_section(w, *architecture_);
  w.end_object();
  return w.str();
}

result<compressed> synthesized::compress(const run_context& ctx) const {
  return compress(state_->options.physical, ctx);
}

result<compressed> synthesized::compress(const phys::phys_options& physical,
                                         const run_context& ctx) const {
  if (ctx.cancelled())
    return result<compressed>::failure(status::cancelled,
                                       "compress: cancelled before start");
  try {
    ctx.report("compress", "start");
    phys::phys_options po = physical;
    po.cancel = ctx.token();

    compressed stage;
    stage.state_ = state_;
    stage.scheduling_ = scheduling_;
    stage.architecture_ = architecture_;
    stage.layout_ = std::make_shared<const phys::layout_result>(
        phys::generate_layout(architecture_->result, po));
    ctx.report("compress",
               "done, dp=" +
                   std::to_string(stage.layout_->after_compression.width) +
                   "x" +
                   std::to_string(stage.layout_->after_compression.height));
    return finish_stage(ctx, "compress", std::move(stage));
  } catch (...) {
    return failure_from_current_exception<compressed>(ctx);
  }
}

// -------------------------------------------------------------- compressed

std::string compressed::to_json() const {
  json_writer w;
  w.begin_object();
  write_assay_header(w, state_->graph);
  write_layout_section(w, *layout_);
  w.end_object();
  return w.str();
}

flow_result compressed::result_without_verification() const {
  flow_result r;
  r.scheduling = *scheduling_;
  r.architecture = *architecture_;
  r.layout = *layout_;
  r.total_seconds = r.scheduling.seconds + r.architecture.seconds +
                    r.layout.seconds;
  return r;
}

result<verified> compressed::verify(const run_context& ctx) const {
  if (ctx.cancelled())
    return result<verified>::failure(status::cancelled,
                                     "verify: cancelled before start");
  try {
    ctx.report("verify", "simulating");
    verified stage;
    stage.state_ = state_;
    stage.scheduling_ = scheduling_;
    stage.architecture_ = architecture_;
    stage.layout_ = layout_;
    stage.stats_ = std::make_shared<const sim::sim_stats>(
        sim::simulate(state_->graph, scheduling_->best,
                      architecture_->workload, architecture_->result));
    if (state_->options.run_baseline) {
      ctx.report("verify", "dedicated-storage baseline");
      baseline::baseline_options bo;
      bo.timing = state_->options.timing;
      bo.grid_width = state_->options.grid_width;
      bo.grid_height = state_->options.grid_height;
      bo.placement.seed = state_->options.seed;
      bo.router.seed = state_->options.seed;
      stage.baseline_ = std::make_shared<const baseline::baseline_result>(
          baseline::evaluate_baseline(state_->graph, scheduling_->best, bo));
    }
    ctx.report("verify", "done");
    return finish_stage(ctx, "verify", std::move(stage));
  } catch (...) {
    return failure_from_current_exception<verified>(ctx);
  }
}

// ---------------------------------------------------------------- verified

flow_result verified::result() const {
  flow_result r;
  r.scheduling = *scheduling_;
  r.architecture = *architecture_;
  r.layout = *layout_;
  r.stats = *stats_;
  if (baseline_) r.baseline = *baseline_;
  r.total_seconds = r.scheduling.seconds + r.architecture.seconds +
                    r.layout.seconds +
                    (r.baseline ? r.baseline->seconds : 0.0);
  return r;
}

std::string verified::to_json(bool include_timing) const {
  return api::to_json(state_->graph, result(), include_timing);
}

// ----------------------------------------------------------- pipeline::run

namespace {

/// Move a by-value pipeline outcome into the shared-pointer vocabulary of
/// cached_outcome (one move, never a copy).
result<std::shared_ptr<const flow_result>> share_outcome(
    result<flow_result>&& r) {
  using shared = std::shared_ptr<const flow_result>;
  if (!r.has_value()) return r.propagate<shared>();
  const status code = r.code();
  const std::string message = r.message();
  shared flow = std::make_shared<const flow_result>(std::move(r).take());
  if (code == status::ok) return result<shared>::success(std::move(flow));
  return result<shared>::partial(code, std::move(flow), message);
}

} // namespace

result<flow_result> pipeline::run(const run_context& ctx) const {
  if (!cache_) return run_uncached(ctx);
  cached_outcome c = run_cached(ctx);
  if (!c.outcome.has_value()) return c.outcome.propagate<flow_result>();
  // run()'s by-value contract costs one copy out of the shared entry;
  // callers that want the zero-copy handle use run_cached() directly.
  flow_result copy = *c.outcome.value();
  if (c.outcome.ok()) return result<flow_result>::success(std::move(copy));
  return result<flow_result>::partial(c.outcome.code(), std::move(copy),
                                      c.outcome.message());
}

cached_outcome pipeline::run_cached(const run_context& ctx) const {
  if (!cache_) return {share_outcome(run_uncached(ctx)), false, nullptr};

  using shared = std::shared_ptr<const flow_result>;
  const cache_key key = make_cache_key(state_->graph, state_->options);
  if (const auto negative = cache_->lookup_negative(key)) {
    // A structurally failing request (infeasible / invalid_input) is
    // deterministic for the key: replay the recorded failure instead of
    // re-solving to it.
    ctx.report("cache",
               "negative hit " + state_->graph.name() + " " + key.digest());
    return {result<shared>::failure(negative->code, negative->message),
            true, nullptr};
  }
  result_cache::entry_ptr hit;
  const result_cache::flight probe = cache_->lookup_or_lead(
      key, hit, [&ctx] { return ctx.interrupted(); });
  if (probe == result_cache::flight::hit) {
    // Direct hit, disk hit, or coalesced onto a concurrent leader's solve
    // of the same key -- either way, no solver time was paid, and the
    // shared entry is handed out as-is: no flow_result or document copy.
    ctx.report("cache", "hit " + state_->graph.name() + " " + key.digest());
    return {result<shared>::success(hit->flow), true, hit->document};
  }
  const bool leading = probe == result_cache::flight::leader;
  auto solve_and_store = [&]() -> cached_outcome {
    ctx.report("cache", "miss " + state_->graph.name() + " " + key.digest());
    result<shared> outcome = share_outcome(run_uncached(ctx));
    // Only fully completed runs are cached: a best-effort value produced
    // under a deadline or cancel is not the deterministic answer.
    if (!outcome.ok()) {
      if (leading) cache_->abort_flight(key);
      if (outcome.code() == status::infeasible ||
          outcome.code() == status::invalid_input)
        cache_->store_negative(
            key, result_cache::negative_entry{outcome.code(),
                                              outcome.message()});
      return {std::move(outcome), false, nullptr};
    }
    result_cache::entry entry;
    entry.document = std::make_shared<const std::string>(
        serialize_flow(state_->graph, state_->options, *outcome.value()));
    entry.flow = outcome.value(); // the same shared object the caller gets
    cache_->store(key, entry); // completes the flight, wakes waiters
    return {std::move(outcome), false, std::move(entry.document)};
  };
  try {
    // Everything between flight election and store/abort lives inside this
    // guard (including the progress report -- a throwing user callback must
    // not strand the flight): waiters are always released.
    return solve_and_store();
  } catch (...) {
    if (leading) cache_->abort_flight(key);
    throw;
  }
}

result<flow_result> pipeline::run_uncached(const run_context& ctx) const {
  stopwatch watch;
  auto stage1 = schedule(ctx);
  if (!stage1.has_value()) return stage1.propagate<flow_result>();

  auto stage2 = stage1.value().synthesize(ctx);
  if (!stage2.has_value()) return stage2.propagate<flow_result>();

  auto stage3 = stage2.value().compress(ctx);
  if (!stage3.has_value()) return stage3.propagate<flow_result>();

  flow_result flow;
  status last_code = status::ok;
  std::string last_message;
  if (state_->options.verify) {
    auto stage4 = stage3.value().verify(ctx);
    if (!stage4.has_value()) return stage4.propagate<flow_result>();
    flow = stage4.value().result();
    last_code = stage4.code();
    last_message = stage4.message();
  } else {
    flow = stage3.value().result_without_verification();
    if (state_->options.run_baseline) {
      // Baseline evaluation is independent of simulator verification.
      try {
        baseline::baseline_options bo;
        bo.timing = state_->options.timing;
        bo.grid_width = state_->options.grid_width;
        bo.grid_height = state_->options.grid_height;
        bo.placement.seed = state_->options.seed;
        bo.router.seed = state_->options.seed;
        flow.baseline =
            baseline::evaluate_baseline(state_->graph, flow.scheduling.best,
                                        bo);
      } catch (...) {
        return failure_from_current_exception<flow_result>(ctx);
      }
    }
    last_code = stage3.code();
    last_message = stage3.message();
  }
  flow.total_seconds = watch.elapsed_seconds();

  // The earliest interrupted stage wins the status (and its message):
  // stages after it were best-effort completions of an already-late run.
  status outcome = status::ok;
  std::string message;
  const std::pair<status, const std::string*> staged[] = {
      {stage1.code(), &stage1.message()},
      {stage2.code(), &stage2.message()},
      {stage3.code(), &stage3.message()},
      {last_code, &last_message},
  };
  for (const auto& [code, msg] : staged)
    if (outcome == status::ok && code != status::ok) {
      outcome = code;
      message = *msg;
    }
  if (outcome == status::ok) return result<flow_result>::success(std::move(flow));
  return result<flow_result>::partial(outcome, std::move(flow),
                                      std::move(message));
}

} // namespace transtore::api
