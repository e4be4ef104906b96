#include "api/serialize.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "arch/chip_io.h"
#include "arch/workload.h"
#include "common/error.h"
#include "sched/schedule_io.h"

namespace transtore::api {
namespace detail {

/// The stage sections a document holds, already re-validated against its
/// graph: scheduling always, architecture and layout when the document
/// reaches them.
struct stage_parts {
  job_state state;
  sched::scheduling_result scheduling;
  std::optional<arch::arch_result> architecture;
  std::optional<phys::layout_result> layout;
};

struct stage_access {
  template <typename Stage>
  static Stage make(stage_parts&& parts) {
    Stage s;
    s.state_ = std::make_shared<const job_state>(std::move(parts.state));
    s.scheduling_ = std::make_shared<const sched::scheduling_result>(
        std::move(parts.scheduling));
    if constexpr (!std::is_same_v<Stage, scheduled>)
      s.architecture_ = std::make_shared<const arch::arch_result>(
          std::move(*parts.architecture));
    if constexpr (std::is_same_v<Stage, compressed>)
      s.layout_ = std::make_shared<const phys::layout_result>(
          std::move(*parts.layout));
    return s;
  }

  template <typename Stage>
  static const job_state& state(const Stage& s) {
    return *s.state_;
  }
};

} // namespace detail

namespace {

// ------------------------------------------------------------- enum tables

/// The enum `lookup` finds for the name `v` spells, or invalid_input.
template <typename Lookup>
[[nodiscard]] auto enum_from(Lookup lookup, const char* what,
                             const json_value& v) {
  const std::string& name = v.as_string();
  if (const auto e = lookup(name)) return *e;
  throw invalid_input_error(std::string("serialize: unknown ") + what +
                            " \"" + name + "\"");
}

[[nodiscard]] const char* to_string(sched::crossing_state s) {
  switch (s) {
    case sched::crossing_state::internal: return "internal";
    case sched::crossing_state::delivered: return "delivered";
    case sched::crossing_state::stored: return "stored";
    case sched::crossing_state::pending: return "pending";
  }
  return "pending";
}

[[nodiscard]] sched::crossing_state crossing_state_from(
    const std::string& name) {
  if (name == "internal") return sched::crossing_state::internal;
  if (name == "delivered") return sched::crossing_state::delivered;
  if (name == "stored") return sched::crossing_state::stored;
  if (name == "pending") return sched::crossing_state::pending;
  throw invalid_input_error("serialize: unknown crossing state \"" + name +
                            "\"");
}

// ----------------------------------------------------------- result doubles

/// A result double: the shortest round-trip number, or the string "inf",
/// "-inf" or "nan", which JSON numbers cannot spell (an unsettled MILP
/// root leaves a -inf bound). Only document readers accept the strings;
/// request options stay numbers.
void field_double(json_writer& w, const char* key, double v) {
  w.key(key);
  if (std::isnan(v))
    w.value("nan");
  else if (std::isinf(v))
    w.value(v < 0 ? "-inf" : "inf");
  else
    w.value_exact(v);
}

[[nodiscard]] double double_from(const json_value& v) {
  if (!v.is_string()) return v.as_double();
  const std::string& text = v.as_string();
  if (text == "inf") return std::numeric_limits<double>::infinity();
  if (text == "-inf") return -std::numeric_limits<double>::infinity();
  if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
  throw invalid_input_error("serialize: \"" + text + "\" is not a number");
}

void write_ints(json_writer& w, const std::string& key,
                const std::vector<int>& values) {
  w.begin_array(key);
  for (int v : values) w.value(v);
  w.end_array();
}

[[nodiscard]] std::vector<int> ints_from(const json_value& v,
                                         const char* key) {
  std::vector<int> out;
  for (const json_value& e : v.at(key).elements()) out.push_back(e.as_int());
  return out;
}

// --------------------------------------------------------- result sections
//
// Each section's fields have one writer, shared by the document (which
// adds the payload: schedule, chip, layout positions) and the report
// (which adds summaries derived from that payload). Wall-clock seconds are
// in neither document nor writer: only a timed report prints them. A
// MILP's outcome fields are written only when that MILP ran; otherwise
// they hold their defaults.

void write_scheduling_fields(json_writer& w,
                             const sched::scheduling_result& r) {
  w.field("used_ilp", r.used_ilp);
  w.field("ilp_skipped_too_large", r.ilp_skipped_too_large);
  w.field("ilp_interrupted", r.ilp_interrupted);
  w.field("ilp_deadline_clamped", r.ilp_deadline_clamped);
  if (!r.used_ilp) return;
  w.field("ilp_status", milp::to_string(r.ilp_status));
  field_double(w, "ilp_objective", r.ilp_objective);
  field_double(w, "ilp_bound", r.ilp_bound);
  w.field("ilp_variables", r.ilp_variables);
  w.field("ilp_constraints", r.ilp_constraints);
  w.field("ilp_nodes", r.ilp_nodes);
  w.field("ilp_presolve_rows_removed", r.ilp_presolve_rows_removed);
  w.field("ilp_cuts_added", r.ilp_cuts_added);
  field_double(w, "ilp_root_bound", r.ilp_root_bound);
  // Parallel footprint, only when present -- sequential documents
  // keep the pre-parallel byte layout.
  if (r.ilp_threads != 1) w.field("ilp_threads", r.ilp_threads);
  if (!r.ilp_workers.empty()) {
    w.begin_array("ilp_workers");
    for (const auto& ws : r.ilp_workers) {
      w.begin_object();
      w.field("nodes", ws.nodes);
      w.field("simplex_iterations", ws.simplex_iterations);
      w.field("dual_simplex_iterations", ws.dual_simplex_iterations);
      w.field("steals", ws.steals);
      w.end_object();
    }
    w.end_array();
  }
}

void write_scheduling(json_writer& w, const sched::scheduling_result& r) {
  w.begin_object();
  write_scheduling_fields(w, r);
  w.key("best");
  sched::write_schedule(w, r.best);
  w.end_object();
}

[[nodiscard]] sched::scheduling_result scheduling_from_value(
    const json_value& v) {
  sched::scheduling_result r;
  r.used_ilp = v.at("used_ilp").as_bool();
  r.ilp_skipped_too_large = v.at("ilp_skipped_too_large").as_bool();
  r.ilp_interrupted = v.at("ilp_interrupted").as_bool();
  r.ilp_deadline_clamped = v.at("ilp_deadline_clamped").as_bool();
  r.best = sched::schedule_from_value(v.at("best"));
  if (!r.used_ilp) return r;
  r.ilp_status =
      enum_from(milp::solve_status_named, "solve status", v.at("ilp_status"));
  r.ilp_objective = double_from(v.at("ilp_objective"));
  r.ilp_bound = double_from(v.at("ilp_bound"));
  r.ilp_variables = v.at("ilp_variables").as_int();
  r.ilp_constraints = v.at("ilp_constraints").as_int();
  r.ilp_nodes = v.at("ilp_nodes").as_long();
  r.ilp_presolve_rows_removed = v.at("ilp_presolve_rows_removed").as_int();
  r.ilp_cuts_added = v.at("ilp_cuts_added").as_int();
  r.ilp_root_bound = double_from(v.at("ilp_root_bound"));
  if (const json_value* threads = v.find("ilp_threads"))
    r.ilp_threads = threads->as_int();
  if (const json_value* workers = v.find("ilp_workers")) {
    for (const json_value& e : workers->elements()) {
      milp::worker_stats ws;
      ws.nodes = e.at("nodes").as_long();
      ws.simplex_iterations = e.at("simplex_iterations").as_long();
      ws.dual_simplex_iterations = e.at("dual_simplex_iterations").as_long();
      ws.steals = e.at("steals").as_long();
      r.ilp_workers.push_back(ws);
    }
  }
  return r;
}

void write_architecture_fields(json_writer& w, const arch::arch_result& r) {
  w.field("attempts_used", r.attempts_used);
  w.field("interrupted", r.interrupted);
  w.field("used_ilp", r.used_ilp);
  if (!r.used_ilp) return;
  w.field("ilp_status", milp::to_string(r.ilp_status));
  field_double(w, "ilp_objective", r.ilp_objective);
  field_double(w, "ilp_bound", r.ilp_bound);
  w.field("ilp_variables", r.ilp_variables);
  w.field("ilp_constraints", r.ilp_constraints);
}

void write_architecture(json_writer& w, const arch::arch_result& r) {
  w.begin_object();
  write_architecture_fields(w, r);
  w.key("chip");
  arch::write_chip(w, r.result);
  w.end_object();
}

/// The workload is not stored: it is re-derived from the schedule, which is
/// deterministic and keeps the documents lean.
[[nodiscard]] arch::arch_result architecture_from_value(
    const json_value& v, const sched::schedule& s) {
  arch::arch_result r;
  r.attempts_used = v.at("attempts_used").as_int();
  r.interrupted = v.at("interrupted").as_bool();
  r.used_ilp = v.at("used_ilp").as_bool();
  r.result = arch::chip_from_value(v.at("chip"));
  r.workload = arch::derive_workload(s);
  if (!r.used_ilp) return r;
  r.ilp_status =
      enum_from(milp::solve_status_named, "solve status", v.at("ilp_status"));
  r.ilp_objective = double_from(v.at("ilp_objective"));
  r.ilp_bound = double_from(v.at("ilp_bound"));
  r.ilp_variables = v.at("ilp_variables").as_int();
  r.ilp_constraints = v.at("ilp_constraints").as_int();
  return r;
}

void write_layout_fields(json_writer& w, const phys::layout_result& r) {
  w.field("dr_width", r.after_synthesis.width);
  w.field("dr_height", r.after_synthesis.height);
  w.field("de_width", r.after_devices.width);
  w.field("de_height", r.after_devices.height);
  w.field("dp_width", r.after_compression.width);
  w.field("dp_height", r.after_compression.height);
  w.field("compression_iterations", r.compression_iterations);
  w.field("bend_points", r.bend_points);
}

void write_layout(json_writer& w, const phys::layout_result& r) {
  w.begin_object();
  write_layout_fields(w, r);
  write_ints(w, "column_position", r.column_position);
  write_ints(w, "row_position", r.row_position);
  write_ints(w, "used_columns", r.used_columns);
  write_ints(w, "used_rows", r.used_rows);
  w.end_object();
}

[[nodiscard]] phys::layout_result layout_from_value(const json_value& v) {
  phys::layout_result r;
  r.after_synthesis = {v.at("dr_width").as_int(), v.at("dr_height").as_int()};
  r.after_devices = {v.at("de_width").as_int(), v.at("de_height").as_int()};
  r.after_compression = {v.at("dp_width").as_int(),
                         v.at("dp_height").as_int()};
  r.compression_iterations = v.at("compression_iterations").as_int();
  r.bend_points = v.at("bend_points").as_int();
  r.column_position = ints_from(v, "column_position");
  r.row_position = ints_from(v, "row_position");
  r.used_columns = ints_from(v, "used_columns");
  r.used_rows = ints_from(v, "used_rows");
  return r;
}

void write_stats(json_writer& w, const sim::sim_stats& s) {
  w.begin_object();
  w.field("makespan", s.makespan);
  w.field("operations", s.operations);
  w.field("transport_legs", s.transport_legs);
  w.field("cached_samples", s.cached_samples);
  w.field("max_active_segments", s.max_active_segments);
  field_double(w, "mean_active_segments", s.mean_active_segments);
  w.field("device_busy_time", s.device_busy_time);
  field_double(w, "device_utilization", s.device_utilization);
  w.end_object();
}

[[nodiscard]] sim::sim_stats stats_from_value(const json_value& v) {
  sim::sim_stats s;
  s.makespan = v.at("makespan").as_int();
  s.operations = v.at("operations").as_int();
  s.transport_legs = v.at("transport_legs").as_int();
  s.cached_samples = v.at("cached_samples").as_int();
  s.max_active_segments = v.at("max_active_segments").as_int();
  s.mean_active_segments = double_from(v.at("mean_active_segments"));
  s.device_busy_time = v.at("device_busy_time").as_long();
  s.device_utilization = double_from(v.at("device_utilization"));
  return s;
}

void write_baseline_fields(json_writer& w, const baseline::baseline_result& b) {
  w.field("makespan", b.makespan);
  w.field("storage_cells", b.storage_cells);
  w.field("unit_valves", b.unit_valves);
  w.field("chip_valves", b.chip_valves);
  w.field("total_valves", b.total_valves);
  w.field("used_edges", b.used_edges);
}

void write_baseline(json_writer& w, const baseline::baseline_result& b) {
  w.begin_object();
  write_baseline_fields(w, b);
  w.key("retimed");
  sched::write_schedule(w, b.retimed);
  w.end_object();
}

[[nodiscard]] baseline::baseline_result baseline_from_value(
    const json_value& v) {
  baseline::baseline_result b;
  b.makespan = v.at("makespan").as_int();
  b.storage_cells = v.at("storage_cells").as_int();
  b.unit_valves = v.at("unit_valves").as_int();
  b.chip_valves = v.at("chip_valves").as_int();
  b.total_valves = v.at("total_valves").as_int();
  b.used_edges = v.at("used_edges").as_int();
  b.retimed = sched::schedule_from_value(v.at("retimed"));
  return b;
}

void write_checkpoint_state(json_writer& w, const sim::checkpoint& cp) {
  w.begin_object();
  w.key("faults");
  arch::write_fault_set(w, cp.faults);
  w.field("fault_time", cp.fault_time);
  write_ints(w, "completed", cp.completed);
  write_ints(w, "in_flight", cp.in_flight);
  w.begin_array("fluids");
  for (const sim::fluid_position& fp : cp.fluids) {
    w.begin_object();
    w.field("transfer", fp.transfer_index);
    w.field("state", to_string(fp.state));
    w.field("chip_edge", fp.chip_edge);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

[[nodiscard]] sim::checkpoint checkpoint_state_from_value(
    const json_value& v) {
  sim::checkpoint cp;
  cp.faults = arch::fault_set_from_value(v.at("faults"));
  cp.fault_time = v.at("fault_time").as_int();
  cp.completed = ints_from(v, "completed");
  cp.in_flight = ints_from(v, "in_flight");
  for (const json_value& f : v.at("fluids").elements()) {
    sim::fluid_position fp;
    fp.transfer_index = f.at("transfer").as_int();
    fp.state = crossing_state_from(f.at("state").as_string());
    fp.chip_edge = f.at("chip_edge").as_int();
    cp.fluids.push_back(fp);
  }
  return cp;
}

// ------------------------------------------------------- document plumbing

/// The header and stage sections every document starts with; a stage
/// document ends there, a flow document adds stats and baseline.
void write_stage_document(json_writer& w, const char* kind,
                          const assay::sequencing_graph& graph,
                          const pipeline_options& options,
                          const sched::scheduling_result& scheduling,
                          const arch::arch_result* architecture,
                          const phys::layout_result* layout) {
  w.field("format", flow_format_version);
  w.field("kind", kind);
  w.key("graph");
  write_graph(w, graph);
  w.key("options");
  write_options(w, options);
  w.key("scheduling");
  write_scheduling(w, scheduling);
  if (architecture) {
    w.key("architecture");
    write_architecture(w, *architecture);
  }
  if (layout) {
    w.key("layout");
    write_layout(w, *layout);
  }
}

/// The flow document's members; a checkpoint document adds one more.
void write_flow_document(json_writer& w, const char* kind,
                         const assay::sequencing_graph& graph,
                         const pipeline_options& options,
                         const flow_result& flow) {
  write_stage_document(w, kind, graph, options, flow.scheduling,
                       &flow.architecture, &flow.layout);
  if (flow.stats) {
    w.key("stats");
    write_stats(w, *flow.stats);
  }
  if (flow.baseline) {
    w.key("baseline");
    write_baseline(w, *flow.baseline);
  }
}

/// Parses a document, checks version + kind, and returns the root.
[[nodiscard]] json_value parse_document(const std::string& text,
                                        const char* kind) {
  json_value doc = json_value::parse(text);
  if (doc.at("format").as_int() != flow_format_version)
    throw invalid_input_error("serialize: unsupported format version " +
                              doc.at("format").number_text());
  if (doc.at("kind").as_string() != kind)
    throw invalid_input_error("serialize: document kind \"" +
                              doc.at("kind").as_string() + "\" is not \"" +
                              kind + "\"");
  return doc;
}

/// Reads a document's stage sections: scheduling, then architecture when
/// `stages` >= 2 and layout when `stages` == 3.
[[nodiscard]] detail::stage_parts parts_from(const json_value& doc,
                                             int stages) {
  detail::stage_parts parts;
  parts.state.graph = graph_from_value(doc.at("graph"));
  parts.state.options = options_from_value(doc.at("options"));
  parts.scheduling = scheduling_from_value(doc.at("scheduling"));
  parts.scheduling.best.validate(parts.state.graph);
  if (stages >= 2) {
    parts.architecture = architecture_from_value(doc.at("architecture"),
                                                 parts.scheduling.best);
    parts.architecture->result.validate(parts.architecture->workload);
  }
  if (stages >= 3) parts.layout = layout_from_value(doc.at("layout"));
  return parts;
}

/// The members write_flow_document wrote.
[[nodiscard]] flow_document flow_from(const json_value& doc) {
  detail::stage_parts parts = parts_from(doc, 3);
  flow_document out;
  out.graph = std::move(parts.state.graph);
  out.options = std::move(parts.state.options);
  out.flow.scheduling = std::move(parts.scheduling);
  out.flow.architecture = std::move(*parts.architecture);
  out.flow.layout = std::move(*parts.layout);
  if (const json_value* stats = doc.find("stats"))
    out.flow.stats = stats_from_value(*stats);
  if (const json_value* baseline = doc.find("baseline"))
    out.flow.baseline = baseline_from_value(*baseline);
  return out;
}

template <typename T>
[[nodiscard]] result<T> failure_from_current_exception() {
  try {
    throw;
  } catch (const internal_error& e) {
    return result<T>::failure(status::internal, e.what());
  } catch (const ts_error& e) {
    return result<T>::failure(status::invalid_input, e.what());
  } catch (const std::exception& e) {
    return result<T>::failure(status::internal, e.what());
  }
}

template <typename Stage>
[[nodiscard]] result<Stage> deserialize_stage(const std::string& text,
                                              const char* kind, int stages) {
  try {
    return result<Stage>::success(detail::stage_access::make<Stage>(
        parts_from(parse_document(text, kind), stages)));
  } catch (...) {
    return failure_from_current_exception<Stage>();
  }
}

// ----------------------------------------------------------------- reports
//
// A report is a projection of the flow document: each section prints the
// document's fields through the section's one writer, plus summaries
// derived from the payload, plus wall-clock seconds when timed.

void write_schedule_report(json_writer& w, const assay::sequencing_graph& g,
                           const sched::scheduling_result& r, bool timed) {
  const sched::schedule& s = r.best;
  w.key("schedule").begin_object();
  w.field("makespan", s.makespan());
  w.field("device_count", s.device_count);
  w.field("stores", s.store_count());
  w.field("peak_concurrent_caches", s.peak_concurrent_caches());
  w.field("total_cache_time", s.total_cache_time());
  write_scheduling_fields(w, r);
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
  if (timed) w.field("seconds", r.seconds);
  w.end_object();
}

void write_architecture_report(json_writer& w, const arch::arch_result& r,
                               bool timed) {
  const arch::chip& c = r.result;
  w.key("architecture").begin_object();
  w.field("grid_width", c.grid().width());
  w.field("grid_height", c.grid().height());
  w.field("used_edges", c.used_edge_count());
  w.field("valves", c.valve_count());
  w.field("edge_ratio", c.edge_ratio());
  w.field("valve_ratio", c.valve_ratio());
  w.field("paths", static_cast<long>(c.paths.size()));
  w.field("caches", static_cast<long>(c.caches.size()));
  write_architecture_fields(w, r);
  if (timed) w.field("seconds", r.seconds);
  w.end_object();
}

void write_layout_report(json_writer& w, const phys::layout_result& r,
                         bool timed) {
  w.key("layout").begin_object();
  write_layout_fields(w, r);
  if (timed) w.field("seconds", r.seconds);
  w.end_object();
}

/// {"assay":...,"operations":...,"edges":..., <sections>}
template <typename Sections>
[[nodiscard]] std::string report(const assay::sequencing_graph& g,
                                 Sections sections) {
  json_writer w;
  w.begin_object();
  w.field("assay", g.name());
  w.field("operations", g.operation_count());
  w.field("edges", g.edge_count());
  sections(w);
  w.end_object();
  return w.str();
}

} // namespace

// --------------------------------------------------------- building blocks

void write_graph(json_writer& w, const assay::sequencing_graph& g) {
  w.begin_object();
  w.field("name", g.name());
  w.begin_array("ops");
  for (int id = 0; id < g.operation_count(); ++id) {
    const assay::operation& op = g.at(id);
    w.begin_object();
    w.field("name", op.name);
    w.field("duration", op.duration);
    w.begin_array("parents");
    for (int parent : op.parents) w.value(parent);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

assay::sequencing_graph graph_from_value(const json_value& v) {
  assay::sequencing_graph g(v.at("name").as_string());
  const json_value& ops = v.at("ops");
  for (const json_value& op : ops.elements())
    g.add_operation(op.at("name").as_string(), op.at("duration").as_int());
  // Dependencies are re-added child-by-child so each op's parents list
  // comes back in its original order (children lists rebuild in child-id
  // order, which is how every construction path in this library adds them).
  for (std::size_t child = 0; child < ops.size(); ++child)
    for (const json_value& parent : ops[child].at("parents").elements())
      g.add_dependency(parent.as_int(), static_cast<int>(child));
  return g;
}

void write_options(json_writer& w, const pipeline_options& o) {
  w.begin_object();
  w.field("device_count", o.device_count);
  w.field("grid_width", o.grid_width);
  w.field("grid_height", o.grid_height);
  w.field("transport_time", o.timing.transport_time);
  w.field("count_reagent_loads", o.timing.count_reagent_loads);
  w.field("storage_ports", o.timing.storage_ports);
  w.field_exact("alpha", o.alpha);
  w.field_exact("beta", o.beta);
  w.field("storage_aware", o.storage_aware);
  w.field("schedule_engine", sched::to_string(o.schedule_engine));
  w.field_exact("sched_ilp_time_limit", o.sched_ilp_time_limit);
  w.field("heuristic_restarts", o.heuristic_restarts);
  w.field("local_search_iterations", o.local_search_iterations);
  w.field("arch_engine", arch::to_string(o.arch_engine));
  w.field_exact("arch_ilp_time_limit", o.arch_ilp_time_limit);
  w.field("arch_attempts", o.arch_attempts);
  w.field("grid_growth", o.grid_growth);
  w.field("pitch", o.physical.pitch);
  w.field("scale", o.physical.scale);
  w.field("device_size", o.physical.device_size);
  w.field("storage_length", o.physical.storage_length);
  w.field("run_baseline", o.run_baseline);
  w.field("verify", o.verify);
  // Fault keys are emitted only when present so documents (and cache keys)
  // of healthy runs are byte-identical to the pre-fault format.
  auto fault_ints = [&w](const char* key, const std::vector<int>& values) {
    if (values.empty()) return;
    w.begin_array(key);
    for (int v : values) w.value(v);
    w.end_array();
  };
  fault_ints("fault_devices", o.faults.devices);
  fault_ints("fault_valves", o.faults.valves);
  fault_ints("fault_edges", o.faults.edges);
  fault_ints("fault_storage", o.faults.storage);
  // Parallel-search keys follow the same only-when-non-default rule, so
  // sequential documents (and cache keys) are byte-identical to the
  // pre-parallel format. The executor's thread-budget clamp is applied at
  // execution time, never here, so a clamped run still hits the same key.
  if (o.solver_threads != 1) w.field("solver_threads", o.solver_threads);
  if (o.solver_deterministic)
    w.field("solver_deterministic", o.solver_deterministic);
  // Seeds above 2^53 would lose precision as JSON numbers; emit those as
  // decimal strings (the reader accepts both forms).
  if (o.seed <= (std::uint64_t{1} << 53))
    w.field("seed", static_cast<long>(o.seed));
  else
    w.field("seed", std::to_string(o.seed));
  w.end_object();
}

pipeline_options options_from_value(const json_value& v,
                                    pipeline_options base) {
  pipeline_options o = std::move(base);
  for (const auto& [key, value] : v.members()) {
    if (key == "device_count") o.device_count = value.as_int();
    else if (key == "grid_width") o.grid_width = value.as_int();
    else if (key == "grid_height") o.grid_height = value.as_int();
    else if (key == "transport_time")
      o.timing.transport_time = value.as_int();
    else if (key == "count_reagent_loads")
      o.timing.count_reagent_loads = value.as_bool();
    else if (key == "storage_ports") o.timing.storage_ports = value.as_int();
    else if (key == "alpha") o.alpha = value.as_double();
    else if (key == "beta") o.beta = value.as_double();
    else if (key == "storage_aware") o.storage_aware = value.as_bool();
    else if (key == "schedule_engine")
      o.schedule_engine =
          enum_from(sched::schedule_engine_named, "schedule engine", value);
    else if (key == "sched_ilp_time_limit")
      o.sched_ilp_time_limit = value.as_double();
    else if (key == "heuristic_restarts")
      o.heuristic_restarts = value.as_int();
    else if (key == "local_search_iterations")
      o.local_search_iterations = value.as_int();
    else if (key == "arch_engine")
      o.arch_engine = enum_from(arch::synthesis_engine_named,
                                "synthesis engine", value);
    else if (key == "arch_ilp_time_limit")
      o.arch_ilp_time_limit = value.as_double();
    else if (key == "arch_attempts") o.arch_attempts = value.as_int();
    else if (key == "grid_growth") o.grid_growth = value.as_int();
    else if (key == "pitch") o.physical.pitch = value.as_int();
    else if (key == "scale") o.physical.scale = value.as_int();
    else if (key == "device_size") o.physical.device_size = value.as_int();
    else if (key == "storage_length")
      o.physical.storage_length = value.as_int();
    else if (key == "run_baseline") o.run_baseline = value.as_bool();
    else if (key == "verify") o.verify = value.as_bool();
    else if (key == "solver_threads") o.solver_threads = value.as_int();
    else if (key == "solver_deterministic")
      o.solver_deterministic = value.as_bool();
    else if (key == "fault_devices" || key == "fault_valves" ||
             key == "fault_edges" || key == "fault_storage") {
      std::vector<int> ids;
      for (const json_value& e : value.elements()) ids.push_back(e.as_int());
      if (key == "fault_devices") o.faults.devices = std::move(ids);
      else if (key == "fault_valves") o.faults.valves = std::move(ids);
      else if (key == "fault_edges") o.faults.edges = std::move(ids);
      else o.faults.storage = std::move(ids);
    }
    else if (key == "seed") {
      if (value.is_string()) {
        // from_chars keeps malformed/negative seeds in the ts_error
        // taxonomy (stoull would throw std::invalid_argument -> misreported
        // as internal, and silently wraps "-1").
        const std::string& text = value.as_string();
        std::uint64_t seed = 0;
        const char* const first = text.data();
        const char* const last = first + text.size();
        const auto [p, ec] = std::from_chars(first, last, seed);
        if (ec != std::errc() || p != last || text.empty())
          throw invalid_input_error("serialize: seed \"" + text +
                                    "\" is not an unsigned integer");
        o.seed = seed;
      } else {
        const long seed = value.as_long();
        // Above 2^53 every double is integral, so as_long cannot detect
        // that the JSON number was silently snapped to a neighbour; the
        // writer emits such seeds as strings, and readers insist on it.
        if (seed < 0 || seed > (1L << 53))
          throw invalid_input_error(
              "serialize: seed " + value.number_text() +
              " must be in [0, 2^53] (pass larger seeds as a decimal "
              "string)");
        o.seed = static_cast<std::uint64_t>(seed);
      }
    } else {
      throw invalid_input_error("serialize: unknown option \"" + key + "\"");
    }
  }
  return o;
}

// ----------------------------------------------------------- flow documents

std::string serialize_flow(const assay::sequencing_graph& graph,
                           const pipeline_options& options,
                           const flow_result& flow) {
  json_writer w;
  w.begin_object();
  write_flow_document(w, "flow", graph, options, flow);
  w.end_object();
  return w.str();
}

result<flow_document> deserialize_flow(const std::string& text) {
  try {
    return result<flow_document>::success(
        flow_from(parse_document(text, "flow")));
  } catch (...) {
    return failure_from_current_exception<flow_document>();
  }
}

// ----------------------------------------------------- checkpoint documents

std::string serialize_checkpoint(const assay::sequencing_graph& graph,
                                 const pipeline_options& options,
                                 const flow_result& flow,
                                 const sim::checkpoint& state) {
  json_writer w;
  w.begin_object();
  write_flow_document(w, "checkpoint", graph, options, flow);
  w.key("checkpoint");
  write_checkpoint_state(w, state);
  w.end_object();
  return w.str();
}

result<checkpoint_document> deserialize_checkpoint(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "checkpoint");
    checkpoint_document out;
    static_cast<flow_document&>(out) = flow_from(doc);
    out.state = checkpoint_state_from_value(doc.at("checkpoint"));
    return result<checkpoint_document>::success(std::move(out));
  } catch (...) {
    return failure_from_current_exception<checkpoint_document>();
  }
}

// ---------------------------------------------------------- stage documents

std::string serialize_stage(const scheduled& stage) {
  json_writer w;
  w.begin_object();
  const detail::job_state& state = detail::stage_access::state(stage);
  write_stage_document(w, "stage.scheduled", state.graph, state.options,
                       stage.scheduling(), nullptr, nullptr);
  w.end_object();
  return w.str();
}

std::string serialize_stage(const synthesized& stage) {
  json_writer w;
  w.begin_object();
  const detail::job_state& state = detail::stage_access::state(stage);
  write_stage_document(w, "stage.synthesized", state.graph, state.options,
                       stage.scheduling(), &stage.architecture(), nullptr);
  w.end_object();
  return w.str();
}

std::string serialize_stage(const compressed& stage) {
  json_writer w;
  w.begin_object();
  const detail::job_state& state = detail::stage_access::state(stage);
  write_stage_document(w, "stage.compressed", state.graph, state.options,
                       stage.scheduling(), &stage.architecture(),
                       &stage.layout());
  w.end_object();
  return w.str();
}

result<scheduled> deserialize_scheduled(const std::string& text) {
  return deserialize_stage<scheduled>(text, "stage.scheduled", 1);
}

result<synthesized> deserialize_synthesized(const std::string& text) {
  return deserialize_stage<synthesized>(text, "stage.synthesized", 2);
}

result<compressed> deserialize_compressed(const std::string& text) {
  return deserialize_stage<compressed>(text, "stage.compressed", 3);
}

// ----------------------------------------------------------------- reports

std::string to_json(const assay::sequencing_graph& graph,
                    const flow_result& result, bool include_timing) {
  return report(graph, [&](json_writer& w) {
    write_schedule_report(w, graph, result.scheduling, include_timing);
    write_architecture_report(w, result.architecture, include_timing);
    write_layout_report(w, result.layout, include_timing);
    if (result.stats) {
      w.key("verification");
      write_stats(w, *result.stats);
    }
    if (result.baseline) {
      w.key("dedicated_storage_baseline").begin_object();
      write_baseline_fields(w, *result.baseline);
      if (include_timing) w.field("seconds", result.baseline->seconds);
      w.end_object();
    }
    if (include_timing) w.field("total_seconds", result.total_seconds);
  });
}

std::string scheduled::to_json() const {
  return report(graph(), [this](json_writer& w) {
    write_schedule_report(w, graph(), scheduling(), false);
  });
}

std::string synthesized::to_json() const {
  return report(graph(), [this](json_writer& w) {
    write_architecture_report(w, architecture(), false);
  });
}

std::string compressed::to_json() const {
  return report(graph(), [this](json_writer& w) {
    write_layout_report(w, layout(), false);
  });
}

} // namespace transtore::api
