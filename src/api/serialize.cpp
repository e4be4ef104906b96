#include "api/serialize.h"

#include <charconv>
#include <utility>

#include "arch/chip_io.h"
#include "arch/workload.h"
#include "common/error.h"
#include "sched/schedule_io.h"

namespace transtore::api {
namespace detail {

struct stage_access {
  static scheduled make_scheduled(
      std::shared_ptr<const job_state> state,
      std::shared_ptr<const sched::scheduling_result> scheduling) {
    scheduled s;
    s.state_ = std::move(state);
    s.scheduling_ = std::move(scheduling);
    return s;
  }
  static synthesized make_synthesized(
      std::shared_ptr<const job_state> state,
      std::shared_ptr<const sched::scheduling_result> scheduling,
      std::shared_ptr<const arch::arch_result> architecture) {
    synthesized s;
    s.state_ = std::move(state);
    s.scheduling_ = std::move(scheduling);
    s.architecture_ = std::move(architecture);
    return s;
  }
  static compressed make_compressed(
      std::shared_ptr<const job_state> state,
      std::shared_ptr<const sched::scheduling_result> scheduling,
      std::shared_ptr<const arch::arch_result> architecture,
      std::shared_ptr<const phys::layout_result> layout) {
    compressed s;
    s.state_ = std::move(state);
    s.scheduling_ = std::move(scheduling);
    s.architecture_ = std::move(architecture);
    s.layout_ = std::move(layout);
    return s;
  }

  static const job_state& state(const scheduled& s) { return *s.state_; }
  static const job_state& state(const synthesized& s) { return *s.state_; }
  static const job_state& state(const compressed& s) { return *s.state_; }
  static const arch::arch_result& architecture(const synthesized& s) {
    return *s.architecture_;
  }
  static const arch::arch_result& architecture(const compressed& s) {
    return *s.architecture_;
  }
  static const phys::layout_result& layout(const compressed& s) {
    return *s.layout_;
  }
};

} // namespace detail

namespace {

// ------------------------------------------------------------- enum tables

[[nodiscard]] const char* to_string(sched::schedule_engine e) {
  switch (e) {
    case sched::schedule_engine::heuristic: return "heuristic";
    case sched::schedule_engine::ilp: return "ilp";
    case sched::schedule_engine::combined: return "combined";
    case sched::schedule_engine::sa: return "sa";
    case sched::schedule_engine::grasp: return "grasp";
  }
  return "combined";
}

[[nodiscard]] sched::schedule_engine schedule_engine_from(
    const std::string& name) {
  if (name == "heuristic") return sched::schedule_engine::heuristic;
  if (name == "ilp") return sched::schedule_engine::ilp;
  if (name == "combined") return sched::schedule_engine::combined;
  if (name == "sa") return sched::schedule_engine::sa;
  if (name == "grasp") return sched::schedule_engine::grasp;
  throw invalid_input_error("serialize: unknown schedule engine \"" + name +
                            "\"");
}

[[nodiscard]] const char* to_string(arch::synthesis_engine e) {
  switch (e) {
    case arch::synthesis_engine::heuristic: return "heuristic";
    case arch::synthesis_engine::ilp: return "ilp";
  }
  return "heuristic";
}

[[nodiscard]] arch::synthesis_engine arch_engine_from(const std::string& name) {
  if (name == "heuristic") return arch::synthesis_engine::heuristic;
  if (name == "ilp") return arch::synthesis_engine::ilp;
  throw invalid_input_error("serialize: unknown synthesis engine \"" + name +
                            "\"");
}

[[nodiscard]] const char* to_string(milp::solve_status s) {
  switch (s) {
    case milp::solve_status::optimal: return "optimal";
    case milp::solve_status::feasible: return "feasible";
    case milp::solve_status::infeasible: return "infeasible";
    case milp::solve_status::unbounded: return "unbounded";
    case milp::solve_status::no_solution: return "no_solution";
  }
  return "no_solution";
}

[[nodiscard]] milp::solve_status solve_status_from(const std::string& name) {
  if (name == "optimal") return milp::solve_status::optimal;
  if (name == "feasible") return milp::solve_status::feasible;
  if (name == "infeasible") return milp::solve_status::infeasible;
  if (name == "unbounded") return milp::solve_status::unbounded;
  if (name == "no_solution") return milp::solve_status::no_solution;
  throw invalid_input_error("serialize: unknown solve status \"" + name +
                            "\"");
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

// --------------------------------------------------------- result sections

void write_scheduling(json_writer& w, const sched::scheduling_result& r) {
  w.begin_object();
  w.field_exact("seconds", r.seconds);
  w.field("used_ilp", r.used_ilp);
  w.field("ilp_skipped_too_large", r.ilp_skipped_too_large);
  w.field("ilp_interrupted", r.ilp_interrupted);
  w.field("ilp_deadline_clamped", r.ilp_deadline_clamped);
  w.field("ilp_status", to_string(r.ilp_status));
  w.field_exact("ilp_objective", r.ilp_objective);
  w.field_exact("ilp_bound", r.ilp_bound);
  w.field("ilp_variables", r.ilp_variables);
  w.field("ilp_constraints", r.ilp_constraints);
  w.field("ilp_nodes", r.ilp_nodes);
  w.field("ilp_presolve_rows_removed", r.ilp_presolve_rows_removed);
  w.field("ilp_cuts_added", r.ilp_cuts_added);
  w.field_exact("ilp_root_bound", r.ilp_root_bound);
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
  w.key("best");
  sched::write_schedule(w, r.best);
  w.end_object();
}

[[nodiscard]] sched::scheduling_result scheduling_from_value(
    const json_value& v) {
  sched::scheduling_result r;
  r.seconds = v.at("seconds").as_double();
  r.used_ilp = v.at("used_ilp").as_bool();
  r.ilp_skipped_too_large = v.at("ilp_skipped_too_large").as_bool();
  r.ilp_interrupted = v.at("ilp_interrupted").as_bool();
  r.ilp_deadline_clamped = v.at("ilp_deadline_clamped").as_bool();
  r.ilp_status = solve_status_from(v.at("ilp_status").as_string());
  r.ilp_objective = v.at("ilp_objective").as_double();
  r.ilp_bound = v.at("ilp_bound").as_double();
  r.ilp_variables = v.at("ilp_variables").as_int();
  r.ilp_constraints = v.at("ilp_constraints").as_int();
  r.ilp_nodes = v.at("ilp_nodes").as_long();
  r.ilp_presolve_rows_removed = v.at("ilp_presolve_rows_removed").as_int();
  r.ilp_cuts_added = v.at("ilp_cuts_added").as_int();
  r.ilp_root_bound = v.at("ilp_root_bound").as_double();
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
  r.best = sched::schedule_from_value(v.at("best"));
  return r;
}

void write_architecture(json_writer& w, const arch::arch_result& r) {
  w.begin_object();
  w.field_exact("seconds", r.seconds);
  w.field("attempts_used", r.attempts_used);
  w.field("interrupted", r.interrupted);
  w.field("used_ilp", r.used_ilp);
  w.field("ilp_status", to_string(r.ilp_status));
  w.field_exact("ilp_objective", r.ilp_objective);
  w.field_exact("ilp_bound", r.ilp_bound);
  w.field("ilp_variables", r.ilp_variables);
  w.field("ilp_constraints", r.ilp_constraints);
  w.key("chip");
  arch::write_chip(w, r.result);
  w.end_object();
}

/// The workload is not stored: it is re-derived from the schedule, which is
/// deterministic and keeps the documents lean.
[[nodiscard]] arch::arch_result architecture_from_value(
    const json_value& v, const sched::schedule& s) {
  arch::arch_result r;
  r.seconds = v.at("seconds").as_double();
  r.attempts_used = v.at("attempts_used").as_int();
  r.interrupted = v.at("interrupted").as_bool();
  r.used_ilp = v.at("used_ilp").as_bool();
  r.ilp_status = solve_status_from(v.at("ilp_status").as_string());
  r.ilp_objective = v.at("ilp_objective").as_double();
  r.ilp_bound = v.at("ilp_bound").as_double();
  r.ilp_variables = v.at("ilp_variables").as_int();
  r.ilp_constraints = v.at("ilp_constraints").as_int();
  r.result = arch::chip_from_value(v.at("chip"));
  r.workload = arch::derive_workload(s);
  return r;
}

void write_layout(json_writer& w, const phys::layout_result& r) {
  w.begin_object();
  w.field("dr_width", r.after_synthesis.width);
  w.field("dr_height", r.after_synthesis.height);
  w.field("de_width", r.after_devices.width);
  w.field("de_height", r.after_devices.height);
  w.field("dp_width", r.after_compression.width);
  w.field("dp_height", r.after_compression.height);
  w.field("compression_iterations", r.compression_iterations);
  w.field("bend_points", r.bend_points);
  w.field_exact("seconds", r.seconds);
  auto ints = [&w](const std::string& key, const std::vector<int>& values) {
    w.begin_array(key);
    for (int v : values) w.value(v);
    w.end_array();
  };
  ints("column_position", r.column_position);
  ints("row_position", r.row_position);
  ints("used_columns", r.used_columns);
  ints("used_rows", r.used_rows);
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
  r.seconds = v.at("seconds").as_double();
  auto ints = [&v](const char* key) {
    std::vector<int> out;
    for (const json_value& e : v.at(key).elements()) out.push_back(e.as_int());
    return out;
  };
  r.column_position = ints("column_position");
  r.row_position = ints("row_position");
  r.used_columns = ints("used_columns");
  r.used_rows = ints("used_rows");
  return r;
}

void write_stats(json_writer& w, const sim::sim_stats& s) {
  w.begin_object();
  w.field("makespan", s.makespan);
  w.field("operations", s.operations);
  w.field("transport_legs", s.transport_legs);
  w.field("cached_samples", s.cached_samples);
  w.field("max_active_segments", s.max_active_segments);
  w.field_exact("mean_active_segments", s.mean_active_segments);
  w.field("device_busy_time", s.device_busy_time);
  w.field_exact("device_utilization", s.device_utilization);
  w.end_object();
}

[[nodiscard]] sim::sim_stats stats_from_value(const json_value& v) {
  sim::sim_stats s;
  s.makespan = v.at("makespan").as_int();
  s.operations = v.at("operations").as_int();
  s.transport_legs = v.at("transport_legs").as_int();
  s.cached_samples = v.at("cached_samples").as_int();
  s.max_active_segments = v.at("max_active_segments").as_int();
  s.mean_active_segments = v.at("mean_active_segments").as_double();
  s.device_busy_time = v.at("device_busy_time").as_long();
  s.device_utilization = v.at("device_utilization").as_double();
  return s;
}

void write_baseline(json_writer& w, const baseline::baseline_result& b) {
  w.begin_object();
  w.field("makespan", b.makespan);
  w.field("storage_cells", b.storage_cells);
  w.field("unit_valves", b.unit_valves);
  w.field("chip_valves", b.chip_valves);
  w.field("total_valves", b.total_valves);
  w.field("used_edges", b.used_edges);
  w.field_exact("seconds", b.seconds);
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
  b.seconds = v.at("seconds").as_double();
  b.retimed = sched::schedule_from_value(v.at("retimed"));
  return b;
}

void write_checkpoint_state(json_writer& w, const sim::checkpoint& cp) {
  w.begin_object();
  w.key("faults");
  arch::write_fault_set(w, cp.faults);
  w.field("fault_time", cp.fault_time);
  auto ints = [&w](const std::string& key, const std::vector<int>& values) {
    w.begin_array(key);
    for (int v : values) w.value(v);
    w.end_array();
  };
  ints("completed", cp.completed);
  ints("in_flight", cp.in_flight);
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
  auto ints = [&v](const char* key) {
    std::vector<int> out;
    for (const json_value& e : v.at(key).elements()) out.push_back(e.as_int());
    return out;
  };
  cp.completed = ints("completed");
  cp.in_flight = ints("in_flight");
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

void write_header(json_writer& w, const char* kind,
                  const assay::sequencing_graph& graph,
                  const pipeline_options& options) {
  w.field("format", flow_format_version);
  w.field("kind", kind);
  w.key("graph");
  write_graph(w, graph);
  w.key("options");
  write_options(w, options);
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

/// Common prefix of every stage document: graph, options, scheduling (with
/// the schedule re-validated against the graph).
struct stage_parts {
  std::shared_ptr<detail::job_state> state;
  std::shared_ptr<sched::scheduling_result> scheduling;
};

[[nodiscard]] stage_parts parts_from(const json_value& doc) {
  stage_parts parts;
  parts.state = std::make_shared<detail::job_state>();
  parts.state->graph = graph_from_value(doc.at("graph"));
  parts.state->options = options_from_value(doc.at("options"));
  parts.scheduling = std::make_shared<sched::scheduling_result>(
      scheduling_from_value(doc.at("scheduling")));
  parts.scheduling->best.validate(parts.state->graph);
  return parts;
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
  w.field("schedule_engine", to_string(o.schedule_engine));
  w.field_exact("sched_ilp_time_limit", o.sched_ilp_time_limit);
  w.field("heuristic_restarts", o.heuristic_restarts);
  w.field("local_search_iterations", o.local_search_iterations);
  w.field("arch_engine", to_string(o.arch_engine));
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
      o.schedule_engine = schedule_engine_from(value.as_string());
    else if (key == "sched_ilp_time_limit")
      o.sched_ilp_time_limit = value.as_double();
    else if (key == "heuristic_restarts")
      o.heuristic_restarts = value.as_int();
    else if (key == "local_search_iterations")
      o.local_search_iterations = value.as_int();
    else if (key == "arch_engine")
      o.arch_engine = arch_engine_from(value.as_string());
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
  write_header(w, "flow", graph, options);
  w.key("scheduling");
  write_scheduling(w, flow.scheduling);
  w.key("architecture");
  write_architecture(w, flow.architecture);
  w.key("layout");
  write_layout(w, flow.layout);
  if (flow.stats) {
    w.key("stats");
    write_stats(w, *flow.stats);
  }
  if (flow.baseline) {
    w.key("baseline");
    write_baseline(w, *flow.baseline);
  }
  w.field_exact("total_seconds", flow.total_seconds);
  w.end_object();
  return w.str();
}

result<flow_document> deserialize_flow(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "flow");
    flow_document out;
    out.graph = graph_from_value(doc.at("graph"));
    out.options = options_from_value(doc.at("options"));
    out.flow.scheduling = scheduling_from_value(doc.at("scheduling"));
    out.flow.scheduling.best.validate(out.graph);
    out.flow.architecture = architecture_from_value(
        doc.at("architecture"), out.flow.scheduling.best);
    out.flow.architecture.result.validate(out.flow.architecture.workload);
    out.flow.layout = layout_from_value(doc.at("layout"));
    if (const json_value* stats = doc.find("stats"))
      out.flow.stats = stats_from_value(*stats);
    if (const json_value* baseline = doc.find("baseline"))
      out.flow.baseline = baseline_from_value(*baseline);
    out.flow.total_seconds = doc.at("total_seconds").as_double();
    return result<flow_document>::success(std::move(out));
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
  write_header(w, "checkpoint", graph, options);
  w.key("scheduling");
  write_scheduling(w, flow.scheduling);
  w.key("architecture");
  write_architecture(w, flow.architecture);
  w.key("layout");
  write_layout(w, flow.layout);
  if (flow.stats) {
    w.key("stats");
    write_stats(w, *flow.stats);
  }
  if (flow.baseline) {
    w.key("baseline");
    write_baseline(w, *flow.baseline);
  }
  w.field_exact("total_seconds", flow.total_seconds);
  w.key("checkpoint");
  write_checkpoint_state(w, state);
  w.end_object();
  return w.str();
}

result<checkpoint_document> deserialize_checkpoint(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "checkpoint");
    checkpoint_document out;
    out.graph = graph_from_value(doc.at("graph"));
    out.options = options_from_value(doc.at("options"));
    out.flow.scheduling = scheduling_from_value(doc.at("scheduling"));
    out.flow.scheduling.best.validate(out.graph);
    out.flow.architecture = architecture_from_value(
        doc.at("architecture"), out.flow.scheduling.best);
    out.flow.architecture.result.validate(out.flow.architecture.workload);
    out.flow.layout = layout_from_value(doc.at("layout"));
    if (const json_value* stats = doc.find("stats"))
      out.flow.stats = stats_from_value(*stats);
    if (const json_value* baseline = doc.find("baseline"))
      out.flow.baseline = baseline_from_value(*baseline);
    out.flow.total_seconds = doc.at("total_seconds").as_double();
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
  write_header(w, "stage.scheduled", stage.graph(),
               detail::stage_access::state(stage).options);
  w.key("scheduling");
  write_scheduling(w, stage.scheduling());
  w.end_object();
  return w.str();
}

std::string serialize_stage(const synthesized& stage) {
  json_writer w;
  w.begin_object();
  write_header(w, "stage.synthesized", stage.graph(),
               detail::stage_access::state(stage).options);
  w.key("scheduling");
  write_scheduling(w, stage.scheduling());
  w.key("architecture");
  write_architecture(w, detail::stage_access::architecture(stage));
  w.end_object();
  return w.str();
}

std::string serialize_stage(const compressed& stage) {
  json_writer w;
  w.begin_object();
  write_header(w, "stage.compressed", stage.graph(),
               detail::stage_access::state(stage).options);
  w.key("scheduling");
  write_scheduling(w, stage.scheduling());
  w.key("architecture");
  write_architecture(w, detail::stage_access::architecture(stage));
  w.key("layout");
  write_layout(w, detail::stage_access::layout(stage));
  w.end_object();
  return w.str();
}

result<scheduled> deserialize_scheduled(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "stage.scheduled");
    stage_parts parts = parts_from(doc);
    return result<scheduled>::success(detail::stage_access::make_scheduled(
        std::move(parts.state), std::move(parts.scheduling)));
  } catch (...) {
    return failure_from_current_exception<scheduled>();
  }
}

result<synthesized> deserialize_synthesized(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "stage.synthesized");
    stage_parts parts = parts_from(doc);
    auto architecture = std::make_shared<arch::arch_result>(
        architecture_from_value(doc.at("architecture"),
                                parts.scheduling->best));
    architecture->result.validate(architecture->workload);
    return result<synthesized>::success(
        detail::stage_access::make_synthesized(std::move(parts.state),
                                               std::move(parts.scheduling),
                                               std::move(architecture)));
  } catch (...) {
    return failure_from_current_exception<synthesized>();
  }
}

result<compressed> deserialize_compressed(const std::string& text) {
  try {
    const json_value doc = parse_document(text, "stage.compressed");
    stage_parts parts = parts_from(doc);
    auto architecture = std::make_shared<arch::arch_result>(
        architecture_from_value(doc.at("architecture"),
                                parts.scheduling->best));
    architecture->result.validate(architecture->workload);
    auto layout = std::make_shared<phys::layout_result>(
        layout_from_value(doc.at("layout")));
    return result<compressed>::success(detail::stage_access::make_compressed(
        std::move(parts.state), std::move(parts.scheduling),
        std::move(architecture), std::move(layout)));
  } catch (...) {
    return failure_from_current_exception<compressed>();
  }
}

} // namespace transtore::api
