// Versioned, full-fidelity (de)serialization for the pipeline's value
// types, so schedules, chips, and whole stage values survive a process
// boundary:
//
//   * flow documents  -- graph + options + every stage output of one run
//     ({"format":2,"kind":"flow",...}); the unit the result cache stores
//     and `transtore_cli serve` replies with. serialize -> deserialize ->
//     serialize is byte-identical, and so are the documents of two fresh
//     solves that do not stop on the wall clock: no document holds a
//     wall-clock time.
//   * checkpoint documents -- a flow document plus one `checkpoint` member
//     (the frozen execution state at a fault time).
//   * stage documents -- a scheduled/synthesized/compressed stage value
//     with everything needed to resume the pipeline in another process:
//     deserialize_scheduled(doc)->synthesize(ctx) continues where the
//     serializing process stopped.
//   * building blocks -- graph and pipeline_options readers/writers, also
//     used by the service front end to parse requests (options_from_value
//     applies partial overrides on top of a base configuration).
//
// Each field of a result has one writer and one reader, here. The reports
// (api::to_json and the stage to_json()s, defined in serialize.cpp) print
// the same fields through the same writers, plus derived summaries and,
// when timed, the wall-clock seconds. Result doubles are shortest
// round-trip numbers, or the strings "inf", "-inf" and "nan" (an unsettled
// MILP root reports a -inf bound).
//
// The schedule and chip payloads embed the sched/schedule_io.h and
// arch/chip_io.h object layouts. The routing workload is not stored: it is
// a deterministic derivation of the schedule (arch::derive_workload) and is
// rebuilt on load.
#pragma once

#include <string>

#include "api/pipeline.h"
#include "api/result.h"
#include "common/json.h"
#include "sim/fault_injector.h"

namespace transtore::api {

/// Version stamp shared by flow, checkpoint and stage documents. Format 2
/// dropped the wall-clock seconds and spelled non-finite doubles; a
/// document of another version reads as invalid_input (a cache miss).
inline constexpr int flow_format_version = 2;

// ---------------------------------------------------------- building blocks

/// Graph as one JSON object: {"name":...,"ops":[{name,duration,parents}]}.
void write_graph(json_writer& w, const assay::sequencing_graph& g);
[[nodiscard]] assay::sequencing_graph graph_from_value(const json_value& v);

/// Every pipeline_options field as one JSON object (doubles rendered
/// round-trip exact).
void write_options(json_writer& w, const pipeline_options& o);

/// Reads options from `v`, starting from `base` and overriding only the
/// keys present -- the service front end's partial-override semantics.
/// Throws invalid_input_error on unknown keys or malformed values.
[[nodiscard]] pipeline_options options_from_value(const json_value& v,
                                                  pipeline_options base = {});

// ----------------------------------------------------------- flow documents

/// A deserialized flow document: the run's identity plus its full result.
struct flow_document {
  assay::sequencing_graph graph;
  pipeline_options options;
  flow_result flow;
};

[[nodiscard]] std::string serialize_flow(const assay::sequencing_graph& graph,
                                         const pipeline_options& options,
                                         const flow_result& flow);
[[nodiscard]] result<flow_document> deserialize_flow(const std::string& text);

// ----------------------------------------------------- checkpoint documents

/// A deserialized checkpoint document: the faulted run's identity, its
/// original (pre-fault) result, and the frozen execution state at the fault
/// time. api::recover resumes from this in any process -- the
/// cross-process analogue of handing recover() the in-memory pieces.
struct checkpoint_document : flow_document {
  sim::checkpoint state;
};

[[nodiscard]] std::string serialize_checkpoint(
    const assay::sequencing_graph& graph, const pipeline_options& options,
    const flow_result& flow, const sim::checkpoint& state);
[[nodiscard]] result<checkpoint_document> deserialize_checkpoint(
    const std::string& text);

// ---------------------------------------------------------- stage documents

[[nodiscard]] std::string serialize_stage(const scheduled& stage);
[[nodiscard]] std::string serialize_stage(const synthesized& stage);
[[nodiscard]] std::string serialize_stage(const compressed& stage);

[[nodiscard]] result<scheduled> deserialize_scheduled(const std::string& text);
[[nodiscard]] result<synthesized> deserialize_synthesized(
    const std::string& text);
[[nodiscard]] result<compressed> deserialize_compressed(
    const std::string& text);

} // namespace transtore::api
