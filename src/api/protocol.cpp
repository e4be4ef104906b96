#include "api/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "api/recover.h"
#include "api/result_cache.h"
#include "api/serialize.h"
#include "assay/benchmarks.h"
#include "assay/io.h"
#include "common/json.h"
#include "sim/fault_injector.h"

namespace transtore::api {
namespace {

std::string error_reply(const std::string& id_raw, const char* code,
                        const std::string& message) {
  json_writer w;
  w.begin_object();
  if (!id_raw.empty()) w.key("id").value_raw(id_raw);
  w.field("status", code);
  w.field("message", message);
  w.end_object();
  return w.str();
}

std::string stats_reply(const std::string& id_raw, const executor& pool,
                        const serve_front* front) {
  // Both snapshots are internally atomic: occupancy (entries/bytes,
  // pending/running) is captured under the same lock as the counters, so
  // the cross-invariants (lookups == hits + misses, submitted ==
  // completed + running + pending + unredeemed) hold in every response no
  // matter what runs concurrently.
  const cache_stats stats = pool.cache()->stats();
  const executor_stats exec = pool.stats();
  json_writer w;
  w.begin_object();
  if (!id_raw.empty()) w.key("id").value_raw(id_raw);
  w.field("status", "ok");
  w.field("op", "stats");
  w.key("cache").begin_object();
  w.field("lookups", static_cast<long>(stats.lookups));
  w.field("memory_hits", static_cast<long>(stats.memory_hits));
  w.field("disk_hits", static_cast<long>(stats.disk_hits));
  w.field("misses", static_cast<long>(stats.misses));
  w.field("coalesced_hits", static_cast<long>(stats.coalesced_hits));
  w.field("stores", static_cast<long>(stats.stores));
  w.field("evictions", static_cast<long>(stats.evictions));
  w.field("bytes_evicted", static_cast<long>(stats.bytes_evicted));
  w.field("disk_errors", static_cast<long>(stats.disk_errors));
  w.field("negative_hits", static_cast<long>(stats.negative_hits));
  w.field("negative_stores", static_cast<long>(stats.negative_stores));
  w.field("negative_evictions", static_cast<long>(stats.negative_evictions));
  w.field("negative_entries", static_cast<long>(stats.negative_entries));
  w.field("entries", static_cast<long>(stats.entries));
  w.field("bytes", static_cast<long>(stats.bytes));
  w.end_object();
  w.key("executor").begin_object();
  w.field("workers", pool.workers());
  w.field("pending", static_cast<long>(exec.pending));
  w.field("running", static_cast<long>(exec.running));
  w.field("submitted", static_cast<long>(exec.submitted));
  w.field("completed", static_cast<long>(exec.completed));
  w.field("rejected_queue_full", static_cast<long>(exec.rejected_queue_full));
  w.field("cache_hits", static_cast<long>(exec.cache_hits));
  w.end_object();
  if (front != nullptr) {
    const serve_stats s = front->stats();
    w.key("serve").begin_object();
    w.field("connections_accepted", static_cast<long>(s.connections_accepted));
    w.field("connections_open", static_cast<long>(s.connections_open));
    w.field("requests", static_cast<long>(s.requests));
    w.field("responses", static_cast<long>(s.responses));
    w.field("shed", static_cast<long>(s.shed));
    w.field("framing_errors", static_cast<long>(s.framing_errors));
    w.field("bytes_in", static_cast<long>(s.bytes_in));
    w.field("bytes_out", static_cast<long>(s.bytes_out));
    w.begin_array("connection_requests");
    for (const std::uint64_t r : s.open_connection_requests)
      w.value(static_cast<long>(r));
    w.end_array();
    w.key("latency").begin_object();
    for (const auto& [op, h] : s.latency) {
      w.key(op).begin_object();
      w.field("count", static_cast<long>(h.count));
      w.field("total_ms", h.total_ms);
      w.field("max_ms", h.max_ms);
      w.begin_array("buckets");
      for (const std::uint64_t b : h.buckets) w.value(static_cast<long>(b));
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  // Legacy top-level mirrors of the executor snapshot.
  w.field("workers", pool.workers());
  w.field("pending", static_cast<long>(exec.pending));
  w.end_object();
  return w.str();
}

/// One synth or recover request admitted to the executor, waiting for its
/// (base) synthesis to resolve.
struct admitted_job {
  std::string id_raw;
  executor::ticket ticket = 0;
  assay::sequencing_graph graph; // identity for best-effort documents
  pipeline_options options;
  bool recovering = false;
  // recover only: the requested fault ("auto" = pick a survivable one).
  bool fault_auto = true;
  arch::fault_set faults;
  double fault_at = 0.5;
};

std::string synth_reply(const admitted_job& job, const job_outcome& outcome) {
  json_writer w;
  w.begin_object();
  if (!job.id_raw.empty()) w.key("id").value_raw(job.id_raw);
  w.field("status", to_string(outcome.code));
  if (!outcome.message.empty()) w.field("message", outcome.message);
  w.field("assay", outcome.name);
  w.field("cache_hit", outcome.cache_hit);
  w.field("seconds", outcome.seconds);
  if (outcome.result_json)
    w.key("result").value_raw(*outcome.result_json);
  else if (outcome.flow)
    // Best-effort outcomes (time_limit/cancelled) are not cached, so no
    // stored document exists; serialize on the fly.
    w.key("result").value_raw(
        serialize_flow(job.graph, job.options, *outcome.flow));
  w.end_object();
  return w.str();
}

/// Canonical negative-cache scenario tag for one (faults, fault_time).
std::string scenario_tag(const arch::fault_set& f, int fault_time) {
  auto ints = [](const char* label, const std::vector<int>& ids) {
    std::string out;
    if (ids.empty()) return out;
    out += std::string(" ") + label + "=";
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(ids[i]);
    }
    return out;
  };
  return "recover t=" + std::to_string(fault_time) +
         ints("devices", f.devices) + ints("valves", f.valves) +
         ints("edges", f.edges) + ints("storage", f.storage);
}

/// The reply to a `recover` request once its base synthesis resolved. Runs
/// on the writer thread: the recovery ladder is cheap next to a cold
/// synthesis, and replies stay in request order.
std::string recover_reply(const admitted_job& job, const job_outcome& outcome,
                          result_cache& cache) {
  if (!outcome.flow || outcome.code != status::ok)
    return error_reply(job.id_raw, to_string(outcome.code),
                       outcome.message.empty()
                           ? "base synthesis did not complete"
                           : outcome.message);
  const flow_result& flow = *outcome.flow;
  const sched::schedule& s = flow.scheduling.best;

  recovery_request req;
  req.graph = job.graph;
  req.options = job.options;
  req.original = flow;
  if (job.fault_auto) {
    const auto scenario = sim::choose_fault_scenario(
        job.graph, s, flow.architecture.result, flow.architecture.workload,
        job.fault_at);
    if (!scenario)
      return error_reply(job.id_raw, "infeasible",
                         "no survivable fault scenario for this design");
    req.faults = scenario->faults;
    req.fault_time = scenario->fault_time;
  } else {
    req.faults = job.faults;
    req.fault_time = std::max(
        0, static_cast<int>(std::floor(s.makespan() * job.fault_at)));
  }
  req.faults.normalize();

  // Recovery outcomes are deterministic per (graph, options, scenario):
  // structurally impossible recoveries are answered from the negative tier.
  const cache_key key = make_cache_key(
      job.graph, job.options, scenario_tag(req.faults, req.fault_time));
  if (const auto negative = cache.lookup_negative(key))
    return error_reply(job.id_raw, to_string(negative->code),
                       negative->message);

  auto rec = recover(req);
  if (!rec.has_value()) {
    cache.store_negative(
        key, result_cache::negative_entry{rec.code(), rec.message()});
    return error_reply(job.id_raw, to_string(rec.code()), rec.message());
  }
  const recovery_result& r = rec.value();
  json_writer w;
  w.begin_object();
  if (!job.id_raw.empty()) w.key("id").value_raw(job.id_raw);
  w.field("status", to_string(rec.code()));
  if (!rec.message().empty()) w.field("message", rec.message());
  w.field("assay", job.graph.name());
  w.field("cache_hit", outcome.cache_hit);
  w.field("rung", to_string(r.rung));
  w.field("fault_time", r.fault_time);
  w.field("original_makespan", r.original_makespan);
  w.field("recovered_makespan", r.recovered_makespan);
  w.field("completed", static_cast<long>(r.completed_ops.size()));
  w.field("rescheduled", static_cast<long>(r.rescheduled_ops.size()));
  w.key("recovery").value_raw(to_json(job.graph, job.options, r));
  w.end_object();
  return w.str();
}

std::string raw_id(const json_value& request) {
  const json_value* id = request.find("id");
  if (id == nullptr) return "";
  json_writer w;
  write_value(w, *id);
  return w.str();
}

/// Best-effort extraction of the request's raw "id" member, for replies
/// built without admission (load shedding happens before the request body
/// is interpreted).
std::string request_id_raw(const std::string& line) {
  try {
    const json_value req = json_value::parse(line);
    return req.is_object() ? raw_id(req) : "";
  } catch (...) {
    return "";
  }
}

void log_outcome(const protocol_options& config, const admitted_job& job,
                 const job_outcome& outcome) {
  if (!config.log) return;
  char line[256];
  if (job.recovering)
    std::snprintf(line, sizeof(line), "[serve] %-6s recover (base %s, %s)",
                  outcome.name.c_str(), to_string(outcome.code),
                  outcome.cache_hit ? "hit" : "miss");
  else
    std::snprintf(line, sizeof(line), "[serve] %-6s %-10s %s %.2fs",
                  outcome.name.c_str(), to_string(outcome.code),
                  outcome.cache_hit ? "hit " : "miss", outcome.seconds);
  config.log(line);
}

/// Parse and admit one request line; never blocks on a solve.
serve_reply admit(const std::shared_ptr<const protocol_options>& config,
                  executor& pool, const std::string& line,
                  const serve_request_info& info) {
  serve_reply reply;
  if (info.overloaded) {
    reply.op = "shed";
    reply.shed = true;
    reply.line = error_reply(
        request_id_raw(line), "queue_full",
        "connection " + std::to_string(info.connection) + " has " +
            std::to_string(info.inflight) + " responses in flight (cap " +
            std::to_string(info.max_inflight) +
            "); wait for a response before sending more");
    return reply;
  }
  std::string id_raw;
  try {
    const json_value req = json_value::parse(line);
    require(req.is_object(), "request must be a JSON object");
    id_raw = raw_id(req);
    const json_value* op = req.find("op");
    const std::string name = op ? op->as_string() : "synth";

    if (name == "stats") {
      reply.op = "stats";
      const serve_front* front = info.front;
      reply.finish = [id_raw, &pool, front] {
        return stats_reply(id_raw, pool, front);
      };
      return reply;
    }
    if (name == "ping" || name == "shutdown") {
      reply.op = name;
      json_writer w;
      w.begin_object();
      if (!id_raw.empty()) w.key("id").value_raw(id_raw);
      w.field("status", "ok");
      w.field("op", name);
      w.end_object();
      reply.line = w.str();
      reply.shutdown_server = reply.close_connection = name == "shutdown";
      return reply;
    }
    if (name != "synth" && name != "recover") {
      reply.line = error_reply(id_raw, "invalid_input",
                               "unknown op \"" + name + "\"");
      return reply;
    }
    auto admitted = std::make_shared<admitted_job>();
    admitted->id_raw = id_raw;
    admitted->recovering = name == "recover";
    reply.op = name;

    // Graph: a built-in name, or an inline assay in the io.h text format.
    const json_value* assay_name = req.find("assay");
    const json_value* graph_text = req.find("graph");
    if ((assay_name != nullptr) == (graph_text != nullptr)) {
      reply.line = error_reply(
          id_raw, "invalid_input",
          name + " request needs exactly one of \"assay\" (built-in name) "
          "or \"graph\" (sequencing-graph text)");
      return reply;
    }

    job j;
    pipeline_options base = config->base;
    if (assay_name != nullptr) {
      const std::string& assay = assay_name->as_string();
      if (assay::find_benchmark_resources(assay) == nullptr) {
        reply.line = error_reply(id_raw, "invalid_input",
                                 "unknown built-in assay \"" + assay +
                                     "\" (see bench-names)");
        return reply;
      }
      j.graph = assay::make_benchmark(assay);
      // The paper's per-assay resource table, unless the server pins it.
      apply_benchmark_resources(base, assay, config->devices_pinned,
                                config->grid_pinned);
    } else {
      j.graph = assay::parse_sequencing_graph(graph_text->as_string());
    }

    const json_value* options = req.find("options");
    j.options = options ? options_from_value(*options, base) : base;
    if (const json_value* priority = req.find("priority"))
      j.priority = priority->as_int();

    if (admitted->recovering) {
      // The injected fault: "auto" (default) or an explicit resource set.
      if (const json_value* at = req.find("at")) {
        admitted->fault_at = at->as_double();
        require(admitted->fault_at >= 0.0 && admitted->fault_at <= 1.0,
                "\"at\" must be a fraction in [0, 1]");
      }
      if (const json_value* fault = req.find("fault")) {
        if (fault->is_string()) {
          require(fault->as_string() == "auto",
                  "\"fault\" must be \"auto\" or a fault object");
        } else {
          // A partial object is fine: absent resource kinds are healthy.
          admitted->fault_auto = false;
          auto ints = [](const json_value* a) {
            std::vector<int> out;
            if (a != nullptr)
              for (const json_value& e : a->elements())
                out.push_back(e.as_int());
            return out;
          };
          arch::fault_set& f = admitted->faults;
          f.devices = ints(fault->find("devices"));
          f.valves = ints(fault->find("valves"));
          f.edges = ints(fault->find("edges"));
          f.storage = ints(fault->find("storage"));
          require(!f.empty(), "\"fault\" names no resources");
        }
      }
    }

    run_context ctx;
    if (const json_value* deadline = req.find("deadline"))
      ctx.set_deadline(deadline->as_double());
    else if (config->deadline_seconds > 0.0)
      ctx.set_deadline(config->deadline_seconds);

    admitted->graph = j.graph;
    admitted->options = j.options;
    auto ticket = pool.submit(std::move(j), ctx);
    if (!ticket.has_value()) {
      reply.shed = ticket.code() == status::queue_full;
      reply.line =
          error_reply(id_raw, to_string(ticket.code()), ticket.message());
      return reply;
    }
    admitted->ticket = ticket.value();
    reply.finish = [config, admitted, &pool] {
      const job_outcome outcome = pool.wait(admitted->ticket);
      log_outcome(*config, *admitted, outcome);
      if (admitted->recovering)
        return recover_reply(*admitted, outcome, *pool.cache());
      return synth_reply(*admitted, outcome);
    };
  } catch (const ts_error& e) {
    reply.line = error_reply(id_raw, "invalid_input", e.what());
  } catch (const std::exception& e) {
    reply.line = error_reply(id_raw, "internal", e.what());
  }
  return reply;
}

} // namespace

serve_handler make_protocol_handler(protocol_options options, executor& pool) {
  require(pool.cache() != nullptr,
          "make_protocol_handler: the executor needs a result cache");
  auto config = std::make_shared<const protocol_options>(std::move(options));
  return [config, &pool](const std::string& line,
                         const serve_request_info& info) {
    return admit(config, pool, line, info);
  };
}

std::string protocol_error(const char* code, const std::string& message) {
  return error_reply("", code, message);
}

void apply_benchmark_resources(pipeline_options& options,
                               const std::string& assay, bool devices_pinned,
                               bool grid_pinned) {
  const assay::benchmark_resources* r = assay::find_benchmark_resources(assay);
  if (r == nullptr) return;
  if (!devices_pinned) options.device_count = r->devices;
  if (!grid_pinned) options.grid_width = options.grid_height = r->grid;
}

} // namespace transtore::api
