// transtore_cli: command-line front end for the whole library, built on the
// staged api::pipeline / api::executor surface.
//
//   transtore_cli synth  <assay|file.sg> [options]   full synthesis flow
//   transtore_cli synth  --all [options]             every built-in assay
//                                                    through the batch executor
//   transtore_cli sched  <assay|file.sg> [options]   scheduling only
//   transtore_cli serve  [options]                   long-lived service:
//                                                    line-delimited JSON
//                                                    requests on stdin,
//                                                    responses on stdout
//   transtore_cli show   <assay|file.sg>             print the DAG (DOT)
//   transtore_cli bench-names                        list built-in assays
//
// Options:
//   --devices N     mixers on the chip (default 1; per-assay table for --all)
//   --grid WxH      connection grid (default 4x4; per-assay table for --all)
//   --engine E      scheduling engine: heuristic|ilp|combined (default)|
//                   sa|grasp (metaheuristics; see src/sched/README.md)
//   --beta B        storage weight in objective (6) (default 0.15)
//   --time-only     disable storage optimization (Fig. 9 baseline)
//   --baseline      also evaluate the dedicated-storage unit
//   --json FILE|-   write the machine-readable report ("-" = stdout)
//   --svg FILE      write the compacted layout
//   --seed S        random seed (default 1)
//   --deadline S    wall-clock budget in seconds; a hit returns the
//                   best-effort result and exits 3 (distinct from errors)
//   --workers N     executor worker threads for --all / serve (default 2)
//   --threads N     MILP solver threads for the tree search (default 1;
//                   0 = all cores). Under --all / serve the executor caps
//                   each job so workers x threads stays within the
//                   machine's cores (see api/README.md)
//   --deterministic round-synchronized parallel search: bit-identical
//                   results at any --threads value
//   --queue N       serve: bounded pending-job queue; overflow requests are
//                   rejected with status "queue_full" (0 = unbounded)
//   --cache-capacity N  in-memory result-cache entries (default 64;
//                   serve, or synth together with --cache-dir -- synth
//                   only builds a cache when a disk tier is requested)
//   --cache-dir DIR on-disk result-cache tier (synth and serve); a warm
//                   (graph, options) pair is a lookup instead of a solve
//   --fault SPEC    synth: after synthesis, inject SPEC at ~50%% of the
//                   schedule and run the api::recover retry ladder. SPEC is
//                   "auto" (a survivable device+storage scenario is chosen)
//                   or comma-separated tokens device:N valve:N edge:N
//                   storage:N. With --json the recovery document is written
//                   instead of the flow document.
//
// Exit codes: 0 success (including degraded recoveries); 1 synthesis
// failure (capacity/infeasible/internal); 2 usage or input errors; 3
// deadline hit / cancelled (best-effort results, when available, are still
// printed).
//
// serve speaks the line-delimited JSON protocol of src/api/protocol.h
// (schema in src/api/README.md) on stdin/stdout, or with --socket PATH /
// --tcp PORT on listeners that multiplex many connections:
//   {"id":1,"op":"synth","assay":"PCR","options":{...},"deadline":30}
//   {"id":2,"op":"recover","assay":"PCR","at":0.5,"fault":"auto"}
//   {"op":"stats"} | {"op":"ping"} | {"op":"shutdown"}
//
// <assay> is a built-in name (PCR, IVD, CPA, RA30, RA70, RA100) or a path
// to a sequencing-graph file in the src/assay/io.h text format.
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/executor.h"
#include "api/pipeline.h"
#include "api/protocol.h"
#include "api/recover.h"
#include "api/result_cache.h"
#include "api/serve.h"
#include "arch/fault.h"
#include "assay/benchmarks.h"
#include "assay/io.h"
#include "phys/layout.h"
#include "sim/fault_injector.h"

namespace {

using namespace transtore;

int usage() {
  std::fprintf(
      stderr,
      "usage: transtore_cli <synth|sched|serve|show|bench-names> "
      "[assay|--all]\n"
      "       [--devices N] [--grid WxH]\n"
      "       [--engine heuristic|ilp|combined|sa|grasp]\n"
      "       [--beta B] [--time-only] [--baseline] [--json FILE|-]\n"
      "       [--svg FILE] [--seed S] [--deadline S] [--workers N]\n"
      "       [--threads N] [--deterministic]\n"
      "       [--queue N] [--cache-capacity N] [--cache-bytes N]\n"
      "       [--cache-dir DIR] [--socket PATH] [--tcp PORT]\n"
      "       [--max-inflight N]\n"
      "       [--fault auto|device:N,valve:N,edge:N,storage:N]\n");
  return 2;
}

std::optional<assay::sequencing_graph> load_assay(const std::string& spec) {
  if (assay::find_benchmark_resources(spec) != nullptr)
    return assay::make_benchmark(spec);
  try {
    return assay::load_sequencing_graph(spec);
  } catch (const ts_error& e) {
    std::fprintf(stderr,
                 "error: cannot load assay '%s': %s\n"
                 "       (expected a built-in name -- PCR IVD CPA RA30 RA70 "
                 "RA100 -- or a readable .sg file)\n",
                 spec.c_str(), e.what());
    return std::nullopt;
  }
}

struct cli_args {
  std::string assay_spec;
  bool all = false;
  api::pipeline_options options = [] {
    api::pipeline_options o;
    // Storage-heavy assays (RA70) cannot route on the paper's grid with
    // every seed; retry up to two sizes up instead of failing. The grid
    // actually used is visible in the report/JSON. Identical for single
    // and --all runs so their metrics stay comparable.
    o.grid_growth = 2;
    return o;
  }();
  bool devices_set = false;
  bool grid_set = false;
  std::string json_path;
  std::string svg_path;
  double deadline_seconds = 0.0;
  int workers = 2;
  std::size_t queue_capacity = 0;
  std::size_t cache_capacity = 64;
  std::size_t cache_bytes = 0; // 0 = entry-count bound only
  std::string cache_dir;
  // serve transport: default is stdio; --socket/--tcp switch to the
  // multi-connection listener front end.
  std::string socket_path;
  int tcp_port = -1;
  std::size_t max_inflight = 0; // per-connection backpressure cap
  // --fault: inject after synthesis and run the recovery ladder.
  bool fault_requested = false;
  bool fault_auto = false;
  arch::fault_set faults;
};

/// Parse a --fault SPEC: "auto" or comma-separated kind:id tokens.
bool parse_fault_spec(const std::string& spec, cli_args& args) {
  args.fault_requested = true;
  if (spec == "auto") {
    args.fault_auto = true;
    return true;
  }
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    const std::size_t colon = token.find(':');
    char* end = nullptr;
    const long id = colon == std::string::npos
                        ? -1
                        : std::strtol(token.c_str() + colon + 1, &end, 10);
    if (colon == std::string::npos || end == token.c_str() + colon + 1 ||
        *end != '\0' || id < 0) {
      std::fprintf(stderr,
                   "error: --fault token '%s' is not kind:id (kinds: device "
                   "valve edge storage; id >= 0)\n",
                   token.c_str());
      return false;
    }
    const std::string kind = token.substr(0, colon);
    if (kind == "device") args.faults.devices.push_back(static_cast<int>(id));
    else if (kind == "valve") args.faults.valves.push_back(static_cast<int>(id));
    else if (kind == "edge") args.faults.edges.push_back(static_cast<int>(id));
    else if (kind == "storage")
      args.faults.storage.push_back(static_cast<int>(id));
    else {
      std::fprintf(stderr,
                   "error: --fault kind '%s' unknown (device valve edge "
                   "storage)\n",
                   kind.c_str());
      return false;
    }
  }
  if (args.faults.empty()) {
    std::fprintf(stderr, "error: --fault spec '%s' names no resources\n",
                 spec.c_str());
    return false;
  }
  return true;
}

/// Result cache per the CLI flags, or null when nothing asked for one
/// (synth paths only attach a cache when --cache-dir is given; serve always
/// runs with at least the in-memory tier).
std::shared_ptr<api::result_cache> make_cache(const cli_args& args,
                                              bool always) {
  if (args.cache_dir.empty() && !always) return nullptr;
  api::result_cache_options co;
  co.memory_entries = args.cache_capacity;
  co.disk_dir = args.cache_dir;
  co.memory_bytes = args.cache_bytes;
  return std::make_shared<api::result_cache>(co);
}

/// Parse an integer flag value in [min, max] into `out`; false (after
/// printing "error: <flag> expects <expects>, got '<value>'") otherwise.
template <typename T>
bool parse_count(const std::string& flag, const char* value,
                 const char* expects, T& out, long long min,
                 long long max = LLONG_MAX) {
  char* end = nullptr;
  const long long n = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || n < min || n > max) {
    std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag.c_str(),
                 expects, value);
    return false;
  }
  out = static_cast<T>(n);
  return true;
}

/// Parse flags from argv[from..). Returns false (after a diagnostic) on
/// unknown options or malformed values.
bool parse_flags(int argc, char** argv, int from, cli_args& args) {
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if (arg == "--devices") {
      if ((value = next()) == nullptr) return false;
      args.options.device_count = std::atoi(value);
      args.devices_set = true;
    } else if (arg == "--grid") {
      if ((value = next()) == nullptr) return false;
      const std::string dims = value;
      const auto x = dims.find('x');
      if (x == std::string::npos) {
        std::fprintf(stderr, "error: --grid expects WxH, got '%s'\n",
                     dims.c_str());
        return false;
      }
      args.options.grid_width = std::atoi(dims.substr(0, x).c_str());
      args.options.grid_height = std::atoi(dims.substr(x + 1).c_str());
      args.grid_set = true;
    } else if (arg == "--engine") {
      if ((value = next()) == nullptr) return false;
      const std::string engine = value;
      if (engine == "heuristic")
        args.options.schedule_engine = sched::schedule_engine::heuristic;
      else if (engine == "ilp")
        args.options.schedule_engine = sched::schedule_engine::ilp;
      else if (engine == "combined")
        args.options.schedule_engine = sched::schedule_engine::combined;
      else if (engine == "sa")
        args.options.schedule_engine = sched::schedule_engine::sa;
      else if (engine == "grasp")
        args.options.schedule_engine = sched::schedule_engine::grasp;
      else {
        std::fprintf(stderr,
                     "error: --engine expects heuristic|ilp|combined|sa|"
                     "grasp, got '%s'\n",
                     engine.c_str());
        return false;
      }
    } else if (arg == "--beta") {
      if ((value = next()) == nullptr) return false;
      args.options.beta = std::atof(value);
    } else if (arg == "--time-only") {
      args.options.storage_aware = false;
    } else if (arg == "--baseline") {
      args.options.run_baseline = true;
    } else if (arg == "--json") {
      if ((value = next()) == nullptr) return false;
      args.json_path = value;
    } else if (arg == "--svg") {
      if ((value = next()) == nullptr) return false;
      args.svg_path = value;
    } else if (arg == "--seed") {
      if ((value = next()) == nullptr) return false;
      args.options.seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (arg == "--deadline") {
      if ((value = next()) == nullptr) return false;
      args.deadline_seconds = std::atof(value);
    } else if (arg == "--workers") {
      if ((value = next()) == nullptr) return false;
      args.workers = std::atoi(value);
      if (args.workers < 1) {
        std::fprintf(stderr, "error: --workers must be >= 1\n");
        return false;
      }
    } else if (arg == "--queue") {
      if ((value = next()) == nullptr ||
          !parse_count(arg, value, "a non-negative integer (0 = unbounded)",
                       args.queue_capacity, 0))
        return false;
    } else if (arg == "--cache-capacity") {
      if ((value = next()) == nullptr ||
          !parse_count(arg, value, "a positive integer", args.cache_capacity,
                       1))
        return false;
    } else if (arg == "--cache-bytes") {
      if ((value = next()) == nullptr ||
          !parse_count(arg, value,
                       "a non-negative byte budget (0 = unbounded)",
                       args.cache_bytes, 0))
        return false;
    } else if (arg == "--cache-dir") {
      if ((value = next()) == nullptr) return false;
      args.cache_dir = value;
    } else if (arg == "--socket") {
      if ((value = next()) == nullptr) return false;
      args.socket_path = value;
    } else if (arg == "--tcp") {
      if ((value = next()) == nullptr ||
          !parse_count(arg, value, "a port in [0, 65535] (0 = ephemeral)",
                       args.tcp_port, 0, 65535))
        return false;
    } else if (arg == "--max-inflight") {
      if ((value = next()) == nullptr ||
          !parse_count(arg, value, "a non-negative cap (0 = unbounded)",
                       args.max_inflight, 0))
        return false;
    } else if (arg == "--threads") {
      if ((value = next()) == nullptr) return false;
      args.options.solver_threads = std::atoi(value);
      if (args.options.solver_threads < 0) {
        std::fprintf(stderr,
                     "error: --threads expects >= 0 (0 = all cores)\n");
        return false;
      }
    } else if (arg == "--deterministic") {
      args.options.solver_deterministic = true;
    } else if (arg == "--fault") {
      if ((value = next()) == nullptr) return false;
      if (!parse_fault_spec(value, args)) return false;
    } else if (arg == "--all") {
      args.all = true;
    } else {
      std::fprintf(stderr,
                   "error: unknown option '%s' (see usage below)\n",
                   arg.c_str());
      usage();
      return false;
    }
  }
  return true;
}

/// Map a terminal api status to the CLI exit code contract.
int exit_code_for(api::status code) {
  switch (code) {
    case api::status::ok: return 0;
    case api::status::degraded: return 0; // recovery succeeded, just slower
    case api::status::time_limit:
    case api::status::cancelled: return 3;
    case api::status::invalid_input: return 2;
    default: return 1;
  }
}

void describe_outcome(const std::string& label, api::status code,
                      const std::string& message) {
  if (code == api::status::ok) return;
  if (code == api::status::degraded)
    std::fprintf(stderr, "%s: degraded -- %s\n", label.c_str(),
                 message.c_str());
  else if (code == api::status::time_limit)
    std::fprintf(stderr, "%s: deadline hit -- %s\n", label.c_str(),
                 message.c_str());
  else if (code == api::status::cancelled)
    std::fprintf(stderr, "%s: cancelled -- %s\n", label.c_str(),
                 message.c_str());
  else
    std::fprintf(stderr, "%s: %s error -- %s\n", label.c_str(),
                 api::to_string(code), message.c_str());
}

/// Tag a flow-result JSON document (a single object) with the structured
/// outcome, so best-effort rows (time_limit/cancelled) are distinguishable
/// from completed ones in machine-readable output too.
std::string with_outcome(std::string doc, api::status code) {
  doc.insert(doc.size() - 1,
             ",\"outcome\":\"" + std::string(api::to_string(code)) + "\"");
  return doc;
}

bool write_text(const std::string& path, const std::string& text,
                const char* what) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << text << "\n";
  std::printf("%s -> %s\n", what, path.c_str());
  return true;
}

int run_synth_all(const cli_args& args) {
  std::vector<api::job> jobs;
  for (const assay::benchmark_resources& c :
       assay::benchmark_resource_table()) {
    api::job j;
    j.name = c.name;
    j.graph = assay::make_benchmark(c.name);
    j.options = args.options;
    api::apply_benchmark_resources(j.options, c.name, args.devices_set,
                                   args.grid_set);
    jobs.push_back(std::move(j));
  }

  api::run_context ctx;
  if (args.deadline_seconds > 0.0) ctx.set_deadline(args.deadline_seconds);

  api::executor_options pool_options;
  pool_options.workers = args.workers;
  pool_options.cache = make_cache(args, /*always=*/false);
  api::executor pool(pool_options);
  std::fprintf(stderr, "[batch] %zu assays, %d workers%s\n", jobs.size(),
               pool.workers(),
               pool_options.cache ? ", result cache on" : "");
  const std::vector<api::job_outcome> outcomes = pool.run(
      jobs, ctx, [](const api::job_outcome& o) {
        std::fprintf(stderr, "[batch] %-6s %-10s %.2fs%s\n", o.name.c_str(),
                     api::to_string(o.code), o.seconds,
                     o.cache_hit ? " (cache hit)" : "");
      });

  // With --json - the machine-readable report owns stdout; the human
  // summaries move to stderr so the JSON stays parseable.
  const bool want_json = !args.json_path.empty();
  std::FILE* report_stream = args.json_path == "-" ? stderr : stdout;
  std::string json = "[\n";
  int exit_code = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const api::job_outcome& o = outcomes[i];
    describe_outcome(o.name, o.code, o.message);
    exit_code = std::max(exit_code, exit_code_for(o.code));
    if (o.flow)
      std::fprintf(report_stream, "%s", o.flow->report(jobs[i].graph).c_str());
    if (!want_json) continue;
    if (o.flow)
      json += "  " + with_outcome(api::to_json(jobs[i].graph, *o.flow), o.code);
    else
      json += "  {\"assay\":\"" + o.name + "\",\"outcome\":\"" +
              api::to_string(o.code) + "\"}";
    json += i + 1 < outcomes.size() ? ",\n" : "\n";
  }
  json += "]";
  if (want_json && !write_text(args.json_path, json, "report")) return 1;
  return exit_code;
}

/// --fault path: inject the requested (or auto-chosen) fault at ~50% of
/// the synthesized schedule and run the recovery ladder. Returns the exit
/// code; with --json the recovery document replaces the flow document.
int run_fault_recovery(const cli_args& args,
                       const assay::sequencing_graph& graph,
                       const api::flow_result& flow,
                       const api::run_context& ctx) {
  std::FILE* report_stream = args.json_path == "-" ? stderr : stdout;
  const sched::schedule& s = flow.scheduling.best;
  api::recovery_request req;
  req.graph = graph;
  req.options = args.options;
  req.original = flow;
  if (args.fault_auto) {
    const auto scenario = sim::choose_fault_scenario(
        graph, s, flow.architecture.result, flow.architecture.workload, 0.5);
    if (!scenario) {
      std::fprintf(stderr,
                   "%s: no survivable fault scenario (every injectable "
                   "fault would strand completed work)\n",
                   graph.name().c_str());
      return 1;
    }
    req.faults = scenario->faults;
    req.fault_time = scenario->fault_time;
  } else {
    req.faults = args.faults;
    req.fault_time =
        std::max(0, static_cast<int>(std::floor(s.makespan() * 0.5)));
  }

  auto rec = api::recover(req, ctx);
  describe_outcome(graph.name() + " recovery", rec.code(), rec.message());
  if (!rec.has_value()) return exit_code_for(rec.code());
  const api::recovery_result& r = rec.value();
  std::fprintf(report_stream,
               "  recovery: %s at t=%d via %s, tE=%d (was %d), "
               "%zu ops kept, %zu rescheduled\n",
               api::to_string(rec.code()), r.fault_time,
               api::to_string(r.rung), r.recovered_makespan,
               r.original_makespan, r.completed_ops.size(),
               r.rescheduled_ops.size());
  if (!args.json_path.empty() &&
      !write_text(args.json_path, api::to_json(graph, args.options, r),
                  "recovery report"))
    return 1;
  return exit_code_for(rec.code());
}

int run_synth_single(const cli_args& args,
                     const assay::sequencing_graph& graph) {
  api::run_context ctx;
  if (args.deadline_seconds > 0.0) ctx.set_deadline(args.deadline_seconds);

  api::pipeline p(graph, args.options);
  if (auto cache = make_cache(args, /*always=*/false)) p.set_cache(cache);
  auto outcome = p.run(ctx);
  describe_outcome(graph.name(), outcome.code(), outcome.message());
  if (!outcome.has_value()) return exit_code_for(outcome.code());

  const api::flow_result& r = outcome.value();
  std::fprintf(args.json_path == "-" ? stderr : stdout, "%s",
               r.report(graph).c_str());
  if (args.fault_requested) return run_fault_recovery(args, graph, r, ctx);
  if (!args.json_path.empty() &&
      !write_text(args.json_path,
                  with_outcome(api::to_json(graph, r), outcome.code()),
                  "report"))
    return 1;
  if (!args.svg_path.empty() &&
      !write_text(args.svg_path, phys::render_svg(r.architecture.result,
                                                  r.layout),
                  "layout"))
    return 1;
  return exit_code_for(outcome.code());
}

// ------------------------------------------------------------------- serve

/// Long-lived service: the wire protocol of api/protocol.h on one
/// api::serve_front -- a single session over stdin/stdout by default, or
/// unix/TCP listeners (--socket/--tcp) multiplexing many connections onto
/// the same executor and shared result cache.
int run_serve(const cli_args& args) {
  api::executor_options pool_options;
  pool_options.workers = args.workers;
  pool_options.queue_capacity = args.queue_capacity;
  pool_options.cache = make_cache(args, /*always=*/true);
  api::executor pool(pool_options);

  api::protocol_options protocol;
  protocol.base = args.options;
  protocol.devices_pinned = args.devices_set;
  protocol.grid_pinned = args.grid_set;
  protocol.deadline_seconds = args.deadline_seconds;
  protocol.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  api::serve_options so;
  so.unix_path = args.socket_path;
  so.tcp_port = args.tcp_port;
  so.max_inflight = args.max_inflight;
  so.framing_error = api::protocol_error;
  api::serve_front front(so, api::make_protocol_handler(protocol, pool));

  const std::string queue = args.queue_capacity > 0
                                ? std::to_string(args.queue_capacity)
                                : "unbounded";
  std::string error;
  if (args.socket_path.empty() && args.tcp_port < 0) {
    std::fprintf(stderr,
                 "[serve] ready: %d workers, queue %s, cache %zu entries%s%s\n",
                 pool.workers(), queue.c_str(), args.cache_capacity,
                 args.cache_dir.empty() ? "" : ", disk ",
                 args.cache_dir.c_str());
    // Until stdin ends or a {"op":"shutdown"} is acknowledged.
    error = front.serve_stream(STDIN_FILENO, STDOUT_FILENO);
  } else if ((error = front.start()).empty()) {
    const std::string tcp =
        front.tcp_port() >= 0
            ? "tcp 127.0.0.1:" + std::to_string(front.tcp_port()) + ", "
            : "";
    std::fprintf(stderr,
                 "[serve] listening: %s%s%s%d workers, queue %s, "
                 "max-inflight %s\n",
                 args.socket_path.c_str(), args.socket_path.empty() ? "" : ", ",
                 tcp.c_str(), pool.workers(), queue.c_str(),
                 args.max_inflight > 0
                     ? std::to_string(args.max_inflight).c_str()
                     : "unbounded");
    front.wait(); // until a connection sends {"op":"shutdown"}
  }
  front.stop();
  pool.shutdown();
  if (error.empty()) return 0;
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return 1;
}

int run_sched(const cli_args& args, const assay::sequencing_graph& graph) {
  api::run_context ctx;
  if (args.deadline_seconds > 0.0) ctx.set_deadline(args.deadline_seconds);

  const api::pipeline p(graph, args.options);
  auto outcome = p.schedule(ctx);
  describe_outcome(graph.name(), outcome.code(), outcome.message());
  if (!outcome.has_value()) return exit_code_for(outcome.code());

  std::FILE* report_stream = args.json_path == "-" ? stderr : stdout;
  const sched::schedule& s = outcome.value().best();
  std::fprintf(report_stream, "tE=%d stores=%d capacity=%d cache_time=%ld\n",
               s.makespan(), s.store_count(), s.peak_concurrent_caches(),
               s.total_cache_time());
  for (const auto& op : s.ops)
    std::fprintf(report_stream, "  %-8s d%d [%d, %d)\n",
                 graph.at(op.op).name.c_str(), op.device + 1, op.start,
                 op.end);
  if (!args.json_path.empty() &&
      !write_text(args.json_path, outcome.value().to_json(), "report"))
    return 1;
  return exit_code_for(outcome.code());
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "bench-names") {
    const auto& table = assay::benchmark_resource_table();
    for (std::size_t i = 0; i < table.size(); ++i)
      std::printf("%s%s", i ? " " : "", table[i].name);
    std::printf("\n");
    return 0;
  }
  if (command != "synth" && command != "sched" && command != "show" &&
      command != "serve")
    return usage();
  if (command == "serve") {
    cli_args args;
    if (!parse_flags(argc, argv, 2, args)) return 2;
    if (args.all || !args.assay_spec.empty()) return usage();
    return run_serve(args);
  }
  if (argc < 3) return usage();

  cli_args args;
  int flag_start = 2;
  if (std::strncmp(argv[2], "--", 2) != 0) {
    args.assay_spec = argv[2];
    flag_start = 3;
  }
  if (!parse_flags(argc, argv, flag_start, args)) return 2;

  if (args.all) {
    if (command != "synth") {
      std::fprintf(stderr, "error: --all is only valid with synth\n");
      return 2;
    }
    return run_synth_all(args);
  }
  if (args.assay_spec.empty()) return usage();

  const auto graph = load_assay(args.assay_spec);
  if (!graph) return 2;

  if (command == "show") {
    std::printf("%s", graph->to_dot().c_str());
    return 0;
  }
  if (command == "sched") return run_sched(args, *graph);
  return run_synth_single(args, *graph);
}
