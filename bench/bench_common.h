// Shared configuration for the paper-reproduction bench harnesses.
//
// Device counts are not given in the paper; we use small values consistent
// with its figures (Fig. 2 schedules PCR on one mixer; Fig. 11 shows RA30
// with five nodes on the grid). Grid sizes follow Table 2 column G
// (4x4 everywhere, 5x5 for RA100); when a storage-heavy workload cannot be
// routed on the paper's grid we retry one size up and say so.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "assay/benchmarks.h"
#include "common/json.h"

namespace transtore::bench {

// ------------------------------------------------------------ bench JSON
//
// Machine-readable result dumps (BENCH_<tool>.json) so the performance
// trajectory can be tracked across PRs without scraping stdout.

/// One (assay, configuration) measurement.
struct bench_record {
  std::string assay;
  std::string config;   // e.g. "lu_dual_devex" / "dense_dual_devex"
  double seconds = 0.0; // wall time of the solve
  long nodes = 0;
  long simplex_iterations = 0;
  long dual_iterations = 0;
  long strong_branch_probes = 0;
  double objective = 0.0;
  std::string status;
  int variables = 0;
  int constraints = 0;
  /// Harness-specific numeric metrics (e.g. fig8's edge/valve ratios),
  /// emitted as additional JSON fields of the record.
  std::vector<std::pair<std::string, double>> extras;
};

/// Writes `records` as {"tool": ..., "results": [...]} to `path`, using
/// the shared json_writer (common/json.h) for correct escaping.
/// Returns false (with a message on stderr) when the file cannot be opened.
inline bool write_bench_json(const std::string& path, const std::string& tool,
                             const std::vector<bench_record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return false;
  }
  json_writer w;
  w.begin_object();
  w.field("tool", tool);
  w.begin_array("results");
  for (const bench_record& r : records) {
    w.begin_object();
    w.field("assay", r.assay);
    w.field("config", r.config);
    w.field("seconds", r.seconds);
    w.field("nodes", r.nodes);
    w.field("simplex_iterations", r.simplex_iterations);
    w.field("dual_iterations", r.dual_iterations);
    w.field("strong_branch_probes", r.strong_branch_probes);
    w.field("objective", r.objective);
    w.field("status", r.status);
    w.field("variables", r.variables);
    w.field("constraints", r.constraints);
    for (const auto& [key, value] : r.extras) w.field(key, value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string doc = w.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

struct assay_config {
  std::string name;
  int devices;
  int grid; // grid is grid x grid
};

/// Shared argv handling for the full-pipeline harnesses:
///   --smoke      small assays (PCR, IVD, RA30) with a 1 s ILP budget -- the
///                configuration CI runs and diffs against bench/baselines/
///   --out FILE   JSON output path override
///   --seconds S  per-solve budget override (ILP limit, or the equal
///                per-engine wall budget in bench_sched's full mode)
struct harness_args {
  bool smoke = false;
  std::string out;
  double ilp_seconds = 5.0;
};

inline harness_args parse_harness_args(int argc, char** argv,
                                       std::string default_out) {
  harness_args a;
  a.out = std::move(default_out);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
      a.ilp_seconds = 1.0;
    } else if (arg == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else if (arg == "--seconds" && i + 1 < argc) {
      a.ilp_seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--seconds S] [--out FILE]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return a;
}

/// Assays for one harness run: all of Table 2, or the --smoke subset whose
/// pipeline runs are fast enough to gate CI on.
inline std::vector<assay_config> harness_configs(bool smoke);

/// Table 2 rows, largest first (matches the paper's ordering). Sourced
/// from the shared assay::benchmark_resource_table so the benches and the
/// CLI's batch mode cannot drift apart.
inline std::vector<assay_config> table2_configs() {
  std::vector<assay_config> configs;
  for (const assay::benchmark_resources& r : assay::benchmark_resource_table())
    configs.push_back({r.name, r.devices, r.grid});
  return configs;
}

inline std::vector<assay_config> harness_configs(bool smoke) {
  std::vector<assay_config> configs = table2_configs();
  if (!smoke) return configs;
  std::vector<assay_config> small;
  for (const assay_config& c : configs)
    if (c.name == "PCR" || c.name == "IVD" || c.name == "RA30")
      small.push_back(c);
  return small;
}

/// Default flow options for a config; `storage_aware` toggles the paper's
/// storage optimization (Fig. 9 compares both settings).
inline api::pipeline_options make_options(const assay_config& c,
                                          bool storage_aware = true,
                                          double ilp_seconds = 5.0) {
  api::pipeline_options o;
  o.device_count = c.devices;
  o.grid_width = c.grid;
  o.grid_height = c.grid;
  o.storage_aware = storage_aware;
  o.schedule_engine = sched::schedule_engine::combined;
  o.sched_ilp_time_limit = ilp_seconds;
  o.seed = 1;
  return o;
}

/// Run the flow through the staged api::pipeline, letting the synthesize
/// stage retry with a one-step-larger grid (up to +2) when the paper's grid
/// cannot hold the workload. Returns the result and notes the grid actually
/// used in `grid_used`. Throws capacity_error when even the largest retry
/// fails (the historical bench contract).
inline api::flow_result run_config(const assay_config& c,
                                   api::pipeline_options o, int& grid_used) {
  o.grid_width = c.grid;
  o.grid_height = c.grid;
  o.grid_growth = 2;
  auto outcome = api::pipeline(assay::make_benchmark(c.name), o).run();
  if (!outcome.has_value()) {
    // Re-raise under the exception taxonomy of common/error.h, so failures
    // keep their meaning for callers and readers.
    switch (outcome.code()) {
      case api::status::capacity: throw capacity_error(outcome.message());
      case api::status::invalid_input:
        throw invalid_input_error(outcome.message());
      case api::status::infeasible: throw infeasible_error(outcome.message());
      default: throw internal_error(outcome.message());
    }
  }
  api::flow_result r = std::move(outcome).take();
  grid_used = r.architecture.result.grid().width();
  if (grid_used != c.grid)
    std::fprintf(stderr, "[bench] %s: paper grid %dx%d too small, used %dx%d\n",
                 c.name.c_str(), c.grid, c.grid, grid_used, grid_used);
  return r;
}

/// Flatten a flow run into the shared bench-JSON record shape so every
/// harness lands in the same BENCH_<tool>.json trail.
inline bench_record flow_record(const assay_config& c, int grid_used,
                                const api::flow_result& r) {
  bench_record rec;
  rec.assay = c.name;
  rec.config += 'd';
  rec.config += std::to_string(c.devices);
  rec.config += "_g";
  rec.config += std::to_string(grid_used);
  rec.config += 'x';
  rec.config += std::to_string(grid_used);
  rec.seconds = r.total_seconds;
  rec.objective = r.scheduling.best.makespan();
  rec.status = r.scheduling.used_ilp
                   ? (r.scheduling.ilp_status == milp::solve_status::optimal
                          ? "ilp_optimal"
                          : "ilp_feasible")
                   : "heuristic";
  rec.variables = r.scheduling.ilp_variables;
  rec.constraints = r.scheduling.ilp_constraints;
  return rec;
}

} // namespace transtore::bench
