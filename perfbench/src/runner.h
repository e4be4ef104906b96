// Command-line surface and result printing shared by the workloads.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"

namespace perfbench {

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop once the first request is about to be issued and print setup_s.
  bool setup_only = false;
  /// Monotonic time at which the caller spawned this process (negative:
  /// measure set-up from main()).
  double spawn_time = -1.0;
  std::string cli;      // transtore_cli binary (serve_replay)
  std::string work_dir; // directory for the socket and the span trace
};

/// Latencies and wall time of one measured pass.
struct pass_record {
  double seconds = 0.0;
  std::vector<double> latency;
};

/// Everything the untraced run reports.
struct end_to_end {
  long attempted = 0;
  long failed = 0;
  std::vector<pass_record> passes;
  /// Pool every pass's samples (few short passes) instead of reporting the
  /// median over passes of each pass's figures (many passes).
  bool pool_passes = true;
  std::vector<double> objective, makespan, valves, bound_ratio;
  long proven_optimal = 0; // requests whose scheduling MILP proved optimality
  std::vector<double> probe; // run_speed_probe() times taken during the run
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Print the end-to-end metrics and the result line; returns the exit
/// code (1 when `errors` reports an incorrect output).
int print_end_to_end(const end_to_end& e, const std::vector<std::string>& errors);

/// Write the trace, print the per-layer metrics and the result line.
int print_layers(const run_args& a, const tracer& t, const layer_counts& c,
                 const std::vector<metric>& layers, long attempted,
                 long failed, const std::vector<std::string>& errors);

int run_pipeline(const run_args& a);
int run_serve(const run_args& a);

} // namespace perfbench
