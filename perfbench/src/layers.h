// Traced execution of one synthesis request: the four staged api calls
// under spans, then replays of each layer through its public functions
// (scheduling phases, MILP phases, placement/routing, layout, simulation)
// so per-layer time and work can be attributed from outside the library.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Work counts gathered at the layer boundaries of the traced run.
struct layer_counts {
  int requests = 0;

  // api
  double document_bytes = 0.0; // serialized flow document sizes, summed

  // sched
  int ilp_skipped = 0;
  int uncapped = 0;       // requests whose stage MILP was not interrupted
  int replay_matches = 0; // ... whose replay reproduced the stage objective
  std::vector<std::string> replay_mismatches;

  // milp: branch and bound (the replayed solves)
  int capped = 0;
  double gap_at_cap_sum = 0.0;
  long nodes = 0;
  long simplex_iterations = 0;
  long dual_iterations = 0;
  long strong_branch_probes = 0;
  int warm_starts_offered = 0;
  int warm_starts_accepted = 0;
  int cut_rounds = 0;
  int cuts_added = 0;
  double solve_seconds = 0.0;

  // milp: root probe on the built model
  int probed = 0;
  int presolve_rows_removed = 0;
  long root_lp_iterations = 0;
  long root_refactorizations = 0;
  long root_lu_factorizations = 0;
  double lu_fill_ratio_sum = 0.0;
  long ftran_calls = 0;
  long btran_calls = 0;

  // arch / phys / sim (the stage's own results)
  long attempts_used = 0;
  int grid_grown = 0;
  long compression_iterations = 0;
  long transport_legs = 0;
};

/// Run `spec` through the staged api calls under spans (request id `rid`),
/// then replay every layer and fill `flow` with the staged result. Returns
/// an empty string on success, the failing stage's message when a stage did
/// not complete, or "invalid: ..." when the result fails its checks.
std::string trace_request(tracer& t, int rid, const request_spec& spec,
                          layer_counts& counts, api::flow_result& flow);

/// Build the scheduling MILP of `spec` (even when the stage's size guard
/// skipped it) and run the root probe on it: keeps the MILP kernels measured
/// on workloads whose requests never reach the MILP.
void probe_skipped_model(tracer& t, int rid, const request_spec& spec,
                         layer_counts& counts);

/// Per-layer metrics of a traced pass, in the order BENCHMARK.json lists
/// them. `untraced_latency_sum` is the summed latency of the same requests
/// run without spans; `client_overhead_s` the client's own time per
/// request. The serve workload overrides the api.* serving metrics.
std::vector<metric> layer_metrics(const tracer& t, const layer_counts& c,
                                  double untraced_latency_sum,
                                  double client_overhead_s);

} // namespace perfbench
