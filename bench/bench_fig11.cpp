// Reproduces Fig. 11: execution snapshots of the synthesized RA30 chip --
// one moment while a sample is being stored into a channel segment, one
// while a transport runs past a held sample.
#include <cstdio>

#include "bench_common.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace transtore;
  const bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_fig11.json");
  std::printf("== Fig. 11: Execution snapshots of RA30 ==\n\n");

  const bench::assay_config config{"RA30", 2, 4};
  const auto graph = assay::make_benchmark(config.name);
  int grid_used = config.grid;
  const api::flow_result r = bench::run_config(
      config, bench::make_options(config, true, args.ilp_seconds), grid_used);
  const sched::schedule& s = r.scheduling.best;

  // Snapshot 1: during a store leg (a path is writing into a segment).
  int store_time = -1;
  for (const auto& tr : s.transfers)
    if (tr.kind == sched::transfer_kind::cached) {
      store_time = s.legs[static_cast<std::size_t>(tr.store_leg)].window.begin;
      break;
    }
  // Snapshot 2: while a sample is held and other transports are active --
  // pick the hold interval with the most concurrent activity.
  int hold_time = -1;
  int best_activity = -1;
  for (const auto& tr : s.transfers) {
    if (tr.kind != sched::transfer_kind::cached || tr.cache_hold.empty())
      continue;
    for (int t = tr.cache_hold.begin; t < tr.cache_hold.end;
         t += s.transport_time) {
      int activity = 0;
      for (const auto& leg : s.legs)
        if (leg.window.contains(t)) ++activity;
      if (activity > best_activity) {
        best_activity = activity;
        hold_time = t;
      }
    }
  }

  for (const int t : {store_time, hold_time}) {
    if (t < 0) continue;
    std::printf("%s\n",
                sim::snapshot(graph, s, r.architecture.workload,
                              r.architecture.result, t)
                    .c_str());
  }
  std::printf("Paper's Fig. 11 shows the same two situations at t=35s and\n"
              "t=45s: a path storing a sample into segment C-D, then a\n"
              "transport d1->D->A->d2 while C-D is caching (blue = active).\n");

  bench::bench_record rec = bench::flow_record(config, grid_used, r);
  rec.extras = {{"store_snapshot_t", static_cast<double>(store_time)},
                {"hold_snapshot_t", static_cast<double>(hold_time)}};
  if (!bench::write_bench_json(args.out, "bench_fig11", {rec}))
    return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
