// Reproduces Table 2: scheduling, architectural synthesis, and physical
// design results for the six benchmark assays.
//
// Columns mirror the paper: |O|, tE (assay execution time), ts (scheduling
// runtime), G (grid), ne (channel segments), nv (valves), tr (architecture
// runtime), dr/de/dp (layout dimensions after synthesis / device insertion
// / compression), tp (physical design runtime). Absolute runtimes differ
// from the paper's 30-minute Gurobi budget by design; the shape to compare
// is the resource and dimension columns (see EXPERIMENTS.md).
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "sched/scheduler.h"

namespace {

const char* engine_label(transtore::sched::schedule_engine e) {
  using transtore::sched::schedule_engine;
  switch (e) {
    case schedule_engine::sa: return "sched_sa";
    case schedule_engine::grasp: return "sched_grasp";
    default: return "sched_other";
  }
}

} // namespace

int main(int argc, char** argv) {
  using namespace transtore;
  const bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_table2.json");
  std::printf("== Table 2: Results of Scheduling and Synthesis ==\n\n");

  text_table table;
  table.add_row({"Assay", "|O|", "tE", "ts(s)", "G", "ne", "nv", "tr(s)",
                 "dr", "de", "dp", "tp(s)"});

  std::vector<bench::bench_record> records;
  for (const auto& config : bench::harness_configs(args.smoke)) {
    const auto graph = assay::make_benchmark(config.name);
    int grid_used = config.grid;
    const api::flow_result r = bench::run_config(
        config, bench::make_options(config, true, args.ilp_seconds),
        grid_used);
    records.push_back(bench::flow_record(config, grid_used, r));

    // Scheduling-engine frontier rows: each metaheuristic engine's pure
    // scheduling result on the same assay/device budget (the full
    // quality/time frontier with baselines lives in bench_sched).
    for (const sched::schedule_engine engine :
         {sched::schedule_engine::sa, sched::schedule_engine::grasp}) {
      sched::scheduler_options so;
      so.device_count = config.devices;
      so.engine = engine;
      const sched::scheduling_result sr = sched::make_schedule(graph, so);
      bench::bench_record rec;
      rec.assay = config.name;
      rec.config = engine_label(engine);
      rec.seconds = sr.seconds;
      rec.objective = sr.best.objective(so.alpha, so.beta);
      rec.status = "ok";
      rec.extras = {
          {"makespan", static_cast<double>(sr.best.makespan())},
          {"stores", static_cast<double>(sr.best.store_count())},
          {"cache_time", static_cast<double>(sr.best.total_cache_time())}};
      records.push_back(std::move(rec));
    }

    const auto& layout = r.layout;
    table.add_row({
        config.name,
        std::to_string(graph.operation_count()),
        std::to_string(r.scheduling.best.makespan()),
        format_double(r.scheduling.seconds, 2),
        format_dims(grid_used, grid_used),
        std::to_string(r.architecture.result.used_edge_count()),
        std::to_string(r.architecture.result.valve_count()),
        format_double(r.architecture.seconds, 2),
        format_dims(layout.after_synthesis.width,
                    layout.after_synthesis.height),
        format_dims(layout.after_devices.width, layout.after_devices.height),
        format_dims(layout.after_compression.width,
                    layout.after_compression.height),
        format_double(layout.seconds, 2),
    });
  }
  std::printf("%s\n", table.render().c_str());
  if (!bench::write_bench_json(args.out, "bench_table2", records))
    return 1;
  std::printf("Paper (3.2 GHz CPU, Gurobi, 30 min solver budget):\n"
              "  RA100 tE=1820 G=5x5 ne=32 nv=58 dr=20x20 de=26x26 dp=16x16\n"
              "  RA70  tE=1180 G=4x4 ne=20 nv=38 dr=15x15 de=21x21 dp=11x12\n"
              "  CPA   tE=1070 G=4x4 ne=20 nv=40 dr=15x15 de=21x21 dp=11x13\n"
              "  RA30  tE=670  G=4x4 ne=8  nv=16 dr=15x10 de=21x16 dp=13x9\n"
              "  IVD   tE=280  G=4x4 ne=5  nv=10 dr=10x5  de=16x9  dp=12x5\n"
              "  PCR   tE=290  G=4x4 ne=5  nv=8  dr=5x10  de=7x14  dp=4x8\n");
  return 0;
}
