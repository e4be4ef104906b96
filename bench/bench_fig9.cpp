// Reproduces Fig. 9: execution time, number of edges, and number of valves
// with and without storage optimization in scheduling, for RA30, IVD and
// PCR. The paper's claim: storage optimization yields comparable execution
// time while cutting the resources (edges/valves) of the architecture --
// most visibly on RA30.
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"
#include "common/text_table.h"

int main(int argc, char** argv) {
  using namespace transtore;
  const bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_fig9.json");
  std::printf(
      "== Fig. 9: Optimize execution time only vs time and storage ==\n\n");

  text_table table;
  table.add_row({"Assay", "mode", "tE", "stores", "peak", "ne", "nv"});

  std::vector<bench::bench_record> records;
  for (const auto& config : bench::table2_configs()) {
    if (config.name != "RA30" && config.name != "IVD" && config.name != "PCR")
      continue;
    for (const bool storage_aware : {false, true}) {
      int grid_used = config.grid;
      const api::flow_result r = bench::run_config(
          config,
          bench::make_options(config, storage_aware, args.ilp_seconds),
          grid_used);
      table.add_row({
          config.name,
          storage_aware ? "time+storage" : "time only",
          std::to_string(r.scheduling.best.makespan()),
          std::to_string(r.scheduling.best.store_count()),
          std::to_string(r.scheduling.best.peak_concurrent_caches()),
          std::to_string(r.architecture.result.used_edge_count()),
          std::to_string(r.architecture.result.valve_count()),
      });
      bench::bench_record rec = bench::flow_record(config, grid_used, r);
      rec.config = storage_aware ? "time_storage" : "time_only";
      rec.extras = {
          {"stores", static_cast<double>(r.scheduling.best.store_count())},
          {"peak_caches",
           static_cast<double>(r.scheduling.best.peak_concurrent_caches())},
          {"edges_used",
           static_cast<double>(r.architecture.result.used_edge_count())},
          {"valves", static_cast<double>(r.architecture.result.valve_count())}};
      records.push_back(std::move(rec));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper's claim: with storage optimization, execution time stays\n"
      "comparable (RA30 may be slightly larger) while edges/valves drop.\n");
  if (!bench::write_bench_json(args.out, "bench_fig9", records))
    return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
