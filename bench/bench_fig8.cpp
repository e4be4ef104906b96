// Reproduces Fig. 8: ratios of used channel segments (edges) and valves in
// the synthesized architecture against the full connection grid. The
// paper's claim: all ratios are below 1 and half of them close to 0 --
// architectural synthesis confines resource usage to a fraction of the
// grid.
#include <cstdio>

#include "bench_common.h"
#include "common/strings.h"
#include "common/text_table.h"

int main(int argc, char** argv) {
  using namespace transtore;
  const bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_fig8.json");
  std::printf("== Fig. 8: Edge and valve ratios vs the connection grid ==\n\n");

  text_table table;
  table.add_row({"Assay", "edges used", "grid edges", "edge ratio",
                 "valves", "grid valves", "valve ratio"});
  bool all_below_one = true;
  std::vector<bench::bench_record> records;
  for (const auto& config : bench::harness_configs(args.smoke)) {
    int grid_used = config.grid;
    const api::flow_result r = bench::run_config(
        config, bench::make_options(config, true, args.ilp_seconds),
        grid_used);
    const arch::chip& chip = r.architecture.result;
    table.add_row({
        config.name,
        std::to_string(chip.used_edge_count()),
        std::to_string(chip.grid().edge_count()),
        format_double(chip.edge_ratio(), 2),
        std::to_string(chip.valve_count()),
        std::to_string(chip.grid().total_valve_capacity()),
        format_double(chip.valve_ratio(), 2),
    });
    all_below_one = all_below_one && chip.edge_ratio() < 1.0 &&
                    chip.valve_ratio() < 1.0;
    bench::bench_record rec = bench::flow_record(config, grid_used, r);
    rec.extras = {{"edge_ratio", chip.edge_ratio()},
                  {"valve_ratio", chip.valve_ratio()},
                  {"edges_used", static_cast<double>(chip.used_edge_count())},
                  {"valves", static_cast<double>(chip.valve_count())}};
    records.push_back(std::move(rec));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper's claim -- every ratio < 1: %s\n",
              all_below_one ? "REPRODUCED" : "NOT reproduced");
  if (!bench::write_bench_json(args.out, "bench_fig8", records))
    return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
