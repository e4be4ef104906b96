// Workload inputs, all derived from the workload seed:
//
//   table2_default  the six Table 2 assays with the paper's resource table;
//   exact_small     a catalog of 8-10 operation random assays on 2 devices;
//   large_skip_ilp  a catalog of 80-110 operation random assays on 4
//                   devices (5x5 grid, two growth steps);
//   serve_replay    a catalog hot set of 20-34 operation assays, plus a
//                   fresh 10-14 operation assay for every miss.
//
// The seed fixes the request order and draws the serve misses; every other
// request keeps the default pipeline seed, as `transtore_cli synth --all`
// does. The
// catalogs fix the generator seeds of make_random_assay. Why catalogs: tiny
// random chips have multimodal valve counts (2, 7, 17 or 27 valves for
// graphs of one size) and solve times spread over two decades, so a
// seed-drawn set of a few dozen graphs (or even a seed-drawn pipeline seed
// per graph) moves every aggregate by more than a quality bound tight
// enough to matter; and about one 80-110 operation request in seventy
// cannot route on the grown grid. Every catalog graph was screened with
// pipeline seeds 1-6 (hot set: 1-4): exact_small graphs prove optimal within
// ~2 s, large_skip_ilp graphs skip the MILP and route on every seed.
#include <algorithm>
#include <cstdio>

#include "assay/benchmarks.h"
#include "bench.h"

namespace perfbench {
namespace {

struct catalog_entry {
  int operations;
  std::uint64_t generator_seed;
};

// Screened generator seeds, grouped by size.
constexpr catalog_entry exact_small_catalog[] = {
    {8, 8001}, {8, 8002}, {8, 8003}, {8, 8004},
    {8, 8005}, {8, 8006}, {9, 9001}, {9, 9002},
    {9, 9003}, {9, 9004}, {9, 9005}, {9, 9006},
    {10, 10001}, {10, 10002}, {10, 10003}, {10, 10004},
    {10, 10005}, {10, 10006},
};
// serve_replay's hot set: 20-34 operations on 3 devices (5x5 grid, two
// growth steps), screened with pipeline seeds 1-4.
constexpr catalog_entry hot_catalog[] = {
    {20, 20001}, {20, 20002}, {21, 21001}, {21, 21002}, {22, 22001},
    {22, 22002}, {23, 23001}, {23, 23002}, {24, 24001}, {24, 24002},
    {25, 25001}, {25, 25002}, {26, 26001}, {26, 26002}, {27, 27001},
    {27, 27002}, {28, 28001}, {28, 28002}, {29, 29001}, {29, 29002},
    {30, 30001}, {30, 30002}, {31, 31001}, {31, 31002}, {32, 32001},
    {32, 32002}, {33, 33001}, {33, 33002}, {34, 34001}, {34, 34002},
    {33, 33003}, {34, 34003},
};
constexpr catalog_entry large_catalog[] = {
    {80, 80002}, {80, 80003}, {80, 80005}, {90, 90001},
    {90, 90002}, {90, 90003}, {100, 100001}, {100, 100002},
    {100, 100003}, {110, 110001}, {110, 110003}, {110, 110004},
};

template <typename T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = mix_seed(seed, 0x5A1FULL + i) % i;
    std::swap(items[i - 1], items[j]);
  }
}

request_spec generated(int operations, std::uint64_t generator_seed,
                       const api::pipeline_options& options) {
  request_spec r;
  r.graph = assay::make_random_assay(operations, generator_seed);
  r.label = "RA" + std::to_string(operations) + "#" +
            std::to_string(generator_seed);
  r.generator_seed = generator_seed;
  r.options = options;
  return r;
}

template <std::size_t N>
std::vector<request_spec> from_catalog(const catalog_entry (&catalog)[N],
                                       const api::pipeline_options& options) {
  std::vector<request_spec> out;
  for (const catalog_entry& e : catalog)
    out.push_back(generated(e.operations, e.generator_seed, options));
  return out;
}

} // namespace

std::vector<request_spec> make_pass_inputs(const std::string& workload,
                                           std::uint64_t seed) {
  std::vector<request_spec> out;
  if (workload == "table2_default") {
    for (const auto& row : assay::benchmark_resource_table()) {
      request_spec r;
      r.label = row.name;
      r.graph = assay::make_benchmark(row.name);
      // transtore_cli synth --all: the paper's resource table and two grid
      // growth steps, every other option at its default.
      r.options.device_count = row.devices;
      r.options.grid_width = row.grid;
      r.options.grid_height = row.grid;
      r.options.grid_growth = 2;
      out.push_back(std::move(r));
    }
  } else if (workload == "exact_small") {
    api::pipeline_options options;
    options.device_count = 2;
    out = from_catalog(exact_small_catalog, options);
  } else if (workload == "large_skip_ilp") {
    api::pipeline_options options;
    options.device_count = 4;
    options.grid_width = 5;
    options.grid_height = 5;
    options.grid_growth = 2;
    out = from_catalog(large_catalog, options);
  }
  seeded_shuffle(out, seed);
  return out;
}

std::vector<request_spec> serve_hot_set() {
  api::pipeline_options options;
  options.device_count = 3;
  options.grid_width = 5;
  options.grid_height = 5;
  options.grid_growth = 2;
  options.schedule_engine = sched::schedule_engine::heuristic;
  return from_catalog(hot_catalog, options);
}

request_spec serve_miss(std::uint64_t seed, int pass, int connection,
                        int round) {
  const std::uint64_t key = (static_cast<std::uint64_t>(pass) << 24) |
                            (static_cast<std::uint64_t>(connection) << 16) |
                            static_cast<std::uint64_t>(round);
  const std::uint64_t draw = mix_seed(seed, 0x4D15500000000ULL + key);
  api::pipeline_options options;
  options.device_count = 2;
  options.grid_growth = 2;
  // List scheduling without the annealing post-pass: a miss costs a few
  // milliseconds, so the hit path (cache, serialization, transport) stays
  // the bulk of the server's work.
  options.schedule_engine = sched::schedule_engine::heuristic;
  options.local_search_iterations = 0;
  options.seed = 1 + (draw >> 16) % 2147483647ULL;
  return generated(10 + static_cast<int>(draw % 5),
                   1 + (draw >> 8) % 2147483647ULL, options);
}

void print_manifest(const std::string& workload, std::uint64_t seed,
                    const std::vector<request_spec>& inputs) {
  for (const request_spec& r : inputs)
    std::printf("manifest %s seed=%llu name=%s operations=%d devices=%d "
                "grid=%dx%d generator_seed=%llu options_seed=%llu\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                r.label.c_str(), r.graph.operation_count(),
                r.options.device_count, r.options.grid_width,
                r.options.grid_height,
                static_cast<unsigned long long>(r.generator_seed),
                static_cast<unsigned long long>(r.options.seed));
}

} // namespace perfbench
