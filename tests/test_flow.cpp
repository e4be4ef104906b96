// Integration tests for the end-to-end synthesis flow through
// api::pipeline::run().
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "api/pipeline.h"
#include "api/serialize.h"
#include "assay/benchmarks.h"

namespace transtore::api {
namespace {

/// The completed flow; fails the test unless the run finished ok.
flow_result completed_flow(const assay::sequencing_graph& graph,
                          const pipeline_options& options) {
  auto outcome = pipeline(graph, options).run();
  EXPECT_TRUE(outcome.ok()) << outcome.message();
  return outcome.has_value() ? std::move(outcome).take() : flow_result{};
}

TEST(Flow, PcrEndToEnd) {
  const auto graph = assay::make_pcr();
  pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  const flow_result r = completed_flow(graph, o);
  EXPECT_LE(r.scheduling.best.makespan(), 290); // at worst Fig. 2(b)
  EXPECT_TRUE(r.stats.has_value());
  EXPECT_GT(r.architecture.result.used_edge_count(), 0);
  EXPECT_GT(r.layout.after_compression.width, 0);
}

TEST(Flow, ReportMentionsEveryStage) {
  const auto graph = assay::make_pcr();
  pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  o.run_baseline = true;
  const flow_result r = completed_flow(graph, o);
  const std::string report = r.report(graph);
  EXPECT_NE(report.find("schedule:"), std::string::npos);
  EXPECT_NE(report.find("architecture:"), std::string::npos);
  EXPECT_NE(report.find("layout:"), std::string::npos);
  EXPECT_NE(report.find("verified:"), std::string::npos);
  EXPECT_NE(report.find("baseline:"), std::string::npos);
}

TEST(Flow, BaselineComparisonAvailable) {
  const auto graph = assay::make_benchmark("IVD");
  pipeline_options o;
  o.device_count = 2;
  o.schedule_engine = sched::schedule_engine::heuristic;
  o.run_baseline = true;
  const flow_result r = completed_flow(graph, o);
  ASSERT_TRUE(r.baseline.has_value());
  EXPECT_GE(r.baseline->makespan, r.scheduling.best.makespan());
}

TEST(Flow, StorageAwareNeverWorseOnCacheTime) {
  const auto graph = assay::make_pcr();
  pipeline_options aware;
  aware.schedule_engine = sched::schedule_engine::heuristic;
  pipeline_options blind = aware;
  blind.storage_aware = false;
  blind.heuristic_restarts = 1;
  const flow_result a = completed_flow(graph, aware);
  const flow_result b = completed_flow(graph, blind);
  EXPECT_LE(a.scheduling.best.total_cache_time(),
            b.scheduling.best.total_cache_time());
}

TEST(Flow, CombinedEngineRunsIlpOnSmallAssays) {
  const auto graph = assay::make_pcr();
  pipeline_options o;
  o.schedule_engine = sched::schedule_engine::combined;
  o.sched_ilp_time_limit = 10;
  const flow_result r = completed_flow(graph, o);
  EXPECT_TRUE(r.scheduling.used_ilp);
}

TEST(Flow, RejectsEmptyGraph) {
  assay::sequencing_graph g("empty");
  const auto outcome = pipeline(g, pipeline_options{}).run();
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), status::invalid_input);
}

TEST(Flow, Table2ConfigsComplete) {
  // Smoke test of the actual bench configurations (heuristic engines).
  struct config {
    const char* name;
    int devices;
    int grid;
  };
  for (const config& c : {config{"PCR", 1, 4}, config{"IVD", 2, 4},
                          config{"RA30", 2, 4}}) {
    const auto graph = assay::make_benchmark(c.name);
    pipeline_options o;
    o.device_count = c.devices;
    o.grid_width = c.grid;
    o.grid_height = c.grid;
    o.schedule_engine = sched::schedule_engine::heuristic;
    const flow_result r = completed_flow(graph, o);
    EXPECT_GT(r.scheduling.best.makespan(), 0) << c.name;
    EXPECT_LE(r.architecture.result.edge_ratio(), 1.0) << c.name;
  }
}

// Generated-assay invariant sweep: every surviving scheduling engine takes
// random assays of 6-16 operations on 1-3 devices, two seeds each, under
// both timing models (distributed channel storage and the dedicated storage
// unit), through the whole flow with simulator verification, and a rerun
// at the same seed reproduces the report and the flow document byte for
// byte. The MILP-backed `combined` engine runs only up to 10 operations,
// where it proves optimality well inside its time limit, so its rerun is
// deterministic too.
struct sweep_case {
  int operations;
  int devices;
};

class GeneratedFlowSweep : public ::testing::TestWithParam<sweep_case> {};

TEST_P(GeneratedFlowSweep, VerifiedAndReproducible) {
  const sweep_case& c = GetParam();
  const std::pair<sched::schedule_engine, const char*> engines[] = {
      {sched::schedule_engine::heuristic, "heuristic"},
      {sched::schedule_engine::sa, "sa"},
      {sched::schedule_engine::grasp, "grasp"},
      {sched::schedule_engine::combined, "combined"}};
  for (const std::uint64_t seed :
       {std::uint64_t{100} * c.operations + c.devices,
        std::uint64_t{100} * c.operations + c.devices + 50}) {
    const auto graph = assay::make_random_assay(c.operations, seed);
    for (const int storage_ports : {0, 1}) {
      for (const auto& [engine, name] : engines) {
        if (engine == sched::schedule_engine::combined && c.operations > 10)
          continue;
        pipeline_options o;
        o.device_count = c.devices;
        o.timing.storage_ports = storage_ports;
        o.schedule_engine = engine;
        o.seed = seed;
        const std::string label = std::string(name) + ", seed " +
                                  std::to_string(seed) + ", storage_ports " +
                                  std::to_string(storage_ports);
        const flow_result first = completed_flow(graph, o);
        EXPECT_TRUE(first.stats.has_value()) << label;
        const flow_result again = completed_flow(graph, o);
        EXPECT_EQ(to_json(graph, first, /*include_timing=*/false),
                  to_json(graph, again, /*include_timing=*/false))
            << label;
        // The rerun's flow document is byte-identical too, and it
        // round-trips byte-identically.
        const std::string doc = serialize_flow(graph, o, first);
        EXPECT_EQ(serialize_flow(graph, o, again), doc) << label;
        const auto restored = deserialize_flow(doc);
        ASSERT_TRUE(restored.ok()) << label << ": " << restored.message();
        EXPECT_EQ(serialize_flow(restored->graph, restored->options,
                                 restored->flow),
                  doc)
            << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generated, GeneratedFlowSweep,
    ::testing::Values(sweep_case{6, 1}, sweep_case{6, 3}, sweep_case{8, 2},
                      sweep_case{8, 3}, sweep_case{10, 1},
                      sweep_case{10, 2}, sweep_case{12, 3},
                      sweep_case{14, 2}, sweep_case{16, 1},
                      sweep_case{16, 3}),
    [](const ::testing::TestParamInfo<sweep_case>& info) {
      return std::to_string(info.param.operations) + "ops_" +
             std::to_string(info.param.devices) + "dev";
    });

} // namespace
} // namespace transtore::api
