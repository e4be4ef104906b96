// Tests for the robustness layer: the arch/fault.h fault model and its
// banned-resource maps, fault-aware synthesis (banned segments are never
// placed on, routed over, or used for caching), schedule splicing
// (sched/splice.h), the api::recover retry ladder across all six benchmark
// assays (device + storage faults at ~50% execution, completed work never
// re-executed, byte-identical recovery documents), cross-process
// checkpoint/resume, the negative result-cache tier, and crash-safe disk
// cache writes (a truncated entry degrades to a miss).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/recover.h"
#include "api/result_cache.h"
#include "api/serialize.h"
#include "arch/fault.h"
#include "arch/synthesis.h"
#include "assay/benchmarks.h"
#include "common/error.h"
#include "sched/scheduler.h"
#include "sched/splice.h"
#include "sim/fault_injector.h"

namespace transtore {
namespace {

/// Cheap, deterministic configuration (heuristic engine): the fault layer
/// is recovery-testing, not solver-testing, so keep every assay fast even
/// in Debug/ASan builds.
sched::scheduler_options cheap_scheduler(int devices) {
  sched::scheduler_options o;
  o.device_count = devices;
  o.engine = sched::schedule_engine::heuristic;
  o.heuristic_restarts = 2;
  o.local_search_iterations = 200;
  return o;
}

api::pipeline_options cheap_pipeline(const assay::benchmark_resources& r) {
  api::pipeline_options o;
  o.device_count = r.devices;
  o.grid_width = r.grid;
  o.grid_height = r.grid;
  o.grid_growth = 2;
  o.schedule_engine = sched::schedule_engine::heuristic;
  o.heuristic_restarts = 2;
  o.local_search_iterations = 200;
  return o;
}

// ------------------------------------------------------------- fault model

TEST(FaultSet, NormalizeSerializeRoundTrip) {
  arch::fault_set f;
  f.devices = {1, 0, 1};
  f.valves = {5, 5, 2};
  f.edges = {7};
  f.storage = {3, 3};
  f.normalize();
  EXPECT_EQ(f.devices, (std::vector<int>{0, 1}));
  EXPECT_EQ(f.valves, (std::vector<int>{2, 5}));
  EXPECT_EQ(f.storage, (std::vector<int>{3}));
  EXPECT_FALSE(f.empty());
  EXPECT_TRUE(arch::fault_set{}.empty());

  const std::string doc = arch::serialize(f);
  const arch::fault_set restored = arch::fault_set_from_json(doc);
  EXPECT_EQ(restored, f);
  EXPECT_EQ(arch::serialize(restored), doc);

  EXPECT_THROW(arch::fault_set_from_json("{\"format\":1,\"kind\":\"faults\"}"),
               invalid_input_error);
  EXPECT_THROW(arch::fault_set_from_json("not json"), invalid_input_error);
}

TEST(FaultSet, ValidateRejectsOutOfRangeIds) {
  const arch::connection_grid grid(3, 3);
  arch::fault_set f;
  f.devices = {2};
  EXPECT_THROW(f.validate(grid, 2), invalid_input_error);
  f.devices = {1};
  f.validate(grid, 2); // in range: no throw
  f.valves = {grid.node_count()};
  EXPECT_THROW(f.validate(grid, 2), invalid_input_error);
  f.valves.clear();
  f.edges = {grid.edge_count()};
  EXPECT_THROW(f.validate(grid, 2), invalid_input_error);
  f.edges.clear();
  f.storage = {-1};
  EXPECT_THROW(f.validate(grid, 2), invalid_input_error);
}

TEST(FaultSet, BannedMapsCoverValveIncidenceAndStorageOnlyFaults) {
  const arch::connection_grid grid(3, 3);
  const int valve = grid.node_at(1, 1); // center: four incident segments
  arch::fault_set f;
  f.valves = {valve};
  f.edges = {0};
  f.storage = {1};
  f.normalize();
  f.validate(grid, 1);

  const std::vector<bool> nodes = arch::banned_node_map(f, grid);
  ASSERT_EQ(static_cast<int>(nodes.size()), grid.node_count());
  EXPECT_TRUE(nodes[static_cast<std::size_t>(valve)]);
  EXPECT_EQ(std::count(nodes.begin(), nodes.end(), true), 1);

  const std::vector<bool> edges = arch::banned_edge_map(f, grid);
  ASSERT_EQ(static_cast<int>(edges.size()), grid.edge_count());
  EXPECT_TRUE(edges[0]); // the clogged segment
  for (const auto& [edge, neighbor] : grid.incidences(valve))
    EXPECT_TRUE(edges[static_cast<std::size_t>(edge)]) << edge;
  // A storage-only fault still passes fluid ...
  EXPECT_FALSE(edges[1]);
  // ... but cannot cache: the storage map is the edge map plus storage ids.
  const std::vector<bool> storage = arch::banned_storage_map(f, grid);
  EXPECT_TRUE(storage[1]);
  for (int e = 0; e < grid.edge_count(); ++e)
    if (edges[static_cast<std::size_t>(e)]) {
      EXPECT_TRUE(storage[static_cast<std::size_t>(e)]) << e;
    }
}

// -------------------------------------------------- fault-aware synthesis

TEST(FaultSynthesis, BannedResourcesAreNeverUsed) {
  // Healthy run first, to pick genuinely used resources to fail.
  const auto graph = assay::make_ivd();
  const assay::benchmark_resources r{"IVD", 2, 4};
  const api::pipeline_options healthy = cheap_pipeline(r);
  auto base = api::pipeline(graph, healthy).run();
  ASSERT_TRUE(base.ok()) << base.message();
  const arch::chip& chip = base.value().architecture.result;
  ASSERT_FALSE(chip.paths.empty());

  api::pipeline_options faulted = healthy;
  faulted.faults.edges = {chip.paths.front().edges.front()};
  ASSERT_FALSE(chip.caches.empty());
  faulted.faults.storage = {chip.caches.front().edge};

  auto outcome = api::pipeline(graph, faulted).run();
  ASSERT_TRUE(outcome.ok()) << outcome.message();
  const arch::chip& rebuilt = outcome.value().architecture.result;
  const int banned_edge = faulted.faults.edges.front();
  const int banned_storage = faulted.faults.storage.front();
  for (const arch::routed_path& p : rebuilt.paths)
    EXPECT_EQ(std::count(p.edges.begin(), p.edges.end(), banned_edge), 0);
  for (const arch::cache_placement& c : rebuilt.caches) {
    EXPECT_NE(c.edge, banned_edge);
    EXPECT_NE(c.edge, banned_storage);
  }
}

TEST(FaultSynthesis, EveryDeviceFailedIsInfeasible) {
  const auto graph = assay::make_pcr();
  api::pipeline_options o = cheap_pipeline({"PCR", 1, 4});
  o.faults.devices = {0};
  auto outcome = api::pipeline(graph, o).run();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), api::status::infeasible);
}

TEST(FaultSynthesis, FaultOptionsRoundTripThroughFlowDocuments) {
  const auto graph = assay::make_pcr();
  api::pipeline_options o = cheap_pipeline({"PCR", 1, 4});
  o.faults.valves = {2};
  o.faults.edges = {5, 3};
  o.faults.storage = {1};
  auto outcome = api::pipeline(graph, o).run();
  ASSERT_TRUE(outcome.ok()) << outcome.message();
  const std::string doc = api::serialize_flow(graph, o, outcome.value());
  auto restored = api::deserialize_flow(doc);
  ASSERT_TRUE(restored.ok()) << restored.message();
  arch::fault_set expected = o.faults;
  expected.normalize();
  arch::fault_set actual = restored->options.faults;
  actual.normalize();
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(api::serialize_flow(restored->graph, restored->options,
                                restored->flow),
            doc);
}

// ------------------------------------------------------- schedule splicing

TEST(Splice, PrefixKeptVerbatimAndResultValidates) {
  const auto graph = assay::make_ra30();
  const sched::schedule s =
      sched::make_schedule(graph, cheap_scheduler(2)).best;
  const int fault_time = s.makespan() / 2;

  sched::splice_options o;
  o.device_count = 2;
  o.restarts = 2;
  const sched::splice_result spliced =
      sched::splice_schedule(graph, s, fault_time, o);

  spliced.spliced.validate(graph);
  EXPECT_EQ(spliced.prefix_ops.size() + spliced.remainder_ops.size(),
            static_cast<std::size_t>(graph.operation_count()));
  for (int op : spliced.prefix_ops) {
    const sched::scheduled_op* orig = nullptr;
    const sched::scheduled_op* now = nullptr;
    for (const sched::scheduled_op& so : s.ops)
      if (so.op == op) orig = &so;
    for (const sched::scheduled_op& so : spliced.spliced.ops)
      if (so.op == op) now = &so;
    ASSERT_NE(orig, nullptr);
    ASSERT_NE(now, nullptr);
    EXPECT_LT(orig->start, fault_time);
    EXPECT_EQ(now->device, orig->device);
    EXPECT_EQ(now->start, orig->start);
    EXPECT_EQ(now->end, orig->end);
  }
  for (int op : spliced.remainder_ops) {
    for (const sched::scheduled_op& so : s.ops)
      if (so.op == op) {
        EXPECT_GE(so.start, fault_time);
      }
  }
}

TEST(Splice, InFlightOpOnFailedDeviceIsBlocking) {
  const auto graph = assay::make_ra30();
  const sched::schedule s =
      sched::make_schedule(graph, cheap_scheduler(2)).best;
  // Pick a time strictly inside some operation on device 0.
  int fault_time = -1;
  for (const sched::scheduled_op& so : s.ops)
    if (so.device == 0 && so.end - so.start > 1) {
      fault_time = so.start + 1;
      break;
    }
  ASSERT_GE(fault_time, 0);
  const std::vector<bool> failed = {true, false};
  const auto blocked = sched::blocking_resource(graph, s, fault_time, failed);
  ASSERT_TRUE(blocked.has_value());
  EXPECT_NE(blocked->find("device"), std::string::npos) << *blocked;

  sched::splice_options o;
  o.device_count = 2;
  o.failed_devices = failed;
  EXPECT_THROW((void)sched::splice_schedule(graph, s, fault_time, o),
               infeasible_error);
}

// ------------------------------------------------------ the recover ladder

TEST(Recover, SingleDeviceDesignCannotSurviveItsDeviceFailing) {
  const auto graph = assay::make_pcr();
  const api::pipeline_options o = cheap_pipeline({"PCR", 1, 4});
  auto base = api::pipeline(graph, o).run();
  ASSERT_TRUE(base.ok()) << base.message();

  api::recovery_request req;
  req.graph = graph;
  req.options = o;
  req.original = base.value();
  req.faults.devices = {0};
  req.fault_time = base.value().scheduling.best.makespan() / 2;
  auto outcome = api::recover(req);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), api::status::infeasible);
  EXPECT_NE(outcome.message().find("device"), std::string::npos)
      << outcome.message();
}

TEST(Recover, EmptyFaultSetIsInvalidInput) {
  const auto graph = assay::make_pcr();
  const api::pipeline_options o = cheap_pipeline({"PCR", 1, 4});
  auto base = api::pipeline(graph, o).run();
  ASSERT_TRUE(base.ok()) << base.message();
  api::recovery_request req;
  req.graph = graph;
  req.options = o;
  req.original = base.value();
  req.fault_time = 10;
  auto outcome = api::recover(req);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), api::status::invalid_input);
}

/// The ISSUE acceptance loop: for every Table 2 assay, inject the auto
/// scenario (a device failure where survivable plus a storage-channel
/// failure) at ~50% of schedule execution, and require a verifier-passing
/// spliced schedule in which completed operations are never re-executed
/// and the recovery document is byte-identical across runs.
TEST(Recover, AllSixAssaysSurviveMidAssayFaults) {
  for (const assay::benchmark_resources& r :
       assay::benchmark_resource_table()) {
    const auto graph = assay::make_benchmark(r.name);
    const api::pipeline_options o = cheap_pipeline(r);
    auto base = api::pipeline(graph, o).run();
    ASSERT_TRUE(base.ok()) << r.name << ": " << base.message();
    const api::flow_result& flow = base.value();
    const sched::schedule& s = flow.scheduling.best;

    const auto scenario = sim::choose_fault_scenario(
        graph, s, flow.architecture.result, flow.architecture.workload, 0.5);
    ASSERT_TRUE(scenario.has_value()) << r.name;
    if (r.devices > 1) {
      EXPECT_FALSE(scenario->faults.devices.empty()) << r.name;
    }
    EXPECT_FALSE(scenario->faults.storage.empty()) << r.name;

    api::recovery_request req;
    req.graph = graph;
    req.options = o;
    req.original = flow;
    req.faults = scenario->faults;
    req.fault_time = scenario->fault_time;
    auto outcome = api::recover(req);
    ASSERT_TRUE(outcome.has_value()) << r.name << ": " << outcome.message();
    EXPECT_TRUE(outcome.code() == api::status::ok ||
                outcome.code() == api::status::degraded)
        << r.name << ": " << to_string(outcome.code());

    const api::recovery_result& rec = outcome.value();
    const sched::schedule& recovered = rec.recovered.scheduling.best;
    recovered.validate(graph); // throws on structural corruption
    rec.recovered.architecture.result.validate(
        rec.recovered.architecture.workload);
    ASSERT_TRUE(rec.recovered.stats.has_value()) << r.name;
    EXPECT_GT(rec.recovered.stats->transport_legs, 0) << r.name;

    // Completed work is never re-executed: every prefix op keeps its
    // original device and time window, verbatim.
    EXPECT_FALSE(rec.completed_ops.empty()) << r.name;
    for (int op : rec.completed_ops) {
      const sched::scheduled_op* orig = nullptr;
      const sched::scheduled_op* now = nullptr;
      for (const sched::scheduled_op& so : s.ops)
        if (so.op == op) orig = &so;
      for (const sched::scheduled_op& so : recovered.ops)
        if (so.op == op) now = &so;
      ASSERT_NE(orig, nullptr) << r.name;
      ASSERT_NE(now, nullptr) << r.name;
      EXPECT_LT(orig->start, req.fault_time) << r.name;
      EXPECT_EQ(now->device, orig->device) << r.name;
      EXPECT_EQ(now->start, orig->start) << r.name;
      EXPECT_EQ(now->end, orig->end) << r.name;
    }
    // No remainder operation runs on a failed device.
    for (int op : rec.rescheduled_ops)
      for (const sched::scheduled_op& so : recovered.ops)
        if (so.op == op) {
          for (int d : req.faults.devices) EXPECT_NE(so.device, d) << r.name;
        }

    // Determinism: a second recovery produces the identical document.
    const std::string doc = api::to_json(graph, o, rec);
    auto again = api::recover(req);
    ASSERT_TRUE(again.has_value()) << r.name;
    EXPECT_EQ(api::to_json(graph, o, again.value()), doc) << r.name;
  }
}

// --------------------------------------------- checkpoint / resume documents

TEST(Checkpoint, CrossProcessResumeIsByteIdentical) {
  const auto graph = assay::make_ra30();
  const api::pipeline_options o = cheap_pipeline({"RA30", 2, 4});
  auto base = api::pipeline(graph, o).run();
  ASSERT_TRUE(base.ok()) << base.message();
  const api::flow_result& flow = base.value();

  const auto scenario = sim::choose_fault_scenario(
      graph, flow.scheduling.best, flow.architecture.result,
      flow.architecture.workload, 0.5);
  ASSERT_TRUE(scenario.has_value());

  std::string in_process_doc;
  std::string checkpoint_doc;
  {
    const sim::checkpoint state = sim::take_checkpoint(
        flow.scheduling.best, flow.architecture.result,
        flow.architecture.workload, scenario->faults, scenario->fault_time);
    EXPECT_EQ(state.fault_time, scenario->fault_time);
    EXPECT_FALSE(state.completed.empty());

    api::recovery_request req;
    req.graph = graph;
    req.options = o;
    req.original = flow;
    req.faults = scenario->faults;
    req.fault_time = scenario->fault_time;
    auto direct = api::recover(req);
    ASSERT_TRUE(direct.has_value()) << direct.message();
    in_process_doc = api::to_json(graph, o, direct.value());

    checkpoint_doc = api::serialize_checkpoint(graph, o, flow, state);
  }

  // "New process": only the serialized checkpoint crosses the boundary.
  auto restored = api::deserialize_checkpoint(checkpoint_doc);
  ASSERT_TRUE(restored.ok()) << restored.message();
  EXPECT_EQ(api::serialize_checkpoint(restored->graph, restored->options,
                                      restored->flow, restored->state),
            checkpoint_doc);
  auto resumed = api::recover(restored.value());
  ASSERT_TRUE(resumed.has_value()) << resumed.message();
  EXPECT_EQ(api::to_json(restored->graph, restored->options, resumed.value()),
            in_process_doc);
}

TEST(Checkpoint, MalformedDocumentIsStructuredFailure) {
  auto r = api::deserialize_checkpoint("{\"format\":1,\"kind\":\"flow\"}");
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), api::status::invalid_input);
  EXPECT_FALSE(r.message().empty());
}

// ------------------------------------------------------ negative cache tier

api::cache_key key_for_seed(std::uint64_t seed) {
  api::pipeline_options o;
  o.seed = seed;
  return api::make_cache_key(assay::make_pcr(), o);
}

TEST(NegativeCache, StoresReplaysAndEvictsStructuralFailures) {
  api::result_cache cache(api::result_cache_options{4, "", 2});
  const api::cache_key k1 = key_for_seed(1);
  const api::cache_key k2 = key_for_seed(2);
  const api::cache_key k3 = key_for_seed(3);

  EXPECT_FALSE(cache.lookup_negative(k1).has_value());
  cache.store_negative(k1, {api::status::infeasible, "no fit"});
  cache.store_negative(k2, {api::status::invalid_input, "bad graph"});
  auto hit = cache.lookup_negative(k1); // k1 now most recent
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->code, api::status::infeasible);
  EXPECT_EQ(hit->message, "no fit");

  cache.store_negative(k3, {api::status::infeasible, "still no fit"});
  EXPECT_FALSE(cache.lookup_negative(k2).has_value()); // evicted
  EXPECT_TRUE(cache.lookup_negative(k1).has_value());
  EXPECT_TRUE(cache.lookup_negative(k3).has_value());

  // Non-structural codes are dropped, not cached.
  cache.store_negative(key_for_seed(4), {api::status::time_limit, "slow"});
  cache.store_negative(key_for_seed(5), {api::status::internal, "boom"});
  EXPECT_FALSE(cache.lookup_negative(key_for_seed(4)).has_value());
  EXPECT_FALSE(cache.lookup_negative(key_for_seed(5)).has_value());

  const api::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.negative_stores, 3u);
  EXPECT_EQ(stats.negative_evictions, 1u);
  EXPECT_EQ(stats.negative_hits, 3u);
  // Negative probes never touch the positive counters.
  EXPECT_EQ(stats.lookups, 0u);
  EXPECT_EQ(stats.misses, 0u);

  api::result_cache disabled(api::result_cache_options{4, "", 0});
  disabled.store_negative(k1, {api::status::infeasible, "x"});
  EXPECT_FALSE(disabled.lookup_negative(k1).has_value());
}

TEST(NegativeCache, PipelineReplaysInfeasibleWithoutResolving) {
  const auto graph = assay::make_pcr();
  api::pipeline_options o = cheap_pipeline({"PCR", 1, 4});
  o.faults.devices = {0}; // every device failed -> deterministic infeasible

  auto cache = std::make_shared<api::result_cache>();
  auto run = [&] {
    api::pipeline p(graph, o);
    p.set_cache(cache);
    return p.run_cached();
  };
  auto first = run();
  ASSERT_FALSE(first.outcome.has_value());
  EXPECT_EQ(first.outcome.code(), api::status::infeasible);
  EXPECT_FALSE(first.cache_hit);

  auto replay = run();
  ASSERT_FALSE(replay.outcome.has_value());
  EXPECT_EQ(replay.outcome.code(), api::status::infeasible);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(replay.outcome.message(), first.outcome.message());
  EXPECT_EQ(cache->stats().negative_hits, 1u);
  EXPECT_EQ(cache->stats().negative_stores, 1u);
}

TEST(CacheKey, ScenarioTagExtendsTheKeyAndEmptyTagIsThePlainKey) {
  const auto graph = assay::make_pcr();
  const api::pipeline_options o;
  const api::cache_key plain = api::make_cache_key(graph, o);
  const api::cache_key empty_tag = api::make_cache_key(graph, o, "");
  EXPECT_EQ(empty_tag.canonical, plain.canonical);
  EXPECT_EQ(empty_tag.hash, plain.hash);
  EXPECT_EQ(empty_tag.identity, plain.identity);

  const api::cache_key a = api::make_cache_key(graph, o, "recover t=10");
  const api::cache_key b = api::make_cache_key(graph, o, "recover t=20");
  EXPECT_NE(a.canonical, plain.canonical);
  EXPECT_NE(a.canonical, b.canonical);
  EXPECT_NE(a.digest(), b.digest());
}

// --------------------------------------------------- crash-safe disk writes

TEST(ResultCache, TruncatedDiskEntryDegradesToAMiss) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transtore_fault_trunc")
          .string();
  std::filesystem::remove_all(dir);

  const auto graph = assay::make_pcr();
  api::pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  const api::cache_key key = api::make_cache_key(graph, o);
  const std::string path =
      (std::filesystem::path(dir) / (key.digest() + ".json")).string();

  {
    auto cache = std::make_shared<api::result_cache>(
        api::result_cache_options{4, dir});
    api::pipeline p(graph, o);
    p.set_cache(cache);
    auto first = p.run_cached();
    ASSERT_TRUE(first.outcome.ok()) << first.outcome.message();
    ASSERT_TRUE(std::filesystem::exists(path));
  }

  // Simulate a crash mid-write: the entry file exists but holds only a
  // prefix of the document. (The fsync-before-rename write path never
  // publishes such a file itself; this models pre-existing corruption.)
  const auto full_size = std::filesystem::file_size(path);
  ASSERT_GT(full_size, 16u);
  std::filesystem::resize_file(path, full_size / 2);

  api::result_cache cache(api::result_cache_options{4, dir});
  EXPECT_FALSE(static_cast<bool>(cache.lookup(key)));
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- status strings

TEST(Status, DegradedIsANamedOutcome) {
  EXPECT_STREQ(api::to_string(api::status::degraded), "degraded");
  EXPECT_STREQ(api::to_string(api::recovery_rung::none), "none");
  EXPECT_STREQ(api::to_string(api::recovery_rung::reroute), "reroute");
  EXPECT_STREQ(api::to_string(api::recovery_rung::reschedule), "reschedule");
  EXPECT_STREQ(api::to_string(api::recovery_rung::resynthesize),
               "resynthesize");
}

} // namespace
} // namespace transtore
