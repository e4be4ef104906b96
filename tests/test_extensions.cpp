// Tests for the extensions layered over the paper's synthesis flow: schedule
// local search, the dedicated-storage timing mode, and the JSON reporter.
#include <gtest/gtest.h>

#include "api/pipeline.h"
#include "assay/benchmarks.h"
#include "common/json.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
#include "sched/timing.h"

namespace transtore {
namespace {

TEST(LocalSearch, NeverWorseThanStart) {
  const auto graph = assay::make_benchmark("RA30");
  sched::list_scheduler_options lo;
  lo.device_count = 2;
  const sched::schedule start = sched::schedule_with_list(graph, lo);
  sched::local_search_options o;
  o.iterations = 2000;
  const sched::schedule improved =
      sched::improve_schedule(graph, start, sched::timing_options{}, o);
  improved.validate(graph);
  EXPECT_LE(improved.objective(o.alpha, o.beta),
            start.objective(o.alpha, o.beta));
}

TEST(LocalSearch, ZeroIterationsIsIdentity) {
  const auto graph = assay::make_pcr();
  sched::list_scheduler_options lo;
  lo.device_count = 1;
  const sched::schedule start = sched::schedule_with_list(graph, lo);
  sched::local_search_options o;
  o.iterations = 0;
  const sched::schedule same =
      sched::improve_schedule(graph, start, sched::timing_options{}, o);
  EXPECT_EQ(same.makespan(), start.makespan());
  EXPECT_EQ(same.store_count(), start.store_count());
}

TEST(LocalSearch, DeterministicForSeed) {
  const auto graph = assay::make_benchmark("RA30");
  sched::list_scheduler_options lo;
  lo.device_count = 2;
  const sched::schedule start = sched::schedule_with_list(graph, lo);
  sched::local_search_options o;
  o.iterations = 1500;
  o.seed = 42;
  const auto a = sched::improve_schedule(graph, start, {}, o);
  const auto b = sched::improve_schedule(graph, start, {}, o);
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.total_cache_time(), b.total_cache_time());
}

TEST(DedicatedTiming, MultiPortUnitIsFasterThanSinglePort) {
  // Extension: a 2-port unit relieves the queue but never beats
  // distributed storage.
  const auto graph = assay::make_benchmark("RA30");
  sched::list_scheduler_options lo;
  lo.device_count = 2;
  const sched::schedule ours = sched::schedule_with_list(graph, lo);
  const sched::binding b = sched::extract_binding(ours, 2);
  sched::timing_options one_port;
  one_port.storage_ports = 1;
  const auto dedicated = sched::refine_timing(graph, b, 2, one_port);
  EXPECT_GE(dedicated.makespan(), ours.makespan());
}

TEST(JsonReport, WellFormedAndComplete) {
  const auto graph = assay::make_pcr();
  api::pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  o.run_baseline = true;
  const auto r = api::pipeline(graph, o).run();
  ASSERT_TRUE(r.ok()) << r.message();
  const std::string json = api::to_json(graph, r.value());
  // Structural sanity: balanced braces/brackets, key fields present.
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (const char* field :
       {"\"assay\"", "\"schedule\"", "\"architecture\"", "\"layout\"",
        "\"verification\"", "\"dedicated_storage_baseline\"", "\"makespan\"",
        "\"valves\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;
}

TEST(JsonReport, EscapesSpecialCharacters) {
  json_writer w;
  w.begin_object();
  w.field("text", std::string("a\"b\\c\nd"));
  w.end_object();
  EXPECT_EQ(w.str(), "{\"text\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonReport, NumbersAndBooleans) {
  json_writer w;
  w.begin_object();
  w.field("i", 42);
  w.field("d", 2.5);
  w.field("b", true);
  w.begin_array("a");
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"i\":42,\"d\":2.5,\"b\":true,\"a\":[1,2]}");
}

} // namespace
} // namespace transtore
