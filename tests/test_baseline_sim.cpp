// Tests for the dedicated-storage baseline (Fig. 10 comparator) and the
// independent chip simulator.
#include <gtest/gtest.h>

#include "arch/synthesis.h"
#include "assay/benchmarks.h"
#include "baseline/dedicated_storage.h"
#include "sched/list_scheduler.h"
#include "sim/simulator.h"

namespace transtore {
namespace {

sched::schedule make_sched(const char* name, int devices) {
  sched::list_scheduler_options so;
  so.device_count = devices;
  return sched::schedule_with_list(assay::make_benchmark(name), so);
}

// ----------------------------------------------------------------- baseline

TEST(Baseline, UnitValveModel) {
  EXPECT_EQ(baseline::storage_unit_valves(0), 0);
  EXPECT_EQ(baseline::storage_unit_valves(1), 2 + 2 + 2);   // 1 cell
  EXPECT_EQ(baseline::storage_unit_valves(2), 4 + 2 + 2);   // log2(2)=1
  EXPECT_EQ(baseline::storage_unit_valves(8), 16 + 6 + 2);  // Fig. 1(c)
  EXPECT_THROW((void)baseline::storage_unit_valves(-1), invalid_input_error);
}

TEST(Baseline, DedicatedStorageProlongsExecution) {
  const auto graph = assay::make_pcr();
  const sched::schedule ours = make_sched("PCR", 1);
  baseline::baseline_options o;
  const baseline::baseline_result b =
      baseline::evaluate_baseline(graph, ours, o);
  // Port serialization and no direct transfers can only slow things down.
  EXPECT_GE(b.makespan, ours.makespan());
  EXPECT_GE(b.storage_cells, ours.peak_concurrent_caches());
}

TEST(Baseline, RetimedScheduleHasNoDirectTransfers) {
  const auto graph = assay::make_benchmark("IVD");
  const sched::schedule ours = make_sched("IVD", 2);
  baseline::baseline_options o;
  const baseline::baseline_result b =
      baseline::evaluate_baseline(graph, ours, o);
  for (const auto& t : b.retimed.transfers)
    EXPECT_NE(t.kind, sched::transfer_kind::direct)
        << "dedicated unit forces store+fetch for every transfer";
}

TEST(Baseline, ValveTotalsIncludeTheUnit) {
  const auto graph = assay::make_pcr();
  const sched::schedule ours = make_sched("PCR", 1);
  baseline::baseline_options o;
  const baseline::baseline_result b =
      baseline::evaluate_baseline(graph, ours, o);
  EXPECT_EQ(b.total_valves, b.chip_valves + b.unit_valves);
  EXPECT_GT(b.unit_valves, 0);
}

TEST(Baseline, Fig10ShapeOursWinsOnTimeForBusyAssays) {
  // The paper's headline: channel caching beats the dedicated unit on
  // execution time; the gap grows with storage traffic.
  const auto graph = assay::make_benchmark("RA30");
  const sched::schedule ours = make_sched("RA30", 2);
  baseline::baseline_options o;
  const baseline::baseline_result b =
      baseline::evaluate_baseline(graph, ours, o);
  EXPECT_LT(static_cast<double>(ours.makespan()) / b.makespan, 1.0);
}

// ---------------------------------------------------------------- simulator

TEST(Simulator, VerifiesFullPcrDesign) {
  const auto graph = assay::make_pcr();
  const sched::schedule s = make_sched("PCR", 1);
  arch::arch_options ao;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  const sim::sim_stats stats =
      sim::simulate(graph, s, a.workload, a.result);
  EXPECT_EQ(stats.makespan, s.makespan());
  EXPECT_EQ(stats.cached_samples, s.store_count());
  EXPECT_GT(stats.device_busy_time, 0);
  EXPECT_GT(stats.device_utilization, 0.0);
  EXPECT_LE(stats.device_utilization, 1.0);
}

TEST(Simulator, UtilizationReflectsSerialMixing) {
  // One mixer executing 7 x 30s of mixing in a 270s schedule: 210/270.
  const auto graph = assay::make_pcr();
  const sched::schedule s = make_sched("PCR", 1);
  arch::arch_options ao;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  const sim::sim_stats stats = sim::simulate(graph, s, a.workload, a.result);
  EXPECT_NEAR(stats.device_utilization,
              210.0 / static_cast<double>(s.makespan()), 1e-9);
}

TEST(Simulator, SnapshotListsActivity) {
  const auto graph = assay::make_pcr();
  const sched::schedule s = make_sched("PCR", 1);
  arch::arch_options ao;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  // Pick a time when something is held in storage.
  int t = 0;
  for (const auto& tr : s.transfers)
    if (tr.kind == sched::transfer_kind::cached && !tr.cache_hold.empty())
      t = tr.cache_hold.begin;
  const std::string snap = sim::snapshot(graph, s, a.workload, a.result, t);
  EXPECT_NE(snap.find("executing:"), std::string::npos);
  EXPECT_NE(snap.find("held samples:"), std::string::npos);
  EXPECT_EQ(snap.find("held samples: (none)"), std::string::npos)
      << "a sample should be held at t=" << t;
}

TEST(Simulator, DetectsTamperedSchedule) {
  const auto graph = assay::make_pcr();
  sched::schedule s = make_sched("PCR", 1);
  arch::arch_options ao;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  // Corrupt: shift one op earlier so its operand cannot have arrived.
  for (auto& op : s.ops)
    if (!graph.at(op.op).parents.empty()) {
      op.start -= s.transport_time;
      op.end -= s.transport_time;
      break;
    }
  EXPECT_THROW((void)sim::simulate(graph, s, a.workload, a.result), ts_error);
}

// Property sweep: simulate every synthesized random design end to end.
class SimSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimSweep, EndToEndConsistency) {
  const int id = GetParam();
  const auto graph =
      assay::make_random_assay(8 + id * 4, 31 + static_cast<std::uint64_t>(id));
  sched::list_scheduler_options so;
  so.device_count = 1 + id % 3;
  so.restarts = 2;
  const sched::schedule s = sched::schedule_with_list(graph, so);
  arch::arch_options ao;
  if (so.device_count >= 3) ao.grid_width = ao.grid_height = 5;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  const sim::sim_stats stats = sim::simulate(graph, s, a.workload, a.result);
  EXPECT_EQ(stats.operations, graph.operation_count());
  EXPECT_GE(stats.max_active_segments, 0);
  EXPECT_LE(stats.mean_active_segments, a.result.used_edge_count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimSweep, ::testing::Range(0, 10));

} // namespace
} // namespace transtore
