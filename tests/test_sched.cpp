// Tests for scheduling: the timing model (including exact reproduction of
// the paper's Fig. 2 numbers), the list scheduler, the ILP scheduler, and
// schedule validation.
#include <gtest/gtest.h>

#include <iomanip>

#include "assay/benchmarks.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
#include "sched/metaheuristics.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sched/splice.h"
#include "sched/timing.h"

namespace transtore::sched {
namespace {

using assay::make_benchmark;
using assay::make_fig4_example;
using assay::make_pcr;
using assay::sequencing_graph;

binding pcr_order(const std::vector<int>& order) {
  binding b;
  b.device_of.assign(7, 0);
  b.device_order = {order};
  return b;
}

// ---------------------------------------------------------- Fig. 2 numbers

TEST(Timing, Fig2bScheduleGives290With4StoresCapacity3) {
  // Paper Fig. 2(b): order o1 o2 o3 o4 o6 o5 o7 on one mixer.
  const sequencing_graph g = make_pcr();
  const schedule s =
      refine_timing(g, pcr_order({0, 1, 2, 3, 5, 4, 6}), 1, timing_options{});
  s.validate(g);
  EXPECT_EQ(s.makespan(), 290);
  EXPECT_EQ(s.store_count(), 4);
  EXPECT_EQ(s.peak_concurrent_caches(), 3);
}

TEST(Timing, Fig2cScheduleGives270With3StoresCapacity2) {
  // Paper Fig. 2(c): order o1 o2 o5 o3 o4 o6 o7 -- fewer stores, shorter.
  const sequencing_graph g = make_pcr();
  const schedule s =
      refine_timing(g, pcr_order({0, 1, 4, 2, 3, 5, 6}), 1, timing_options{});
  s.validate(g);
  EXPECT_EQ(s.makespan(), 270);
  EXPECT_EQ(s.store_count(), 3);
  EXPECT_EQ(s.peak_concurrent_caches(), 2);
}

TEST(Timing, HandoffsDetectedInFig2c) {
  const sequencing_graph g = make_pcr();
  const schedule s =
      refine_timing(g, pcr_order({0, 1, 4, 2, 3, 5, 6}), 1, timing_options{});
  int handoffs = 0;
  for (const auto& t : s.transfers)
    if (t.kind == transfer_kind::handoff) ++handoffs;
  EXPECT_EQ(handoffs, 3); // o2->o5, o4->o6, o6->o7
}

TEST(Timing, ReagentLoadsExtendTheTimeline) {
  const sequencing_graph g = make_pcr();
  timing_options with_loads;
  with_loads.count_reagent_loads = true;
  const schedule a =
      refine_timing(g, pcr_order({0, 1, 4, 2, 3, 5, 6}), 1, timing_options{});
  const schedule b =
      refine_timing(g, pcr_order({0, 1, 4, 2, 3, 5, 6}), 1, with_loads);
  b.validate(g);
  EXPECT_GT(b.makespan(), a.makespan());
  // 8 reagent loads at 10s each, all serialized on the single mixer.
  EXPECT_EQ(b.makespan() - a.makespan(), 80);
}

TEST(Timing, TwoDevicesAllowDirectTransfers) {
  // a -> b across devices with nothing else going on: the transfer is a
  // single direct leg of uc.
  sequencing_graph g("direct");
  const int a = g.add_operation("a", 30);
  const int b = g.add_operation("b", 30);
  g.add_dependency(a, b);
  binding bind;
  bind.device_of = {0, 1};
  bind.device_order = {{a}, {b}};
  const schedule s = refine_timing(g, bind, 2, timing_options{});
  s.validate(g);
  ASSERT_EQ(s.transfers.size(), 1u);
  EXPECT_EQ(s.transfers[0].kind, transfer_kind::direct);
  EXPECT_EQ(s.ops[1].start, 40); // 30s mix + 10s transport
  EXPECT_EQ(s.makespan(), 70);
}

TEST(Timing, SameDeviceConsecutiveParentIsHandoff) {
  sequencing_graph g("handoff");
  const int a = g.add_operation("a", 30);
  const int b = g.add_operation("b", 30);
  g.add_dependency(a, b);
  binding bind;
  bind.device_of = {0, 0};
  bind.device_order = {{a, b}};
  const schedule s = refine_timing(g, bind, 1, timing_options{});
  s.validate(g);
  EXPECT_EQ(s.transfers[0].kind, transfer_kind::handoff);
  EXPECT_EQ(s.makespan(), 60); // back to back, no transport at all
}

TEST(Timing, InterveningOpForcesCaching) {
  // a ... x ... b on one device, b consumes a: a's result must be cached
  // while x runs.
  sequencing_graph g("cache");
  const int a = g.add_operation("a", 30);
  const int x = g.add_operation("x", 30);
  const int b = g.add_operation("b", 30);
  g.add_dependency(a, b);
  binding bind;
  bind.device_of = {0, 0, 0};
  bind.device_order = {{a, x, b}};
  const schedule s = refine_timing(g, bind, 1, timing_options{});
  s.validate(g);
  const edge_transfer& t = s.transfers[0];
  EXPECT_EQ(t.kind, transfer_kind::cached);
  // store [30,40), x [40,70), fetch [70,80), b [80,110).
  EXPECT_EQ(t.cache_hold.begin, 40);
  EXPECT_EQ(t.cache_hold.end, 70);
  EXPECT_EQ(s.makespan(), 110);
}

TEST(Timing, TwoChildrenGetSeparateStores) {
  // Fig. 4 discussion: a result consumed by two later ops creates two
  // storage requirements.
  sequencing_graph g("twokids");
  const int a = g.add_operation("a", 30);
  const int x = g.add_operation("x", 30);
  const int c1 = g.add_operation("c1", 30);
  const int c2 = g.add_operation("c2", 30);
  g.add_dependency(a, c1);
  g.add_dependency(a, c2);
  binding bind;
  bind.device_of = {0, 0, 0, 0};
  bind.device_order = {{a, x, c1, c2}};
  const schedule s = refine_timing(g, bind, 1, timing_options{});
  s.validate(g);
  (void)x;
  int cached = 0;
  for (const auto& t : s.transfers)
    if (t.kind == transfer_kind::cached) ++cached;
  EXPECT_EQ(cached, 2);
  EXPECT_EQ(s.peak_concurrent_caches(), 2);
}

TEST(Timing, RejectsMalformedBindings) {
  const sequencing_graph g = make_pcr();
  binding b;
  b.device_of.assign(7, 0);
  b.device_order = {{0, 1, 2, 3, 4, 5}}; // missing op 6
  EXPECT_THROW(refine_timing(g, b, 1, timing_options{}), invalid_input_error);

  binding dup;
  dup.device_of.assign(7, 0);
  dup.device_order = {{0, 1, 2, 3, 4, 5, 6, 0}};
  EXPECT_THROW(refine_timing(g, dup, 1, timing_options{}),
               invalid_input_error);

  // A start schedule on more devices than the engine is given: its ops'
  // devices fall outside the binding's queues.
  const sequencing_graph ra30 = make_benchmark("RA30");
  list_scheduler_options lo;
  lo.device_count = 3;
  sa_scheduler_options so;
  so.device_count = 2;
  so.start = schedule_with_list(ra30, lo);
  EXPECT_THROW((void)schedule_with_sa(ra30, so), invalid_input_error);
}

TEST(Timing, DetectsCrossDeviceDeadlock) {
  // d0: [b, a], d1: [d, c] with a->c... craft a cyclic wait:
  // a (d0, after b), b needs d's output; d (d1, after c), c needs a's output.
  sequencing_graph g("deadlock");
  const int a = g.add_operation("a", 10);
  const int b = g.add_operation("b", 10);
  const int c = g.add_operation("c", 10);
  const int d = g.add_operation("d", 10);
  g.add_dependency(a, c);
  g.add_dependency(d, b);
  binding bind;
  bind.device_of = {0, 0, 1, 1};
  bind.device_order = {{b, a}, {c, d}};
  EXPECT_THROW(refine_timing(g, bind, 2, timing_options{}),
               invalid_input_error);
}

TEST(Timing, ExtractBindingRoundTrips) {
  const sequencing_graph g = make_pcr();
  const schedule s =
      refine_timing(g, pcr_order({0, 1, 4, 2, 3, 5, 6}), 1, timing_options{});
  const binding b = extract_binding(s, 1);
  const schedule s2 = refine_timing(g, b, 1, timing_options{});
  EXPECT_EQ(s2.makespan(), s.makespan());
  EXPECT_EQ(s2.store_count(), s.store_count());
}

// ------------------------------------------------------------ list scheduler

TEST(ListScheduler, FindsTheGoodPcrOrder) {
  // Storage-aware greedy must do at least as well as Fig. 2(c).
  list_scheduler_options o;
  o.device_count = 1;
  o.storage_aware = true;
  const schedule s = schedule_with_list(make_pcr(), o);
  EXPECT_LE(s.makespan(), 270);
  EXPECT_LE(s.store_count(), 3);
}

TEST(ListScheduler, StorageAwareBeatsTimeOnlyOnStores) {
  list_scheduler_options aware;
  aware.device_count = 1;
  aware.storage_aware = true;
  list_scheduler_options blind = aware;
  blind.storage_aware = false;
  blind.restarts = 1; // pure makespan greedy
  const schedule sa = schedule_with_list(make_pcr(), aware);
  const schedule sb = schedule_with_list(make_pcr(), blind);
  EXPECT_LE(sa.total_cache_time(), sb.total_cache_time());
}

TEST(ListScheduler, MoreDevicesNeverWorse) {
  const sequencing_graph g = make_benchmark("IVD");
  list_scheduler_options one;
  one.device_count = 1;
  list_scheduler_options two;
  two.device_count = 2;
  const int m1 = schedule_with_list(g, one).makespan();
  const int m2 = schedule_with_list(g, two).makespan();
  EXPECT_LE(m2, m1);
}

TEST(ListScheduler, DeterministicForSeed) {
  list_scheduler_options o;
  o.device_count = 2;
  o.seed = 99;
  const schedule a = schedule_with_list(make_benchmark("RA30"), o);
  const schedule b = schedule_with_list(make_benchmark("RA30"), o);
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.store_count(), b.store_count());
}

TEST(ListScheduler, RejectsBadOptions) {
  list_scheduler_options o;
  o.device_count = 0;
  EXPECT_THROW(schedule_with_list(make_pcr(), o), invalid_input_error);
  o.device_count = 1;
  o.restarts = 0;
  EXPECT_THROW(schedule_with_list(make_pcr(), o), invalid_input_error);
}

TEST(ListScheduler, MakespanNeverBelowCriticalPath) {
  for (const char* name : {"PCR", "IVD", "RA30"}) {
    const sequencing_graph g = make_benchmark(name);
    list_scheduler_options o;
    o.device_count = 3;
    const schedule s = schedule_with_list(g, o);
    EXPECT_GE(s.makespan(), g.critical_path_duration()) << name;
  }
}

// ------------------------------------------------------------- ILP scheduler

TEST(IlpScheduler, SolvesTinyChainOptimally) {
  sequencing_graph g("chain");
  const int a = g.add_operation("a", 30);
  const int b = g.add_operation("b", 30);
  g.add_dependency(a, b);
  ilp_scheduler_options o;
  o.device_count = 1;
  o.time_limit_seconds = 10;
  const ilp_schedule_result r = schedule_with_ilp(g, o);
  EXPECT_EQ(r.refined.makespan(), 60); // handoff, no transport
  EXPECT_TRUE(r.status == milp::solve_status::optimal ||
              r.status == milp::solve_status::feasible);
}

TEST(IlpScheduler, PcrOneMixerMatchesHeuristic) {
  ilp_scheduler_options o;
  o.device_count = 1;
  o.time_limit_seconds = 20;
  // Warm-start with the heuristic like the combined engine does.
  list_scheduler_options lo;
  lo.device_count = 1;
  o.warm_start = schedule_with_list(make_pcr(), lo);
  const ilp_schedule_result r = schedule_with_ilp(make_pcr(), o);
  r.refined.validate(make_pcr());
  EXPECT_LE(r.refined.makespan(), 290);
}

TEST(IlpScheduler, TwoDevicesShortenPcr) {
  ilp_scheduler_options o;
  o.device_count = 2;
  o.time_limit_seconds = 20;
  list_scheduler_options lo;
  lo.device_count = 2;
  o.warm_start = schedule_with_list(make_pcr(), lo);
  const ilp_schedule_result r = schedule_with_ilp(make_pcr(), o);
  EXPECT_LT(r.refined.makespan(), 270); // beats the 1-mixer optimum
}

TEST(IlpScheduler, ReportsModelSize) {
  ilp_scheduler_options o;
  o.device_count = 2;
  o.time_limit_seconds = 5;
  const ilp_schedule_result r = schedule_with_ilp(make_fig4_example(), o);
  EXPECT_GT(r.variables, 10);
  EXPECT_GT(r.constraints, 10);
}

// ---------------------------------------------------------------- facade

TEST(Scheduler, CombinedPicksBestAndValidates) {
  scheduler_options o;
  o.device_count = 2;
  o.ilp_time_limit_seconds = 10;
  const scheduling_result r = make_schedule(make_benchmark("IVD"), o);
  EXPECT_TRUE(r.used_ilp);
  EXPECT_GT(r.best.makespan(), 0);
}

TEST(Scheduler, HeuristicOnlySkipsIlp) {
  scheduler_options o;
  o.engine = schedule_engine::heuristic;
  const scheduling_result r = make_schedule(make_pcr(), o);
  EXPECT_FALSE(r.used_ilp);
}

TEST(Scheduler, RowLimitSkipsIlpOnLargeAssays) {
  scheduler_options o;
  o.device_count = 3;
  o.ilp_row_limit = 100; // force the skip
  const scheduling_result r = make_schedule(make_benchmark("RA30"), o);
  EXPECT_FALSE(r.used_ilp);
  EXPECT_TRUE(r.ilp_skipped_too_large);
}

// ---------------------------------------------------- pinned trajectories

// FNV-1a over every device queue: any change to which op runs where, or in
// which order, changes it.
std::uint64_t order_fingerprint(const schedule& s) {
  const binding b = extract_binding(s, s.device_count);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const auto& queue : b.device_order) {
    for (int op : queue) mix(static_cast<std::uint64_t>(op));
    mix(0xFFFFFFFFULL); // queue separator
  }
  return h;
}

TEST(Sched, HeuristicTrajectoriesArePinned) {
  // The exact results of every heuristic engine on generated assays at
  // fixed seeds and iteration budgets (no wall-clock limits, so nothing
  // here depends on speed). Any change to the RNG draws, the move set,
  // the timing model or the acceptance test shows up as a different
  // objective, makespan, cache time or device order.
  struct pinned {
    const char* engine;
    double objective;
    int makespan;
    long cache_time;
    std::uint64_t orders;
  };
  struct pinned_case {
    int operations;
    std::uint64_t seed;
    int devices;
    bool reagent_loads;
    int storage_ports;
    pinned expected[4];
  };
  const pinned_case cases[] = {
      {8, 3, 2, false, 0,
       {{"list", 176, 170, 40, 0xad7f4e2c8bf92631ULL},
        {"sa", 176, 170, 40, 0x384be917c8cee42bULL},
        {"grasp", 176, 170, 40, 0xdbeec34b88c93dd1ULL},
        {"improve", 176, 170, 40, 0xdbeec34b88c93dd1ULL}}},
      {12, 5, 3, false, 0,
       {{"list", 236, 230, 40, 0x5e4b693a75b12c30ULL},
        {"sa", 234.5, 230, 30, 0xfab4e636937a91b0ULL},
        {"grasp", 234.5, 230, 30, 0x665e5e6e427e32aaULL},
        {"improve", 255, 240, 100, 0xacef26015cefddaULL}}},
      {16, 7, 2, false, 0,
       {{"list", 450.5, 380, 470, 0xb8c5354aab0f0513ULL},
        {"sa", 456.5, 380, 510, 0x298d9d26dbd473bdULL},
        {"grasp", 439, 370, 460, 0xaa1416c406d2bb35ULL},
        {"improve", 430, 370, 400, 0x12a179803fb37f15ULL}}},
      {20, 11, 4, false, 0,
       {{"list", 400.5, 390, 70, 0x98e4fd2034a5c66fULL},
        {"sa", 406.5, 390, 110, 0x13b6fba0313d3855ULL},
        {"grasp", 419.5, 400, 130, 0x5a616b7f4786aa33ULL},
        {"improve", 429.5, 410, 130, 0xa11f147ea9aa52bdULL}}},
      {25, 13, 3, true, 0,
       {{"list", 692, 590, 680, 0x6585b83bea0ba306ULL},
        {"sa", 682.5, 600, 550, 0xdcf6252c0affd3e0ULL},
        {"grasp", 702, 600, 680, 0x2fe4024880c8a0eULL},
        {"improve", 690, 600, 600, 0xca56821774c0dc0aULL}}},
      {30, 17, 2, false, 1,
       {{"list", 1130, 740, 2600, 0x209743976b437366ULL},
        {"sa", 1065, 690, 2500, 0xa46ae552f9c2f76cULL},
        {"grasp", 1100.5, 730, 2470, 0x274c73153b662002ULL},
        {"improve", 1080.5, 710, 2470, 0x43fd1164d6a46dcULL}}},
  };
  for (const pinned_case& c : cases) {
    const sequencing_graph g = assay::make_random_assay(c.operations, c.seed);
    timing_options timing;
    timing.count_reagent_loads = c.reagent_loads;
    timing.storage_ports = c.storage_ports;

    list_scheduler_options lo;
    lo.device_count = c.devices;
    lo.timing = timing;
    lo.restarts = 8;
    lo.seed = c.seed;
    const schedule list = schedule_with_list(g, lo);

    sa_scheduler_options so;
    so.device_count = c.devices;
    so.timing = timing;
    so.iterations = 1500;
    so.seed = c.seed;
    const schedule sa = schedule_with_sa(g, so);

    grasp_scheduler_options go;
    go.device_count = c.devices;
    go.timing = timing;
    go.rounds = 3;
    go.improvement_iterations = 400;
    go.seed = c.seed;
    const schedule grasp = schedule_with_grasp(g, go);

    // Started from a one-restart, storage-blind list schedule (weaker than
    // the engines above), so the post-pass has room to move and its
    // acceptance path is exercised.
    list_scheduler_options blind = lo;
    blind.restarts = 1;
    blind.storage_aware = false;
    const schedule start = schedule_with_list(g, blind);
    local_search_options io;
    io.iterations = 1500;
    io.seed = c.seed;
    const schedule improved = improve_schedule(g, start, timing, io);

    const std::pair<const char*, const schedule*> results[] = {
        {"list", &list}, {"sa", &sa}, {"grasp", &grasp}, {"improve", &improved}};
    for (std::size_t k = 0; k < 4; ++k) {
      const schedule& s = *results[k].second;
      s.validate(g);
      const pinned& e = c.expected[k];
      const double objective = s.objective(1.0, 0.15);
      const std::uint64_t orders = order_fingerprint(s);
      const bool same = objective == e.objective &&
                        s.makespan() == e.makespan &&
                        s.total_cache_time() == e.cache_time &&
                        orders == e.orders;
      EXPECT_TRUE(same) << c.operations << " ops, seed " << c.seed << ", "
                        << results[k].first << ": got {\"" << results[k].first
                        << "\", " << std::setprecision(17) << objective << ", "
                        << s.makespan() << ", " << s.total_cache_time()
                        << ", 0x" << std::hex << orders << std::dec << "ULL}";
    }
  }
}

TEST(Sched, SpliceTrajectoriesArePinned) {
  // The exact re-planned results of splice_schedule on generated assays:
  // faults at 1/4, 1/2 and 3/4 of the original makespan, with no failed
  // device and with one failed device, storage-aware and storage-blind (no
  // wall-clock limits). The failed device is the lowest-numbered one whose
  // failure the fault leaves recoverable, or device 0 when there is none.
  // The original is a one-pass storage-blind list schedule, so the re-plan
  // has room to differ from it. Any change to the greedy score, its noise,
  // its tie rule, the restart ladder or the device veto shows up here. A
  // case whose fault leaves a fluid or an operation stuck on the failed
  // device pins the infeasible_error instead.
  struct pinned {
    bool infeasible;
    double objective;
    int makespan;
    long cache_time;
    std::uint64_t orders;
  };
  struct assay_case {
    int operations;
    std::uint64_t seed;
    int devices;
    bool reagent_loads;
  };
  const assay_case assays[] = {
      {12, 21, 2, false}, {16, 22, 3, false}, {20, 23, 2, true},
      {28, 24, 3, false}};
  // One row per (assay, fault quarter, failed device, storage_aware), in
  // that nesting order.
  const pinned expected[] = {
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {false, 493, 430, 420, 0x81d7cf20f95d3f5bULL},
      {false, 493, 430, 420, 0x81d7cf20f95d3f5bULL},
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {false, 318, 300, 120, 0x8f2d4ba72b1aa5e3ULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 420, 420, 0, 0x70d8d93951573848ULL},
      {false, 421.5, 420, 10, 0x60a1de1af99495a8ULL},
      {false, 485, 470, 100, 0xca5a835b351fd45cULL},
      {false, 488, 470, 120, 0xb75bf576f47d7298ULL},
      {false, 420, 420, 0, 0x70d8d93951573848ULL},
      {false, 421.5, 420, 10, 0x60a1de1af99495a8ULL},
      {false, 485, 470, 100, 0xca5a835b351fd45cULL},
      {false, 448, 430, 120, 0xd7db490b9664855aULL},
      {false, 420, 420, 0, 0x70d8d93951573848ULL},
      {false, 421.5, 420, 10, 0x60a1de1af99495a8ULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 702, 600, 680, 0x6f139d9111a532bULL},
      {false, 682.5, 570, 750, 0x3b0161a13cc070ffULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 702, 600, 680, 0xc9a65bf3ef158573ULL},
      {false, 650.5, 550, 670, 0x2a7f9b4b064bfd97ULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 682.5, 570, 750, 0x3b0161a13cc070ffULL},
      {false, 682.5, 570, 750, 0x3b0161a13cc070ffULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 603.29999999999995, 540, 422, 0xb09b454b2343b332ULL},
      {false, 590, 530, 400, 0x33711ebc37534a5aULL},
      {false, 873, 720, 1020, 0x259d256f2db5bcb2ULL},
      {false, 852.5, 650, 1350, 0x46b913d8e172d84ULL},
      {false, 590, 530, 400, 0x33711ebc37534a5aULL},
      {false, 590, 530, 400, 0x33711ebc37534a5aULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
      {false, 590, 530, 400, 0x33711ebc37534a5aULL},
      {false, 590, 530, 400, 0x33711ebc37534a5aULL},
      {true, 0, 0, 0, 0},
      {true, 0, 0, 0, 0},
  };
  std::size_t row = 0;
  for (const assay_case& c : assays) {
    const sequencing_graph g = assay::make_random_assay(c.operations, c.seed);
    timing_options timing;
    timing.count_reagent_loads = c.reagent_loads;
    list_scheduler_options lo;
    lo.device_count = c.devices;
    lo.timing = timing;
    lo.restarts = 1;
    lo.storage_aware = false;
    lo.seed = c.seed;
    const schedule original = schedule_with_list(g, lo);
    for (int quarter = 1; quarter <= 3; ++quarter) {
      const int fault_time = original.makespan() * quarter / 4;
      for (bool one_failed : {false, true}) {
        std::vector<bool> failed;
        if (one_failed) {
          int pick = 0;
          for (int d = 0; d < c.devices; ++d) {
            std::vector<bool> only(static_cast<std::size_t>(c.devices), false);
            only[static_cast<std::size_t>(d)] = true;
            if (!blocking_resource(g, original, fault_time, only)) {
              pick = d;
              break;
            }
          }
          failed.assign(static_cast<std::size_t>(c.devices), false);
          failed[static_cast<std::size_t>(pick)] = true;
        }
        for (bool storage_aware : {true, false}) {
          ASSERT_LT(row, std::size(expected));
          const pinned& e = expected[row++];
          splice_options o;
          o.device_count = c.devices;
          o.timing = timing;
          o.failed_devices = failed;
          o.storage_aware = storage_aware;
          o.seed = c.seed;
          const std::string where =
              std::to_string(c.operations) + " ops, fault " +
              std::to_string(fault_time) +
              (one_failed ? ", one device failed" : ", none failed") +
              (storage_aware ? ", storage-aware" : ", storage-blind");
          if (e.infeasible) {
            EXPECT_THROW((void)splice_schedule(g, original, fault_time, o),
                         infeasible_error)
                << where;
            continue;
          }
          schedule s;
          try {
            s = splice_schedule(g, original, fault_time, o).spliced;
          } catch (const infeasible_error&) {
            ADD_FAILURE() << where << ": got {true, 0, 0, 0, 0}";
            continue;
          }
          s.validate(g);
          const double objective = s.objective(1.0, 0.15);
          const std::uint64_t orders = order_fingerprint(s);
          const bool same = objective == e.objective &&
                            s.makespan() == e.makespan &&
                            s.total_cache_time() == e.cache_time &&
                            orders == e.orders;
          EXPECT_TRUE(same) << where << ": got {false, "
                            << std::setprecision(17) << objective << ", "
                            << s.makespan() << ", " << s.total_cache_time()
                            << ", 0x" << std::hex << orders << std::dec
                            << "ULL}";
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(expected));
}

// Property sweep: random assays, random device counts -- every schedule
// passes full structural validation and beats no trivial lower bound.
class ScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleSweep, AlwaysValidAndBounded) {
  const int case_id = GetParam();
  const int n = 5 + (case_id * 7) % 40;
  const int devices = 1 + case_id % 4;
  const sequencing_graph g =
      assay::make_random_assay(n, 5000 + static_cast<std::uint64_t>(case_id));
  list_scheduler_options o;
  o.device_count = devices;
  o.seed = static_cast<std::uint64_t>(case_id);
  o.restarts = 4;
  const schedule s = schedule_with_list(g, o);
  s.validate(g); // throws on any structural violation
  EXPECT_GE(s.makespan(), g.critical_path_duration());
  // Serial upper bound with full transport overhead on every edge/op.
  EXPECT_LE(s.makespan(),
            g.total_duration() + 10 * (2 * g.edge_count() + 2 * n));
  // Storage analytics consistency: the peak counts transfers with
  // non-empty holds (a zero-length hold is a store immediately followed by
  // its fetch and never occupies storage at any instant).
  long hold_sum = 0;
  int nonempty_holds = 0;
  for (const auto& t : s.transfers)
    if (t.kind == transfer_kind::cached) {
      hold_sum += t.cache_hold.length();
      if (!t.cache_hold.empty()) ++nonempty_holds;
    }
  EXPECT_EQ(hold_sum, s.total_cache_time());
  EXPECT_GE(s.peak_concurrent_caches(), nonempty_holds > 0 ? 1 : 0);
  EXPECT_LE(s.peak_concurrent_caches(), nonempty_holds);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleSweep, ::testing::Range(0, 24));

} // namespace
} // namespace transtore::sched
