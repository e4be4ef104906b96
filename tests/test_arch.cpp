// Tests for architectural synthesis: grid geometry, workload derivation,
// placement, the time-multiplexed router with channel storage, the ILP
// formulation, and the synthesis facade.
#include <gtest/gtest.h>

#include "arch/connection_grid.h"
#include "arch/ilp_synthesis.h"
#include "arch/placement.h"
#include "arch/router.h"
#include "arch/synthesis.h"
#include "arch/workload.h"
#include "assay/benchmarks.h"
#include "sched/list_scheduler.h"
#include "sched/timing.h"

namespace transtore::arch {
namespace {

using assay::make_pcr;
using assay::sequencing_graph;

sched::schedule pcr_schedule(int devices = 1) {
  sched::list_scheduler_options o;
  o.device_count = devices;
  return sched::schedule_with_list(make_pcr(), o);
}

// ------------------------------------------------------------------- grid

TEST(ConnectionGrid, CountsAndIndexing) {
  const connection_grid g(4, 4);
  EXPECT_EQ(g.node_count(), 16);
  EXPECT_EQ(g.edge_count(), 24); // 3*4 horizontal + 4*3 vertical
  EXPECT_EQ(g.total_valve_capacity(), 48);
  const connection_grid g5(5, 5);
  EXPECT_EQ(g5.edge_count(), 40);
}

TEST(ConnectionGrid, EdgeEndpointsRoundTrip) {
  const connection_grid g(4, 3);
  for (int e = 0; e < g.edge_count(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(g.edge_between(u, v), e);
    EXPECT_EQ(g.edge_between(v, u), e);
    EXPECT_EQ(g.distance(u, v), 1);
  }
}

TEST(ConnectionGrid, NonAdjacentNodesHaveNoEdge) {
  const connection_grid g(4, 4);
  EXPECT_EQ(g.edge_between(g.node_at(0, 0), g.node_at(2, 0)), -1);
  EXPECT_EQ(g.edge_between(g.node_at(0, 0), g.node_at(1, 1)), -1);
}

TEST(ConnectionGrid, IncidenceDegrees) {
  const connection_grid g(4, 4);
  EXPECT_EQ(g.incidences(g.node_at(0, 0)).size(), 2u); // corner
  EXPECT_EQ(g.incidences(g.node_at(1, 0)).size(), 3u); // border
  EXPECT_EQ(g.incidences(g.node_at(1, 1)).size(), 4u); // interior
}

TEST(ConnectionGrid, RejectsTinyGrids) {
  EXPECT_THROW(connection_grid(1, 5), invalid_input_error);
}

TEST(ConnectionGrid, DistanceToEdge) {
  const connection_grid g(4, 4);
  const int e = g.edge_between(g.node_at(0, 0), g.node_at(1, 0));
  EXPECT_EQ(g.distance_to_edge(g.node_at(0, 0), e), 0);
  EXPECT_EQ(g.distance_to_edge(g.node_at(3, 3), e), 5); // to node (1,0)
}

// --------------------------------------------------------------- workload

TEST(Workload, DerivesTasksFromSchedule) {
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  // Every cached transfer yields store+fetch; direct yields one task.
  int expected_tasks = 0;
  for (const auto& t : s.transfers) {
    if (t.kind == sched::transfer_kind::cached) expected_tasks += 2;
    if (t.kind == sched::transfer_kind::direct) expected_tasks += 1;
  }
  EXPECT_EQ(static_cast<int>(w.tasks.size()), expected_tasks);
  EXPECT_EQ(static_cast<int>(w.caches.size()), s.store_count());
  for (const auto& c : w.caches) {
    EXPECT_EQ(w.tasks[static_cast<std::size_t>(c.store_task)].kind,
              task_kind::store);
    EXPECT_EQ(w.tasks[static_cast<std::size_t>(c.fetch_task)].kind,
              task_kind::fetch);
    EXPECT_EQ(w.tasks[static_cast<std::size_t>(c.store_task)].cache_id, c.id);
  }
}

TEST(Workload, TimeOrderIsSorted) {
  const routing_workload w = derive_workload(pcr_schedule());
  const auto order = w.tasks_in_time_order();
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(w.tasks[static_cast<std::size_t>(order[i - 1])].window.begin,
              w.tasks[static_cast<std::size_t>(order[i])].window.begin);
}

// -------------------------------------------------------------- placement

TEST(Placement, PlacesAllDevicesOnDistinctNodes) {
  const connection_grid g(4, 4);
  const routing_workload w = derive_workload(pcr_schedule(3));
  const auto nodes = place_devices(g, w, placement_options{});
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_NE(nodes[0], nodes[1]);
  EXPECT_NE(nodes[1], nodes[2]);
  EXPECT_NE(nodes[0], nodes[2]);
}

TEST(Placement, CommunicatingDevicesEndUpClose) {
  const connection_grid g(4, 4);
  const routing_workload w = derive_workload(pcr_schedule(2));
  const auto nodes = place_devices(g, w, placement_options{});
  // Two devices exchanging fluids should sit within a few hops.
  EXPECT_LE(g.distance(nodes[0], nodes[1]), 3);
}

TEST(Placement, GridTooSmallThrows) {
  const connection_grid g(2, 2);
  routing_workload w;
  w.device_count = 5;
  EXPECT_THROW(place_devices(g, w, placement_options{}), capacity_error);
}

TEST(Placement, DeterministicForSeed) {
  const connection_grid g(4, 4);
  const routing_workload w = derive_workload(pcr_schedule(2));
  const auto a = place_devices(g, w, placement_options{});
  const auto b = place_devices(g, w, placement_options{});
  EXPECT_EQ(a, b);
}

TEST(Placement, TrajectoryIsPinned) {
  // The annealer's exact result at fixed seeds: any change to its RNG
  // draws, move set, cost model or acceptance test shows up here as
  // different nodes or a different cost.
  struct pinned_case {
    int operations;
    std::uint64_t seed;
    int devices;
    int side;
    int iterations;
    bool ban_nodes;
    std::vector<int> nodes;
    long cost;
  };
  const pinned_case cases[] = {
      {12, 3, 2, 4, 4000, false, {6, 9}, 11},
      {20, 5, 3, 5, 4000, false, {18, 12, 8}, 27},
      {30, 7, 4, 6, 4000, false, {21, 14, 16, 9}, 36},
      {25, 9, 4, 5, 100, false, {6, 12, 18, 16}, 40},
      {30, 11, 3, 6, 4000, true, {14, 26, 19}, 38},
      {40, 13, 6, 6, 4000, true, {8, 20, 25, 13, 22, 10}, 76},
  };
  for (const pinned_case& c : cases) {
    sched::list_scheduler_options lo;
    lo.device_count = c.devices;
    lo.restarts = 4;
    const routing_workload w = derive_workload(sched::schedule_with_list(
        assay::make_random_assay(c.operations, c.seed), lo));
    const connection_grid g(c.side, c.side);
    placement_options o;
    o.seed = c.seed;
    o.iterations = c.iterations;
    if (c.ban_nodes) {
      // Ban the middle column: placement must work around it.
      o.banned_nodes.assign(static_cast<std::size_t>(g.node_count()), false);
      for (int y = 0; y < g.height(); ++y)
        o.banned_nodes[static_cast<std::size_t>(g.node_at(c.side / 2, y))] =
            true;
    }
    const std::vector<int> nodes = place_devices(g, w, o);
    const long cost = placement_cost(g, w, nodes);
    EXPECT_EQ(nodes, c.nodes) << c.operations << " ops, seed " << c.seed;
    EXPECT_EQ(cost, c.cost) << c.operations << " ops, seed " << c.seed;
  }
}

// ------------------------------------------------------------------ router

TEST(Router, RoutesPcrOnPaperGrid) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip c = route_workload(g, w, nodes, router_options{});
  c.validate(w); // full conflict re-verification
  EXPECT_GT(c.used_edge_count(), 0);
  EXPECT_LE(c.used_edge_count(), g.edge_count());
  EXPECT_GT(c.valve_count(), 0);
}

TEST(Router, EdgeAndValveRatiosBelowOne) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip c = route_workload(g, w, nodes, router_options{});
  EXPECT_LT(c.edge_ratio(), 1.0);   // Fig. 8 claim
  EXPECT_LT(c.valve_ratio(), 1.0);
}

TEST(Router, CacheSegmentsArePlaced) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip c = route_workload(g, w, nodes, router_options{});
  EXPECT_EQ(c.caches.size(), w.caches.size());
  for (const auto& cp : c.caches) EXPECT_GE(cp.edge, 0);
}

TEST(Router, SegmentsSitNearTheConsumer) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip c = route_workload(g, w, nodes, router_options{});
  for (const auto& cp : c.caches) {
    const auto& request = w.caches[static_cast<std::size_t>(cp.cache_id)];
    const int target =
        nodes[static_cast<std::size_t>(request.target_device)];
    EXPECT_LE(g.distance_to_edge(target, cp.edge), 3)
        << "on-the-spot caching should stay close to the consumer";
  }
}

TEST(Router, MultiDeviceWorkloadsRoute) {
  // Via the facade: a single placement can legitimately fail on congested
  // workloads; the restart loop is part of the supported entry point.
  for (const char* name : {"IVD", "RA30"}) {
    const sequencing_graph graph = assay::make_benchmark(name);
    sched::list_scheduler_options so;
    so.device_count = 2;
    const sched::schedule s = sched::schedule_with_list(graph, so);
    arch_options o;
    const arch_result r = synthesize_architecture(s, o);
    EXPECT_NO_THROW(r.result.validate(r.workload)) << name;
  }
}

TEST(Router, AsciiRenderShowsDevices) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip c = route_workload(g, w, nodes, router_options{});
  const std::string art = c.render_ascii(35);
  EXPECT_NE(art.find("D0"), std::string::npos);
  EXPECT_NE(art.find("t=35s"), std::string::npos);
}

TEST(Router, TrajectoryIsPinned) {
  // The router's exact result on fixed workloads: any change to its A*
  // costs, candidate-segment ranking or storage bans shows up here as a
  // different edge or valve count or a different cache-segment fingerprint.
  struct pinned_case {
    int operations; // 0 = PCR
    std::uint64_t seed;
    int devices;
    int side;
    bool ban_storage;
    int used_edges;
    int valves;
    std::uint64_t cache_fingerprint;
  };
  const pinned_case cases[] = {
      {0, 1, 1, 4, false, 7, 11, 8884476154595948787ULL},
      {20, 5, 3, 5, false, 25, 39, 3357492114467929817ULL},
      {30, 7, 4, 6, false, 24, 37, 15402539179003834660ULL},
      {30, 11, 3, 6, true, 30, 48, 15186760389623296665ULL},
  };
  for (const pinned_case& c : cases) {
    sched::list_scheduler_options lo;
    lo.device_count = c.devices;
    const sequencing_graph graph =
        c.operations == 0 ? make_pcr()
                          : assay::make_random_assay(c.operations, c.seed);
    const routing_workload w =
        derive_workload(sched::schedule_with_list(graph, lo));
    const connection_grid g(c.side, c.side);
    placement_options po;
    po.seed = c.seed;
    const std::vector<int> nodes = place_devices(g, w, po);
    router_options ro;
    ro.seed = c.seed;
    if (c.ban_storage) {
      // Every third segment may carry flow but hold no sample.
      ro.banned_storage.assign(static_cast<std::size_t>(g.edge_count()), false);
      for (int e = 0; e < g.edge_count(); e += 3)
        ro.banned_storage[static_cast<std::size_t>(e)] = true;
    }
    const chip result = route_workload(g, w, nodes, ro);
    result.validate(w);
    std::uint64_t fingerprint = 14695981039346656037ULL; // FNV-1a
    for (const cache_placement& cp : result.caches)
      for (const int v : {cp.cache_id, cp.edge, cp.hold.begin, cp.hold.end}) {
        fingerprint ^= static_cast<std::uint64_t>(v);
        fingerprint *= 1099511628211ULL;
      }
    EXPECT_EQ(result.used_edge_count(), c.used_edges)
        << c.operations << " ops, seed " << c.seed;
    EXPECT_EQ(result.valve_count(), c.valves)
        << c.operations << " ops, seed " << c.seed;
    EXPECT_EQ(fingerprint, c.cache_fingerprint)
        << c.operations << " ops, seed " << c.seed;
  }
}

// ---------------------------------------------------------------- ILP path

TEST(IlpSynthesis, MatchesOrImprovesHeuristicOnPcr) {
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  const chip heuristic = route_workload(g, w, nodes, router_options{});

  ilp_synthesis_options io;
  io.time_limit_seconds = 20;
  io.warm_start = heuristic;
  const ilp_synthesis_result r = synthesize_with_ilp(g, w, nodes, io);
  EXPECT_NO_THROW(r.result.validate(w));
  EXPECT_LE(r.result.used_edge_count(), heuristic.used_edge_count());
  EXPECT_GT(r.variables, 0);
}

TEST(IlpSynthesis, PcrModelIsPinned) {
  // PCR's architecture ILP, warm started from the heuristic chip: its size
  // (fixed by the candidate storage segments per cache), its proven optimum
  // and the node count of the search that proves it.
  const connection_grid g(4, 4);
  const sched::schedule s = pcr_schedule();
  const routing_workload w = derive_workload(s);
  const auto nodes = place_devices(g, w, placement_options{});
  ilp_synthesis_options io;
  io.time_limit_seconds = 60;
  io.warm_start = route_workload(g, w, nodes, router_options{});
  const ilp_synthesis_result r = synthesize_with_ilp(g, w, nodes, io);
  ASSERT_EQ(r.status, milp::solve_status::optimal);
  EXPECT_EQ(r.variables, 462);
  EXPECT_EQ(r.constraints, 687);
  EXPECT_DOUBLE_EQ(r.objective, 2.0);
  EXPECT_EQ(r.result.used_edge_count(), 2);
  EXPECT_EQ(r.nodes, 47);
}

TEST(IlpSynthesis, TinyDirectTaskIsShortestPath) {
  // One direct task between adjacent devices: ILP must use exactly 1 edge.
  connection_grid g(3, 3);
  routing_workload w;
  w.device_count = 2;
  transport_task t;
  t.id = 0;
  t.kind = task_kind::direct;
  t.from_device = 0;
  t.to_device = 1;
  t.window = {0, 10};
  w.tasks.push_back(t);
  const std::vector<int> nodes{g.node_at(0, 0), g.node_at(1, 0)};
  ilp_synthesis_options io;
  io.time_limit_seconds = 10;
  const ilp_synthesis_result r = synthesize_with_ilp(g, w, nodes, io);
  EXPECT_EQ(r.result.used_edge_count(), 1);
  EXPECT_EQ(r.status, milp::solve_status::optimal);
}

TEST(IlpSynthesis, SingleCacheUsesFewSegments) {
  // One cached transfer between two devices: store+hold+fetch.
  connection_grid g(3, 3);
  routing_workload w;
  w.device_count = 2;
  transport_task store;
  store.id = 0;
  store.kind = task_kind::store;
  store.from_device = 0;
  store.to_device = -1;
  store.window = {0, 10};
  store.cache_id = 0;
  transport_task fetch;
  fetch.id = 1;
  fetch.kind = task_kind::fetch;
  fetch.from_device = -1;
  fetch.to_device = 1;
  fetch.window = {40, 50};
  fetch.cache_id = 0;
  cache_request c;
  c.id = 0;
  c.transfer_index = 0;
  c.store_task = 0;
  c.fetch_task = 1;
  c.hold = {10, 40};
  c.source_device = 0;
  c.target_device = 1;
  w.tasks = {store, fetch};
  w.caches = {c};
  const std::vector<int> nodes{g.node_at(0, 0), g.node_at(2, 0)};
  ilp_synthesis_options io;
  io.time_limit_seconds = 10;
  const ilp_synthesis_result r = synthesize_with_ilp(g, w, nodes, io);
  EXPECT_NO_THROW(r.result.validate(w));
  // Optimal: 2 segments (store into the middle edge, fetch out of it).
  EXPECT_LE(r.result.used_edge_count(), 3);
}

// ----------------------------------------------------------------- facade

TEST(Synthesis, FullPipelineOnPcr) {
  const sched::schedule s = pcr_schedule();
  arch_options o;
  const arch_result r = synthesize_architecture(s, o);
  EXPECT_NO_THROW(r.result.validate(r.workload));
  EXPECT_GE(r.attempts_used, 1);
  EXPECT_FALSE(r.used_ilp);
}

TEST(Synthesis, IlpEngineNeverWorseOnEdges) {
  const sched::schedule s = pcr_schedule();
  arch_options heuristic_only;
  const arch_result a = synthesize_architecture(s, heuristic_only);
  arch_options with_ilp;
  with_ilp.engine = synthesis_engine::ilp;
  with_ilp.ilp.time_limit_seconds = 20;
  const arch_result b = synthesize_architecture(s, with_ilp);
  EXPECT_TRUE(b.used_ilp);
  EXPECT_LE(b.result.used_edge_count(), a.result.used_edge_count());
}

TEST(Synthesis, ImpossiblyTinyGridThrows) {
  sched::list_scheduler_options so;
  so.device_count = 3;
  const sched::schedule s =
      sched::schedule_with_list(assay::make_benchmark("RA30"), so);
  arch_options o;
  o.grid_width = 2;
  o.grid_height = 2;
  o.attempts = 2;
  EXPECT_THROW(synthesize_architecture(s, o), capacity_error);
}

// Property sweep: random assays, multiple devices and grids -- every routed
// chip passes full conflict validation.
class RoutingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoutingSweep, AlwaysConflictFree) {
  const int id = GetParam();
  const int n = 8 + (id * 5) % 25;
  const int devices = 1 + id % 3;
  const sequencing_graph graph =
      assay::make_random_assay(n, 900 + static_cast<std::uint64_t>(id));
  sched::list_scheduler_options so;
  so.device_count = devices;
  so.restarts = 2;
  const sched::schedule s = sched::schedule_with_list(graph, so);
  arch_options o;
  o.grid_width = 4 + id % 2;
  o.grid_height = 4;
  const arch_result r = synthesize_architecture(s, o);
  EXPECT_NO_THROW(r.result.validate(r.workload));
  EXPECT_LE(r.result.edge_ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoutingSweep, ::testing::Range(0, 16));

} // namespace
} // namespace transtore::arch
