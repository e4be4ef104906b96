// Parallel branch-and-bound tests (also the CI ThreadSanitizer target
// together with test_milp / test_sched):
//
//   * deterministic mode is bit-identical across thread counts on the
//     Table 2 formulations (nodes, iterations, probes, objective, bound,
//     and the full assignment vector),
//   * the opportunistic pool engine reaches the sequential optimum and its
//     per-worker breakdown sums to the solution totals,
//   * the run_context thread budget and the executor's oversubscription
//     guard (W x T <= hardware_concurrency) as seen from job results.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "api/executor.h"
#include "api/pipeline.h"
#include "api/run_context.h"
#include "assay/benchmarks.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"

namespace transtore {
namespace {

// A Table 1 formulation with a heuristic warm start, mirroring what
// schedule_with_ilp builds internally.
sched::scheduling_ilp make_ilp(const assay::sequencing_graph& graph,
                               int devices) {
  sched::list_scheduler_options lo;
  lo.device_count = devices;
  sched::ilp_scheduler_options io;
  io.device_count = devices;
  io.warm_start = sched::schedule_with_list(graph, lo);
  return sched::build_scheduling_ilp(graph, io);
}

milp::solver_options deterministic_options(const sched::scheduling_ilp& ilp,
                                           int threads) {
  milp::solver_options so;
  // Determinism only holds when no limit fires mid-search; these instances
  // close in well under this budget even in sanitizer builds.
  so.time_limit_seconds = 300.0;
  so.deterministic = true;
  so.threads = threads;
  so.warm_start = ilp.warm_assignment;
  return so;
}

long worker_node_sum(const milp::solution& sol) {
  long sum = 0;
  for (const milp::worker_stats& ws : sol.workers) sum += ws.nodes;
  return sum;
}

// --- deterministic round engine ---------------------------------------------

// With `node_cap`, the cap must stop the search before it proves
// optimality, so the round engine's node-limit stop is what is compared.
void expect_bit_identical(const assay::sequencing_graph& graph, int devices,
                          std::optional<long> node_cap = std::nullopt) {
  const sched::scheduling_ilp ilp = make_ilp(graph, devices);
  auto solve_with = [&](int threads) {
    milp::solver_options so = deterministic_options(ilp, threads);
    if (node_cap) so.max_nodes = *node_cap;
    return milp::solve(ilp.model, so);
  };
  const milp::solution ref = solve_with(1);
  if (node_cap) {
    ASSERT_EQ(ref.status, milp::solve_status::feasible);
    EXPECT_GE(ref.nodes_explored, *node_cap);
    EXPECT_FALSE(ref.interrupted);
  } else {
    ASSERT_EQ(ref.status, milp::solve_status::optimal);
  }
  EXPECT_EQ(ref.threads_used, 1);
  EXPECT_EQ(worker_node_sum(ref), ref.nodes_explored);

  for (int threads : {2, 8}) {
    const milp::solution sol = solve_with(threads);
    ASSERT_EQ(sol.status, ref.status);
    EXPECT_EQ(sol.threads_used, threads);

    // Bit-identical trajectory and result: exact integer and exact
    // floating-point equality, not tolerance comparisons.
    EXPECT_EQ(sol.nodes_explored, ref.nodes_explored);
    EXPECT_EQ(sol.simplex_iterations, ref.simplex_iterations);
    EXPECT_EQ(sol.dual_simplex_iterations, ref.dual_simplex_iterations);
    EXPECT_EQ(sol.strong_branch_probes, ref.strong_branch_probes);
    EXPECT_EQ(sol.objective, ref.objective);
    EXPECT_EQ(sol.best_bound, ref.best_bound);
    ASSERT_EQ(sol.values.size(), ref.values.size());
    for (std::size_t i = 0; i < ref.values.size(); ++i)
      EXPECT_EQ(sol.values[i], ref.values[i]) << "variable " << i;

    // The per-worker split is scheduling noise, but the sums are not.
    EXPECT_EQ(static_cast<int>(sol.workers.size()), threads);
    EXPECT_EQ(worker_node_sum(sol), sol.nodes_explored);
  }
}

TEST(Deterministic, BitIdenticalAcrossThreadCountsPcr) {
  expect_bit_identical(assay::make_pcr(), 2);
}

// A ~460-node deterministic tree that stays affordable under TSan's ~10-50x
// slowdown; the larger RA12/IVD sweeps below are Release-only.
TEST(Deterministic, BitIdenticalAcrossThreadCountsRandomAssay) {
  expect_bit_identical(assay::make_random_assay(10, 7), 2);
}

TEST(Deterministic, BitIdenticalAcrossThreadCountsRa12) {
#ifndef NDEBUG
  GTEST_SKIP() << "the RA12 sweep takes minutes under Debug/TSan; the Release "
                  "CI matrix runs it";
#endif
  expect_bit_identical(assay::make_random_assay(12, 12), 2);
}

// IVD's full deterministic tree is ~58k nodes; the first 8,000 cover the
// same invariants at a seventh of the nodes, and the node-limit stop too.
TEST(Deterministic, BitIdenticalAcrossThreadCountsIvd) {
#ifndef NDEBUG
  GTEST_SKIP() << "the IVD sweep takes minutes under Debug/TSan; the Release "
                  "CI matrix runs it";
#endif
  expect_bit_identical(assay::make_ivd(), 2, 8000);
}

// --- opportunistic pool engine ----------------------------------------------

TEST(PoolEngine, MatchesSequentialOptimum) {
  const auto graph = assay::make_random_assay(10, 7);
  const sched::scheduling_ilp ilp = make_ilp(graph, 2);

  milp::solver_options seq;
  seq.time_limit_seconds = 300.0;
  seq.warm_start = ilp.warm_assignment;
  const milp::solution a = milp::solve(ilp.model, seq);
  ASSERT_EQ(a.status, milp::solve_status::optimal);
  // One worker is the sequential plunge: no per-worker breakdown, so
  // one-thread documents carry no `workers` array.
  EXPECT_EQ(a.threads_used, 1);
  EXPECT_TRUE(a.workers.empty());

  milp::solver_options par = seq;
  par.threads = 4;
  const milp::solution b = milp::solve(ilp.model, par);
  ASSERT_EQ(b.status, milp::solve_status::optimal);
  EXPECT_EQ(b.threads_used, 4);
  ASSERT_EQ(b.workers.size(), 4u);

  // First-come node order makes the trajectory nondeterministic, but the
  // proven optimum is the optimum.
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  EXPECT_EQ(worker_node_sum(b), b.nodes_explored);
  long iteration_sum = 0;
  for (const milp::worker_stats& ws : b.workers)
    iteration_sum += ws.simplex_iterations;
  // Worker sums cover the tree search; the totals additionally include the
  // root presolve/cut-loop work done before the workers start.
  EXPECT_LE(iteration_sum, b.simplex_iterations);
}

// --- thread budgets ----------------------------------------------------------

TEST(ThreadBudget, ClampThreadsSemantics) {
  api::run_context ctx;
  // No budget: requests pass through, including the 0 = auto convention.
  EXPECT_EQ(ctx.clamp_threads(0), 0);
  EXPECT_EQ(ctx.clamp_threads(8), 8);

  ctx.set_thread_budget(4);
  EXPECT_EQ(ctx.thread_budget(), 4);
  EXPECT_EQ(ctx.clamp_threads(0), 4); // auto resolves to the budget
  EXPECT_EQ(ctx.clamp_threads(2), 2); // under budget passes through
  EXPECT_EQ(ctx.clamp_threads(8), 4); // over budget clamps down

  ctx.set_thread_budget(0); // cleared
  EXPECT_EQ(ctx.clamp_threads(8), 8);
  ctx.set_thread_budget(-3); // negative means no budget
  EXPECT_EQ(ctx.clamp_threads(8), 8);
}

TEST(ThreadBudget, PipelineClampsSolverThreadsAtExecutionTime) {
  api::pipeline_options options;
  options.device_count = 2;
  options.solver_threads = 8;
  api::pipeline p(assay::make_fig4_example(), options);

  api::run_context ctx;
  ctx.set_thread_budget(1);
  const auto scheduled = p.schedule(ctx);
  ASSERT_TRUE(scheduled.ok());
  ASSERT_TRUE(scheduled.value().scheduling().used_ilp);
  EXPECT_EQ(scheduled.value().scheduling().ilp_threads, 1);
}

TEST(ThreadBudget, ExecutorGuardsAgainstOversubscription) {
  // With W workers, each job's budget is max(1, hardware_concurrency / W):
  // oversubscribing the worker pool itself forces every job down to one
  // solver thread, even when the job asks for "all cores" (threads = 0).
  const unsigned hw = std::thread::hardware_concurrency();
  api::executor_options eo;
  eo.workers = static_cast<int>(hw > 0 ? 2 * hw : 2);
  api::executor ex(eo);

  api::job j;
  j.graph = assay::make_fig4_example();
  j.options.device_count = 2;
  j.options.solver_threads = 0; // auto: resolves to the per-job budget
  j.options.verify = false;

  const auto outcomes = ex.run({j});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].code, api::status::ok);
  ASSERT_TRUE(outcomes[0].flow != nullptr);
  ASSERT_TRUE(outcomes[0].flow->scheduling.used_ilp);
  EXPECT_EQ(outcomes[0].flow->scheduling.ilp_threads, 1);
}

} // namespace
} // namespace transtore
