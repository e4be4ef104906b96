// Tests for the metaheuristic scheduling engines (sched/metaheuristics.h):
// seed determinism, schedule-verifier compliance on every Table 2 assay,
// the never-worse-than-list guarantee, cancellation/deadline handling
// mid-anneal, and MILP warm-start intake from a metaheuristic incumbent.
#include <gtest/gtest.h>

#include <cmath>

#include "assay/benchmarks.h"
#include "common/interrupt.h"
#include "common/stopwatch.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/metaheuristics.h"
#include "sched/scheduler.h"

namespace transtore::sched {
namespace {

using assay::make_benchmark;
using assay::sequencing_graph;

constexpr double kAlpha = 1.0;
constexpr double kBeta = 0.15;

schedule plain_list(const sequencing_graph& g, int devices,
                    std::uint64_t seed = 1) {
  list_scheduler_options lo;
  lo.device_count = devices;
  lo.restarts = 1;
  lo.seed = seed;
  return schedule_with_list(g, lo);
}

schedule run_engine(schedule_engine engine, const sequencing_graph& g,
                    int devices, std::uint64_t seed = 1,
                    int iterations = 1200) {
  if (engine == schedule_engine::sa) {
    sa_scheduler_options o;
    o.device_count = devices;
    o.iterations = iterations;
    o.seed = seed;
    return schedule_with_sa(g, o);
  }
  grasp_scheduler_options o;
  o.device_count = devices;
  o.rounds = 3;
  o.improvement_iterations = iterations / 3;
  o.seed = seed;
  return schedule_with_grasp(g, o);
}

bool schedules_identical(const schedule& a, const schedule& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i)
    if (a.ops[i].device != b.ops[i].device ||
        a.ops[i].start != b.ops[i].start || a.ops[i].end != b.ops[i].end)
      return false;
  return true;
}

// ------------------------------------------------------------ derive_seed

TEST(DeriveSeed, DistinctSaltsGiveDistinctWellMixedStreams) {
  const std::uint64_t base = 1;
  EXPECT_NE(derive_seed(base, 0), derive_seed(base, 1));
  EXPECT_NE(derive_seed(base, 1), derive_seed(base, 2));
  EXPECT_NE(derive_seed(base, 0), base);
  // Deterministic: same inputs, same stream.
  EXPECT_EQ(derive_seed(base, 7), derive_seed(base, 7));
  // Different bases decorrelate too (GRASP restarts under different seeds).
  EXPECT_NE(derive_seed(1, 7), derive_seed(2, 7));
}

// ----------------------------------------------------------- determinism

TEST(Metaheuristics, EnginesDeterministicAtFixedSeed) {
  const sequencing_graph g = make_benchmark("IVD");
  for (const schedule_engine engine :
       {schedule_engine::sa, schedule_engine::grasp}) {
    const schedule a = run_engine(engine, g, 2, 42);
    const schedule b = run_engine(engine, g, 2, 42);
    EXPECT_TRUE(schedules_identical(a, b))
        << "engine " << static_cast<int>(engine) << " not deterministic";
  }
}

TEST(Metaheuristics, SaSeedChangesTrajectory) {
  // Not a strict requirement on any single instance, but across RA30 the
  // streams should not be byte-identical; catching a reused (non-derived)
  // restart seed is the point.
  const sequencing_graph g = make_benchmark("RA30");
  const schedule a = run_engine(schedule_engine::sa, g, 2, 1);
  const schedule b = run_engine(schedule_engine::sa, g, 2, 99);
  EXPECT_TRUE(!schedules_identical(a, b) ||
              a.objective(kAlpha, kBeta) == b.objective(kAlpha, kBeta));
}

// ------------------------------------------- validity on all six assays

TEST(Metaheuristics, AllEnginesValidateOnEveryTable2Assay) {
  for (const assay::benchmark_resources& r :
       assay::benchmark_resource_table()) {
    const sequencing_graph g = make_benchmark(r.name);
    for (const schedule_engine engine :
         {schedule_engine::sa, schedule_engine::grasp}) {
      const schedule s = run_engine(engine, g, r.devices, 1,
                                    /*iterations=*/600);
      EXPECT_NO_THROW(s.validate(g))
          << r.name << " engine " << static_cast<int>(engine);
      EXPECT_GE(s.makespan(), g.critical_path_duration());
    }
  }
}

// -------------------------------------------------- never worse than list

TEST(Metaheuristics, NeverWorseThanPlainListScheduling) {
  for (const char* name : {"PCR", "IVD", "RA30"}) {
    const sequencing_graph g = make_benchmark(name);
    const int devices = name[0] == 'P' ? 1 : 2;
    const double list_objective =
        plain_list(g, devices).objective(kAlpha, kBeta);
    for (const schedule_engine engine :
         {schedule_engine::sa, schedule_engine::grasp}) {
      scheduler_options o;
      o.device_count = devices;
      o.engine = engine;
      o.local_search_iterations = 1200;
      const scheduling_result r = make_schedule(g, o);
      EXPECT_LE(r.best.objective(kAlpha, kBeta), list_objective + 1e-9)
          << name << " engine " << static_cast<int>(engine);
    }
  }
}

TEST(Metaheuristics, GraspRoundZeroIsOneListPass) {
  // With one round and no annealing, GRASP returns its round-0
  // construction, which must be the list scheduler's greedy pass in both
  // modes: the time-only pass breaks time ties by lowest id, not by the
  // critical path.
  for (const char* name : {"PCR", "IVD", "CPA", "RA30", "RA70", "RA100"}) {
    const sequencing_graph g = make_benchmark(name);
    for (int devices = 1; devices <= 4; ++devices) {
      for (const bool storage_aware : {true, false}) {
        list_scheduler_options lo;
        lo.device_count = devices;
        lo.storage_aware = storage_aware;
        lo.restarts = 1;
        grasp_scheduler_options go;
        go.device_count = devices;
        go.storage_aware = storage_aware;
        go.rounds = 1;
        go.improvement_iterations = 0;
        EXPECT_TRUE(schedules_identical(schedule_with_grasp(g, go),
                                        schedule_with_list(g, lo)))
            << name << " devices " << devices << " storage_aware "
            << storage_aware;
      }
    }
  }
}

TEST(Metaheuristics, SaStartIncumbentIsAFloor) {
  const sequencing_graph g = make_benchmark("IVD");
  const schedule start = plain_list(g, 2);
  sa_scheduler_options o;
  o.device_count = 2;
  o.iterations = 400;
  o.start = start;
  const schedule s = schedule_with_sa(g, o);
  EXPECT_LE(s.objective(kAlpha, kBeta),
            start.objective(kAlpha, kBeta) + 1e-9);
}

// ------------------------------------------------------ cancel / deadline

TEST(Metaheuristics, PreFiredCancelStillReturnsValidSchedules) {
  const sequencing_graph g = make_benchmark("RA30");
  cancel_source source;
  source.cancel();
  {
    sa_scheduler_options o;
    o.device_count = 2;
    o.iterations = 1000000; // would take far too long if not cancelled
    o.cancel = source.token();
    const schedule s = schedule_with_sa(g, o);
    EXPECT_NO_THROW(s.validate(g));
  }
  {
    grasp_scheduler_options o;
    o.device_count = 2;
    o.rounds = 1000;
    o.improvement_iterations = 1000000;
    o.cancel = source.token();
    const schedule s = schedule_with_grasp(g, o);
    EXPECT_NO_THROW(s.validate(g));
  }
}

TEST(Metaheuristics, CancelMidAnnealStopsPromptly) {
  const sequencing_graph g = make_benchmark("RA30");
  cancel_source source;
  sa_scheduler_options o;
  o.device_count = 2;
  o.iterations = 50000000; // hours of work if the token were ignored
  o.restarts = 1;
  o.cancel = source.token();
  source.cancel(); // fires before the loop's first periodic poll
  const deadline watch(30.0);
  const schedule s = schedule_with_sa(g, o);
  EXPECT_NO_THROW(s.validate(g));
  EXPECT_LT(watch.elapsed_seconds(), 25.0);
}

TEST(Metaheuristics, TinyDeadlineHonoredThroughSchedulerFacade) {
  const sequencing_graph g = make_benchmark("RA30");
  for (const schedule_engine engine :
       {schedule_engine::sa, schedule_engine::grasp}) {
    scheduler_options o;
    o.device_count = 2;
    o.engine = engine;
    o.local_search_iterations = 50000000;
    o.time_budget_seconds = 0.2;
    const deadline watch(60.0);
    const scheduling_result r = make_schedule(g, o);
    EXPECT_NO_THROW(r.best.validate(g));
    // Generous bound: one valid schedule must exist long before this.
    EXPECT_LT(watch.elapsed_seconds(), 30.0);
  }
}

// ------------------------------------------------- MILP warm-start intake

TEST(Metaheuristics, SaWarmStartPreservesMilpOptimalityOnPcr) {
  const sequencing_graph g = make_benchmark("PCR");

  ilp_scheduler_options base;
  base.device_count = 1;
  base.time_limit_seconds = 30.0;
  base.warm_start = plain_list(g, 1);
  const scheduling_ilp plain = build_scheduling_ilp(g, base);
  milp::solver_options mo;
  mo.time_limit_seconds = 30.0;
  mo.warm_start = plain.warm_assignment;
  const milp::solution reference = milp::solve(plain.model, mo);
  ASSERT_EQ(reference.status, milp::solve_status::optimal);

  sa_scheduler_options sa;
  sa.device_count = 1;
  sa.iterations = 3000;
  sa.start = plain_list(g, 1);
  const schedule annealed = schedule_with_sa(g, sa);

  ilp_scheduler_options warm = base;
  warm.warm_start = annealed;
  const scheduling_ilp meta = build_scheduling_ilp(g, warm);
  milp::solver_options wo;
  wo.time_limit_seconds = 30.0;
  wo.warm_start = meta.warm_assignment;
  const milp::solution sol = milp::solve(meta.model, wo);

  EXPECT_TRUE(sol.warm_start_accepted);
  EXPECT_GT(sol.warm_start_objective, 0.0);
  ASSERT_EQ(sol.status, milp::solve_status::optimal);
  EXPECT_NEAR(sol.objective, reference.objective,
              1e-6 * std::max(1.0, std::abs(reference.objective)));
}

TEST(Metaheuristics, SaWarmStartPreservesMilpOptimalityOnRa12) {
  const sequencing_graph g = assay::make_random_assay(12, 12);

  ilp_scheduler_options base;
  base.device_count = 2;
  base.time_limit_seconds = 60.0;
  base.warm_start = plain_list(g, 2);
  const scheduling_ilp plain = build_scheduling_ilp(g, base);
  milp::solver_options mo;
  mo.time_limit_seconds = 60.0;
  mo.warm_start = plain.warm_assignment;
  const milp::solution reference = milp::solve(plain.model, mo);
  if (reference.status != milp::solve_status::optimal)
    GTEST_SKIP() << "RA12 did not close inside the budget on this build "
                    "(sanitizers); optimality comparison needs the proof";

  sa_scheduler_options sa;
  sa.device_count = 2;
  sa.iterations = 4000;
  sa.start = plain_list(g, 2);
  const schedule annealed = schedule_with_sa(g, sa);

  ilp_scheduler_options warm = base;
  warm.warm_start = annealed;
  const scheduling_ilp meta = build_scheduling_ilp(g, warm);
  milp::solver_options wo;
  wo.time_limit_seconds = 60.0;
  wo.warm_start = meta.warm_assignment;
  const milp::solution sol = milp::solve(meta.model, wo);

  EXPECT_TRUE(sol.warm_start_accepted);
  ASSERT_EQ(sol.status, milp::solve_status::optimal);
  EXPECT_NEAR(sol.objective, reference.objective,
              1e-6 * std::max(1.0, std::abs(reference.objective)));
  // The annealed incumbent can only help: never more nodes than the
  // list-warmed reference needed.
  EXPECT_LE(sol.nodes_explored, reference.nodes_explored);

  // LP-polishing the incumbent within its binding (the warm-start intake
  // schedule_with_ilp performs) must produce a strictly better MILP
  // incumbent here and close the tree in strictly fewer nodes, still at
  // the same optimum.
  const std::vector<double> raw = schedule_assignment(meta, annealed);
  const auto polished = polish_assignment(meta, raw, 10.0);
  ASSERT_TRUE(polished.has_value());
  EXPECT_LT(meta.model.evaluate_objective(*polished),
            meta.model.evaluate_objective(raw) - 1e-9);
  EXPECT_TRUE(meta.model.is_feasible(*polished));
  milp::solver_options po;
  po.time_limit_seconds = 60.0;
  po.warm_start = *polished;
  const milp::solution pol = milp::solve(meta.model, po);
  EXPECT_TRUE(pol.warm_start_accepted);
  ASSERT_EQ(pol.status, milp::solve_status::optimal);
  EXPECT_NEAR(pol.objective, reference.objective,
              1e-6 * std::max(1.0, std::abs(reference.objective)));
  EXPECT_LT(pol.nodes_explored, reference.nodes_explored);
}

// -------------------------------------------------------------- plumbing

TEST(Metaheuristics, SchedulerFacadeDispatchesEveryEngineName) {
  const sequencing_graph g = make_benchmark("PCR");
  for (const schedule_engine engine :
       {schedule_engine::heuristic, schedule_engine::sa,
        schedule_engine::grasp}) {
    scheduler_options o;
    o.device_count = 1;
    o.engine = engine;
    o.local_search_iterations = 400;
    const scheduling_result r = make_schedule(g, o);
    EXPECT_NO_THROW(r.best.validate(g));
    EXPECT_FALSE(r.used_ilp); // none of these touch the MILP
  }
}

} // namespace
} // namespace transtore::sched
