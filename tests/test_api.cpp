// Tests for the staged api::pipeline / api::executor surface: stage-by-stage
// vs one-shot equivalence, structured error outcomes, deadline/cancellation
// mid-MILP, and batch-executor determinism across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "api/executor.h"
#include "api/pipeline.h"
#include "api/result_cache.h"
#include "assay/benchmarks.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"

namespace transtore::api {
namespace {

pipeline_options heuristic_options(int devices = 1) {
  pipeline_options o;
  o.device_count = devices;
  o.schedule_engine = sched::schedule_engine::heuristic;
  return o;
}

executor_options with_workers(int workers) {
  executor_options o;
  o.workers = workers;
  return o;
}

TEST(ApiPipeline, StagedMatchesOneShot) {
  const auto graph = assay::make_pcr();
  const pipeline_options o = heuristic_options();

  const pipeline p(graph, o);
  auto s1 = p.schedule();
  ASSERT_TRUE(s1.ok()) << s1.message();
  auto s2 = s1->synthesize();
  ASSERT_TRUE(s2.ok()) << s2.message();
  auto s3 = s2->compress();
  ASSERT_TRUE(s3.ok()) << s3.message();
  auto s4 = s3->verify();
  ASSERT_TRUE(s4.ok()) << s4.message();
  const flow_result staged = s4->result();

  auto one_shot = p.run();
  ASSERT_TRUE(one_shot.ok()) << one_shot.message();

  // Byte-identical deterministic metrics across both paths (timing fields
  // excluded: wall clocks differ by construction).
  EXPECT_EQ(to_json(graph, staged, false),
            to_json(graph, one_shot.value(), false));
  EXPECT_TRUE(staged.stats.has_value());
}

TEST(ApiPipeline, ScheduleIsReusableAcrossGridSweep) {
  const auto graph = assay::make_benchmark("RA30");
  const pipeline p(graph, heuristic_options(2));
  auto s = p.schedule();
  ASSERT_TRUE(s.ok()) << s.message();

  // One schedule, several synthesize calls: a reconfiguration sweep.
  int previous_edges = -1;
  for (const int grid : {4, 5}) {
    synthesize_overrides over;
    over.grid_width = grid;
    over.grid_height = grid;
    auto chip = s->synthesize(over);
    ASSERT_TRUE(chip.ok()) << "grid " << grid << ": " << chip.message();
    EXPECT_EQ(chip->chip().grid().width(), grid);
    EXPECT_GT(chip->chip().used_edge_count(), 0);
    previous_edges = chip->chip().used_edge_count();
  }
  EXPECT_GT(previous_edges, 0);
  // The schedule itself is untouched by the sweep.
  EXPECT_GT(s->best().makespan(), 0);
}

TEST(ApiPipeline, StageJsonIsSelfContained) {
  const auto graph = assay::make_pcr();
  const pipeline p(graph, heuristic_options());
  auto s = p.schedule();
  ASSERT_TRUE(s.ok());
  const std::string json = s->to_json();
  EXPECT_NE(json.find("\"schedule\""), std::string::npos);
  EXPECT_NE(json.find("\"assay\":\"PCR\""), std::string::npos);

  auto chip = s->synthesize();
  ASSERT_TRUE(chip.ok());
  EXPECT_NE(chip->to_json().find("\"architecture\""), std::string::npos);

  auto layout = chip->compress();
  ASSERT_TRUE(layout.ok());
  EXPECT_NE(layout->to_json().find("\"layout\""), std::string::npos);
}

TEST(ApiPipeline, InvalidInputIsStructured) {
  assay::sequencing_graph empty("empty");
  const pipeline p(empty, {});
  auto s = p.schedule();
  EXPECT_FALSE(s.has_value());
  EXPECT_EQ(s.code(), status::invalid_input);
  EXPECT_FALSE(s.message().empty());

  // Out-of-range size knobs are rejected up front, before any stage works
  // on them (a 100000-wide grid would otherwise exhaust memory, a negative
  // device count would read as "every device is failed").
  const auto graph = assay::make_pcr();
  const std::vector<std::pair<const char*, void (*)(pipeline_options&)>>
      out_of_range = {
          {"device_count", [](pipeline_options& o) { o.device_count = -3; }},
          {"device_count", [](pipeline_options& o) { o.device_count = 0; }},
          {"device_count",
           [](pipeline_options& o) { o.device_count = max_device_count + 1; }},
          {"grid_width", [](pipeline_options& o) { o.grid_width = 100000; }},
          {"grid_height", [](pipeline_options& o) { o.grid_height = 100000; }},
          {"grid_width", [](pipeline_options& o) { o.grid_width = 1; }},
          {"grid_height", [](pipeline_options& o) { o.grid_height = -4; }},
          {"grid_growth", [](pipeline_options& o) { o.grid_growth = -1; }},
          {"grid_growth",
           [](pipeline_options& o) {
             o.grid_width = max_grid_side - 1;
             o.grid_growth = 2;
           }},
          {"arch_attempts", [](pipeline_options& o) { o.arch_attempts = 0; }},
          {"arch_attempts",
           [](pipeline_options& o) {
             o.arch_attempts = max_arch_attempts + 1;
           }},
          {"heuristic_restarts",
           [](pipeline_options& o) { o.heuristic_restarts = -1; }},
          {"heuristic_restarts",
           [](pipeline_options& o) {
             o.heuristic_restarts = max_heuristic_restarts + 1;
           }},
          {"local_search_iterations",
           [](pipeline_options& o) { o.local_search_iterations = -1; }},
          {"local_search_iterations",
           [](pipeline_options& o) {
             o.local_search_iterations = max_local_search_iterations + 1;
           }},
      };
  for (const auto& [field, apply] : out_of_range) {
    pipeline_options o = heuristic_options();
    apply(o);
    const auto started = std::chrono::steady_clock::now();
    auto outcome = pipeline(graph, o).run();
    EXPECT_EQ(outcome.code(), status::invalid_input) << field;
    EXPECT_NE(outcome.message().find(field), std::string::npos)
        << outcome.message();
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            started)
                  .count(),
              5.0)
        << field;
  }

  // The same bounds hold for the per-call overrides of synthesize().
  auto scheduled_pcr = pipeline(graph, heuristic_options()).schedule();
  ASSERT_TRUE(scheduled_pcr.ok()) << scheduled_pcr.message();
  synthesize_overrides over;
  over.grid_width = 100000;
  EXPECT_EQ(scheduled_pcr->synthesize(over).code(), status::invalid_input);

  // The bounds themselves are accepted.
  pipeline_options edge = heuristic_options(max_device_count);
  edge.grid_width = max_grid_side - 2;
  edge.grid_height = 2;
  edge.grid_growth = 2;
  edge.arch_attempts = max_arch_attempts;
  edge.heuristic_restarts = 1;
  edge.local_search_iterations = 0;
  EXPECT_TRUE(pipeline(graph, edge).schedule().ok());
}

TEST(ApiPipeline, CapacityIsStructured) {
  // Five devices cannot be placed on a 2x2 grid (four nodes).
  const auto graph = assay::make_benchmark("IVD");
  pipeline_options o = heuristic_options(5);
  o.grid_width = 2;
  o.grid_height = 2;
  o.arch_attempts = 2;
  auto outcome = pipeline(graph, o).run();
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.code(), status::capacity);
}

// ---------------------------------------------------------------- deadline

TEST(ApiDeadline, BudgetBeyondTheClockRangeMeansNoDeadline) {
  // 1e10 s is past the ~9.2e9 s a nanosecond steady_clock can represent;
  // such a budget (and an infinite one) must read as "no deadline", not
  // wrap around into one that has already expired.
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const run_context ctx = run_context::with_deadline(seconds);
    EXPECT_FALSE(ctx.has_deadline()) << seconds;
    EXPECT_FALSE(ctx.deadline_expired()) << seconds;
    EXPECT_FALSE(ctx.interrupted()) << seconds;
  }
  const run_context ordinary = run_context::with_deadline(1e6);
  EXPECT_TRUE(ordinary.has_deadline());
  EXPECT_FALSE(ordinary.deadline_expired());

  auto outcome = pipeline(assay::make_benchmark("IVD"), heuristic_options(2))
                     .run(run_context::with_deadline(1e10));
  EXPECT_EQ(outcome.code(), status::ok) << outcome.message();
}

TEST(ApiDeadline, CpaIlpDeadlineReturnsTimeLimitWithHeuristicResult) {
  // The acceptance scenario: a 1s deadline on a CPA ILP solve must come
  // back as a structured time_limit outcome with the heuristic schedule
  // still delivered -- not a hang, not an exception.
  const auto graph = assay::make_benchmark("CPA");
  pipeline_options o;
  o.device_count = 3;
  o.schedule_engine = sched::schedule_engine::ilp; // force the MILP path
  o.sched_ilp_time_limit = 600.0; // would run for minutes without the deadline
  const pipeline p(graph, o);

  const run_context ctx = run_context::with_deadline(1.0);
  const auto started = std::chrono::steady_clock::now();
  auto s = p.schedule(ctx);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  ASSERT_TRUE(s.has_value()) << s.message();
  EXPECT_EQ(s.code(), status::time_limit);
  EXPECT_GT(s->best().makespan(), 0);
  // Generous bound: model build + a 1s solve budget, nowhere near 600s.
  EXPECT_LT(elapsed, 60.0);
}

TEST(ApiDeadline, MilpSolverHonoursPreFiredCancel) {
  // Direct solver-level check: a cancel token that is already fired makes
  // solve() return immediately with interrupted set; with a warm start the
  // incumbent is still delivered (status feasible), without one the result
  // is no_solution. No crash, no leak (ASan job runs this).
  const auto graph = assay::make_pcr();
  sched::ilp_scheduler_options io;
  io.device_count = 1;

  cancel_source source;
  source.cancel();

  {
    sched::scheduling_ilp ilp = sched::build_scheduling_ilp(graph, io);
    milp::solver_options so;
    so.cancel = source.token();
    const milp::solution sol = milp::solve(ilp.model, so);
    EXPECT_TRUE(sol.interrupted);
    EXPECT_EQ(sol.status, milp::solve_status::no_solution);
  }
  {
    sched::ilp_scheduler_options warm = io;
    sched::list_scheduler_options lo;
    lo.device_count = 1;
    warm.warm_start = sched::schedule_with_list(graph, lo);
    sched::scheduling_ilp ilp = sched::build_scheduling_ilp(graph, warm);
    ASSERT_TRUE(ilp.warm_assignment.has_value());
    milp::solver_options so;
    so.cancel = source.token();
    so.warm_start = std::move(ilp.warm_assignment);
    const milp::solution sol = milp::solve(ilp.model, so);
    EXPECT_TRUE(sol.interrupted);
    EXPECT_EQ(sol.status, milp::solve_status::feasible);
    EXPECT_TRUE(sol.has_solution());
  }
}

TEST(ApiCancel, PreCancelledContextRefusesToStart) {
  cancel_source source;
  source.cancel();
  const run_context ctx = run_context{}.set_cancel(source.token());
  const pipeline p(assay::make_pcr(), heuristic_options());
  auto s = p.schedule(ctx);
  EXPECT_FALSE(s.has_value());
  EXPECT_EQ(s.code(), status::cancelled);
}

TEST(ApiCancel, MidSolveCancellationUnwindsCleanly) {
  // Fire the token from another thread while the RA30 scheduling MILP is
  // running. Whatever the race outcome (cancelled mid-solve or finished
  // first), the pipeline must return promptly with a coherent result.
  const auto graph = assay::make_benchmark("RA30");
  pipeline_options o;
  o.device_count = 2;
  o.schedule_engine = sched::schedule_engine::ilp;
  o.sched_ilp_time_limit = 600.0;

  cancel_source source;
  const run_context ctx = run_context{}.set_cancel(source.token());
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    source.cancel();
  });

  const auto started = std::chrono::steady_clock::now();
  auto s = pipeline(graph, o).schedule(ctx);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  canceller.join();

  if (s.has_value()) {
    EXPECT_TRUE(s.code() == status::ok || s.code() == status::cancelled)
        << to_string(s.code());
    EXPECT_GT(s->best().makespan(), 0);
  } else {
    EXPECT_EQ(s.code(), status::cancelled);
  }
  EXPECT_LT(elapsed, 60.0);
}

// ---------------------------------------------------------------- executor

TEST(ApiExecutor, DeterministicAcrossWorkerCounts) {
  // Same seeds => byte-identical JSON reports no matter how many workers
  // carried the batch (only completion order may differ).
  struct spec {
    const char* name;
    int devices;
  };
  std::vector<job> jobs;
  for (const spec s : {spec{"PCR", 1}, spec{"IVD", 2}, spec{"RA30", 2}}) {
    job j;
    j.name = s.name;
    j.graph = assay::make_benchmark(s.name);
    j.options = heuristic_options(s.devices);
    j.options.grid_growth = 2;
    jobs.push_back(std::move(j));
  }

  auto reports_with = [&](int workers) {
    const executor pool(with_workers(workers));
    const auto outcomes = pool.run(jobs);
    std::vector<std::string> reports;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].index, i);
      EXPECT_EQ(outcomes[i].code, status::ok) << outcomes[i].message;
      EXPECT_TRUE(static_cast<bool>(outcomes[i].flow));
      reports.push_back(
          to_json(jobs[i].graph, *outcomes[i].flow, /*include_timing=*/false));
    }
    return reports;
  };

  const auto sequential = reports_with(1);
  const auto parallel = reports_with(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i)
    EXPECT_EQ(sequential[i], parallel[i]) << jobs[i].name;
}

TEST(ApiExecutor, StreamsEveryCompletion) {
  std::vector<job> jobs;
  for (const char* name : {"PCR", "IVD"}) {
    job j;
    j.graph = assay::make_benchmark(name);
    j.options = heuristic_options(name == std::string("PCR") ? 1 : 2);
    jobs.push_back(std::move(j));
  }
  std::atomic<int> seen{0};
  const executor pool(with_workers(2));
  const auto outcomes =
      pool.run(jobs, {}, [&seen](const job_outcome&) { ++seen; });
  EXPECT_EQ(seen.load(), 2);
  EXPECT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].name, "PCR"); // default label = graph name
}

TEST(ApiExecutor, CancelledBatchReportsCancelled) {
  cancel_source source;
  source.cancel();
  const run_context ctx = run_context{}.set_cancel(source.token());
  std::vector<job> jobs;
  job j;
  j.graph = assay::make_pcr();
  j.options = heuristic_options();
  jobs.push_back(std::move(j));
  const executor pool(with_workers(2));
  const auto outcomes = pool.run(jobs, ctx);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].code, status::cancelled);
  EXPECT_FALSE(static_cast<bool>(outcomes[0].flow));
}

// ------------------------------------------------------------ result cache

/// Six-assay batch for the replay tests: heuristic engine with a trimmed
/// search so the full sweep stays fast in Debug/ASan builds. Deterministic
/// per (graph, options), which is what the cache relies on.
std::vector<job> six_assay_jobs() {
  std::vector<job> jobs;
  for (const assay::benchmark_resources& r :
       assay::benchmark_resource_table()) {
    job j;
    j.name = r.name;
    j.graph = assay::make_benchmark(r.name);
    j.options = heuristic_options(r.devices);
    j.options.grid_width = r.grid;
    j.options.grid_height = r.grid;
    j.options.grid_growth = 2;
    j.options.heuristic_restarts = 2;
    j.options.local_search_iterations = 200;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(ApiResultCache, SixAssayReplayIsByteIdenticalWithZeroSolves) {
  // The acceptance scenario: replaying the six-assay batch through the
  // cache-enabled executor serves the second pass entirely from the cache
  // -- byte-identical documents, no pipeline work at all (which subsumes
  // "zero MILP solves": nothing past the cache probe runs).
  const std::vector<job> jobs = six_assay_jobs();
  executor_options options;
  options.workers = 2;
  options.cache = std::make_shared<result_cache>();
  const executor pool(options);

  std::atomic<int> stage_events{0};
  run_context ctx;
  ctx.set_progress([&stage_events](const progress_event& e) {
    if (e.stage != "batch" && e.stage != "cache") ++stage_events;
  });

  const auto first = pool.run(jobs, ctx);
  ASSERT_EQ(first.size(), jobs.size());
  for (const job_outcome& o : first) {
    EXPECT_EQ(o.code, status::ok) << o.name << ": " << o.message;
    EXPECT_FALSE(o.cache_hit) << o.name;
    ASSERT_NE(o.result_json, nullptr) << o.name;
  }
  EXPECT_GT(stage_events.load(), 0);
  const cache_stats after_first = options.cache->stats();
  EXPECT_EQ(after_first.stores, jobs.size());
  EXPECT_EQ(after_first.misses, jobs.size());

  stage_events = 0;
  const auto second = pool.run(jobs, ctx);
  ASSERT_EQ(second.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(second[i].code, status::ok) << jobs[i].name;
    EXPECT_TRUE(second[i].cache_hit) << jobs[i].name;
    ASSERT_NE(second[i].result_json, nullptr) << jobs[i].name;
    // Byte-identical stored documents and summary reports.
    EXPECT_EQ(*second[i].result_json, *first[i].result_json) << jobs[i].name;
    ASSERT_TRUE(static_cast<bool>(second[i].flow));
    EXPECT_EQ(to_json(jobs[i].graph, *second[i].flow),
              to_json(jobs[i].graph, *first[i].flow))
        << jobs[i].name;
  }
  // Zero solver/stage activity on the replay: every request was a lookup.
  EXPECT_EQ(stage_events.load(), 0);
  const cache_stats after_second = options.cache->stats();
  EXPECT_EQ(after_second.memory_hits, jobs.size());
  EXPECT_EQ(after_second.stores, jobs.size()); // nothing new stored
}

TEST(ApiResultCache, IlpScheduleIsCachedNotResolved) {
  // With the ILP engine the first run pays the MILP; the second run must
  // not even reach the schedule stage (no progress events but the cache
  // probe), proving the solve count is zero on a warm key.
  const auto graph = assay::make_pcr();
  pipeline_options o;
  o.schedule_engine = sched::schedule_engine::ilp;

  auto cache = std::make_shared<result_cache>();
  pipeline p(graph, o);
  p.set_cache(cache);

  std::atomic<int> schedule_events{0};
  run_context ctx;
  ctx.set_progress([&schedule_events](const progress_event& e) {
    if (e.stage == "schedule") ++schedule_events;
  });

  auto first = p.run_cached(ctx);
  ASSERT_TRUE(first.outcome.ok()) << first.outcome.message();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.outcome.value()->scheduling.used_ilp);
  EXPECT_GT(schedule_events.load(), 0);

  schedule_events = 0;
  auto second = p.run_cached(ctx);
  ASSERT_TRUE(second.outcome.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(schedule_events.load(), 0);
  EXPECT_EQ(*second.document, *first.document);
  EXPECT_TRUE(second.outcome.value()->scheduling.used_ilp);
}

TEST(ApiResultCache, ConcurrentSameKeyRequestsCoalesceToOneSolve) {
  // Single-flight: two threads racing on the same (graph, options) must
  // produce exactly one store and one miss -- the loser either coalesces
  // onto the leader's in-flight solve or finds the stored entry, but never
  // pays solver time twice (the stampede would also break byte-identity,
  // because each solve stamps its own wall-clock fields).
  const auto graph = assay::make_benchmark("RA30");
  pipeline_options o = heuristic_options(2);
  o.grid_growth = 2;
  auto cache = std::make_shared<result_cache>();

  std::optional<cached_outcome> outcomes[2];
  std::thread racers[2];
  for (int t = 0; t < 2; ++t)
    racers[t] = std::thread([&, t] {
      pipeline p(graph, o);
      p.set_cache(cache);
      outcomes[t] = p.run_cached();
    });
  for (std::thread& t : racers) t.join();

  for (const std::optional<cached_outcome>& r : outcomes) {
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->outcome.ok()) << r->outcome.message();
    ASSERT_NE(r->document, nullptr);
  }
  EXPECT_EQ(*outcomes[0]->document, *outcomes[1]->document);
  const cache_stats stats = cache->stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ApiResultCache, FailedLeaderReleasesWaitersWithoutCaching) {
  // Both racers request an unsatisfiable configuration: the leader's solve
  // fails (capacity), the flight is aborted, the waiter takes over, fails
  // too -- structured errors for both, nothing cached, no hang.
  const auto graph = assay::make_benchmark("IVD");
  pipeline_options o = heuristic_options(5);
  o.grid_width = 2;
  o.grid_height = 2;
  o.arch_attempts = 2;
  auto cache = std::make_shared<result_cache>();

  std::optional<cached_outcome> outcomes[2];
  std::thread racers[2];
  for (int t = 0; t < 2; ++t)
    racers[t] = std::thread([&, t] {
      pipeline p(graph, o);
      p.set_cache(cache);
      outcomes[t] = p.run_cached();
    });
  for (std::thread& t : racers) t.join();

  for (const std::optional<cached_outcome>& r : outcomes) {
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->outcome.has_value());
    EXPECT_EQ(r->outcome.code(), status::capacity);
    EXPECT_FALSE(r->cache_hit);
  }
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->stats().stores, 0u);
}

// -------------------------------------------------- service mode + queueing

TEST(ApiExecutorService, PriorityOrdersPendingJobs) {
  // One worker, blocked on the first job; two more submissions land in the
  // queue and must be dispatched high-priority-first regardless of
  // submission order.
  executor pool(with_workers(1));

  std::mutex lock;
  std::condition_variable cv;
  bool release = false;
  bool blocker_started = false;
  std::vector<std::string> started; // first progress event per job

  auto ctx_for = [&](const std::string& label, bool blocking) {
    run_context ctx;
    ctx.set_progress([&, label, blocking, seen = std::make_shared<bool>(false)](
                         const progress_event&) {
      std::unique_lock<std::mutex> guard(lock);
      if (!*seen) {
        *seen = true;
        started.push_back(label);
        if (blocking) {
          blocker_started = true;
          cv.notify_all();
          cv.wait(guard, [&release] { return release; });
        }
      }
    });
    return ctx;
  };

  job blocker;
  blocker.name = "blocker";
  blocker.graph = assay::make_pcr();
  blocker.options = heuristic_options();
  auto t_blocker = pool.submit(blocker, ctx_for("blocker", true));
  ASSERT_TRUE(t_blocker.has_value()) << t_blocker.message();
  {
    std::unique_lock<std::mutex> guard(lock);
    cv.wait(guard, [&blocker_started] { return blocker_started; });
  }

  job low = blocker;
  low.name = "low";
  low.priority = -1;
  job high = blocker;
  high.name = "high";
  high.priority = 7;
  auto t_low = pool.submit(low, ctx_for("low", false));
  auto t_high = pool.submit(high, ctx_for("high", false));
  ASSERT_TRUE(t_low.has_value());
  ASSERT_TRUE(t_high.has_value());
  EXPECT_EQ(pool.pending(), 2u);

  {
    std::lock_guard<std::mutex> guard(lock);
    release = true;
  }
  cv.notify_all();

  for (const auto& t : {t_blocker, t_low, t_high}) {
    const job_outcome o = pool.wait(t.value());
    EXPECT_EQ(o.code, status::ok) << o.name << ": " << o.message;
  }
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(started[0], "blocker");
  EXPECT_EQ(started[1], "high");
  EXPECT_EQ(started[2], "low");

  // Tickets are redeemable exactly once.
  const job_outcome again = pool.wait(t_blocker.value());
  EXPECT_EQ(again.code, status::internal);
}

TEST(ApiExecutorService, BoundedQueueRejectsWithQueueFull) {
  executor_options options;
  options.workers = 1;
  options.queue_capacity = 1;
  executor pool(options);

  std::mutex lock;
  std::condition_variable cv;
  bool release = false;
  bool blocker_started = false;
  run_context blocking_ctx;
  blocking_ctx.set_progress(
      [&, seen = std::make_shared<bool>(false)](const progress_event&) {
        std::unique_lock<std::mutex> guard(lock);
        if (!*seen) {
          *seen = true;
          blocker_started = true;
          cv.notify_all();
          cv.wait(guard, [&release] { return release; });
        }
      });

  job j;
  j.graph = assay::make_pcr();
  j.options = heuristic_options();

  auto t1 = pool.submit(j, blocking_ctx); // starts running, blocks
  ASSERT_TRUE(t1.has_value());
  {
    std::unique_lock<std::mutex> guard(lock);
    cv.wait(guard, [&blocker_started] { return blocker_started; });
  }
  auto t2 = pool.submit(j); // fills the single queue slot
  ASSERT_TRUE(t2.has_value());
  auto t3 = pool.submit(j); // structured rejection
  EXPECT_FALSE(t3.has_value());
  EXPECT_EQ(t3.code(), status::queue_full);
  EXPECT_NE(t3.message().find("queue"), std::string::npos);

  {
    std::lock_guard<std::mutex> guard(lock);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(pool.wait(t1.value()).code, status::ok);
  EXPECT_EQ(pool.wait(t2.value()).code, status::ok);
}

TEST(ApiExecutorBatch, BoundedQueueShedsLowestPriorityJobs) {
  // Batch mode mirrors submit(): with capacity 2 and three jobs, the
  // lowest-priority one is rejected up front with queue_full and the other
  // two run to completion.
  std::vector<job> jobs = six_assay_jobs();
  jobs.erase(jobs.begin(), jobs.begin() + 3); // keep RA30, IVD, PCR (quick)
  jobs[0].priority = 1;
  jobs[1].priority = -3; // the one to shed
  jobs[2].priority = 2;

  executor_options options;
  options.workers = 2;
  options.queue_capacity = 2;
  const executor pool(options);
  const auto outcomes = pool.run(jobs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].code, status::ok) << outcomes[0].message;
  EXPECT_EQ(outcomes[1].code, status::queue_full);
  EXPECT_FALSE(static_cast<bool>(outcomes[1].flow));
  EXPECT_EQ(outcomes[2].code, status::ok) << outcomes[2].message;
}

TEST(ApiExecutorService, ShutdownRefusesNewSubmissions) {
  executor pool(with_workers(1));
  job j;
  j.graph = assay::make_pcr();
  j.options = heuristic_options();
  auto t1 = pool.submit(j);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(pool.wait(t1.value()).code, status::ok);
  pool.shutdown();
  auto t2 = pool.submit(j);
  EXPECT_FALSE(t2.has_value());
  EXPECT_EQ(t2.code(), status::cancelled);
}

TEST(ApiResultCache, HitSharesTheStoredResultWithoutCopying) {
  // The zero-copy contract: a hit hands out the cache entry's own
  // flow_result and document (pointer identity), so serving N hits costs
  // zero per-hit copies of either.
  auto cache = std::make_shared<result_cache>(result_cache_options{4, ""});
  pipeline p(assay::make_pcr(), heuristic_options());
  p.set_cache(cache);

  auto first = p.run_cached();
  ASSERT_TRUE(first.outcome.ok()) << first.outcome.message();
  EXPECT_FALSE(first.cache_hit);
  ASSERT_NE(first.document, nullptr);

  auto second = p.run_cached();
  auto third = p.run_cached();
  ASSERT_TRUE(second.outcome.ok());
  ASSERT_TRUE(third.outcome.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(third.cache_hit);
  // The solve itself stored the very object it returned, so every later
  // hit aliases the first outcome too -- one flow_result, one document.
  EXPECT_EQ(second.outcome.value().get(), first.outcome.value().get());
  EXPECT_EQ(third.outcome.value().get(), first.outcome.value().get());
  EXPECT_EQ(second.document.get(), first.document.get());
  EXPECT_EQ(third.document.get(), first.document.get());
}

TEST(ApiExecutorService, StatsSnapshotCountsTheWholeLifecycle) {
  executor_options options;
  options.workers = 2;
  options.cache = std::make_shared<result_cache>(result_cache_options{8, ""});
  executor pool(options);

  const executor_stats idle = pool.stats();
  EXPECT_EQ(idle.submitted, 0u);
  EXPECT_EQ(idle.completed, 0u);

  job j;
  j.graph = assay::make_pcr();
  j.options = heuristic_options();
  std::vector<executor::ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = pool.submit(j);
    ASSERT_TRUE(t.has_value()) << t.message();
    tickets.push_back(t.value());
  }
  for (const executor::ticket t : tickets)
    EXPECT_EQ(pool.wait(t).code, status::ok);

  const executor_stats done = pool.stats();
  EXPECT_EQ(done.submitted, 4u);
  EXPECT_EQ(done.completed, 4u);
  EXPECT_EQ(done.pending, 0u);
  EXPECT_EQ(done.running, 0u);
  EXPECT_EQ(done.rejected_queue_full, 0u);
  // Four identical jobs: one solve, the rest served from the cache
  // (coalesced flights also count as hits in the job outcome).
  EXPECT_EQ(done.cache_hits, 3u);
}

TEST(ApiExecutorService, StatsSnapshotIsConsistentUnderConcurrency) {
  // Hammer submit/wait from several threads while snapshotting: in every
  // snapshot the lifecycle identity submitted == completed + running +
  // pending + (completed-but-unredeemed) bounds to submitted >= completed
  // and completed >= redeemed; the atomic-snapshot guarantee is that the
  // counters can never read torn (e.g. completed > submitted).
  executor_options options;
  options.workers = 2;
  options.cache = std::make_shared<result_cache>(result_cache_options{8, ""});
  executor pool(options);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const executor_stats s = pool.stats();
      EXPECT_LE(s.completed, s.submitted);
      EXPECT_LE(s.pending + s.running, s.submitted);
      EXPECT_LE(s.cache_hits, s.completed);
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c)
    clients.emplace_back([&] {
      job j;
      j.graph = assay::make_pcr();
      j.options = heuristic_options();
      for (int i = 0; i < 4; ++i) {
        auto t = pool.submit(j);
        ASSERT_TRUE(t.has_value()) << t.message();
        EXPECT_EQ(pool.wait(t.value()).code, status::ok);
      }
    });
  for (std::thread& t : clients) t.join();
  stop.store(true);
  snapshotter.join();

  const executor_stats s = pool.stats();
  EXPECT_EQ(s.submitted, 12u);
  EXPECT_EQ(s.completed, 12u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.running, 0u);
}

} // namespace
} // namespace transtore::api
