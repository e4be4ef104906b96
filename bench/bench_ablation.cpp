// Ablation studies of the design choices called out in DESIGN.md:
//
//  A. Storage weight beta in objective (6): execution time vs storage
//     traffic trade-off on RA30.
//  B. Local-search iterations: how much the annealer recovers over pure
//     greedy construction.
//  C. Router reuse cost: how strongly preferring already-used segments
//     (time multiplexing) shrinks the architecture.
//  D. Storage-unit ports (extension beyond the paper): the dedicated-unit
//     baseline with 1 port vs the distributed limit -- quantifies how much
//     of the win comes from removing the port bottleneck.
//  E. Scheduling engine: the metaheuristic portfolio (sa / grasp)
//     vs the list+annealing baseline at the default iteration budget.
#include <cstdio>

#include "arch/synthesis.h"
#include "assay/benchmarks.h"
#include "baseline/dedicated_storage.h"
#include "bench_common.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "sched/local_search.h"
#include "sched/scheduler.h"

int main(int argc, char** argv) {
  using namespace transtore;
  // Heuristic-only studies: --smoke is accepted for CI uniformity but runs
  // the same (already fast) sweep.
  const bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_ablation.json");
  const auto ra30 = assay::make_benchmark("RA30");
  std::vector<bench::bench_record> records;
  auto record = [&](const std::string& config, double objective,
                    std::vector<std::pair<std::string, double>> extras) {
    bench::bench_record rec;
    rec.assay = "RA30";
    rec.config = config;
    rec.objective = objective;
    rec.status = "ok";
    rec.extras = std::move(extras);
    records.push_back(std::move(rec));
  };

  // ---- A: beta sweep.
  std::printf("== Ablation A: storage weight beta (RA30, 2 devices) ==\n\n");
  {
    text_table t;
    t.add_row({"beta", "tE", "stores", "peak", "cache time"});
    for (const double beta : {0.0, 0.05, 0.15, 0.5, 2.0}) {
      sched::scheduler_options o;
      o.device_count = 2;
      o.engine = sched::schedule_engine::heuristic;
      o.beta = beta;
      const auto r = sched::make_schedule(ra30, o);
      t.add_row({format_double(beta, 2), std::to_string(r.best.makespan()),
                 std::to_string(r.best.store_count()),
                 std::to_string(r.best.peak_concurrent_caches()),
                 std::to_string(r.best.total_cache_time())});
      record("beta_" + format_double(beta, 2),
             static_cast<double>(r.best.makespan()),
             {{"stores", static_cast<double>(r.best.store_count())},
              {"peak_caches", static_cast<double>(r.best.peak_concurrent_caches())},
              {"cache_time", static_cast<double>(r.best.total_cache_time())}});
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- B: local search budget.
  std::printf("== Ablation B: local-search iterations (RA30) ==\n\n");
  {
    text_table t;
    t.add_row({"iterations", "tE", "stores", "objective"});
    for (const int iters : {0, 2000, 6000, 20000}) {
      sched::scheduler_options o;
      o.device_count = 2;
      o.engine = sched::schedule_engine::heuristic;
      o.local_search_iterations = iters;
      const auto r = sched::make_schedule(ra30, o);
      t.add_row({std::to_string(iters), std::to_string(r.best.makespan()),
                 std::to_string(r.best.store_count()),
                 format_double(r.best.objective(o.alpha, o.beta), 1)});
      record("ls_iters_" + std::to_string(iters),
             r.best.objective(o.alpha, o.beta),
             {{"makespan", static_cast<double>(r.best.makespan())},
              {"stores", static_cast<double>(r.best.store_count())}});
    }
    std::printf("%s\n", t.render().c_str());
  }

  // ---- C: router reuse cost.
  std::printf("== Ablation C: router segment-reuse preference (RA30) ==\n\n");
  {
    sched::scheduler_options so;
    so.device_count = 2;
    so.engine = sched::schedule_engine::heuristic;
    const auto schedule = sched::make_schedule(ra30, so).best;
    text_table t;
    t.add_row({"reuse cost", "edges", "valves"});
    for (const double reuse : {1.0, 0.7, 0.4, 0.1}) {
      arch::arch_options ao;
      // A 6x6 grid leaves slack so the preference is visible (the paper's
      // 4x4 is nearly saturated by this workload).
      ao.grid_width = ao.grid_height = 6;
      ao.router.reuse_cost = reuse;
      const auto r = arch::synthesize_architecture(schedule, ao);
      t.add_row({format_double(reuse, 1),
                 std::to_string(r.result.used_edge_count()),
                 std::to_string(r.result.valve_count())});
      record("reuse_" + format_double(reuse, 1),
             static_cast<double>(r.result.used_edge_count()),
             {{"valves", static_cast<double>(r.result.valve_count())}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("reuse cost 1.0 = no preference; lower = stronger time\n"
                "multiplexing, fewer segments (objective (12) heuristic).\n\n");
  }

  // ---- D: storage-unit port count (extension).
  std::printf(
      "== Ablation D: dedicated-unit ports vs distributed storage ==\n\n");
  {
    sched::scheduler_options so;
    so.device_count = 2;
    so.engine = sched::schedule_engine::heuristic;
    const auto ours = sched::make_schedule(ra30, so).best;
    text_table t;
    t.add_row({"storage", "tE", "slowdown"});
    t.add_row({"distributed (paper)", std::to_string(ours.makespan()),
               "1.00"});
    // Re-time through a k-port dedicated unit (k=1 is the classic design).
    const sched::binding b = sched::extract_binding(ours, ours.device_count);
    sched::timing_options timing;
    timing.storage_ports = 1;
    const auto dedicated =
        sched::refine_timing(ra30, b, ours.device_count, timing);
    t.add_row({"dedicated, 1 port", std::to_string(dedicated.makespan()),
               format_double(static_cast<double>(dedicated.makespan()) /
                                 ours.makespan(),
                             2)});
    std::printf("%s\n", t.render().c_str());
    std::printf("The distributed architecture removes the unit-port queueing\n"
                "entirely AND turns just-in-time transfers into single-leg\n"
                "direct moves -- both effects shorten the assay.\n");
    record("storage_distributed", static_cast<double>(ours.makespan()), {});
    record("storage_dedicated_1port", static_cast<double>(dedicated.makespan()),
           {{"slowdown", static_cast<double>(dedicated.makespan()) /
                             ours.makespan()}});
  }

  // ---- E: scheduling engine portfolio.
  std::printf(
      "\n== Ablation E: metaheuristic scheduling engines (RA30) ==\n\n");
  {
    struct engine_spec {
      const char* label;
      sched::schedule_engine engine;
    };
    text_table t;
    t.add_row({"engine", "tE", "stores", "cache time", "objective"});
    for (const engine_spec& spec :
         {engine_spec{"heuristic", sched::schedule_engine::heuristic},
          engine_spec{"sa", sched::schedule_engine::sa},
          engine_spec{"grasp", sched::schedule_engine::grasp}}) {
      sched::scheduler_options o;
      o.device_count = 2;
      o.engine = spec.engine;
      const auto r = sched::make_schedule(ra30, o);
      const double objective = r.best.objective(o.alpha, o.beta);
      t.add_row({spec.label, std::to_string(r.best.makespan()),
                 std::to_string(r.best.store_count()),
                 std::to_string(r.best.total_cache_time()),
                 format_double(objective, 1)});
      record(std::string("engine_") + spec.label, objective,
             {{"makespan", static_cast<double>(r.best.makespan())},
              {"stores", static_cast<double>(r.best.store_count())},
              {"cache_time", static_cast<double>(r.best.total_cache_time())}});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("All engines share one 6000-iteration annealing budget; the\n"
                "heuristic row is the list+annealing pipeline they must beat.\n");
  }
  if (!bench::write_bench_json(args.out, "bench_ablation", records))
    return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
