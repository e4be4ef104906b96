// Scheduling-engine frontier benchmark: every constructive/metaheuristic
// engine on every Table 2 assay, reporting objective (6) quality against
// wall time so the quality/time frontier between "one greedy list pass"
// and "the full MILP" is a committed, CI-gated artifact.
//
//   bench_sched [--seconds S] [--out FILE] [--smoke]
//
// Configurations per assay:
//   list      perturbed-restart list scheduler alone (the floor)
//   list_sa   list + annealing post-pass -- the pre-metaheuristic baseline
//             every new engine must beat to justify its existence
//   sa        restart/reheating simulated annealing, storage-aware moves
//   grasp     randomized-greedy (RCL) construction + SA improvement
//
// Every annealing config spends the same SA iteration budget (6000), so
// smoke-mode results are deterministic in the seed and comparable as equal
// search effort; --seconds additionally applies one equal wall-clock budget
// per engine in full mode (0 = iteration-bound only, the smoke setting).
// The vs_list_sa extra is each metaheuristic's objective relative to the
// list_sa baseline (under 1.0 = the engine beats the baseline); the
// objective_gate extra marks every record for diff_bench.py's
// objective-regression rule.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
#include "sched/metaheuristics.h"

namespace {

using namespace transtore;

constexpr double kAlpha = 1.0;
constexpr double kBeta = 0.15;
constexpr int kAnnealIterations = 6000;

struct engine_run {
  std::string config;
  sched::schedule result;
  double seconds = 0.0;
};

} // namespace

int main(int argc, char** argv) {
  bench::harness_args args =
      bench::parse_harness_args(argc, argv, "BENCH_sched.json");
  // Smoke mode is iteration-bound only (deterministic in the seed, the
  // property the CI gate relies on); full mode adds an equal wall budget.
  const double budget = args.smoke ? 0.0 : args.ilp_seconds;

  std::vector<bench::bench_record> records;
  std::printf("%-7s %-8s %10s %10s %8s %12s %10s %s\n", "assay", "config",
              "makespan", "cache", "stores", "objective", "vs_list_sa",
              "time");

  for (const bench::assay_config& c : bench::harness_configs(args.smoke)) {
    const assay::sequencing_graph graph = assay::make_benchmark(c.name);
    std::vector<engine_run> runs;

    { // list: perturbed greedy restarts, no annealing.
      sched::list_scheduler_options lo;
      lo.device_count = c.devices;
      lo.alpha = kAlpha;
      lo.beta = kBeta;
      lo.seed = 1;
      lo.time_budget_seconds = budget;
      stopwatch watch;
      sched::schedule s = sched::schedule_with_list(graph, lo);
      runs.push_back({"list", std::move(s), watch.elapsed_seconds()});
    }
    { // list_sa: the pre-metaheuristic pipeline (list + annealing pass).
      sched::local_search_options lso;
      lso.alpha = kAlpha;
      lso.beta = kBeta;
      lso.iterations = kAnnealIterations;
      lso.seed = 1;
      lso.time_budget_seconds = budget;
      stopwatch watch;
      sched::schedule s =
          sched::improve_schedule(graph, runs[0].result, {}, lso);
      runs.push_back({"list_sa", std::move(s),
                      runs[0].seconds + watch.elapsed_seconds()});
    }
    const double baseline_objective =
        runs[1].result.objective(kAlpha, kBeta);

    { // sa: reheated restarts + storage-aware moves, same total budget.
      sched::sa_scheduler_options so;
      so.device_count = c.devices;
      so.alpha = kAlpha;
      so.beta = kBeta;
      so.iterations = kAnnealIterations;
      so.seed = 1;
      so.time_budget_seconds = budget;
      stopwatch watch;
      sched::schedule s = sched::schedule_with_sa(graph, so);
      runs.push_back({"sa", std::move(s), watch.elapsed_seconds()});
    }
    { // grasp: 4 RCL constructions x 1500 SA iterations = equal budget.
      sched::grasp_scheduler_options go;
      go.device_count = c.devices;
      go.alpha = kAlpha;
      go.beta = kBeta;
      go.rounds = 4;
      go.improvement_iterations = kAnnealIterations / 4;
      go.seed = 1;
      go.time_budget_seconds = budget;
      stopwatch watch;
      sched::schedule s = sched::schedule_with_grasp(graph, go);
      runs.push_back({"grasp", std::move(s), watch.elapsed_seconds()});
    }

    for (const engine_run& run : runs) {
      run.result.validate(graph);
      const double objective = run.result.objective(kAlpha, kBeta);
      const double vs_baseline =
          baseline_objective > 0.0 ? objective / baseline_objective : 1.0;
      bench::bench_record r;
      r.assay = c.name;
      r.config = run.config;
      r.seconds = run.seconds;
      r.objective = objective;
      r.status = "ok";
      r.extras = {
          {"makespan", static_cast<double>(run.result.makespan())},
          {"cache_time", static_cast<double>(run.result.total_cache_time())},
          {"stores", static_cast<double>(run.result.store_count())},
          {"objective_gate", 1.0},
          {"vs_list_sa", vs_baseline}};
      records.push_back(r);
      std::printf("%-7s %-8s %10d %10ld %8d %12.2f %10.4f %.3fs\n",
                  c.name.c_str(), run.config.c_str(), run.result.makespan(),
                  run.result.total_cache_time(), run.result.store_count(),
                  objective, vs_baseline, run.seconds);
    }
  }

  if (!bench::write_bench_json(args.out, "bench_sched", records)) return 1;
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
