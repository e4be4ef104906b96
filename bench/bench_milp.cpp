// MILP substrate benchmark: solves the paper's Table 2 scheduling
// formulations (Table 1 model, objective (6)) with the sparse-LU dual
// simplex defaults, the no-presolve ablation, the dense-inverse engine
// ablation, the deterministic parallel engine at 1/4/8 workers
// (threads1/threads4/threads8, bit-identical search, nodes_per_sec extra);
// reports iterations, nodes and wall time per assay, and dumps
// BENCH_milp.json for cross-PR tracking.
//
//   bench_milp [--seconds S] [--assays PCR,IVD,...] [--row-limit R]
//              [--dense-row-limit R] [--out FILE] [--smoke]
//
// The dense configuration only runs formulations up to --dense-row-limit
// rows (default 2500, the historical dense-basis viability bound); the
// sparse-LU configuration runs everything up to --row-limit, which is what
// finally admits CPA (~8.2k rows), RA70 (~9.3k) and RA100 (~18k).
//
// --smoke is the CI configuration: small assays plus CPA, 1 s per solve.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/metaheuristics.h"

namespace {

using namespace transtore;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : csv) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

bool objectives_differ(double a, double b) {
  return std::abs(a - b) > 1e-6 * std::max(1.0, std::abs(b));
}

} // namespace

int main(int argc, char** argv) {
  double seconds = 5.0;
  int row_limit = 40000;      // sparse-LU viability (RA100 is ~18k rows)
  int dense_row_limit = 2500; // the historical dense-basis viability bound
  std::string out_path = "BENCH_milp.json";
  // Table 2 assays plus three mid-size seeded random assays (same generator
  // as RA30). PCR..RA30 are the apples-to-apples subset every configuration
  // solves; CPA/RA70/RA100 are the formulations only the sparse engine can
  // touch.
  std::vector<std::string> assays = {"PCR", "RA12", "RA16", "IVD",
                                     "RA30", "CPA",  "RA70", "RA100"};

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--seconds") {
      seconds = std::atof(next());
    } else if (arg == "--assays") {
      assays = split_csv(next());
    } else if (arg == "--row-limit") {
      row_limit = std::atoi(next());
    } else if (arg == "--dense-row-limit") {
      dense_row_limit = std::atoi(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--smoke") {
      seconds = 1.0;
      assays = {"PCR", "RA12", "CPA"};
    } else {
      std::fprintf(stderr,
                   "usage: bench_milp [--seconds S] [--assays CSV] "
                   "[--row-limit R] [--dense-row-limit R] [--out FILE] "
                   "[--smoke]\n");
      return 2;
    }
  }

  std::vector<bench::bench_record> records;
  bool objectives_match = true;
  int above_dense_ceiling = 0; // formulations only the sparse engine ran

  std::printf("%-7s %-12s %10s %8s %10s %10s %8s %12s %s\n", "assay",
              "config", "rows", "nodes", "iters", "dual", "probes",
              "objective", "time");

  for (const std::string& name : assays) {
    const auto configs = bench::table2_configs();
    int devices = 0;
    for (const auto& c : configs)
      if (c.name == name) devices = c.devices;

    assay::sequencing_graph graph;
    if (devices > 0) {
      graph = assay::make_benchmark(name);
    } else if (name.size() > 2 && name.compare(0, 2, "RA") == 0) {
      // Extra seeded random assays outside Table 2 (e.g. RA12): same
      // layered-DAG generator, two devices.
      const int ops = std::atoi(name.c_str() + 2);
      graph = assay::make_random_assay(ops, static_cast<std::uint64_t>(ops));
      devices = 2;
    } else {
      std::fprintf(stderr, "unknown assay %s\n", name.c_str());
      return 2;
    }

    // Mirror the synthesis pipeline: a heuristic warm start bounds the
    // horizon and seeds the incumbent.
    sched::list_scheduler_options lo;
    lo.device_count = devices;
    const sched::schedule warm = sched::schedule_with_list(graph, lo);

    sched::ilp_scheduler_options so;
    so.device_count = devices;
    so.warm_start = warm;
    const sched::scheduling_ilp ilp = sched::build_scheduling_ilp(graph, so);
    const int rows = ilp.model.constraint_count();
    if (rows > row_limit) {
      std::printf("%-7s skipped: %d rows exceed --row-limit %d\n",
                  name.c_str(), rows, row_limit);
      continue;
    }
    const bool dense_viable = rows <= dense_row_limit;
    if (!dense_viable) ++above_dense_ceiling;

    struct config_spec {
      const char* label;
      milp::solver_options options;
    };
    milp::solver_options lu_defaults; // presolve + cuts + node propagation
    milp::solver_options no_presolve; // pre-presolve solver (PR 3 behaviour)
    no_presolve.presolve = false;
    no_presolve.cuts = false;
    no_presolve.node_propagation = false;
    milp::solver_options dense_devex;
    dense_devex.lp.engine = milp::basis_engine::dense;
    // Parallel-search ablation: the deterministic round engine at 1/4/8
    // workers. Deterministic mode makes nodes/iterations/objective
    // bit-identical across the three, so the only thing that moves is the
    // nodes_per_sec extra -- the scaling headline diff_bench gates.
    milp::solver_options threads1 = lu_defaults;
    threads1.deterministic = true;
    threads1.threads = 1;
    milp::solver_options threads4 = threads1;
    threads4.threads = 4;
    milp::solver_options threads8 = threads1;
    threads8.threads = 8;
    std::vector<config_spec> specs = {{"lu_dual_devex", lu_defaults},
                                      {"no_presolve", no_presolve},
                                      {"threads1", threads1},
                                      {"threads4", threads4},
                                      {"threads8", threads8}};
    if (dense_viable) specs.push_back({"dense_dual_devex", dense_devex});

    std::vector<milp::solution> sols(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      milp::solver_options& o = specs[s].options;
      o.time_limit_seconds = seconds;
      o.warm_start = ilp.warm_assignment;
      stopwatch watch;
      const milp::solution sol = milp::solve(ilp.model, o);
      const double elapsed = watch.elapsed_seconds();
      sols[s] = sol;

      bench::bench_record r;
      r.assay = name;
      r.config = specs[s].label;
      r.seconds = elapsed;
      r.nodes = sol.nodes_explored;
      r.simplex_iterations = sol.simplex_iterations;
      r.dual_iterations = sol.dual_simplex_iterations;
      r.strong_branch_probes = sol.strong_branch_probes;
      r.objective = sol.objective;
      r.status = milp::to_string(sol.status);
      r.variables = ilp.model.variable_count();
      r.constraints = rows;
      if (sol.presolve_rows_removed > 0 || sol.cuts_added > 0)
        r.extras = {{"presolve_rows_removed",
                     static_cast<double>(sol.presolve_rows_removed)},
                    {"cuts_added", static_cast<double>(sol.cuts_added)},
                    {"root_bound", sol.root_bound}};
      if (std::strncmp(specs[s].label, "threads", 7) == 0) {
        r.extras.emplace_back("nodes_per_sec",
                              elapsed > 0.0
                                  ? static_cast<double>(sol.nodes_explored) /
                                        elapsed
                                  : 0.0);
        r.extras.emplace_back("threads",
                              static_cast<double>(sol.threads_used));
        long steals = 0;
        for (const auto& ws : sol.workers) steals += ws.steals;
        r.extras.emplace_back("steals", static_cast<double>(steals));
      }
      records.push_back(r);
      std::printf("%-7s %-12s %10d %8ld %10ld %10ld %8ld %12.3f %.3fs (%s)\n",
                  name.c_str(), specs[s].label, rows, sol.nodes_explored,
                  sol.simplex_iterations, sol.dual_simplex_iterations,
                  sol.strong_branch_probes, sol.objective, elapsed,
                  milp::to_string(sol.status));
    }

    // Metaheuristic warm start: the identical lu_dual_devex solve, but the
    // incumbent handed to branch and bound is the SA-annealed schedule,
    // LP-polished within its binding (sched::polish_assignment), instead of
    // the plain list pass. The nodes_vs_list_warm extra is the headline:
    // under 1.0 means the tighter primal bound pruned the tree (the
    // warm_start_objective extras show the incumbent-quality gap that
    // bought it).
    {
      sched::sa_scheduler_options sa;
      sa.device_count = devices;
      sa.iterations = 6000;
      sa.seed = 1;
      sa.start = warm;
      const sched::schedule annealed = sched::schedule_with_sa(graph, sa);
      milp::solver_options o = specs[0].options; // lu defaults + time limit
      std::vector<double> incumbent = sched::schedule_assignment(ilp, annealed);
      if (auto polished = sched::polish_assignment(ilp, incumbent, seconds))
        incumbent = std::move(*polished);
      o.warm_start = std::move(incumbent);
      stopwatch watch;
      const milp::solution sol = milp::solve(ilp.model, o);
      const double elapsed = watch.elapsed_seconds();

      bench::bench_record r;
      r.assay = name;
      r.config = "warm_meta";
      r.seconds = elapsed;
      r.nodes = sol.nodes_explored;
      r.simplex_iterations = sol.simplex_iterations;
      r.dual_iterations = sol.dual_simplex_iterations;
      r.strong_branch_probes = sol.strong_branch_probes;
      r.objective = sol.objective;
      r.status = milp::to_string(sol.status);
      r.variables = ilp.model.variable_count();
      r.constraints = rows;
      r.extras = {
          {"warm_start_objective", sol.warm_start_objective},
          {"warm_start_accepted", sol.warm_start_accepted ? 1.0 : 0.0},
          {"list_warm_objective", sols[0].warm_start_objective},
          {"nodes_vs_list_warm",
           sols[0].nodes_explored > 0
               ? static_cast<double>(sol.nodes_explored) /
                     static_cast<double>(sols[0].nodes_explored)
               : 1.0}};
      records.push_back(r);
      std::printf("%-7s %-12s %10d %8ld %10ld %10ld %8ld %12.3f %.3fs (%s, "
                  "nodes vs list warm %.2fx)\n",
                  name.c_str(), "warm_meta", rows, sol.nodes_explored,
                  sol.simplex_iterations, sol.dual_simplex_iterations,
                  sol.strong_branch_probes, sol.objective, elapsed,
                  milp::to_string(sol.status),
                  sols[0].nodes_explored > 0
                      ? static_cast<double>(sol.nodes_explored) /
                            static_cast<double>(sols[0].nodes_explored)
                      : 1.0);
      if (sol.status == milp::solve_status::optimal &&
          sols[0].status == milp::solve_status::optimal &&
          objectives_differ(sol.objective, sols[0].objective)) {
        objectives_match = false;
        std::printf("%-7s ERROR: warm_meta optimum %.6f differs from "
                    "lu_dual_devex %.6f\n",
                    name.c_str(), sol.objective, sols[0].objective);
      }
    }

    // Cross-engine agreement: every pair of configurations that both proved
    // optimality must report the same objective.
    for (std::size_t a_idx = 0; a_idx < specs.size(); ++a_idx)
      for (std::size_t b_idx = a_idx + 1; b_idx < specs.size(); ++b_idx) {
        if (sols[a_idx].status != milp::solve_status::optimal ||
            sols[b_idx].status != milp::solve_status::optimal)
          continue;
        if (objectives_differ(sols[a_idx].objective, sols[b_idx].objective)) {
          objectives_match = false;
          std::printf("%-7s ERROR: optimal objectives differ "
                      "(%s %.6f vs %s %.6f)\n",
                      name.c_str(), specs[a_idx].label, sols[a_idx].objective,
                      specs[b_idx].label, sols[b_idx].objective);
        }
      }
  }

  if (above_dense_ceiling > 0)
    std::printf("formulations above the %d-row dense ceiling run by the "
                "sparse engine: %d\n",
                dense_row_limit, above_dense_ceiling);

  if (!bench::write_bench_json(out_path, "bench_milp", records)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return objectives_match ? 0 : 1;
}
