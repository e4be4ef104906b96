#include "layers.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "api/result_cache.h"
#include "api/serialize.h"
#include "arch/connection_grid.h"
#include "arch/placement.h"
#include "arch/router.h"
#include "arch/workload.h"
#include "common/error.h"
#include "milp/lu.h"
#include "milp/presolve.h"
#include "milp/simplex.h"
#include "milp/solver.h"
#include "phys/layout.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
#include "sched/metaheuristics.h"
#include "sched/scheduler.h"
#include "sched/timing.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using scope = tracer::scope;

/// Root LP probe budget: CPA's ~8k-row root LP does not finish inside the
/// 10 s scheduling cap, so the probe reports the work done in this window.
constexpr double root_lp_probe_seconds = 2.0;

/// make_schedule's size guard: the estimated scheduling-MILP row count,
/// recomputed from the input (combined mode skips the MILP above
/// scheduler_options::ilp_row_limit).
long estimate_ilp_rows(const assay::sequencing_graph& graph, int devices) {
  const long n = graph.operation_count();
  long unrelated_pairs = 0;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (!graph.reaches(i, j) && !graph.reaches(j, i)) ++unrelated_pairs;
  return 2 * n + n + graph.edge_count() * (2L * devices + 2) +
         unrelated_pairs * 2L * devices + n;
}

/// Turn a MILP incumbent into a timed schedule: binding from the
/// assignment binaries, per-device order by start time, then the
/// scheduler's own re-timing.
sched::schedule schedule_from_values(const request_spec& spec,
                                     const sched::scheduling_ilp& ilp,
                                     const std::vector<double>& values) {
  const int n = spec.graph.operation_count();
  const int devices = ilp.device_count;
  auto value = [&](milp::variable v) {
    return values.at(static_cast<std::size_t>(v.index));
  };
  sched::binding b;
  b.device_of.assign(static_cast<std::size_t>(n), -1);
  b.device_order.assign(static_cast<std::size_t>(devices), {});
  std::vector<std::pair<double, int>> starts;
  for (int i = 0; i < n; ++i) {
    const auto& row = ilp.assign[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < row.size(); ++k)
      if (value(row[k]) > 0.5)
        b.device_of[static_cast<std::size_t>(i)] = static_cast<int>(k);
    starts.emplace_back(value(ilp.start[static_cast<std::size_t>(i)]), i);
  }
  std::sort(starts.begin(), starts.end());
  for (const auto& [start, op] : starts)
    b.device_order[static_cast<std::size_t>(
                       b.device_of[static_cast<std::size_t>(op)])]
        .push_back(op);
  return sched::refine_timing(spec.graph, b, devices, spec.options.timing);
}

/// Replay the scheduling stage phase by phase with the options
/// make_schedule derives from the pipeline options (sequential MILP, no
/// deadline: the configuration every workload runs). The built MILP is
/// handed back for the root probe.
sched::schedule replay_schedule(tracer& t, int rid, const request_spec& spec,
                                layer_counts& c,
                                std::optional<sched::scheduling_ilp>& model) {
  const api::pipeline_options& o = spec.options;
  const double beta = o.storage_aware ? o.beta : 0.0;
  const bool ilp_engine = o.schedule_engine == sched::schedule_engine::ilp;
  const bool combined =
      o.schedule_engine == sched::schedule_engine::combined;

  sched::schedule heuristic;
  {
    scope s(t, "sched.list", rid);
    sched::list_scheduler_options lo;
    lo.device_count = o.device_count;
    lo.timing = o.timing;
    lo.alpha = o.alpha;
    lo.beta = o.beta;
    lo.storage_aware = o.storage_aware;
    lo.restarts = ilp_engine ? 1 : o.heuristic_restarts;
    lo.seed = o.seed;
    heuristic = sched::schedule_with_list(spec.graph, lo);
  }

  bool run_ilp = ilp_engine || combined;
  {
    scope s(t, "sched.ilp", rid);
    if (combined && estimate_ilp_rows(spec.graph, o.device_count) >
                        sched::scheduler_options{}.ilp_row_limit) {
      run_ilp = false;
      ++c.ilp_skipped;
    }
  }
  {
    scope s(t, "sched.anneal", rid);
    if (run_ilp && o.local_search_iterations > 0) {
      sched::sa_scheduler_options so;
      so.device_count = o.device_count;
      so.timing = o.timing;
      so.alpha = o.alpha;
      so.beta = o.beta;
      so.storage_aware = o.storage_aware;
      so.iterations = o.local_search_iterations;
      so.restarts = 2;
      so.seed = sched::derive_seed(o.seed, 0x5741524DULL);
      so.start = heuristic;
      heuristic = sched::schedule_with_sa(spec.graph, so);
    }
  }

  sched::schedule best = heuristic;
  if (run_ilp) {
    scope s(t, "sched.ilp", rid);
    sched::ilp_scheduler_options io;
    io.device_count = o.device_count;
    io.timing = o.timing;
    io.alpha = o.alpha;
    io.beta = beta;
    io.time_limit_seconds = o.sched_ilp_time_limit;
    io.warm_start = heuristic;
    io.seed = o.seed;
    io.milp.threads = o.solver_threads;
    io.milp.deterministic = o.solver_deterministic;
    {
      scope b(t, "milp.build", rid);
      model = sched::build_scheduling_ilp(spec.graph, io);
    }
    milp::solver_options so = io.milp;
    so.time_limit_seconds = io.time_limit_seconds;
    if (model->warm_assignment) {
      scope p(t, "milp.polish", rid);
      const double slice =
          std::clamp(io.time_limit_seconds * 0.1, 0.1, 2.0);
      if (auto polished =
              sched::polish_assignment(*model, *model->warm_assignment, slice))
        model->warm_assignment = std::move(polished);
      ++c.warm_starts_offered;
    }
    so.warm_start = model->warm_assignment;
    milp::solution sol;
    {
      scope m(t, "milp.solve", rid);
      sol = milp::solve(model->model, so);
    }
    c.nodes += sol.nodes_explored;
    c.simplex_iterations += sol.simplex_iterations;
    c.dual_iterations += sol.dual_simplex_iterations;
    c.strong_branch_probes += sol.strong_branch_probes;
    c.cut_rounds += sol.cut_rounds;
    c.cuts_added += sol.cuts_added;
    c.solve_seconds += sol.seconds;
    if (sol.warm_start_accepted) ++c.warm_starts_accepted;
    if (sol.interrupted) {
      ++c.capped;
      c.gap_at_cap_sum += std::min(1.0, sol.gap());
    }
    if (sol.has_solution()) {
      // The stage keeps the warm start when the extraction re-times worse.
      sched::schedule refined = schedule_from_values(spec, *model, sol.values);
      if (refined.objective(o.alpha, beta) <= heuristic.objective(o.alpha, beta))
        best = std::move(refined);
    }
  }

  {
    scope s(t, "sched.post", rid);
    if (o.local_search_iterations > 0) {
      sched::local_search_options lso;
      lso.alpha = o.alpha;
      lso.beta = beta;
      lso.iterations = o.local_search_iterations;
      lso.seed = sched::derive_seed(o.seed, 0x504F5354ULL);
      best = sched::improve_schedule(spec.graph, best, o.timing, lso);
    }
  }
  return best;
}

/// Replay placement and routing with the attempt and grid-growth ladder of
/// the synthesize stage.
void replay_architecture(tracer& t, int rid, const request_spec& spec,
                         const sched::schedule& best) {
  const api::pipeline_options& o = spec.options;
  arch::routing_workload workload;
  {
    scope s(t, "arch.place", rid);
    workload = arch::derive_workload(best);
  }
  for (int extra = 0; extra <= o.grid_growth; ++extra) {
    const arch::connection_grid grid(o.grid_width + extra,
                                     o.grid_height + extra);
    for (int attempt = 0; attempt < o.arch_attempts; ++attempt) {
      arch::placement_options p;
      p.seed = o.seed + static_cast<std::uint64_t>(attempt);
      arch::router_options r;
      r.seed = o.seed + static_cast<std::uint64_t>(attempt);
      try {
        std::vector<int> nodes;
        {
          scope s(t, "arch.place", rid);
          nodes = arch::place_devices(grid, workload, p);
        }
        scope s(t, "arch.route", rid);
        (void)arch::route_workload(grid, workload, nodes, r);
        return;
      } catch (const capacity_error&) {
        // The stage retries the next attempt, then the next grid size.
      }
    }
  }
}

/// Computational form of the built MILP (minimization, CSC columns), the
/// shape presolve() and simplex_solver take.
struct standard_form {
  milp::lp_problem lp;
  std::vector<bool> is_integer;
};

standard_form to_standard_form(const milp::model& m) {
  standard_form sf;
  const int n = m.variable_count();
  const int rows = m.constraint_count();
  const double sign =
      m.sense() == milp::objective_sense::minimize ? 1.0 : -1.0;
  sf.lp.num_vars = n;
  sf.lp.num_rows = rows;
  sf.is_integer.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const milp::var_info& v = m.variable_at(j);
    sf.lp.cost.push_back(sign * m.objective_coefficients()[static_cast<std::size_t>(j)]);
    sf.lp.lower.push_back(v.lower);
    sf.lp.upper.push_back(v.upper);
    sf.is_integer[static_cast<std::size_t>(j)] =
        v.kind != milp::var_kind::continuous;
  }
  std::vector<std::vector<std::pair<int, double>>> columns(
      static_cast<std::size_t>(n));
  for (int i = 0; i < rows; ++i) {
    const milp::row_info& row = m.constraint_at(i);
    sf.lp.row_lower.push_back(row.lower);
    sf.lp.row_upper.push_back(row.upper);
    for (const auto& [var, coeff] : row.terms)
      columns[static_cast<std::size_t>(var)].emplace_back(i, coeff);
  }
  sf.lp.col_start.push_back(0);
  for (const auto& column : columns) {
    for (const auto& [row, coeff] : column) {
      sf.lp.row_index.push_back(row);
      sf.lp.value.push_back(coeff);
    }
    sf.lp.col_start.push_back(static_cast<int>(sf.lp.row_index.size()));
  }
  return sf;
}

/// Root-LP and LU kernel probe on the built model: presolve, a cold root
/// solve inside root_lp_probe_seconds, then one factorization of the basis
/// it reached and timed ftran/btran solves against it.
void probe_root(tracer& t, int rid, const milp::model& m, layer_counts& c) {
  constexpr int kernel_calls = 64;
  const standard_form sf = to_standard_form(m);
  milp::presolved_problem pre;
  {
    scope s(t, "milp.presolve", rid);
    pre = milp::presolve(sf.lp, sf.is_integer);
  }
  ++c.probed;
  c.presolve_rows_removed += pre.stats.rows_removed;
  if (pre.infeasible) return;
  const milp::lp_problem& lp = pre.reduced;
  milp::simplex_solver solver(lp);
  {
    scope s(t, "milp.root_lp", rid);
    const milp::lp_result r =
        solver.solve(deadline(root_lp_probe_seconds), false);
    c.root_lp_iterations += r.iterations;
  }
  c.root_refactorizations += solver.stats().refactorizations;
  c.root_lu_factorizations += solver.stats().lu_factorizations;

  // Basis columns: structural columns from the CSC, slack n+i is -e_i.
  const int rows = lp.num_rows;
  std::vector<milp::basis_lu::sparse_column> basis;
  std::size_t basis_nonzeros = 0;
  for (int column : solver.basic_columns()) {
    milp::basis_lu::sparse_column col;
    if (column < lp.num_vars) {
      for (int k = lp.col_start[static_cast<std::size_t>(column)];
           k < lp.col_start[static_cast<std::size_t>(column) + 1]; ++k)
        col.emplace_back(lp.row_index[static_cast<std::size_t>(k)],
                         lp.value[static_cast<std::size_t>(k)]);
    } else {
      col.emplace_back(column - lp.num_vars, -1.0);
    }
    basis_nonzeros += col.size();
    basis.push_back(std::move(col));
  }
  milp::basis_lu lu;
  bool factored = false;
  {
    scope s(t, "milp.lu_factorize", rid);
    factored = lu.factorize(rows, basis);
  }
  if (!factored || rows == 0) return;
  c.lu_fill_ratio_sum += static_cast<double>(lu.factor_nonzeros()) /
                         static_cast<double>(std::max<std::size_t>(1, basis_nonzeros));
  std::vector<double> rhs(static_cast<std::size_t>(rows), 0.0);
  std::vector<double> out(static_cast<std::size_t>(rows), 0.0);
  {
    scope s(t, "milp.ftran", rid);
    for (int k = 0; k < kernel_calls; ++k) {
      // Right-hand side: a basis column (a structural/slack column solve,
      // the shape every simplex iteration issues).
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (const auto& [row, value] :
           basis[static_cast<std::size_t>((k * 7919) % rows)])
        rhs[static_cast<std::size_t>(row)] = value;
      lu.ftran(rhs, out);
    }
  }
  {
    scope s(t, "milp.btran", rid);
    for (int k = 0; k < kernel_calls; ++k) {
      // Unit vector e_p: the pivot-row solve of the ratio test.
      std::fill(rhs.begin(), rhs.end(), 0.0);
      rhs[static_cast<std::size_t>((k * 7919) % rows)] = 1.0;
      lu.btran(rhs, out);
    }
  }
  c.ftran_calls += kernel_calls;
  c.btran_calls += kernel_calls;
}

} // namespace

std::string trace_request(tracer& t, int rid, const request_spec& spec,
                          layer_counts& c, api::flow_result& flow) {
  ++c.requests;
  const api::pipeline p(spec.graph, spec.options);
  {
    scope request(t, "request", rid);
    auto scheduled = [&] {
      scope s(t, "api.schedule", rid);
      return p.schedule();
    }();
    if (!scheduled.ok()) return "schedule: " + scheduled.message();
    auto synthesized = [&] {
      scope s(t, "api.synthesize", rid);
      return scheduled.value().synthesize();
    }();
    if (!synthesized.ok()) return "synthesize: " + synthesized.message();
    auto compressed = [&] {
      scope s(t, "api.compress", rid);
      return synthesized.value().compress();
    }();
    if (!compressed.ok()) return "compress: " + compressed.message();
    auto verified = [&] {
      scope s(t, "api.verify", rid);
      return compressed.value().verify();
    }();
    if (!verified.ok()) return "verify: " + verified.message();
    flow = verified.value().result();
  }
  {
    scope s(t, "api.cache_key", rid);
    (void)api::make_cache_key(spec.graph, spec.options);
  }
  {
    scope s(t, "api.serialize_flow", rid);
    c.document_bytes += static_cast<double>(
        api::serialize_flow(spec.graph, spec.options, flow).size());
  }
  const sched::scheduling_result& stage = flow.scheduling;
  c.attempts_used += flow.architecture.attempts_used;
  if (flow.architecture.result.grid().width() > spec.options.grid_width)
    ++c.grid_grown;
  c.compression_iterations += flow.layout.compression_iterations;
  if (flow.stats) c.transport_legs += flow.stats->transport_legs;

  std::optional<sched::scheduling_ilp> model;
  {
    scope replay(t, "replay", rid);
    const sched::schedule replayed = replay_schedule(t, rid, spec, c, model);
    if (!(stage.used_ilp && stage.ilp_interrupted)) {
      ++c.uncapped;
      const double beta = spec.options.storage_aware ? spec.options.beta : 0.0;
      const double want = stage.best.objective(spec.options.alpha, beta);
      const double got = replayed.objective(spec.options.alpha, beta);
      if (want == got)
        ++c.replay_matches;
      else
        c.replay_mismatches.push_back(spec.label + " stage " +
                                      std::to_string(want) + " replay " +
                                      std::to_string(got));
    }
    replay_architecture(t, rid, spec, stage.best);
    {
      scope s(t, "phys.layout", rid);
      (void)phys::generate_layout(flow.architecture.result,
                                  spec.options.physical);
    }
    {
      scope s(t, "sim.simulate", rid);
      (void)sim::simulate(spec.graph, stage.best, flow.architecture.workload,
                          flow.architecture.result);
    }
  }
  if (model) probe_root(t, rid, model->model, c);
  const std::string bad = check_result(spec, flow);
  return bad.empty() ? bad : "invalid: " + bad;
}

/// Root probe for passes whose stage never built a MILP (the size guard
/// skipped it, or the heuristic engine ran): build the model the guard
/// skipped and probe it, so the MILP layer's kernels are measured on every
/// workload.
void probe_skipped_model(tracer& t, int rid, const request_spec& spec,
                         layer_counts& c) {
  sched::ilp_scheduler_options io;
  io.device_count = spec.options.device_count;
  io.timing = spec.options.timing;
  io.alpha = spec.options.alpha;
  io.beta = spec.options.storage_aware ? spec.options.beta : 0.0;
  sched::scheduling_ilp ilp;
  {
    scope s(t, "milp.build", rid);
    ilp = sched::build_scheduling_ilp(spec.graph, io);
  }
  probe_root(t, rid, ilp.model, c);
}

std::vector<metric> layer_metrics(const tracer& t, const layer_counts& c,
                                  double untraced_latency_sum,
                                  double client_overhead_s) {
  const std::map<std::string, double> total = t.total_seconds();
  auto span_sum = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  auto per = [](double value, double count) {
    return count > 0.0 ? value / count : 0.0;
  };
  const double n = c.requests;
  const double probed = c.probed;
  const double traced_latency = span_sum("request");
  std::vector<metric> m = {
      {"api.schedule_s", per(span_sum("api.schedule"), n), "s", "lower"},
      {"api.synthesize_s", per(span_sum("api.synthesize"), n), "s", "lower"},
      {"api.compress_s", per(span_sum("api.compress"), n), "s", "lower"},
      {"api.verify_s", per(span_sum("api.verify"), n), "s", "lower"},
      {"api.cache_key_ms", 1e3 * per(span_sum("api.cache_key"), n), "ms",
       "lower"},
      {"api.serialize_flow_ms", 1e3 * per(span_sum("api.serialize_flow"), n),
       "ms", "lower"},
      {"api.server_latency_ms", 1e3 * per(traced_latency, n), "ms", "lower"},
      {"api.client_overhead_ms", 1e3 * client_overhead_s, "ms", "lower"},
      {"api.cache_hit_share", 0.0, "ratio", "higher"},
      {"api.cache_evictions", 0.0, "count", "lower"},
      {"api.coalesced_hits", 0.0, "count", "higher"},
      {"api.bytes_out_per_request", per(c.document_bytes, n), "B", "lower"},
      {"api.shed", 0.0, "count", "lower"},
      {"api.queue_full", 0.0, "count", "lower"},
      {"api.framing_errors", 0.0, "count", "lower"},
      {"sched.list_s", per(span_sum("sched.list"), n), "s", "lower"},
      {"sched.anneal_s", per(span_sum("sched.anneal"), n), "s", "lower"},
      {"sched.ilp_s", per(span_sum("sched.ilp"), n), "s", "lower"},
      {"sched.post_s", per(span_sum("sched.post"), n), "s", "lower"},
      {"sched.ilp_skipped_share", per(c.ilp_skipped, n), "ratio", "lower"},
      {"sched.replay_match_share",
       c.uncapped > 0 ? per(c.replay_matches, c.uncapped) : 1.0, "ratio",
       "higher"},
      {"milp.nodes", static_cast<double>(c.nodes), "count", "lower"},
      {"milp.simplex_iterations", static_cast<double>(c.simplex_iterations),
       "count", "lower"},
      {"milp.dual_iterations", static_cast<double>(c.dual_iterations), "count",
       "lower"},
      {"milp.strong_branch_probes",
       static_cast<double>(c.strong_branch_probes), "count", "lower"},
      {"milp.nodes_per_s", per(static_cast<double>(c.nodes), c.solve_seconds),
       "1/s", "higher"},
      {"milp.iterations_per_s",
       per(static_cast<double>(c.simplex_iterations), c.solve_seconds), "1/s",
       "higher"},
      {"milp.gap_at_cap", per(c.gap_at_cap_sum, c.capped), "ratio", "lower"},
      {"milp.warm_start_accepted_share",
       per(c.warm_starts_accepted, c.warm_starts_offered), "ratio", "higher"},
      {"milp.presolve_s", per(span_sum("milp.presolve"), probed), "s",
       "lower"},
      {"milp.presolve_rows_removed", per(c.presolve_rows_removed, probed),
       "count", "higher"},
      {"milp.root_lp_s", per(span_sum("milp.root_lp"), probed), "s", "lower"},
      {"milp.root_lp_iterations",
       per(static_cast<double>(c.root_lp_iterations), probed), "count",
       "lower"},
      {"milp.root_refactorizations",
       per(static_cast<double>(c.root_refactorizations), probed), "count",
       "lower"},
      {"milp.root_lu_factorizations",
       per(static_cast<double>(c.root_lu_factorizations), probed), "count",
       "lower"},
      {"milp.cut_rounds", static_cast<double>(c.cut_rounds), "count",
       "lower"},
      {"milp.cuts_added", static_cast<double>(c.cuts_added), "count",
       "higher"},
      {"milp.lu_factorize_ms",
       1e3 * per(span_sum("milp.lu_factorize"), probed), "ms", "lower"},
      {"milp.lu_fill_ratio", per(c.lu_fill_ratio_sum, probed), "ratio",
       "lower"},
      {"milp.ftran_us",
       1e6 * per(span_sum("milp.ftran"), static_cast<double>(c.ftran_calls)),
       "us", "lower"},
      {"milp.btran_us",
       1e6 * per(span_sum("milp.btran"), static_cast<double>(c.btran_calls)),
       "us", "lower"},
      {"arch.place_s", per(span_sum("arch.place"), n), "s", "lower"},
      {"arch.route_s", per(span_sum("arch.route"), n), "s", "lower"},
      {"arch.attempts_used", per(static_cast<double>(c.attempts_used), n),
       "count", "lower"},
      {"arch.grid_grown_share", per(c.grid_grown, n), "ratio", "lower"},
      {"phys.layout_s", per(span_sum("phys.layout"), n), "s", "lower"},
      {"phys.compression_iterations",
       per(static_cast<double>(c.compression_iterations), n), "count",
       "lower"},
      {"sim.simulate_s", per(span_sum("sim.simulate"), n), "s", "lower"},
      {"sim.transport_legs", per(static_cast<double>(c.transport_legs), n),
       "count", "lower"},
      {"trace_overhead_share",
       untraced_latency_sum > 0.0
           ? (traced_latency - untraced_latency_sum) / untraced_latency_sum
           : 0.0,
       "ratio", "lower"},
  };
  return m;
}

} // namespace perfbench
