#include "sched/ilp_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>

#include "common/stopwatch.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
#include "sched/metaheuristics.h" // derive_seed

namespace transtore::sched {
namespace {

/// ASAP start times ignoring device contention (durations only): a valid
/// lower bound on any schedule's start times.
std::vector<int> asap_starts(const assay::sequencing_graph& graph) {
  std::vector<int> est(static_cast<std::size_t>(graph.operation_count()), 0);
  for (int op : graph.topological_order())
    for (int child : graph.children(op))
      est[static_cast<std::size_t>(child)] =
          std::max(est[static_cast<std::size_t>(child)],
                   est[static_cast<std::size_t>(op)] + graph.at(op).duration);
  return est;
}

/// ALAP finish times under the horizon: a valid upper bound on finish times.
std::vector<int> alap_finishes(const assay::sequencing_graph& graph,
                               int horizon) {
  std::vector<int> lft(static_cast<std::size_t>(graph.operation_count()),
                       horizon);
  const std::vector<int> order = graph.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    for (int child : graph.children(*it))
      lft[static_cast<std::size_t>(*it)] =
          std::min(lft[static_cast<std::size_t>(*it)],
                   lft[static_cast<std::size_t>(child)] -
                       graph.at(child).duration);
  return lft;
}

} // namespace

scheduling_ilp build_scheduling_ilp(const assay::sequencing_graph& graph,
                                    const ilp_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0, "ilp scheduler: device count");
  const int n = graph.operation_count();
  const int devices = options.device_count;
  const int uc = options.timing.transport_time;

  // Horizon: the warm start's makespan, or a safe serial bound (every op
  // serial plus full transport overhead for every edge and leg).
  int horizon = options.warm_start ? options.warm_start->makespan() : 0;
  if (horizon == 0)
    horizon = graph.total_duration() +
              uc * (2 * graph.edge_count() + 2 * n + 2);
  const double big_m = horizon;

  const std::vector<int> est = asap_starts(graph);
  const std::vector<int> lft = alap_finishes(graph, horizon);

  scheduling_ilp ilp;
  milp::model& m = ilp.model;

  // Assignment binaries s_ik and time variables ts_i, te_i.
  auto& s = ilp.assign;
  auto& ts = ilp.start;
  auto& te = ilp.end;
  s.resize(static_cast<std::size_t>(n));
  ts.resize(static_cast<std::size_t>(n));
  te.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < devices; ++k)
      s[static_cast<std::size_t>(i)].push_back(
          m.add_binary("s_" + std::to_string(i) + "_" + std::to_string(k)));
    ts[static_cast<std::size_t>(i)] =
        m.add_continuous(est[static_cast<std::size_t>(i)],
                         lft[static_cast<std::size_t>(i)] -
                             graph.at(i).duration,
                         "ts_" + std::to_string(i));
    te[static_cast<std::size_t>(i)] = m.add_continuous(
        est[static_cast<std::size_t>(i)] + graph.at(i).duration,
        lft[static_cast<std::size_t>(i)], "te_" + std::to_string(i));
  }
  ilp.makespan = m.add_continuous(
      graph.critical_path_duration(), horizon, "tE");
  const milp::variable t_end = ilp.makespan;

  // (1) uniqueness.
  for (int i = 0; i < n; ++i) {
    milp::linear_expr sum;
    for (int k = 0; k < devices; ++k)
      sum += s[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
    m.add_constraint(sum, milp::cmp::equal, 1.0,
                     "uniq_" + std::to_string(i));
  }

  // (2) duration.
  for (int i = 0; i < n; ++i)
    m.add_constraint(milp::linear_expr(ts[static_cast<std::size_t>(i)]) +
                         graph.at(i).duration -
                         te[static_cast<std::size_t>(i)],
                     milp::cmp::less_equal, 0.0,
                     "dur_" + std::to_string(i));

  // Same-device indicators per edge: same_ij = sum_k z_ijk.
  const auto edges = graph.edges();
  ilp.edge_list.assign(edges.begin(), edges.end());
  ilp.device_count = devices;
  ilp.symmetry_broken = options.break_device_symmetry;
  ilp.same_z.resize(edges.size());
  std::vector<milp::variable> w(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [i, j] = edges[e];
    milp::linear_expr same_sum;
    for (int k = 0; k < devices; ++k) {
      const milp::variable z =
          m.add_binary("z_" + std::to_string(i) + "_" + std::to_string(j) +
                       "_" + std::to_string(k));
      m.add_constraint(milp::linear_expr(z) -
                           s[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(k)],
                       milp::cmp::less_equal, 0.0);
      m.add_constraint(milp::linear_expr(z) -
                           s[static_cast<std::size_t>(j)]
                            [static_cast<std::size_t>(k)],
                       milp::cmp::less_equal, 0.0);
      ilp.same_z[e].push_back(z);
      same_sum += z;
    }

    // (3) precedence with conditional transport gap.
    m.add_constraint(milp::linear_expr(ts[static_cast<std::size_t>(j)]) -
                         te[static_cast<std::size_t>(i)] +
                         static_cast<double>(uc) * same_sum,
                     milp::cmp::greater_equal, static_cast<double>(uc),
                     "prec_" + std::to_string(i) + "_" + std::to_string(j));

    // Storage-time variable for the objective: w >= ts_j - te_i - H*same.
    w[e] = m.add_continuous(0.0, milp::infinity,
                            "w_" + std::to_string(i) + "_" +
                                std::to_string(j));
    m.add_constraint(milp::linear_expr(w[e]) -
                         ts[static_cast<std::size_t>(j)] +
                         te[static_cast<std::size_t>(i)] + big_m * same_sum,
                     milp::cmp::greater_equal, 0.0);
  }
  ilp.storage = w;

  // (4) disjunctive non-overlap for pairs that may share a device and may
  // overlap in time. Precedence-related pairs and pairs with disjoint
  // ASAP/ALAP windows are skipped (provably redundant).
  auto& pairs = ilp.order_pairs;
  const assay::reachability reach(graph);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (reach.reaches(i, j) || reach.reaches(j, i)) continue;
      if (est[static_cast<std::size_t>(i)] >=
              lft[static_cast<std::size_t>(j)] ||
          est[static_cast<std::size_t>(j)] >=
              lft[static_cast<std::size_t>(i)])
        continue;
      const milp::variable o =
          m.add_binary("o_" + std::to_string(i) + "_" + std::to_string(j));
      pairs.push_back({i, j, o});
      for (int k = 0; k < devices; ++k) {
        const milp::linear_expr same_pair =
            milp::linear_expr(
                s[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) +
            s[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
        // i before j: ts_j >= te_i - M(1-o) - M(2 - s_ik - s_jk)
        m.add_constraint(
            milp::linear_expr(ts[static_cast<std::size_t>(j)]) -
                te[static_cast<std::size_t>(i)] +
                big_m * (1.0 - milp::linear_expr(o)) +
                big_m * (2.0 - same_pair),
            milp::cmp::greater_equal, 0.0);
        // j before i: ts_i >= te_j - M*o - M(2 - s_ik - s_jk)
        m.add_constraint(
            milp::linear_expr(ts[static_cast<std::size_t>(i)]) -
                te[static_cast<std::size_t>(j)] +
                big_m * milp::linear_expr(o) + big_m * (2.0 - same_pair),
            milp::cmp::greater_equal, 0.0);
      }
    }
  }

  // (5) makespan.
  for (int i = 0; i < n; ++i)
    m.add_constraint(milp::linear_expr(te[static_cast<std::size_t>(i)]) -
                         t_end,
                     milp::cmp::less_equal, 0.0);

  // Device-load valid inequalities (see ilp_scheduler_options): the ops
  // assigned to one device occupy disjoint time windows inside [0, tE].
  if (options.load_valid_inequalities) {
    for (int k = 0; k < devices; ++k) {
      milp::linear_expr load;
      for (int i = 0; i < n; ++i)
        load += static_cast<double>(graph.at(i).duration) *
                s[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
      m.add_constraint(load - t_end, milp::cmp::less_equal, 0.0,
                       "load_" + std::to_string(k));
    }
  }

  // Device-symmetry breaking (see ilp_scheduler_options): operation i may
  // only use devices 0..i. Singleton rows by design -- presolve turns them
  // into variable bounds before the first LP.
  if (options.break_device_symmetry) {
    for (int i = 0; i < n && i < devices - 1; ++i)
      for (int k = i + 1; k < devices; ++k)
        m.add_constraint(
            milp::linear_expr(
                s[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]),
            milp::cmp::less_equal, 0.0,
            "sym_" + std::to_string(i) + "_" + std::to_string(k));
  }

  // (6) objective.
  milp::linear_expr objective = options.alpha * milp::linear_expr(t_end);
  for (std::size_t e = 0; e < edges.size(); ++e)
    objective += options.beta * milp::linear_expr(w[e]);
  m.set_objective(objective, milp::objective_sense::minimize);

  // Warm start: translate the heuristic schedule into a full assignment.
  if (options.warm_start)
    ilp.warm_assignment = schedule_assignment(ilp, *options.warm_start);

  return ilp;
}

std::vector<double> schedule_assignment(const scheduling_ilp& ilp,
                                        const schedule& s) {
  const int n = static_cast<int>(ilp.assign.size());
  const int devices = ilp.device_count;
  require(static_cast<int>(s.ops.size()) == n,
          "schedule_assignment: schedule has wrong op count");
  // Relabel devices by first appearance (op-index order) so the schedule
  // satisfies the symmetry-breaking rows; devices are interchangeable, so
  // the relabeled schedule is equivalent.
  std::vector<int> relabel(static_cast<std::size_t>(devices), -1);
  if (ilp.symmetry_broken) {
    int next_label = 0;
    for (int i = 0; i < n; ++i) {
      const int d = s.ops[static_cast<std::size_t>(i)].device;
      if (relabel[static_cast<std::size_t>(d)] < 0)
        relabel[static_cast<std::size_t>(d)] = next_label++;
    }
    for (int d = 0; d < devices; ++d)
      if (relabel[static_cast<std::size_t>(d)] < 0)
        relabel[static_cast<std::size_t>(d)] = next_label++;
  } else {
    for (int d = 0; d < devices; ++d)
      relabel[static_cast<std::size_t>(d)] = d;
  }
  std::vector<double> assignment(
      static_cast<std::size_t>(ilp.model.variable_count()), 0.0);
  auto set = [&](milp::variable v, double value) {
    assignment[static_cast<std::size_t>(v.index)] = value;
  };
  for (int i = 0; i < n; ++i) {
    const auto& so = s.ops[static_cast<std::size_t>(i)];
    const int device = relabel[static_cast<std::size_t>(so.device)];
    set(ilp.assign[static_cast<std::size_t>(i)][static_cast<std::size_t>(
            device)],
        1.0);
    set(ilp.start[static_cast<std::size_t>(i)], so.start);
    set(ilp.end[static_cast<std::size_t>(i)], so.end);
  }
  set(ilp.makespan, s.makespan());
  // z_ijk = s_ik * s_jk; w_ij is the realized cross-device slack.
  for (std::size_t e = 0; e < ilp.edge_list.size(); ++e) {
    const auto [i, j] = ilp.edge_list[e];
    const int di = relabel[static_cast<std::size_t>(
        s.ops[static_cast<std::size_t>(i)].device)];
    const int dj = relabel[static_cast<std::size_t>(
        s.ops[static_cast<std::size_t>(j)].device)];
    if (di == dj) {
      set(ilp.same_z[e][static_cast<std::size_t>(di)], 1.0);
    } else {
      const int gap = s.ops[static_cast<std::size_t>(j)].start -
                      s.ops[static_cast<std::size_t>(i)].end;
      set(ilp.storage[e], std::max(0, gap));
    }
  }
  for (const auto& pr : ilp.order_pairs) {
    const auto& oi = s.ops[static_cast<std::size_t>(pr.i)];
    const auto& oj = s.ops[static_cast<std::size_t>(pr.j)];
    const bool i_first =
        oi.start < oj.start || (oi.start == oj.start && pr.i < pr.j);
    set(pr.order, i_first ? 1.0 : 0.0);
  }
  return assignment;
}

std::optional<std::vector<double>> polish_assignment(
    const scheduling_ilp& ilp, const std::vector<double>& assignment,
    double time_limit_seconds, cancel_token cancel) {
  const auto& m = ilp.model;
  if (static_cast<int>(assignment.size()) != m.variable_count())
    return std::nullopt;
  // Rebuild the model with every integer/binary variable fixed at the
  // incumbent value through its bounds (kind integer so the builder cannot
  // re-widen fixed binaries); presolve then eliminates them and the solve
  // reduces to the LP over the continuous times.
  milp::model fixed;
  const auto& vars = m.variables();
  for (int i = 0; i < m.variable_count(); ++i) {
    const milp::var_info& v = vars[static_cast<std::size_t>(i)];
    if (v.kind == milp::var_kind::continuous) {
      fixed.add_continuous(v.lower, v.upper, v.name);
    } else {
      const double x = std::round(assignment[static_cast<std::size_t>(i)]);
      fixed.add_integer(x, x, v.name);
    }
  }
  for (const milp::row_info& row : m.constraints()) {
    milp::linear_expr e;
    for (const auto& [index, coef] : row.terms)
      e += coef * milp::variable{index};
    fixed.add_range_constraint(e, row.lower, row.upper, row.name);
  }
  milp::linear_expr objective;
  const std::vector<double>& coefs = m.objective_coefficients();
  for (int i = 0; i < m.variable_count(); ++i)
    if (coefs[static_cast<std::size_t>(i)] != 0.0)
      objective += coefs[static_cast<std::size_t>(i)] * milp::variable{i};
  objective += m.objective_constant();
  fixed.set_objective(objective, m.sense());

  milp::solver_options so;
  so.time_limit_seconds = time_limit_seconds;
  so.cancel = std::move(cancel);
  const milp::solution sol = milp::solve(fixed, so);
  if (!sol.has_solution()) return std::nullopt;
  // Keep the raw incumbent when the restricted solve did not actually
  // improve it, and defensively re-verify against the unrestricted model.
  const double raw = m.evaluate_objective(assignment);
  const bool improved = m.sense() == milp::objective_sense::minimize
                            ? sol.objective < raw - 1e-9
                            : sol.objective > raw + 1e-9;
  if (!improved) return std::nullopt;
  if (!m.is_feasible(sol.values)) return std::nullopt;
  return sol.values;
}

namespace {

/// Extract the incumbent assignment + device order from a full MILP variable
/// assignment and re-time with the device port model.
schedule extract_schedule(const assay::sequencing_graph& graph,
                          const scheduling_ilp& ilp,
                          const ilp_scheduler_options& options,
                          const std::vector<double>& values) {
  const int n = graph.operation_count();
  const int devices = options.device_count;
  auto value = [&](milp::variable v) {
    return values.at(static_cast<std::size_t>(v.index));
  };
  binding b;
  b.device_of.assign(static_cast<std::size_t>(n), -1);
  b.device_order.assign(static_cast<std::size_t>(devices), {});
  std::vector<std::pair<double, int>> starts;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < devices; ++k)
      if (value(ilp.assign[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(k)]) > 0.5)
        b.device_of[static_cast<std::size_t>(i)] = k;
    check(b.device_of[static_cast<std::size_t>(i)] >= 0,
          "ilp scheduler: op left unassigned");
    starts.emplace_back(value(ilp.start[static_cast<std::size_t>(i)]), i);
  }
  std::sort(starts.begin(), starts.end());
  for (const auto& [start, op] : starts)
    b.device_order[static_cast<std::size_t>(
                       b.device_of[static_cast<std::size_t>(op)])]
        .push_back(op);
  schedule refined = refine_timing(graph, b, devices, options.timing);
  refined.validate(graph);
  return refined;
}

/// The racing portfolio behind options.portfolio: two branch-and-bound
/// configurations (best_estimate and dfs) and the simulated-annealing
/// heuristic run concurrently on one shared incumbent board. The heuristic
/// runs on the calling thread; the tree searches split the remaining T - 1
/// threads of the budget T, at least one each, so the race runs max(T, 3)
/// threads. Every heuristic improvement is translated into a full
/// MILP assignment and offered to the board, where it tightens BOTH tree
/// searches' pruning bound; the first solver to PROVE optimality wins the
/// race and cancels the rest. With no proof inside the time limit, the best
/// incumbent across all racers wins.
struct portfolio_outcome {
  milp::solution sol;            // winning (or synthesized) MILP solution
  std::string winner;            // "best_estimate", "dfs" or "heuristic"
  long total_nodes = 0;          // summed across both tree searches
  long total_iterations = 0;
  std::optional<schedule> heuristic_best; // best annealed schedule seen
  int threads = 0;               // threads the race ran, the caller's included
  bool all_joined = false;
};

portfolio_outcome run_portfolio(const assay::sequencing_graph& graph,
                                const scheduling_ilp& ilp,
                                const ilp_scheduler_options& options,
                                const milp::solver_options& base) {
  const milp::model& m = ilp.model;
  auto board = std::make_shared<milp::incumbent_board>(true);

  int total_threads = base.threads;
  if (total_threads <= 0)
    total_threads = static_cast<int>(std::thread::hardware_concurrency());
  if (total_threads <= 0) total_threads = 1;

  auto racer_options = [&](milp::node_rule rule, int threads,
                           cancel_token cancel) {
    milp::solver_options so = base;
    so.node_selection = rule;
    so.threads = threads;
    // The race resolves by arrival time, so per-run determinism is off the
    // table regardless; the round engine's synchronization would only slow
    // the racers down.
    so.deterministic = false;
    so.shared_incumbent = board;
    so.warm_start = ilp.warm_assignment;
    so.cancel = std::move(cancel);
    return so;
  };

  cancel_source cancel_a, cancel_b, cancel_h;
  auto cancel_all = [&] {
    cancel_a.cancel();
    cancel_b.cancel();
    cancel_h.cancel();
  };

  const int threads_a = std::max(1, (total_threads - 1) / 2);
  const int threads_b = std::max(1, total_threads - 1 - threads_a);
  milp::solution sol_a, sol_b;
  std::atomic<int> winner{-1};
  std::atomic<int> tree_racers_done{0};
  auto run_racer = [&](int index, const milp::solver_options& so,
                       milp::solution& out) {
    out = milp::solve(m, so);
    // The second tree racer to finish ends the heuristic's current chunk.
    if (tree_racers_done.fetch_add(1) == 1) cancel_h.cancel();
    if (out.status == milp::solve_status::optimal) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, index)) cancel_all();
    }
  };

  // Heuristic racer: anneal from the warm start (or a fresh list schedule)
  // in short cancellable chunks, publishing every improvement to the board.
  std::optional<schedule> heur_best;
  auto run_heuristic = [&] {
    stopwatch watch;
    schedule current;
    if (options.warm_start) {
      current = *options.warm_start;
    } else {
      list_scheduler_options lo;
      lo.device_count = options.device_count;
      lo.timing = options.timing;
      lo.alpha = options.alpha;
      lo.beta = options.beta;
      lo.seed = options.seed;
      lo.cancel = cancel_h.token();
      current = schedule_with_list(graph, lo);
    }
    auto publish = [&](const schedule& s) {
      std::vector<double> values = schedule_assignment(ilp, s);
      const double objective = m.evaluate_objective(values);
      board->offer(objective, std::move(values));
      if (!heur_best ||
          s.objective(options.alpha, options.beta) <
              heur_best->objective(options.alpha, options.beta))
        heur_best = s;
    };
    publish(current);
    std::uint64_t chunk = 0;
    while (!cancel_h.cancelled() &&
           watch.elapsed_seconds() < options.time_limit_seconds) {
      if (base.cancel.cancelled()) { // forward the caller's cancellation
        cancel_all();
        break;
      }
      local_search_options lo;
      lo.alpha = options.alpha;
      lo.beta = options.beta;
      lo.iterations = 2000;
      // Derived per-chunk streams off the caller's seed (uniform with the
      // other engines' seed discipline), instead of the old hardcoded
      // 1, 2, 3, ... sequence every run shared.
      lo.seed = derive_seed(options.seed, 0x52414345ULL + chunk++);
      lo.cancel = cancel_h.token();
      schedule improved =
          improve_schedule(graph, current, options.timing, lo);
      if (improved.objective(options.alpha, options.beta) <
          current.objective(options.alpha, options.beta))
        publish(improved);
      current = std::move(improved);
    }
  };

  std::thread thread_a(run_racer, 0,
                       racer_options(milp::node_rule::best_estimate, threads_a,
                                     cancel_a.token()),
                       std::ref(sol_a));
  std::thread thread_b(run_racer, 1,
                       racer_options(milp::node_rule::dfs, threads_b,
                                     cancel_b.token()),
                       std::ref(sol_b));
  try {
    run_heuristic();
  } catch (...) {
    // The tree racers still read this frame: stop and join them first.
    cancel_all();
    thread_a.join();
    thread_b.join();
    throw;
  }
  thread_a.join();
  thread_b.join();

  portfolio_outcome out;
  out.threads = 1 + threads_a + threads_b;
  out.all_joined = !thread_a.joinable() && !thread_b.joinable();
  out.heuristic_best = heur_best;
  out.total_nodes = sol_a.nodes_explored + sol_b.nodes_explored;
  out.total_iterations = sol_a.simplex_iterations + sol_b.simplex_iterations;

  const int proven = winner.load();
  if (proven == 0 || proven == 1) {
    out.sol = proven == 0 ? std::move(sol_a) : std::move(sol_b);
    out.winner = proven == 0 ? "best_estimate" : "dfs";
    return out;
  }
  // No optimality proof: best incumbent wins. The racers adopt board
  // incumbents mid-search, but a late heuristic offer can still beat both
  // final incumbents -- check the board last.
  const bool a_ok = sol_a.has_solution();
  const bool b_ok = sol_b.has_solution();
  const bool a_beats_b = a_ok && (!b_ok || sol_a.objective <= sol_b.objective);
  out.sol = a_beats_b ? std::move(sol_a) : std::move(sol_b);
  out.winner = a_beats_b ? "best_estimate" : "dfs";
  std::uint64_t seen = 0;
  double board_objective = 0.0;
  std::vector<double> board_values;
  if (board->fetch(seen, board_objective, board_values) &&
      (!out.sol.has_solution() || board_objective < out.sol.objective)) {
    // Synthesize a feasible solution from the board (the heuristic racer
    // always publishes at least its starting schedule, so in the worst
    // case this recovers the warm start). The tree racers' dual bounds
    // stay valid for the shared model -- keep the tighter one.
    out.winner = "heuristic";
    out.sol.status = milp::solve_status::feasible;
    out.sol.objective = board_objective;
    out.sol.values = std::move(board_values);
    out.sol.best_bound = std::max(sol_a.best_bound, sol_b.best_bound);
    out.sol.interrupted = true;
  }
  return out;
}

} // namespace

ilp_schedule_result schedule_with_ilp(const assay::sequencing_graph& graph,
                                      const ilp_scheduler_options& options) {
  scheduling_ilp ilp = build_scheduling_ilp(graph, options);
  const milp::model& m = ilp.model;

  milp::solver_options solver_options = options.milp;
  solver_options.time_limit_seconds = options.time_limit_seconds;

  // Re-time the warm incumbent optimally within its own binding before the
  // tree search sees it: heuristic schedules carry conservative simulated
  // timing, and the LP-polished point prunes measurably deeper (RA12 closes
  // in ~0.6x the nodes). Bounded by a slice of the solve budget; on any
  // failure the raw assignment stands.
  if (ilp.warm_assignment) {
    const double slice =
        std::clamp(options.time_limit_seconds * 0.1, 0.1, 2.0);
    if (auto polished =
            polish_assignment(ilp, *ilp.warm_assignment, slice,
                              options.milp.cancel))
      ilp.warm_assignment = std::move(polished);
  }

  milp::solution sol;
  ilp_schedule_result result;
  std::optional<schedule> heuristic_best;
  if (options.portfolio) {
    portfolio_outcome outcome =
        run_portfolio(graph, ilp, options, solver_options);
    sol = std::move(outcome.sol);
    heuristic_best = std::move(outcome.heuristic_best);
    result.nodes = outcome.total_nodes;
    result.simplex_iterations = outcome.total_iterations;
    result.threads_used = outcome.threads;
    result.portfolio_racers = 3;
    result.portfolio_winner = std::move(outcome.winner);
    result.portfolio_all_joined = outcome.all_joined;
  } else {
    solver_options.warm_start = std::move(ilp.warm_assignment);
    sol = milp::solve(m, solver_options);
    result.nodes = sol.nodes_explored;
    result.simplex_iterations = sol.simplex_iterations;
    result.threads_used = sol.threads_used;
  }

  result.status = sol.status;
  result.interrupted = sol.interrupted;
  result.seconds = sol.seconds;
  result.variables = m.variable_count();
  result.constraints = m.constraint_count();
  result.presolve_rows_removed = sol.presolve_rows_removed;
  result.presolve_bounds_tightened = sol.presolve_bounds_tightened;
  result.cuts_added = sol.cuts_added;
  result.cut_rounds = sol.cut_rounds;
  result.root_bound = sol.root_bound;
  result.workers = sol.workers;

  check(sol.has_solution(),
        "ilp scheduler: no incumbent (horizon too small or solver failure)");
  result.ilp_objective = sol.objective;
  result.ilp_bound = sol.best_bound;

  result.refined = extract_schedule(graph, ilp, options, sol.values);
  // The ILP does not model device-port serialization, so among alternate
  // MILP optima the extracted ordering can re-time worse than the warm
  // start (which basis engine / pivot order the LP took picks the vertex).
  // Mirror the combined engine's guard: never return a schedule that
  // scores worse under objective (6) than the warm start we were given --
  // or, in portfolio mode, than the heuristic racer's best schedule.
  auto keep_better = [&](const schedule& alternative) {
    if (alternative.objective(options.alpha, options.beta) <
        result.refined.objective(options.alpha, options.beta))
      result.refined = alternative;
  };
  if (options.warm_start) keep_better(*options.warm_start);
  if (heuristic_best) keep_better(*heuristic_best);
  return result;
}

} // namespace transtore::sched
