#include "milp/solver.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "milp/activity.h"
#include "milp/cuts.h"
#include "milp/presolve.h"
#include "milp/simplex.h"

namespace transtore::milp {
namespace {

// Tree-search tuning constants.
/// Largest distance from an integer at which a value counts as integral.
constexpr double integrality_tolerance = 1e-6;
/// The search stops once the incumbent is within this relative or absolute
/// gap of the best open bound; a node or candidate must beat the incumbent
/// by more than the absolute gap.
constexpr double relative_gap = 1e-6;
constexpr double absolute_gap = 1e-9;
/// Pseudocost reliability: under pseudocost branching, a variable's
/// pseudocosts are initialized by strong-branching probes until each
/// direction has this many observations.
constexpr long reliability = 4;
/// Interval-arithmetic passes of per-node propagation, and of the root
/// pass that stands in for presolve when presolve is off.
constexpr int node_propagation_passes = 3;
constexpr int root_propagation_passes = 12;
/// Fractional candidates probed per node (most fractional first).
constexpr int strong_branch_candidates = 8;
/// Per-direction iteration cap of one strong-branching probe.
constexpr long strong_branch_iteration_limit = 100;
/// Strong-branching probes allowed across the whole search.
constexpr long strong_branch_limit = 100;
/// Under best_estimate, every Nth backtrack (round, in the deterministic
/// engine) picks the best-bound open node.
constexpr long backtrack_interval = 8;
/// Nodes the deterministic engine expands per synchronized round; its
/// trajectory depends on this value, never on the thread count.
constexpr int round_width = 8;
/// Root cut separation rounds. A few strong rounds move the root bound on
/// the Table 2 scheduling MILPs; long cutting sessions only bloat every
/// node re-solve (measured in bench_milp).
constexpr int cut_rounds = 4;
/// Relative root-bound improvement a cut round must deliver for cutting to
/// continue.
constexpr double cut_min_bound_improvement = 1e-6;

/// Minimization-form image of the user model plus integrality markers.
struct standard_form {
  lp_problem lp;
  std::vector<bool> is_integer;
  double objective_sign = 1.0;  // +1 minimize, -1 maximize
  double objective_constant = 0.0;

  /// The user-sense value of a min-form objective.
  [[nodiscard]] double user_objective(double min_obj) const {
    return objective_sign * min_obj + objective_constant;
  }
};

standard_form build_standard_form(const model& m) {
  standard_form sf;
  const int n = m.variable_count();
  const int rows = m.constraint_count();
  sf.lp.num_vars = n;
  sf.lp.num_rows = rows;
  sf.lp.cost.resize(n);
  sf.lp.lower.resize(n);
  sf.lp.upper.resize(n);
  sf.is_integer.resize(n);
  sf.objective_sign = m.sense() == objective_sense::minimize ? 1.0 : -1.0;
  sf.objective_constant = m.objective_constant();

  for (int j = 0; j < n; ++j) {
    const var_info& v = m.variable_at(j);
    sf.lp.cost[j] = sf.objective_sign * m.objective_coefficients()[j];
    sf.lp.lower[j] = v.lower;
    sf.lp.upper[j] = v.upper;
    sf.is_integer[j] = v.kind != var_kind::continuous;
  }

  sf.lp.row_lower.resize(rows);
  sf.lp.row_upper.resize(rows);
  // Build CSC by counting per-column entries first.
  std::vector<int> counts(n, 0);
  for (int i = 0; i < rows; ++i)
    for (const auto& [var, coeff] : m.constraint_at(i).terms) {
      (void)coeff;
      ++counts[var];
    }
  sf.lp.col_start.assign(n + 1, 0);
  for (int j = 0; j < n; ++j) sf.lp.col_start[j + 1] = sf.lp.col_start[j] + counts[j];
  const int nnz = sf.lp.col_start[n];
  sf.lp.row_index.resize(nnz);
  sf.lp.value.resize(nnz);
  std::vector<int> cursor(sf.lp.col_start.begin(), sf.lp.col_start.end() - 1);
  for (int i = 0; i < rows; ++i) {
    const row_info& row = m.constraint_at(i);
    sf.lp.row_lower[i] = row.lower;
    sf.lp.row_upper[i] = row.upper;
    for (const auto& [var, coeff] : row.terms) {
      sf.lp.row_index[cursor[var]] = i;
      sf.lp.value[cursor[var]] = coeff;
      ++cursor[var];
    }
  }
  return sf;
}

struct bound_change {
  int var;
  double lower;
  double upper;
};

/// Optimal basis of a solved node, captured as its children's warm start:
/// after load_basis() a simplex instance's solve is a pure function of
/// (problem, bounds, basic set, upper-parked set) -- load_basis resets
/// every hidden pricing/devex/eta state, including what strong-branching
/// probes left -- so any worker can re-solve any node from its parent's
/// snapshot and reach the same result.
struct basis_snapshot {
  std::vector<int> basic;
  std::vector<int> at_upper;
};

std::shared_ptr<const basis_snapshot> capture_basis(const simplex_solver& lp,
                                                    int n) {
  auto snap = std::make_shared<basis_snapshot>();
  snap->basic = lp.basic_columns();
  const int total = n + lp.rows();
  for (int c = 0; c < total; ++c)
    if (lp.column_at_upper(c)) snap->at_upper.push_back(c);
  return snap;
}

struct bb_node {
  std::vector<bound_change> changes; // path from root
  double parent_bound = -inf;        // LP bound of the parent (min-form)
  long id = 0;                       // for deterministic tie-breaking
  /// Fractional distance the branch moved the variable (frac for a down
  /// child, 1-frac for an up child); pseudocosts are recorded per unit.
  double branch_distance = 1.0;
  /// Pseudocost completion estimate (min-form): parent bound plus the
  /// branch's own expected degradation plus the cheapest rounding of every
  /// other fractional variable at the parent.
  double estimate = -inf;
  /// Parent's optimal basis, which the node re-solves from unless it
  /// continues its parent's dive on an undisturbed instance (null for the
  /// root outside the round engine). Siblings share the one immutable
  /// snapshot.
  std::shared_ptr<const basis_snapshot> warm;
  /// Worker that created this node (-1 for the root); a worker pulling a
  /// pool node produced by another worker counts it as a steal.
  int producer = -1;
};

/// Pseudocost bookkeeping per integer variable and direction, plus the
/// global per-unit average used as the estimate fallback for unobserved
/// directions.
struct pseudocost_table {
  std::vector<double> up_sum, down_sum;
  std::vector<long> up_count, down_count;
  double total_sum = 0.0;
  long total_count = 0;

  explicit pseudocost_table(int n)
      : up_sum(n, 0.0), down_sum(n, 0.0), up_count(n, 0), down_count(n, 0) {}

  void record(int var, bool up, double degradation_per_frac) {
    if (up) {
      up_sum[var] += degradation_per_frac;
      ++up_count[var];
    } else {
      down_sum[var] += degradation_per_frac;
      ++down_count[var];
    }
    total_sum += degradation_per_frac;
    ++total_count;
  }

  [[nodiscard]] double average() const {
    return total_count > 0 ? total_sum / total_count : 0.0;
  }

  [[nodiscard]] double up_cost(int var, double fallback) const {
    return up_count[var] > 0 ? up_sum[var] / up_count[var] : fallback;
  }
  [[nodiscard]] double down_cost(int var, double fallback) const {
    return down_count[var] > 0 ? down_sum[var] / down_count[var] : fallback;
  }

  [[nodiscard]] double score(int var, double frac, double fallback) const {
    const double up = up_cost(var, fallback);
    const double down = down_cost(var, fallback);
    const double up_est = up * (1.0 - frac);
    const double down_est = down * frac;
    constexpr double eps = 1e-6;
    return std::max(up_est, eps) * std::max(down_est, eps);
  }
};

/// Row-wise view of an lp_problem for the propagation passes.
struct row_view {
  std::vector<row_terms> rows;
  std::vector<double> lower;
  std::vector<double> upper;

  explicit row_view(const lp_problem& lp)
      : rows(matrix_rows(lp)), lower(lp.row_lower), upper(lp.row_upper) {}
};

/// Interval-arithmetic propagation over `view` starting from the bound
/// arrays (node bounds already applied), for up to `passes` passes. Returns
/// false when some row is proven infeasible under the bounds -- the node
/// prunes without an LP solve. Integer bounds are rounded. Unlike presolve,
/// a row's activity is not refreshed as its terms tighten, and a crossing
/// within tolerance closes the box to a point.
bool propagate_node(const row_view& view, const std::vector<bool>& is_integer,
                    std::vector<double>& lower, std::vector<double>& upper,
                    int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (std::size_t r = 0; r < view.rows.size(); ++r) {
      const double row_lo = view.lower[r];
      const double row_hi = view.upper[r];
      const activity act = row_activity(view.rows[r], lower, upper);
      if (act.min() > row_hi + 1e-7 || act.max() < row_lo - 1e-7)
        return false;
      if (act.min() >= row_lo - 1e-7 && act.max() <= row_hi + 1e-7)
        continue; // redundant here: no tightening possible

      for (const auto& [var, coeff] : view.rows[r]) {
        const std::size_t v = static_cast<std::size_t>(var);
        const term_range t = contribution(coeff, lower[v], upper[v]);
        auto [new_lo, new_hi] =
            implied_bounds(coeff, row_lo, row_hi, residual_min(act, t),
                           residual_max(act, t));
        if (is_integer[v]) {
          if (new_lo != -inf) new_lo = std::ceil(new_lo - 1e-7);
          if (new_hi != inf) new_hi = std::floor(new_hi + 1e-7);
        }
        if (new_lo > lower[v] + 1e-9) {
          lower[v] = new_lo;
          changed = true;
        }
        if (new_hi < upper[v] - 1e-9) {
          upper[v] = new_hi;
          changed = true;
        }
        if (lower[v] > upper[v]) {
          if (lower[v] > upper[v] + 1e-7) return false;
          upper[v] = lower[v]; // sub-tolerance crossing: a fixed value
        }
      }
    }
    if (!changed) break;
  }
  return true;
}

// ---------------------------------------------------------- root phase

/// The root phase: standard form, presolve (or the root propagation pass),
/// the root LP and the cut rounds. It owns the LP the tree solves and the
/// cut loop's simplex over it; the simplex holds a reference into it, so a
/// root_phase is built in place and never copied or moved.
struct root_phase {
  root_phase(const model& m, const solver_options& options,
             const deadline& time_budget, solution& result);
  root_phase(const root_phase&) = delete;
  root_phase& operator=(const root_phase&) = delete;

  /// The LP the tree solves: the (presolved) root problem plus the cuts
  /// alive after the last round.
  [[nodiscard]] const lp_problem& tree_lp() const {
    return cut_lp ? *cut_lp : sf.lp;
  }

  standard_form sf;
  bool infeasible = false; // proven by presolve or the propagation pass
  std::unique_ptr<lp_problem> cut_lp; // null while no round changed the rows
  std::unique_ptr<simplex_solver> lp; // the cut loop's simplex over tree_lp()
  double bound = inf;                 // min-form LP bound of the (cut) root
  bool solved = false;                // whether `bound` is known
  long iterations = 0;
  long dual_iterations = 0;
};

root_phase::root_phase(const model& m, const solver_options& options,
                       const deadline& time_budget, solution& result)
    : sf(build_standard_form(m)) {
  // Root presolve: the iterated reduction loop when enabled, otherwise the
  // node propagation pass over the root rows (the pre-presolve solver that
  // the no_presolve ablation and the presolve-off tests run). Nothing
  // writes sf.lp's variable bounds after this.
  if (options.presolve) {
    presolved_problem reduced = presolve(sf.lp, sf.is_integer);
    result.presolve_rows_removed = reduced.stats.rows_removed;
    result.presolve_bounds_tightened = reduced.stats.bounds_tightened;
    result.presolve_coefficients_tightened =
        reduced.stats.coefficients_tightened;
    result.presolve_variables_fixed = reduced.stats.variables_fixed;
    if (reduced.infeasible) {
      infeasible = true;
      return;
    }
    sf.lp = std::move(reduced.reduced);
  } else if (!propagate_node(row_view(sf.lp), sf.is_integer, sf.lp.lower,
                             sf.lp.upper, root_propagation_passes)) {
    infeasible = true;
    return;
  }
  lp = std::make_unique<simplex_solver>(sf.lp, options.lp);
  if (!options.cuts || time_budget.expired()) return;

  // Solve the root LP once, then separate Gomory + cover cuts in rounds,
  // each round rebuilding the simplex over the extended rows and
  // warm-restarting from the previous basis (the appended cut slacks enter
  // basic, so the dual method re-solves in a handful of pivots).
  const auto solve_counted = [&](bool warm) {
    const lp_result r = lp->solve(time_budget, warm);
    iterations += r.iterations;
    dual_iterations += r.dual_iterations;
    return r;
  };
  const auto has_fractional = [&](const lp_result& r) {
    for (int j = 0; j < sf.lp.num_vars; ++j)
      if (sf.is_integer[j] &&
          std::abs(r.x[j] - std::round(r.x[j])) > integrality_tolerance)
        return true;
    return false;
  };
  const lp_result root = solve_counted(/*warm=*/false);
  if (root.status != lp_status::optimal) return;
  bound = root.objective;
  solved = true;
  if (!has_fractional(root)) return;
  cut_generator cutter(sf.lp, sf.is_integer);
  double bound_before_round = bound;
  for (int round = 0; round < cut_rounds; ++round) {
    if (time_budget.expired()) break;
    if (!cutter.round(*lp, time_budget)) break;
    std::vector<int> at_upper;
    const std::vector<int> basis = cutter.remap_basis(*lp, at_upper);
    auto next_problem = std::make_unique<lp_problem>(cutter.current());
    auto next_lp = std::make_unique<simplex_solver>(*next_problem, options.lp);
    next_lp->load_basis(basis, at_upper);
    lp = std::move(next_lp);
    cut_lp = std::move(next_problem);
    const lp_result re = solve_counted(/*warm=*/true);
    if (re.status != lp_status::optimal) break;
    bound = re.objective;
    if (!has_fractional(re)) break;
    // Stalling termination: on these degenerate big-M relaxations a round
    // that fails to move the bound is chasing alternate optima -- further
    // rounds only bloat the tree's LPs.
    if (bound - bound_before_round <=
        cut_min_bound_improvement * std::max(1.0, std::abs(bound)))
      break;
    bound_before_round = bound;
  }
  result.cut_rounds = cutter.stats().rounds;
  result.cuts_added = cutter.stats().added;
  result.cuts_active = cutter.active_cuts();
}

// ---------------------------------------------------------- tree search

enum class node_kind {
  skipped,       // pruned by parent bound before any work (not counted)
  prop_pruned,   // infeasible by per-node propagation (no LP spent)
  bound_pruned,  // LP bound at/above the incumbent
  lp_infeasible,
  integral,      // integral LP optimum: evaluated candidate attached
  branched,      // fractional optimum: ready for branching at commit
  dropped,       // LP iteration limit: dropped with a warning
  time_limit,
  unbounded,
};

struct probe_record {
  int var = -1;
  bool up = false;
  double cost = 0.0; // degradation per unit of fractional distance
};

/// Everything the kernel learned about one node, handed to the source's
/// commit step -- the only place search-global state (pseudocosts,
/// incumbent, the open nodes) is mutated.
struct node_result {
  node_kind kind = node_kind::skipped;
  double bound = -inf; // min-form LP objective
  int processed_by = 0;
  std::vector<probe_record> probe_records;
  bool down_infeasible = false;
  bool up_infeasible = false;
  int probed_infeasible_var = -1;
  std::vector<double> x;                          // LP optimum (branched)
  std::vector<std::pair<double, int>> fractional; // (closeness, var)
  /// Effective node bounds of each fractional variable (post-propagation),
  /// aligned with `fractional` -- the child bound changes branch off these.
  std::vector<std::pair<double, double>> fractional_bounds;
  /// Post-solve, pre-probe basis: the children's warm start (branched).
  std::shared_ptr<const basis_snapshot> basis;
  /// Strong-branching probes run on this node; they leave the instance on
  /// the last probe's basis instead of this node's optimum.
  long probes_run = 0;
  // Integral candidate, already rounded and evaluated so the commit only
  // compares objectives (under its lock, in the pool source).
  std::vector<double> candidate;
  double candidate_obj = inf; // min-form; inf = infeasible after rounding
};

/// The integral-candidate check every source shares (node optima and the
/// warm start): rounds `x`'s integer entries in place and returns its
/// min-form objective, or +inf when the rounded point is infeasible.
double evaluate_candidate(const model& m, const standard_form& sf,
                          std::vector<double>& x) {
  for (std::size_t j = 0; j < sf.is_integer.size(); ++j)
    if (sf.is_integer[j]) x[j] = std::round(x[j]);
  if (!m.is_feasible(x, 1e-5)) return inf;
  return sf.objective_sign * (m.evaluate_objective(x) - sf.objective_constant);
}

/// Both children of a branched node, built at commit time; a child whose
/// side a strong-branching probe proved infeasible is left empty.
struct branch_output {
  std::optional<bb_node> down, up;
  bool down_preferred = true; // the down child is nearer the LP value
};

// The node-order rule of both node sources.

/// Which open node a selection takes: the newest (LIFO), the best parent
/// bound, or the best pseudocost completion estimate.
enum class open_key { newest, bound, estimate };

/// The key of the `turn`-th selection: a backtrack in the pool source, a
/// round in the deterministic source. dfs always takes the newest node.
/// best_estimate is hybrid backtracking: most turns stay LIFO (the adjacent
/// open node shares most of the dive's bound changes); every second one
/// restarts from the best-estimate node, and every `backtrack_interval`-th
/// from the best-bound node (pumping the global dual bound). Pure
/// best-first jumping doubled the LP cost per node when a backtrack
/// re-solved from the previous node's basis instead of its parent's.
open_key key_for_turn(node_rule rule, long turn) {
  if (rule != node_rule::best_estimate) return open_key::newest;
  if (turn % backtrack_interval == 0) return open_key::bound;
  return turn % 2 == 0 ? open_key::estimate : open_key::newest;
}

/// Strict total order of open nodes under `key`; ids are unique, so no
/// ties remain and a scan or sort under it never depends on where a node
/// sits in `open`.
bool comes_first(open_key key, const bb_node& a, const bb_node& b) {
  switch (key) {
    case open_key::newest:
      return a.id > b.id;
    case open_key::bound:
      if (a.parent_bound != b.parent_bound)
        return a.parent_bound < b.parent_bound;
      if (a.estimate != b.estimate) return a.estimate < b.estimate;
      return a.id < b.id;
    case open_key::estimate:
      if (a.estimate != b.estimate) return a.estimate < b.estimate;
      if (a.parent_bound != b.parent_bound)
        return a.parent_bound < b.parent_bound;
      return a.id < b.id;
  }
  return false;
}

/// Removes and returns the pool source's next open node. Its `newest` is
/// the back of `open`, taken in O(1): LIFO over push order, which keeps a
/// dfs backtrack next to the dive it leaves (a best_estimate pick's
/// swap-removal can move an older node to the back). The other keys scan
/// with comes_first. The deterministic source, whose open list its partial
/// sort permutes, ranks `newest` by id instead.
bb_node take_open(std::vector<bb_node>& open, open_key key) {
  std::size_t pick = open.size() - 1;
  if (key != open_key::newest) {
    pick = 0;
    for (std::size_t i = 1; i < open.size(); ++i)
      if (comes_first(key, open[i], open[pick])) pick = i;
  }
  bb_node node = std::move(open[pick]);
  open[pick] = std::move(open.back());
  open.pop_back();
  return node;
}

/// How the shared commit step settled a processed node.
enum class settled {
  done,      // nothing further: pruned, infeasible, dropped, no gain, stop
  improved,  // an integral candidate became the incumbent
  branch,    // still open: build its children
};

/// One tree search: the read-only inputs every worker reads, and the state
/// both node sources share with the steps that commit to it. The pool
/// source mutates that state only under its mutex; the round source only in
/// its barrier's completion step, while every worker waits.
struct tree_search {
  tree_search(const model& m, root_phase& root, const solver_options& options,
              const deadline& time_budget);

  bool accept(double min_obj, const std::vector<double>& values);
  [[nodiscard]] bool gap_closed() const;
  bool should_stop();
  [[nodiscard]] long probe_allowance() const;
  settled settle(const bb_node& node, const node_result& nr);
  branch_output branch(const bb_node& node, node_result& nr);
  void finish(solution& result);

  // Read-only inputs.
  const model& m;
  const standard_form& sf;
  const solver_options& options;
  const deadline& time_budget;
  /// Also lends worker 0 its simplex, and takes the root node's LP bound
  /// when the root phase did not solve the root.
  root_phase& root;
  const int n;
  const int threads;
  /// Row view of the tree's LP for per-node propagation (engaged when
  /// node propagation is on).
  std::optional<row_view> rows;

  // Shared search state (minimization form).
  bool have_incumbent = false;
  double incumbent_obj = inf;
  std::vector<double> incumbent_values;
  pseudocost_table pseudocosts;
  /// One entry per open, in-flight or unresolved node; the root's first.
  std::multiset<double> open_bounds{-inf};
  std::vector<worker_stats> workers;
  long nodes = 0;
  /// Strong-branching probes run so far; workers add theirs per node.
  std::atomic<long> probes{0};
  long next_node_id = 1; // the root is node 0
  bool hit_limit = false;
  bool unbounded = false;
  bool stop = false;
};

/// threads <= 0 resolves to the hardware; at most 64 either way.
int resolve_threads(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
  }
  return std::min(threads, 64);
}

tree_search::tree_search(const model& m, root_phase& root,
                         const solver_options& options,
                         const deadline& time_budget)
    : m(m), sf(root.sf), options(options), time_budget(time_budget),
      root(root), n(root.sf.lp.num_vars),
      threads(resolve_threads(options.threads)),
      pseudocosts(n), workers(static_cast<std::size_t>(threads)) {
  if (options.node_propagation) rows.emplace(root.tree_lp());
}

/// Integral-candidate acceptance (node optima and the warm start): installs
/// a candidate evaluate_candidate() scored when it improves the incumbent
/// by more than the absolute gap.
bool tree_search::accept(double min_obj, const std::vector<double>& values) {
  if (min_obj == inf ||
      (have_incumbent && min_obj >= incumbent_obj - absolute_gap))
    return false;
  have_incumbent = true;
  incumbent_obj = min_obj;
  incumbent_values = values;
  return true;
}

/// The incumbent is within the relative or absolute gap of the best open
/// bound. An empty bound set means the tree is exhausted.
bool tree_search::gap_closed() const {
  if (!have_incumbent) return false;
  if (open_bounds.empty()) return true;
  const double bound = *open_bounds.begin();
  const double denom = std::max(1.0, std::abs(incumbent_obj));
  return (incumbent_obj - bound) / denom <= relative_gap ||
         incumbent_obj - bound <= absolute_gap;
}

/// Whether the search must stop before taking another node: an earlier
/// stop, or the node limit or the deadline, which mark it limit-hit.
bool tree_search::should_stop() {
  if (!stop && (nodes >= options.max_nodes || time_budget.expired()))
    hit_limit = stop = true;
  return stop;
}

/// A node's share of the search-wide strong-branching probe budget.
long tree_search::probe_allowance() const {
  return std::max(0L,
                  strong_branch_limit - probes.load(std::memory_order_relaxed));
}

/// The commit step of both sources: the node's entry in the open-bound
/// multiset, the node count, the root bound, the stop flags and the
/// incumbent. A node the deadline interrupted or the LP iteration limit
/// dropped keeps its bound entry: its subtree was never searched, so the
/// dual bound finish() reports must still cover it.
settled tree_search::settle(const bb_node& node, const node_result& nr) {
  if (nr.kind != node_kind::time_limit && nr.kind != node_kind::dropped)
    open_bounds.erase(open_bounds.find(node.parent_bound));
  if (nr.kind == node_kind::skipped)
    return settled::done; // pruned by its parent bound: not counted
  ++nodes;
  ++workers[static_cast<std::size_t>(nr.processed_by)].nodes;
  if (!root.solved && node.id == 0 && nr.bound != -inf) {
    root.bound = nr.bound;
    root.solved = true;
  }
  switch (nr.kind) {
    case node_kind::time_limit:
      hit_limit = stop = true;
      return settled::done;
    case node_kind::unbounded:
      unbounded = stop = true;
      return settled::done;
    case node_kind::dropped:
      // A limit was hit: with the node's subtree unsearched, the search
      // can prove neither optimality nor infeasibility.
      log_at(log_level::warn, "milp: dropped node after iteration limit");
      hit_limit = true;
      return settled::done;
    case node_kind::integral:
      return accept(nr.candidate_obj, nr.candidate) ? settled::improved
                                                    : settled::done;
    case node_kind::branched:
      // An incumbent found since this node's LP solve (by an earlier
      // commit of the same round, or a racing worker) may prune it.
      if (have_incumbent && nr.bound >= incumbent_obj - absolute_gap)
        return settled::done;
      return settled::branch;
    default:
      return settled::done; // propagation, bound or LP infeasibility
  }
}

/// Builds both children of a settled::branch node and adds an open-bound
/// entry for each one a probe did not prune.
branch_output tree_search::branch(const bb_node& node, node_result& nr) {
  // Probe observations first (in the order the probes ran), then the
  // branch-variable pick, then the parent's own pseudocost record; all
  // precede the children's estimates.
  pseudocost_table& pc = pseudocosts;
  for (const probe_record& p : nr.probe_records) pc.record(p.var, p.up, p.cost);

  int branch_var = -1;
  std::size_t branch_idx = 0;
  double branch_frac = 0.0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < nr.fractional.size(); ++i) {
    const int j = nr.fractional[i].second;
    const double score = pc.score(j, nr.x[j] - std::floor(nr.x[j]), 1.0);
    if (score > best_score) {
      best_score = score;
      branch_var = j;
      branch_idx = i;
      branch_frac = nr.x[j];
    }
  }
  // A probe that proved one side infeasible makes its variable the best
  // branch: one child is pruned before it is ever solved.
  if (nr.probed_infeasible_var >= 0) {
    branch_var = nr.probed_infeasible_var;
    for (std::size_t i = 0; i < nr.fractional.size(); ++i)
      if (nr.fractional[i].second == branch_var) branch_idx = i;
    branch_frac = nr.x[branch_var];
  } else {
    nr.down_infeasible = nr.up_infeasible = false;
  }

  // Pseudocost record for the branch that created this node (per unit of
  // fractional distance, matching the strong-branching probes).
  if (!node.changes.empty()) {
    const bound_change& last = node.changes.back();
    const double degradation = nr.bound - node.parent_bound;
    if (node.parent_bound != -inf && degradation >= 0.0)
      pc.record(last.var, last.lower > sf.lp.lower[last.var],
                degradation / std::max(node.branch_distance, 1e-6));
  }

  // Completion estimate: the branch direction's expected degradation plus
  // the cheapest rounding of every other fractional variable.
  const double floor_val = std::floor(branch_frac);
  const double frac = branch_frac - floor_val;
  const double fallback = pc.average();
  double estimate_rest = 0.0;
  if (options.node_selection == node_rule::best_estimate) {
    for (const auto& [closeness, j] : nr.fractional) {
      (void)closeness;
      if (j == branch_var) continue;
      const double fj = nr.x[j] - std::floor(nr.x[j]);
      estimate_rest += std::min(pc.down_cost(j, fallback) * fj,
                                pc.up_cost(j, fallback) * (1.0 - fj));
    }
  }

  const auto [eff_lower, eff_upper] = nr.fractional_bounds[branch_idx];
  const auto child = [&](bool up) {
    bb_node c;
    c.changes = node.changes;
    c.changes.push_back(up ? bound_change{branch_var, floor_val + 1.0,
                                          eff_upper}
                           : bound_change{branch_var, eff_lower, floor_val});
    c.parent_bound = nr.bound;
    c.id = next_node_id++;
    c.branch_distance = up ? 1.0 - frac : frac;
    c.estimate = nr.bound +
                 (up ? pc.up_cost(branch_var, fallback) * (1.0 - frac)
                     : pc.down_cost(branch_var, fallback) * frac) +
                 estimate_rest;
    c.warm = nr.basis;
    c.producer = nr.processed_by;
    return c;
  };
  branch_output out;
  bb_node down = child(false);
  bb_node up = child(true);
  if (!nr.down_infeasible) {
    open_bounds.insert(nr.bound);
    out.down = std::move(down);
  }
  if (!nr.up_infeasible) {
    open_bounds.insert(nr.bound);
    out.up = std::move(up);
  }
  out.down_preferred = frac <= 0.5;
  return out;
}

void tree_search::finish(solution& result) {
  result.nodes_explored = nodes;
  result.simplex_iterations = root.iterations;
  result.dual_simplex_iterations = root.dual_iterations;
  for (const worker_stats& ws : workers) {
    result.simplex_iterations += ws.simplex_iterations;
    result.dual_simplex_iterations += ws.dual_simplex_iterations;
  }
  result.strong_branch_probes = probes.load(std::memory_order_relaxed);
  result.interrupted = hit_limit && time_budget.expired();
  if (root.solved) result.root_bound = sf.user_objective(root.bound);
  // One-worker pool searches report no per-worker breakdown.
  if (options.deterministic || threads > 1)
    result.workers = std::move(workers);
  if (unbounded) {
    result.status = solve_status::unbounded;
  } else if (have_incumbent) {
    result.values = incumbent_values;
    result.objective = sf.user_objective(incumbent_obj);
    const double open_bound = open_bounds.empty() ? inf : *open_bounds.begin();
    result.best_bound = sf.user_objective(std::min(incumbent_obj, open_bound));
    const bool proven = !hit_limit && gap_closed();
    result.status = proven ? solve_status::optimal : solve_status::feasible;
  } else {
    result.status =
        hit_limit ? solve_status::no_solution : solve_status::infeasible;
  }
}

/// One worker of either node source: its simplex instance (worker 0 reuses
/// the cut loop's, every other builds its own over the tree LP), its
/// propagation scratch and its stats.
struct node_worker {
  node_worker(tree_search& search, int id)
      : search(search), id(id),
        lp(id == 0 ? *search.root.lp
                   : own.emplace(search.root.tree_lp(), search.options.lp)),
        stats(search.workers[static_cast<std::size_t>(id)]) {}
  node_worker(const node_worker&) = delete; // `lp` may refer to `own`
  node_worker& operator=(const node_worker&) = delete;

  node_result process(const bb_node& node, bool reload_basis,
                      double prune_obj, long probe_allowance,
                      std::mutex* table_lock);

  tree_search& search;
  const int id;
  std::optional<simplex_solver> own;
  simplex_solver& lp;
  worker_stats& stats;
  std::vector<double> lower, upper;
};

/// The node kernel every source runs: per-node propagation, the LP
/// re-solve, and the reliability probes. `reload_basis` warm-starts the LP
/// from the node's recorded parent basis; false trusts the instance's
/// current basis, which must be that parent basis (a pool worker continuing
/// its own dive after a node that ran no probes). `prune_obj` is the
/// incumbent objective to prune against (+inf when none) and
/// `probe_allowance` this node's share of the global probe budget -- both
/// fixed by the source so the result is a pure function of its arguments.
/// `table_lock`, when set, guards the pseudocost-count reads.
node_result node_worker::process(const bb_node& node, bool reload_basis,
                                 double prune_obj, long probe_allowance,
                                 std::mutex* table_lock) {
  node_result out;
  out.processed_by = id;
  const int n = search.n;
  const standard_form& sf = search.sf;
  const deadline& time_budget = search.time_budget;

  if (node.parent_bound >= prune_obj - absolute_gap) return out; // skipped

  if (search.rows && !node.changes.empty()) {
    // Per-node propagation: branching fixes collapse big-M disjunctions,
    // so a few interval passes often prune the node (or shrink its LP)
    // before any pivot is spent.
    lower = sf.lp.lower;
    upper = sf.lp.upper;
    for (const bound_change& change : node.changes) {
      lower[change.var] = change.lower;
      upper[change.var] = change.upper;
    }
    if (!propagate_node(*search.rows, sf.is_integer, lower, upper,
                        node_propagation_passes)) {
      out.kind = node_kind::prop_pruned;
      return out;
    }
    for (int j = 0; j < n; ++j) lp.set_variable_bounds(j, lower[j], upper[j]);
  } else {
    for (int j = 0; j < n; ++j)
      lp.set_variable_bounds(j, sf.lp.lower[j], sf.lp.upper[j]);
    for (const bound_change& change : node.changes)
      lp.set_variable_bounds(change.var, change.lower, change.upper);
  }

  bool warm = true;
  if (reload_basis) {
    if (node.warm)
      lp.load_basis(node.warm->basic, node.warm->at_upper);
    else
      warm = false; // snapshot-less node (the unsolved root): cold solve
  }
  const lp_result relax = lp.solve(time_budget, warm);
  stats.simplex_iterations += relax.iterations;
  stats.dual_simplex_iterations += relax.dual_iterations;
  switch (relax.status) {
    case lp_status::time_limit:
      out.kind = node_kind::time_limit;
      return out;
    case lp_status::infeasible:
      out.kind = node_kind::lp_infeasible;
      return out;
    case lp_status::unbounded:
      out.kind = node_kind::unbounded;
      return out;
    case lp_status::iteration_limit:
      // Requeueing would loop; the iteration cap is high enough that this
      // indicates numerical trouble.
      out.kind = node_kind::dropped;
      return out;
    default:
      break;
  }
  out.bound = relax.objective;
  if (out.bound >= prune_obj - absolute_gap) {
    out.kind = node_kind::bound_pruned;
    return out;
  }

  for (int j = 0; j < n; ++j) {
    if (!sf.is_integer[j]) continue;
    const double frac = std::abs(relax.x[j] - std::round(relax.x[j]));
    if (frac <= integrality_tolerance) continue;
    out.fractional.emplace_back(0.5 - std::abs(frac - 0.5), j);
    out.fractional_bounds.emplace_back(lp.variable_lower(j),
                                       lp.variable_upper(j));
  }

  if (out.fractional.empty()) {
    // Integral optimum: do the O(nnz) rounding + feasibility check here,
    // outside any source lock, so the commit only compares objectives.
    out.kind = node_kind::integral;
    out.candidate = relax.x;
    out.candidate_obj = evaluate_candidate(search.m, sf, out.candidate);
    return out;
  }

  // The children's warm basis: this node's own optimal basis, captured
  // before the probes below disturb it.
  out.basis = capture_basis(lp, n);

  // Reliability initialization: before trusting pseudocosts, seed them
  // with limited strong-branching probes -- warm-started dual re-solves
  // with a tight iteration cap, most fractional candidates first. An
  // infeasible probe direction prunes that child outright.
  if (probe_allowance > 0) {
    std::vector<std::pair<double, int>> order = out.fractional;
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (static_cast<int>(order.size()) > strong_branch_candidates)
      order.resize(static_cast<std::size_t>(strong_branch_candidates));
    // The candidates without `reliability` observations in both directions.
    std::vector<int> unreliable;
    {
      std::unique_lock<std::mutex> lock;
      if (table_lock) lock = std::unique_lock<std::mutex>(*table_lock);
      const pseudocost_table& pc = search.pseudocosts;
      for (const auto& [closeness, j] : order)
        if (std::min(pc.up_count[j], pc.down_count[j]) < reliability)
          unreliable.push_back(j);
    }
    long probes_run = 0;
    for (const int j : unreliable) {
      if (probes_run >= probe_allowance) break;
      const double value = relax.x[j];
      const double floor_val = std::floor(value);
      const double frac = value - floor_val;
      const double node_lower = lp.variable_lower(j);
      const double node_upper = lp.variable_upper(j);
      bool local_down_infeasible = false;
      bool local_up_infeasible = false;
      for (const bool up : {false, true}) {
        if (time_budget.expired()) break;
        if (up)
          lp.set_variable_bounds(j, floor_val + 1.0, node_upper);
        else
          lp.set_variable_bounds(j, node_lower, floor_val);
        const lp_result probe = lp.solve(time_budget, /*warm_start=*/true,
                                         strong_branch_iteration_limit);
        lp.set_variable_bounds(j, node_lower, node_upper);
        ++probes_run;
        stats.simplex_iterations += probe.iterations;
        stats.dual_simplex_iterations += probe.dual_iterations;
        if (probe.status == lp_status::optimal) {
          const double degradation =
              std::max(0.0, probe.objective - out.bound);
          const double distance = up ? 1.0 - frac : frac;
          out.probe_records.push_back(
              {j, up, degradation / std::max(distance, 1e-6)});
        } else if (probe.status == lp_status::infeasible) {
          // Infeasibility holds only under this node's bound set, so it
          // must not pollute the search-global pseudocost averages; the
          // child is pruned at commit instead.
          if (up)
            local_up_infeasible = true;
          else
            local_down_infeasible = true;
        }
        // Iteration/time-limited probes carry no trustworthy bound.
      }
      if (local_down_infeasible || local_up_infeasible) {
        out.probed_infeasible_var = j;
        out.down_infeasible = local_down_infeasible;
        out.up_infeasible = local_up_infeasible;
      }
    }
    search.probes.fetch_add(probes_run, std::memory_order_relaxed);
    out.probes_run = probes_run;
  }

  out.x = relax.x;
  out.kind = node_kind::branched;
  return out;
}

/// The worker team of both node sources: `body` runs on worker 0 on the
/// calling thread and on workers 1..threads-1 on their own threads, each
/// with its own node_worker, all joined before this returns.
template <class Body>
void run_team(tree_search& search, const Body& body) {
  const auto run = [&](int id) {
    node_worker worker(search, id);
    body(worker);
  };
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(search.threads - 1));
  for (int w = 1; w < search.threads; ++w) team.emplace_back(run, w);
  run(0);
  for (std::thread& t : team) t.join();
}

/// The deterministic node source: fixed-width rounds. Each round selects
/// `round_width` open nodes by the node-order rule, processes them
/// concurrently on the workers' simplex instances (every node re-solved
/// from its recorded parent basis -- load_basis makes that a pure function
/// of the node), then commits the results in ascending node-id order.
/// Selection, pruning, pseudocost updates, and incumbent acceptance all
/// happen in the barrier's completion step, which runs on one thread while
/// every worker waits, so the trajectory depends on the round width but
/// never on the thread count or on arrival order.
void run_rounds(tree_search& t) {
  // The root re-solves from the cut loop's root basis.
  std::vector<bb_node> open(1);
  if (t.root.solved) open[0].warm = capture_basis(*t.root.lp, t.n);

  // The round in flight: written only by select_round (before the team
  // starts, then in the completion step), read by the workers after the
  // barrier releases them.
  std::vector<bb_node> batch;
  std::vector<node_result> results;
  double prune_obj = inf;
  long probe_allowance = 0;
  std::atomic<std::size_t> cursor{0};
  long round = 0;

  // Fills `batch` with the next round, in node-id order; leaves it empty
  // when the search is over.
  const auto select_round = [&] {
    batch.clear();
    if (open.empty() || t.gap_closed() || t.should_stop()) return;
    const open_key key = key_for_turn(t.options.node_selection, ++round);
    const auto take = static_cast<std::ptrdiff_t>(
        std::min<std::size_t>(round_width, open.size()));
    std::partial_sort(open.begin(), open.begin() + take, open.end(),
                      [key](const bb_node& a, const bb_node& b) {
                        return comes_first(key, a, b);
                      });
    batch.assign(open.begin(), open.begin() + take);
    open.erase(open.begin(), open.begin() + take);
    std::sort(batch.begin(), batch.end(),
              [](const bb_node& a, const bb_node& b) { return a.id < b.id; });
    prune_obj = t.have_incumbent ? t.incumbent_obj : inf;
    probe_allowance = t.probe_allowance();
    results.assign(batch.size(), node_result{});
    cursor.store(0, std::memory_order_relaxed);
  };

  // Commits the finished round in the batch's node-id order, never in
  // completion order. A stop still commits the rest of the round: those
  // nodes are already processed.
  const auto commit_round = [&] {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (t.settle(batch[i], results[i]) != settled::branch) continue;
      branch_output br = t.branch(batch[i], results[i]);
      if (br.down) open.push_back(std::move(*br.down));
      if (br.up) open.push_back(std::move(*br.up));
    }
  };

  select_round();
  std::barrier sync(t.threads, [&]() noexcept {
    commit_round();
    select_round();
  });
  run_team(t, [&](node_worker& worker) {
    while (!batch.empty()) {
      for (std::size_t i;
           (i = cursor.fetch_add(1, std::memory_order_relaxed)) < batch.size();)
        results[i] = worker.process(batch[i], /*reload_basis=*/true, prune_obj,
                                    probe_allowance, /*table_lock=*/nullptr);
      sync.arrive_and_wait();
    }
  });
}

/// The pool node source: a shared open pool under one mutex. Each worker
/// dives on its own preferred child without touching the pool; a finished
/// dive pulls the best pool node by the node-order rule -- pulling a node
/// another worker produced counts as a steal. Worker 0 starts with the root
/// in hand. Every node starts from its parent's optimal basis, whatever the
/// worker count: a pulled node reloads its recorded parent basis, and so
/// does a dive child whose parent ran strong-branching probes (they leave
/// the last probe's basis behind); only a dive child of an unprobed parent
/// re-solves on the basis already in place. The open-bound multiset
/// holds one entry per open OR in-flight node (settled at commit), so the
/// global dual bound and the gap test stay conservative while nodes are
/// being processed.
void run_pool(tree_search& t) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<bb_node> pool;
  long backtracks = 0;
  int active = 1; // worker 0 holds the root
  std::atomic<double> prune_obj{t.have_incumbent ? t.incumbent_obj : inf};

  run_team(t, [&](node_worker& worker) {
    std::optional<bb_node> hand;
    // True while this worker owns an in-flight node (processing it or
    // holding the dive continuation in `hand`); `active` sums these, so
    // pool-empty + active == 0 really means the tree is exhausted.
    bool counted = worker.id == 0;
    if (counted) hand.emplace(); // the root
    // Whether the node in hand must reload its parent's basis: the probes
    // of its parent moved the instance off it.
    bool hand_reload = false;

    for (;;) {
      bb_node node;
      bool reload = true;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (t.should_stop()) {
          if (counted) --active;
          cv.notify_all();
          break;
        }
        if (hand) {
          node = std::move(*hand);
          hand.reset();
          reload = hand_reload;
        } else {
          cv.wait(lock, [&] { return t.stop || !pool.empty() || active == 0; });
          if (t.stop || pool.empty()) { // stop, or exhausted (active == 0)
            cv.notify_all();
            break;
          }
          node = take_open(
              pool, key_for_turn(t.options.node_selection, ++backtracks));
          if (node.producer >= 0 && node.producer != worker.id)
            ++worker.stats.steals;
          ++active;
          counted = true;
        }
      }

      node_result nr = worker.process(
          node, reload, prune_obj.load(std::memory_order_relaxed),
          t.probe_allowance(), &mu);

      {
        std::lock_guard<std::mutex> lock(mu);
        switch (t.settle(node, nr)) {
          case settled::improved:
            prune_obj.store(t.incumbent_obj, std::memory_order_relaxed);
            break;
          case settled::branch: {
            // The child nearest the LP value stays in hand for the next
            // plunge step; its sibling joins the pool (push_back keeps dfs
            // mode's LIFO order exact).
            branch_output br = t.branch(node, nr);
            const bool down = br.down_preferred;
            std::optional<bb_node>& sibling = down ? br.up : br.down;
            if (sibling) pool.push_back(std::move(*sibling));
            hand = std::move(down ? br.down : br.up);
            hand_reload = nr.probes_run > 0;
            break;
          }
          case settled::done:
            break;
        }
        if (!hand) {
          --active;
          counted = false;
        }
        if (t.gap_closed()) t.stop = true;
        cv.notify_all();
        if (t.stop) break;
      }
    }
  });
}

} // namespace

double solution::gap() const {
  if (!has_solution()) return inf;
  const double incumbent = objective;
  const double bound = best_bound;
  const double denom = std::max(1.0, std::abs(incumbent));
  return std::abs(incumbent - bound) / denom;
}

// Both node sources run the same node kernel (node_worker::process, settle,
// branch) on the same worker team (run_team); they differ only in where the
// next node comes from and in what order results are committed.
// Deterministic mode always takes the rounds (their trajectory must not
// depend on the thread count, so even threads == 1 runs them); otherwise
// the pool runs `threads` workers.
solution solve(const model& m, const solver_options& options) {
  stopwatch total_watch;
  const deadline time_budget(options.time_limit_seconds, options.cancel);
  solution result;
  require(m.variable_count() > 0, "milp::solve: model has no variables");

  root_phase root(m, options, time_budget, result);
  if (root.infeasible) {
    result.status = solve_status::infeasible;
    result.seconds = total_watch.elapsed_seconds();
    return result;
  }

  tree_search search(m, root, options, time_budget);
  result.threads_used = search.threads;
  if (options.warm_start) {
    require(static_cast<int>(options.warm_start->size()) == search.n,
            "milp::solve: warm start has wrong size");
    std::vector<double> warm = *options.warm_start;
    const double warm_obj = evaluate_candidate(m, root.sf, warm);
    if (search.accept(warm_obj, warm)) {
      result.warm_start_accepted = true;
      result.warm_start_objective = root.sf.user_objective(warm_obj);
      log_at(log_level::info, "milp: warm start accepted, objective ",
             result.warm_start_objective);
    } else {
      log_at(log_level::warn, "milp: warm start rejected (infeasible)");
    }
  }

  if (options.deterministic)
    run_rounds(search);
  else
    run_pool(search);
  search.finish(result);
  result.seconds = total_watch.elapsed_seconds();
  return result;
}

} // namespace transtore::milp
