#include "milp/cuts.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace transtore::milp {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

// Separation tuning constants.
/// Cuts accepted per round after filtering.
constexpr int max_cuts_per_round = 8;
/// Hard cap on active cut rows (pool size).
constexpr int max_active_cuts = 200;
/// Minimum absolute violation at the separating point.
constexpr double min_violation = 1e-5;
/// Minimum efficacy (violation / cut norm).
constexpr double min_efficacy = 1e-4;
/// Maximum |cosine| between two accepted cuts (near-parallel rejection).
constexpr double max_parallelism = 0.95;
/// Rounds a pooled cut may stay strictly slack before it is purged.
constexpr int max_age = 3;
/// Maximum structural support of one cut (fraction of columns); denser
/// cuts are rejected to protect the sparse LU's fill.
constexpr double max_support_fraction = 0.5;
/// Fractionality window for GMI source rows: f0 must lie in
/// [min_fractionality, 1 - min_fractionality].
constexpr double min_fractionality = 5e-3;
/// Maximum |coeff| ratio within one cut (numerical-dynamism rejection).
constexpr double max_dynamism = 1e7;
/// GMI source rows considered per round (most fractional first).
constexpr int max_gomory_source_rows = 32;

bool is_integral(double v, double tol = 1e-9) {
  return std::abs(v - std::round(v)) <= tol;
}

double fractional_part(double v) { return v - std::floor(v); }

/// Cosine of the angle between two sorted sparse vectors.
double parallelism(const std::vector<std::pair<int, double>>& a, double norm_a,
                   const std::vector<std::pair<int, double>>& b,
                   double norm_b) {
  double dot = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia].first < b[ib].first) {
      ++ia;
    } else if (a[ia].first > b[ib].first) {
      ++ib;
    } else {
      dot += a[ia].second * b[ib].second;
      ++ia;
      ++ib;
    }
  }
  if (norm_a <= 0.0 || norm_b <= 0.0) return 1.0;
  return std::abs(dot) / (norm_a * norm_b);
}

double cut_norm(const std::vector<std::pair<int, double>>& terms) {
  double s = 0.0;
  for (const auto& [var, coeff] : terms) s += coeff * coeff;
  return std::sqrt(s);
}

/// Deterministic total order on candidate terms (lexicographic).
int compare_terms(const std::vector<std::pair<int, double>>& a,
                  const std::vector<std::pair<int, double>>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].first != b[i].first) return a[i].first < b[i].first ? -1 : 1;
    if (a[i].second != b[i].second) return a[i].second < b[i].second ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

} // namespace

cut_generator::cut_generator(const lp_problem& base,
                             std::vector<bool> is_integer)
    : base_(base), is_integer_(std::move(is_integer)) {
  require(static_cast<int>(is_integer_.size()) == base_.num_vars,
          "cuts: is_integer size mismatch");
  base_rows_ = matrix_rows(base_);

  // A base row's slack is integer-valued when every term is an integer
  // variable with an integer coefficient (its bounds' integrality is
  // checked at the parked bound during separation).
  slack_integer_.assign(static_cast<std::size_t>(base_.num_rows), true);
  for (int i = 0; i < base_.num_rows; ++i)
    for (const auto& [var, coeff] : base_rows_[static_cast<std::size_t>(i)])
      if (!is_integer_[static_cast<std::size_t>(var)] || !is_integral(coeff))
        slack_integer_[static_cast<std::size_t>(i)] = false;

  extended_ = base_;
}

void cut_generator::rebuild_extended() {
  extended_ = base_;
  extended_.num_rows = base_.num_rows + static_cast<int>(pool_.size());
  for (const cut& c : pool_) {
    extended_.row_lower.push_back(c.lower);
    extended_.row_upper.push_back(inf);
  }
  if (pool_.empty()) return;
  // Merge the cut terms into the CSC (columns gain the cut-row entries).
  std::vector<std::vector<std::pair<int, double>>> extra(
      static_cast<std::size_t>(base_.num_vars));
  for (std::size_t k = 0; k < pool_.size(); ++k) {
    const int row = base_.num_rows + static_cast<int>(k);
    for (const auto& [var, coeff] : pool_[k].terms)
      extra[static_cast<std::size_t>(var)].emplace_back(row, coeff);
  }
  std::vector<int> col_start(static_cast<std::size_t>(base_.num_vars) + 1, 0);
  for (int j = 0; j < base_.num_vars; ++j) {
    const int base_nnz = base_.col_start[static_cast<std::size_t>(j) + 1] -
                         base_.col_start[static_cast<std::size_t>(j)];
    col_start[static_cast<std::size_t>(j) + 1] =
        col_start[static_cast<std::size_t>(j)] + base_nnz +
        static_cast<int>(extra[static_cast<std::size_t>(j)].size());
  }
  std::vector<int> row_index;
  std::vector<double> value;
  row_index.reserve(static_cast<std::size_t>(col_start.back()));
  value.reserve(static_cast<std::size_t>(col_start.back()));
  for (int j = 0; j < base_.num_vars; ++j) {
    for (int k = base_.col_start[static_cast<std::size_t>(j)];
         k < base_.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      row_index.push_back(base_.row_index[static_cast<std::size_t>(k)]);
      value.push_back(base_.value[static_cast<std::size_t>(k)]);
    }
    for (const auto& [row, coeff] : extra[static_cast<std::size_t>(j)]) {
      row_index.push_back(row);
      value.push_back(coeff);
    }
  }
  extended_.col_start = std::move(col_start);
  extended_.row_index = std::move(row_index);
  extended_.value = std::move(value);
}

void cut_generator::separate_gomory(const simplex_solver& solver,
                                    const deadline& time_budget,
                                    std::vector<candidate>& out) const {
  const int n = base_.num_vars;
  const int m = solver.rows();
  const std::vector<int>& basis = solver.basic_columns();

  // Source rows: basic integer structural columns at fractional values,
  // most fractional first (deterministic tie-break on the column index).
  std::vector<std::pair<double, int>> sources; // (closeness to 0.5, position)
  for (int p = 0; p < m; ++p) {
    const int col = basis[static_cast<std::size_t>(p)];
    if (col >= n || !is_integer_[static_cast<std::size_t>(col)]) continue;
    const double f0 = fractional_part(solver.column_value(col));
    if (f0 < min_fractionality || f0 > 1.0 - min_fractionality)
      continue;
    sources.emplace_back(std::abs(f0 - 0.5), p);
  }
  std::sort(sources.begin(), sources.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return basis[static_cast<std::size_t>(a.second)] <
           basis[static_cast<std::size_t>(b.second)];
  });
  if (static_cast<int>(sources.size()) > max_gomory_source_rows)
    sources.resize(static_cast<std::size_t>(max_gomory_source_rows));

  std::vector<double> alpha;
  std::vector<double> pi(static_cast<std::size_t>(n), 0.0);
  std::vector<int> touched;
  std::vector<char> touched_mark(static_cast<std::size_t>(n), 0);
  for (const auto& [closeness, position] : sources) {
    (void)closeness;
    if (time_budget.expired()) break;
    const int basic_col = basis[static_cast<std::size_t>(position)];
    const double beta = solver.column_value(basic_col);
    const double f0 = fractional_part(beta);

    solver.tableau_row(position, alpha);

    // GMI coefficients in the shifted space t_j >= 0 (nonbasic distance
    // from the parked bound), then mapped straight back to x-space:
    //   at lower  t = x - l : pi_j += gamma, rhs += gamma * l
    //   at upper  t = u - x : pi_j -= gamma, rhs -= gamma * u
    // with slack columns expanded through their defining rows.
    // The touch mark (not a pi != 0 test, which a coefficient passing
    // through exact zero would defeat) guarantees each variable lands in
    // the cut's term list at most once -- duplicate CSC entries poison the
    // simplex, whose scatter paths assume unique rows per column.
    auto add_structural = [&](int var, double coeff) {
      if (coeff == 0.0) return;
      if (!touched_mark[static_cast<std::size_t>(var)]) {
        touched_mark[static_cast<std::size_t>(var)] = 1;
        touched.push_back(var);
      }
      pi[static_cast<std::size_t>(var)] += coeff;
    };
    double rhs = f0;
    bool ok = true;
    const int total = n + m;
    for (int j = 0; j < total && ok; ++j) {
      if (solver.column_is_basic(j)) continue;
      const double a = alpha[static_cast<std::size_t>(j)];
      if (std::abs(a) <= 1e-11) continue;
      if (solver.column_is_free(j)) {
        ok = false; // no finite shift exists for a free nonbasic
        break;
      }
      const bool upper = solver.column_at_upper(j);
      const double bound =
          upper ? solver.column_upper(j) : solver.column_lower(j);
      if (bound == inf || bound == -inf) {
        ok = false;
        break;
      }
      const double a_t = upper ? -a : a; // coefficient of t_j in the row

      // Integer GMI coefficient only when the shifted variable provably
      // takes integer values; anything uncertain falls back to the valid
      // continuous (MIR) coefficient.
      bool t_integer = false;
      if (j < n) {
        t_integer = is_integer_[static_cast<std::size_t>(j)] &&
                    is_integral(bound);
      } else {
        const int row = j - n;
        t_integer = row < base_.num_rows &&
                    slack_integer_[static_cast<std::size_t>(row)] &&
                    is_integral(bound);
      }
      double gamma;
      if (t_integer) {
        const double fj = fractional_part(a_t);
        gamma = fj <= f0 + 1e-12 ? fj : f0 * (1.0 - fj) / (1.0 - f0);
      } else {
        gamma = a_t > 0.0 ? a_t : f0 * (-a_t) / (1.0 - f0);
      }
      if (gamma <= 1e-12) continue;

      const double px = upper ? -gamma : gamma;
      rhs += upper ? -gamma * bound : gamma * bound;
      if (j < n) {
        add_structural(j, px);
      } else {
        // Expand the slack through its defining row: s = a_row . x.
        const int row = j - n;
        if (row < base_.num_rows) {
          for (const auto& [var, coeff] : base_rows_[static_cast<std::size_t>(row)])
            add_structural(var, px * coeff);
        } else {
          const cut& c = pool_[static_cast<std::size_t>(row - base_.num_rows)];
          for (const auto& [var, coeff] : c.terms)
            add_structural(var, px * coeff);
        }
      }
    }

    if (ok && !touched.empty()) {
      candidate cand;
      cand.c.kind = "gomory";
      cand.c.lower = rhs;
      std::sort(touched.begin(), touched.end());
      for (const int var : touched) {
        const double coeff = pi[static_cast<std::size_t>(var)];
        if (coeff != 0.0) cand.c.terms.emplace_back(var, coeff);
      }
      out.push_back(std::move(cand));
    }
    for (const int var : touched) {
      pi[static_cast<std::size_t>(var)] = 0.0;
      touched_mark[static_cast<std::size_t>(var)] = 0;
    }
    touched.clear();
  }
}

void cut_generator::separate_covers(const std::vector<double>& x,
                                    std::vector<candidate>& out) const {
  struct item {
    int var;
    double weight;      // knapsack coefficient (> 0 after complementing)
    bool complemented;  // z = 1 - x instead of z = x
    double z;           // LP value of z
  };
  std::vector<item> items;

  for (int i = 0; i < base_.num_rows; ++i) {
    const auto& row = base_rows_[static_cast<std::size_t>(i)];
    if (row.size() < 2) continue;
    for (const bool use_upper :
         {true, false}) { // each finite side is its own knapsack relaxation
      const double side = use_upper
                              ? base_.row_upper[static_cast<std::size_t>(i)]
                              : base_.row_lower[static_cast<std::size_t>(i)];
      if (side == inf || side == -inf) continue;

      // Bring the side into <= form: sum c_j x_j <= b.
      const double sign = use_upper ? 1.0 : -1.0;
      double b = sign * side;
      items.clear();
      bool ok = true;
      int binaries = 0;
      for (const auto& [var, coeff] : row) {
        const double c = sign * coeff;
        const std::size_t v = static_cast<std::size_t>(var);
        const bool binary = is_integer_[v] && base_.lower[v] == 0.0 &&
                            base_.upper[v] == 1.0;
        if (binary && std::abs(c) > 1e-9) {
          ++binaries;
          if (c > 0.0) {
            items.push_back({var, c, false, x[v]});
          } else {
            b -= c; // complement: c x = c - c (1 - x)
            items.push_back({var, -c, true, 1.0 - x[v]});
          }
        } else {
          // Relax a non-binary term to its worst-case (minimum) activity.
          const double lo = base_.lower[v];
          const double hi = base_.upper[v];
          const double mn = c > 0.0 ? (lo == -inf ? -inf : c * lo)
                                    : (hi == inf ? -inf : c * hi);
          if (mn == -inf) {
            ok = false;
            break;
          }
          b -= mn;
        }
      }
      if (!ok || binaries < 2) continue;

      // Greedy minimum-cost cover: pick items by (1 - z*) per unit weight
      // until the capacity is exceeded.
      double total = 0.0;
      for (const item& it : items) total += it.weight;
      const double margin = std::max(1e-6, 1e-9 * std::abs(b));
      if (total <= b + margin) continue; // no cover exists
      std::sort(items.begin(), items.end(), [](const item& a, const item& b2) {
        const double ra = (1.0 - a.z) / a.weight;
        const double rb = (1.0 - b2.z) / b2.weight;
        if (ra != rb) return ra < rb;
        return a.var < b2.var;
      });
      std::vector<item> cover;
      double weight = 0.0;
      for (const item& it : items) {
        cover.push_back(it);
        weight += it.weight;
        if (weight > b + margin) break;
      }
      if (weight <= b + margin) continue;

      // Minimalize: drop heavy items while the cover property survives.
      std::sort(cover.begin(), cover.end(), [](const item& a, const item& b2) {
        if (a.weight != b2.weight) return a.weight > b2.weight;
        return a.var < b2.var;
      });
      for (std::size_t k = 0; k < cover.size();) {
        if (cover.size() > 2 && weight - cover[k].weight > b + margin) {
          weight -= cover[k].weight;
          cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          ++k;
        }
      }

      // Cover inequality sum_C z_j <= |C| - 1, mapped back to x and stored
      // in >= form.
      double zsum = 0.0;
      for (const item& it : cover) zsum += it.z;
      if (zsum <= static_cast<double>(cover.size()) - 1.0 + min_violation)
        continue; // not violated at the separating point
      candidate cand;
      cand.c.kind = "cover";
      int complemented = 0;
      for (const item& it : cover) {
        cand.c.terms.emplace_back(it.var, it.complemented ? 1.0 : -1.0);
        if (it.complemented) ++complemented;
      }
      cand.c.lower = complemented - (static_cast<double>(cover.size()) - 1.0);
      std::sort(cand.c.terms.begin(), cand.c.terms.end());
      out.push_back(std::move(cand));
    }
  }
}

bool cut_generator::finalize_candidate(candidate& cand,
                                       const std::vector<double>& x) const {
  // Merge any duplicate variables defensively: a cut term list MUST be
  // duplicate-free before it becomes CSC rows (the simplex's scatter and
  // basis-assembly paths assume unique row indices per column).
  std::sort(cand.c.terms.begin(), cand.c.terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  {
    std::size_t out = 0;
    for (std::size_t i = 0; i < cand.c.terms.size();) {
      int var = cand.c.terms[i].first;
      double sum = 0.0;
      while (i < cand.c.terms.size() && cand.c.terms[i].first == var)
        sum += cand.c.terms[i++].second;
      cand.c.terms[out++] = {var, sum};
    }
    cand.c.terms.resize(out);
  }

  // Drop negligible coefficients, conservatively shifting the right-hand
  // side by the term's worst case over the (root) box.
  std::vector<std::pair<int, double>> kept;
  kept.reserve(cand.c.terms.size());
  double max_abs = 0.0;
  double min_abs = inf;
  for (const auto& [var, coeff] : cand.c.terms) {
    const std::size_t v = static_cast<std::size_t>(var);
    if (std::abs(coeff) <= 1e-11) {
      const double worst = coeff > 0.0 ? base_.upper[v] : base_.lower[v];
      if (worst == inf || worst == -inf) {
        if (std::abs(coeff) <= 1e-13) continue; // truly negligible
        return false; // cannot drop against an infinite bound
      }
      cand.c.lower -= coeff * worst;
      continue;
    }
    kept.emplace_back(var, coeff);
    max_abs = std::max(max_abs, std::abs(coeff));
    min_abs = std::min(min_abs, std::abs(coeff));
  }
  cand.c.terms = std::move(kept);
  if (cand.c.terms.empty()) return false;
  if (max_abs / min_abs > max_dynamism) return false;
  if (static_cast<double>(cand.c.terms.size()) >
      max_support_fraction * base_.num_vars)
    return false; // too dense: every node re-solve would pay for it

  double activity = 0.0;
  for (const auto& [var, coeff] : cand.c.terms)
    activity += coeff * x[static_cast<std::size_t>(var)];
  cand.violation = cand.c.lower - activity;
  cand.norm = cut_norm(cand.c.terms);
  if (cand.norm <= 0.0) return false;
  cand.efficacy = cand.violation / cand.norm;
  return cand.violation >= min_violation && cand.efficacy >= min_efficacy;
}

bool cut_generator::round(const simplex_solver& solver,
                          const deadline& time_budget) {
  ++stats_.rounds;
  const int n = base_.num_vars;
  const int old_rows = base_.num_rows + static_cast<int>(pool_.size());
  require(solver.rows() == old_rows, "cuts: solver/extended row mismatch");

  std::vector<double> x(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = solver.column_value(j);

  // Separate against the current point and pool state.
  std::vector<candidate> candidates;
  separate_gomory(solver, time_budget, candidates);
  const std::size_t gomory = candidates.size();
  separate_covers(x, candidates);
  stats_.gomory_generated += static_cast<int>(gomory);
  stats_.cover_generated += static_cast<int>(candidates.size() - gomory);

  std::vector<candidate> viable;
  for (candidate& cand : candidates)
    if (finalize_candidate(cand, x)) viable.push_back(std::move(cand));

  // Deterministic efficacy order.
  std::sort(viable.begin(), viable.end(),
            [](const candidate& a, const candidate& b) {
              if (a.efficacy != b.efficacy) return a.efficacy > b.efficacy;
              return compare_terms(a.c.terms, b.c.terms) < 0;
            });

  // Greedy selection under the parallelism and budget caps (checked against
  // both this round's picks and the existing pool; norms precomputed once).
  std::vector<cut> selected;
  std::vector<double> selected_norm;
  std::vector<double> pool_norm(pool_.size());
  for (std::size_t k = 0; k < pool_.size(); ++k)
    pool_norm[k] = cut_norm(pool_[k].terms);
  const int capacity =
      std::min(max_cuts_per_round,
               max_active_cuts - static_cast<int>(pool_.size()));
  for (candidate& cand : viable) {
    if (static_cast<int>(selected.size()) >= capacity) break;
    bool near_parallel = false;
    for (std::size_t s = 0; s < selected.size() && !near_parallel; ++s) {
      if (parallelism(cand.c.terms, cand.norm, selected[s].terms,
                      selected_norm[s]) > max_parallelism)
        near_parallel = true;
    }
    for (std::size_t k = 0; !near_parallel && k < pool_.size(); ++k) {
      if (parallelism(cand.c.terms, cand.norm, pool_[k].terms,
                      pool_norm[k]) > max_parallelism)
        near_parallel = true;
    }
    if (near_parallel) continue;
    selected_norm.push_back(cand.norm);
    selected.push_back(std::move(cand.c));
  }

  if (selected.empty()) return false; // pool untouched; caller stops cutting

  // Age the pool at the pre-purge indexing: a cut whose slack row is basic
  // and strictly off its bound did no work this round.
  row_map_.assign(static_cast<std::size_t>(old_rows), -1);
  for (int i = 0; i < base_.num_rows; ++i) row_map_[static_cast<std::size_t>(i)] = i;
  std::vector<cut> survivors;
  int next_row = base_.num_rows;
  for (std::size_t k = 0; k < pool_.size(); ++k) {
    cut& c = pool_[k];
    const int slack_col = n + base_.num_rows + static_cast<int>(k);
    const bool idle = solver.column_is_basic(slack_col) &&
                      solver.column_value(slack_col) > c.lower + min_violation;
    c.age = idle ? c.age + 1 : 0;
    if (idle && c.age >= max_age) {
      ++stats_.purged;
      continue; // purged: slack was basic, so the basis shrinks with the row
    }
    row_map_[static_cast<std::size_t>(base_.num_rows) + k] = next_row++;
    survivors.push_back(std::move(c));
  }
  pool_ = std::move(survivors);
  for (cut& c : selected) {
    pool_.push_back(std::move(c));
    ++stats_.added;
  }
  rebuild_extended();
  return true;
}

std::vector<int> cut_generator::remap_basis(const simplex_solver& solver,
                                            std::vector<int>& at_upper) const {
  const int n = base_.num_vars;
  std::vector<int> basis;
  basis.reserve(static_cast<std::size_t>(extended_.num_rows));
  for (const int col : solver.basic_columns()) {
    if (col < n) {
      basis.push_back(col);
    } else {
      const int mapped = row_map_[static_cast<std::size_t>(col - n)];
      if (mapped >= 0) basis.push_back(n + mapped);
      // A purged cut's slack simply leaves the basis with its row.
    }
  }
  // New cut rows enter with their slack basic (dual-feasible warm start).
  for (int row = static_cast<int>(basis.size()); row < extended_.num_rows;)
    basis.push_back(n + row++);

  at_upper.clear();
  const int old_total = n + solver.rows();
  for (int col = 0; col < old_total; ++col) {
    if (!solver.column_at_upper(col)) continue;
    if (col < n) {
      at_upper.push_back(col);
    } else {
      const int mapped = row_map_[static_cast<std::size_t>(col - n)];
      if (mapped >= 0) at_upper.push_back(n + mapped);
    }
  }
  return basis;
}

} // namespace transtore::milp
