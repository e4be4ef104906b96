#include "milp/presolve.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "milp/activity.h"

namespace transtore::milp {
namespace {

// Presolve tuning constants.
/// Maximum fixpoint passes over the rows.
constexpr int max_passes = 12;
/// Row-activity slack within which a row counts as satisfied, and box
/// overlap within which variable bounds count as consistent.
constexpr double feasibility_tolerance = 1e-7;
/// Minimum improvement for a bound change to be recorded (churn guard).
constexpr double min_bound_improvement = 1e-9;
/// Bound magnitude above which tightening results are distrusted and
/// clamped away (numerical safety for huge big-M arithmetic).
constexpr double huge_bound = 1e15;

/// Row in working form: terms plus ranged bounds.
struct work_row {
  row_terms terms;
  double lower = -inf;
  double upper = inf;
  bool removed = false;
};

class presolver {
public:
  presolver(const lp_problem& lp, const std::vector<bool>& is_integer)
      : is_integer_(is_integer), lower_(lp.lower), upper_(lp.upper) {
    std::vector<row_terms> terms = matrix_rows(lp);
    for (std::size_t i = 0; i < terms.size(); ++i)
      rows_.push_back({std::move(terms[i]), lp.row_lower[i], lp.row_upper[i]});
  }

  bool run(presolve_stats& stats) {
    const double tol = feasibility_tolerance;
    for (int pass = 0; pass < max_passes; ++pass) {
      ++stats.passes;
      bool changed = false;
      for (work_row& row : rows_) {
        if (row.removed) continue;
        activity act = row_activity(row.terms, lower_, upper_);
        if (act.min() > row.upper + tol || act.max() < row.lower - tol)
          return false; // row proven infeasible

        // Redundant row: the bounds alone satisfy it.
        if (act.min() >= row.lower - tol && act.max() <= row.upper + tol) {
          row.removed = true;
          ++stats.rows_removed;
          changed = true;
          continue;
        }

        // Singleton row: transfer the bound to the variable and drop it.
        if (row.terms.size() == 1) {
          const auto [var, coeff] = row.terms.front();
          if (std::abs(coeff) > 1e-12) {
            const auto [lo, hi] =
                implied_bounds(coeff, row.lower, row.upper, 0.0, 0.0);
            if (!tighten(var, lo, hi, stats)) return false;
            row.removed = true;
            ++stats.rows_removed;
            ++stats.singleton_rows;
            changed = true;
            continue;
          }
        }

        // Activity-based bound tightening on every term.
        for (const auto& [var, coeff] : row.terms) {
          if (std::abs(coeff) <= 1e-12) continue;
          const term_range t = contribution(
              coeff, lower_[static_cast<std::size_t>(var)],
              upper_[static_cast<std::size_t>(var)]);
          const auto [new_lo, new_hi] =
              implied_bounds(coeff, row.lower, row.upper,
                             residual_min(act, t), residual_max(act, t));
          const int before = stats.bounds_tightened;
          if (!tighten(var, new_lo, new_hi, stats)) return false;
          if (stats.bounds_tightened != before) {
            changed = true;
            act = row_activity(row.terms, lower_, upper_); // keep residuals exact
          }
        }

        // Coefficient (big-M) strengthening on single-sided rows.
        if (strengthen_coefficients(row, stats)) {
          changed = true;
          // The row may have become redundant or infeasible; the next pass
          // (or the checks above on revisit) handles it.
        }
      }
      if (!changed) break;
    }
    for (std::size_t j = 0; j < lower_.size(); ++j)
      if (lower_[j] == upper_[j]) ++stats.variables_fixed;
    return true;
  }

  [[nodiscard]] presolved_problem extract(const lp_problem& lp) const {
    presolved_problem out;
    out.original_rows = lp.num_rows;
    lp_problem& r = out.reduced;
    r.num_vars = lp.num_vars;
    r.cost = lp.cost;
    r.lower = lower_;
    r.upper = upper_;
    for (int i = 0; i < lp.num_rows; ++i) {
      const work_row& row = rows_[static_cast<std::size_t>(i)];
      if (row.removed) continue;
      out.row_origin.push_back(i);
      r.row_lower.push_back(row.lower);
      r.row_upper.push_back(row.upper);
    }
    r.num_rows = static_cast<int>(out.row_origin.size());

    // Rebuild CSC from the surviving rows.
    std::vector<std::vector<std::pair<int, double>>> cols(
        static_cast<std::size_t>(lp.num_vars));
    for (int i = 0; i < r.num_rows; ++i) {
      const work_row& row =
          rows_[static_cast<std::size_t>(out.row_origin[static_cast<std::size_t>(i)])];
      for (const auto& [var, coeff] : row.terms)
        if (coeff != 0.0) cols[static_cast<std::size_t>(var)].emplace_back(i, coeff);
    }
    r.col_start.assign(static_cast<std::size_t>(lp.num_vars) + 1, 0);
    for (int j = 0; j < lp.num_vars; ++j)
      r.col_start[static_cast<std::size_t>(j) + 1] =
          r.col_start[static_cast<std::size_t>(j)] +
          static_cast<int>(cols[static_cast<std::size_t>(j)].size());
    for (int j = 0; j < lp.num_vars; ++j)
      for (const auto& [row, coeff] : cols[static_cast<std::size_t>(j)]) {
        r.row_index.push_back(row);
        r.value.push_back(coeff);
      }
    return out;
  }

private:
  /// Applies candidate bounds [lo, hi] to `var` (integer-rounded), keeping
  /// only strict improvements. Returns false on a proven-empty box.
  bool tighten(int var, double lo, double hi, presolve_stats& stats) {
    const std::size_t v = static_cast<std::size_t>(var);
    if (lo != -inf && std::abs(lo) > huge_bound) lo = -inf;
    if (hi != inf && std::abs(hi) > huge_bound) hi = inf;
    if (is_integer_[v]) {
      if (lo != -inf) lo = std::ceil(lo - 1e-7);
      if (hi != inf) hi = std::floor(hi + 1e-7);
    }
    if (lo > lower_[v] + min_bound_improvement) {
      lower_[v] = lo;
      ++stats.bounds_tightened;
    }
    if (hi < upper_[v] - min_bound_improvement) {
      upper_[v] = hi;
      ++stats.bounds_tightened;
    }
    if (lower_[v] > upper_[v] + feasibility_tolerance) return false;
    // Close a sliver of a box to a point so the variable reads as fixed.
    if (lower_[v] != upper_[v] && upper_[v] - lower_[v] <= 1e-11)
      upper_[v] = lower_[v];
    return true;
  }

  [[nodiscard]] bool is_free_binary(int var) const {
    const std::size_t v = static_cast<std::size_t>(var);
    return is_integer_[v] && lower_[v] == 0.0 && upper_[v] == 1.0;
  }

  /// Coefficient strengthening for binary terms of single-sided rows: each
  /// of the two scenarios (x_j = 0 / x_j = 1) bounds the residual activity;
  /// either scenario's bound can be pulled in to the residual's own
  /// activity bound without cutting any feasible point, and the pulled-in
  /// pair (coefficient, row bound) is tighter for fractional x_j. The
  /// classic big-M reduction is the special case where the x_j = 0 (or
  /// x_j = 1) scenario was redundant.
  bool strengthen_coefficients(work_row& row, presolve_stats& stats) {
    const bool has_lower = row.lower != -inf;
    const bool has_upper = row.upper != inf;
    if (has_lower == has_upper) return false; // ranged/equality/free: skip
    bool any = false;
    activity act = row_activity(row.terms, lower_, upper_);
    for (auto& [var, coeff] : row.terms) {
      if (!is_free_binary(var) || std::abs(coeff) <= 1e-12) continue;
      const term_range t = contribution(coeff, 0.0, 1.0);
      if (has_upper) {
        const double rest_max = residual_max(act, t);
        if (rest_max == inf) continue;
        // Scenario bounds on the residual: x_j = 0 -> upper, x_j = 1 ->
        // upper - coeff; both clamp to rest_max.
        const double new_upper = std::min(row.upper, rest_max);
        const double new_scen1 = std::min(row.upper - coeff, rest_max);
        const double new_coeff = new_upper - new_scen1;
        if (std::abs(new_coeff) < std::abs(coeff) - 1e-9 ||
            new_upper < row.upper - 1e-9) {
          coeff = new_coeff;
          row.upper = new_upper;
          ++stats.coefficients_tightened;
          any = true;
          act = row_activity(row.terms, lower_, upper_);
        }
      } else {
        const double rest_min = residual_min(act, t);
        if (rest_min == -inf) continue;
        const double new_lower = std::max(row.lower, rest_min);
        const double new_scen1 = std::max(row.lower - coeff, rest_min);
        const double new_coeff = new_lower - new_scen1;
        if (std::abs(new_coeff) < std::abs(coeff) - 1e-9 ||
            new_lower > row.lower + 1e-9) {
          coeff = new_coeff;
          row.lower = new_lower;
          ++stats.coefficients_tightened;
          any = true;
          act = row_activity(row.terms, lower_, upper_);
        }
      }
    }
    if (any) {
      // Drop zeroed coefficients so downstream consumers (CSC rebuild,
      // singleton detection) see the true support.
      row.terms.erase(std::remove_if(row.terms.begin(), row.terms.end(),
                                     [](const auto& term) {
                                       return std::abs(term.second) <= 1e-12;
                                     }),
                      row.terms.end());
    }
    return any;
  }

  const std::vector<bool>& is_integer_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<work_row> rows_;
};

} // namespace

void presolved_problem::postsolve_primal(std::vector<double>& x) const {
  require(static_cast<int>(x.size()) == reduced.num_vars,
          "presolve: postsolve_primal size mismatch");
  // Columns are preserved: reduced-space x is already full-space.
}

std::vector<double> presolved_problem::postsolve_duals(
    const std::vector<double>& reduced_duals) const {
  require(static_cast<int>(reduced_duals.size()) == reduced.num_rows,
          "presolve: postsolve_duals size mismatch");
  std::vector<double> full(static_cast<std::size_t>(original_rows), 0.0);
  for (int i = 0; i < reduced.num_rows; ++i)
    full[static_cast<std::size_t>(row_origin[static_cast<std::size_t>(i)])] =
        reduced_duals[static_cast<std::size_t>(i)];
  return full;
}

presolved_problem presolve(const lp_problem& lp,
                           const std::vector<bool>& is_integer) {
  require(static_cast<int>(is_integer.size()) == lp.num_vars,
          "presolve: is_integer size mismatch");
  presolver engine(lp, is_integer);
  presolve_stats stats;
  if (!engine.run(stats)) {
    presolved_problem out;
    out.infeasible = true;
    out.stats = stats;
    out.original_rows = lp.num_rows;
    return out;
  }
  presolved_problem out = engine.extract(lp);
  out.stats = stats;
  return out;
}

} // namespace transtore::milp
