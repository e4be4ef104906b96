// Interval arithmetic over one row `lower <= sum_j a_j x_j <= upper` under
// variable boxes: the one copy shared by root presolve (presolve.cpp) and
// per-node propagation (solver.cpp). Each caller keeps its own rule for
// applying an implied bound (rounding, clamping, churn guards); the
// committed trajectory baselines pin this exact arithmetic.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "milp/lp.h"

namespace transtore::milp {

inline constexpr double inf = std::numeric_limits<double>::infinity();

/// Range of `coeff * x` over the box [lo, hi].
struct term_range {
  double min_c = 0.0;
  double max_c = 0.0;
};

inline term_range contribution(double coeff, double lo, double hi) {
  if (coeff > 0.0)
    return {lo == -inf ? -inf : coeff * lo, hi == inf ? inf : coeff * hi};
  return {hi == inf ? -inf : coeff * hi, lo == -inf ? inf : coeff * lo};
}

/// Min/max possible activity of a row, with the count of infinite
/// contributions kept separate so one-term residuals stay exact even when
/// another term is unbounded.
struct activity {
  double finite_min = 0.0; // sum of finite min contributions
  double finite_max = 0.0;
  int inf_min = 0; // terms contributing -inf to the minimum
  int inf_max = 0; // terms contributing +inf to the maximum

  [[nodiscard]] double min() const { return inf_min > 0 ? -inf : finite_min; }
  [[nodiscard]] double max() const { return inf_max > 0 ? inf : finite_max; }
};

/// Activity of a row's terms under the boxes.
inline activity row_activity(const row_terms& terms,
                             const std::vector<double>& lower,
                             const std::vector<double>& upper) {
  activity a;
  for (const auto& [var, coeff] : terms) {
    const auto v = static_cast<std::size_t>(var);
    const term_range t = contribution(coeff, lower[v], upper[v]);
    if (t.min_c == -inf)
      ++a.inf_min;
    else
      a.finite_min += t.min_c;
    if (t.max_c == inf)
      ++a.inf_max;
    else
      a.finite_max += t.max_c;
  }
  return a;
}

/// Min activity of the row without the term `t`.
inline double residual_min(const activity& a, const term_range& t) {
  if (t.min_c == -inf) return a.inf_min > 1 ? -inf : a.finite_min;
  return a.inf_min > 0 ? -inf : a.finite_min - t.min_c;
}

/// Max activity of the row without the term `t`.
inline double residual_max(const activity& a, const term_range& t) {
  if (t.max_c == inf) return a.inf_max > 1 ? inf : a.finite_max;
  return a.inf_max > 0 ? inf : a.finite_max - t.max_c;
}

/// Bounds on x that `row_lower <= rest + coeff * x <= row_upper` implies
/// for rest in [rest_min, rest_max]; infinite where nothing is implied.
inline std::pair<double, double> implied_bounds(double coeff, double row_lower,
                                                double row_upper,
                                                double rest_min,
                                                double rest_max) {
  const bool from_upper = row_upper != inf && rest_min != -inf;
  const bool from_lower = row_lower != -inf && rest_max != inf;
  double lo = -inf;
  double hi = inf;
  if (coeff > 0.0) {
    if (from_upper) hi = (row_upper - rest_min) / coeff;
    if (from_lower) lo = (row_lower - rest_max) / coeff;
  } else {
    if (from_upper) lo = (row_upper - rest_min) / coeff;
    if (from_lower) hi = (row_lower - rest_max) / coeff;
  }
  return {lo, hi};
}

} // namespace transtore::milp
