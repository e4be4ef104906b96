// Root presolve for the MILP solver.
//
// Iterated reductions applied to the computational-form LP (lp.h) plus
// integrality markers before branch and bound starts:
//
//   * singleton-row elimination -- a one-term row is a variable bound in
//     disguise; the bound is transferred (and rounded for integers) and the
//     row removed;
//   * activity-based bound tightening -- interval arithmetic over each
//     row's residual activity (activity.h, shared with per-node
//     propagation) tightens variable bounds, with integer rounding;
//   * coefficient (big-M) strengthening -- on single-sided rows, a binary
//     variable's coefficient and the row bound shrink to what the residual
//     activity actually supports; this is what collapses the paper's
//     `M = horizon` disjunctive and precedence constraints to tight boxes;
//   * redundant-row removal -- rows satisfied by the activity bounds alone
//     are dropped;
//   * variable fixing -- bounds that close to a point pin the variable
//     (the LP then holds it there; columns are never renumbered).
//
// The reductions preserve every integer-feasible point, so the MILP optimum
// is unchanged; the LP relaxation is tightened (integer rounding and
// coefficient strengthening cut fractional points), which is the point.
//
// Postsolve: columns are preserved, so a reduced-space `x` already is the
// full-space assignment (`postsolve_primal` just validates the contract).
// `postsolve_duals` scatters reduced-row duals back to the original row
// indexing; removed rows report dual 0, which is exact for redundant rows
// and leaves `(x, duals)` a valid optimality certificate of the original
// rows under the *presolved* variable bounds (see tests/test_milp.cpp,
// PresolveCertificate).
#pragma once

#include <vector>

#include "milp/lp.h"

namespace transtore::milp {

struct presolve_stats {
  int passes = 0;
  int rows_removed = 0;             // redundant + singleton rows dropped
  int singleton_rows = 0;           // subset of rows_removed
  int bounds_tightened = 0;         // variable-bound improvements applied
  int coefficients_tightened = 0;   // big-M strengthenings applied
  int variables_fixed = 0;          // lower == upper after presolve
};

/// Reduced problem over the SAME column space plus postsolve data. Rows are
/// renumbered (removed rows excluded); columns never are.
struct presolved_problem {
  lp_problem reduced;
  bool infeasible = false;
  presolve_stats stats;

  int original_rows = 0;
  /// reduced row index -> original row index (strictly increasing).
  std::vector<int> row_origin;

  /// Validates that `x` (a reduced-space assignment) is full-space sized.
  /// Columns are preserved by this presolve, so the values pass through
  /// unchanged; the call exists to keep the postsolve contract explicit at
  /// call sites (and to stay correct if column reductions are added later).
  void postsolve_primal(std::vector<double>& x) const;

  /// Maps reduced-row duals to the original row space (removed rows get 0).
  [[nodiscard]] std::vector<double> postsolve_duals(
      const std::vector<double>& reduced_duals) const;
};

/// Run the presolve loop. `is_integer` marks integral columns (size
/// lp.num_vars). The input problem is not modified.
[[nodiscard]] presolved_problem presolve(const lp_problem& lp,
                                         const std::vector<bool>& is_integer);

} // namespace transtore::milp
