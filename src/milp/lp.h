// Linear-programming data structures shared by the simplex engine and the
// branch-and-bound driver.
//
// Standard computational form used internally:
//
//   minimize    c'x
//   subject to  row_lower <= A x <= row_upper      (ranged rows)
//               lower     <=   x <= upper          (variable bounds)
//
// Rows are materialized as "logical" (slack) columns holding the row
// activity, so the simplex works on the homogeneous system A x - s = 0.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace transtore::milp {

/// Sparse column-major LP instance (structural columns only).
struct lp_problem {
  int num_vars = 0;
  int num_rows = 0;

  // Structural columns.
  std::vector<double> cost;  // size num_vars (minimization)
  std::vector<double> lower; // size num_vars
  std::vector<double> upper; // size num_vars

  // Ranged rows.
  std::vector<double> row_lower; // size num_rows
  std::vector<double> row_upper; // size num_rows

  // CSC of A: column j occupies [col_start[j], col_start[j+1]).
  std::vector<int> col_start;  // size num_vars + 1
  std::vector<int> row_index;  // size nnz
  std::vector<double> value;   // size nnz
};

/// One row's (variable, coefficient) terms.
using row_terms = std::vector<std::pair<int, double>>;

/// The matrix of `lp` row by row, each row's terms in column order.
inline std::vector<row_terms> matrix_rows(const lp_problem& lp) {
  std::vector<row_terms> rows(static_cast<std::size_t>(lp.num_rows));
  for (int j = 0; j < lp.num_vars; ++j)
    for (int k = lp.col_start[j]; k < lp.col_start[j + 1]; ++k)
      rows[lp.row_index[k]].emplace_back(j, lp.value[k]);
  return rows;
}

enum class lp_status {
  optimal,
  infeasible,
  unbounded,
  iteration_limit,
  time_limit,
};

struct lp_result {
  lp_status status = lp_status::iteration_limit;
  double objective = std::numeric_limits<double>::infinity();
  std::vector<double> x; // structural variable values (size num_vars)
  /// Row duals y = c_B B^-1 (size num_rows, minimization sense), filled on
  /// optimal solves: together with x they form the optimality certificate
  /// the differential tests check (dual feasibility + strong duality).
  std::vector<double> duals;
  long iterations = 0;       // total simplex iterations of this solve
  long dual_iterations = 0;  // subset taken by the dual method
  bool used_dual = false;    // the solve entered the dual simplex
};

} // namespace transtore::milp
