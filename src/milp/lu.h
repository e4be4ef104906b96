// Sparse LU factorization of a simplex basis.
//
// Replaces the dense `B0^-1` representation for large LPs: the basis matrix
// B (columns indexed by basis position, rows by constraint row) is factored
// as M B = U by sparse Gaussian elimination with
//
//   * Markowitz pivoting -- each pivot minimizes the fill estimate
//     (row_count - 1) * (col_count - 1) over a bounded candidate search
//     driven by column-count buckets (singleton columns are free);
//   * Suhl-style threshold partial pivoting -- an entry is admissible only
//     when |a_ij| >= suhl_threshold * max|a_*j| over the active column, so
//     sparsity never buys a numerically poisonous pivot;
//
// and stored as the elimination multipliers (L, applied as a sequence of
// row operations) plus the permuted upper triangle U (row-wise for ftran's
// back substitution, column-wise for btran's forward substitution).
//
// ftran solves B x = b (right-hand side in constraint-row space, solution
// in basis-position space); btran solves B^T y = z (the transpose map used
// for duals and tableau rows). Both are O(m + factor nonzeros) instead of
// the dense engine's O(m^2).
//
// The factorization is immutable: simplex pivots are layered on top as
// product-form eta vectors by the caller (eta-on-LU), and fill/accuracy
// triggers request a fresh factorize(). All tie-breaking is by lowest
// index, so repeated factorizations of the same basis are bit-identical.
//
// One instance is meant to be refactored many times: the active matrix,
// the count buckets, the marks and every other elimination workspace are
// members that keep their capacity across calls, so once they have grown
// to the largest basis seen a factorize() allocates nothing. A reused
// instance produces exactly the factors a fresh one would.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace transtore::milp {

/// Tunables for one factorization.
struct lu_options {
  /// Absolute floor on pivot magnitude; a column whose largest active entry
  /// is below this is numerically dependent and the basis singular.
  double pivot_tolerance = 1e-11;
  /// Suhl threshold: admissible pivots satisfy |a| >= threshold * colmax.
  double suhl_threshold = 0.1;
};

class basis_lu {
public:
  explicit basis_lu(lu_options options = {}) : options_(options) {}

  /// Sparse column: (constraint row, value) entries, rows distinct.
  using sparse_column = std::vector<std::pair<int, double>>;

  /// Factor the m x m basis whose position-p column is `columns[p]`.
  /// Returns false (and invalidates the factorization) when the basis is
  /// structurally or numerically singular.
  bool factorize(int m, const std::vector<sparse_column>& columns);

  /// The same, with the basis in compressed sparse column form: the
  /// position-p column holds entries [start[p], start[p+1]) of
  /// (row[k], value[k]), rows distinct within a column.
  bool factorize(int m, std::span<const int> start, std::span<const int> row,
                 std::span<const double> value);

  /// Thresholds used by the next factorize().
  void set_options(const lu_options& options) { options_ = options; }

  /// Solve B x = rhs: rhs indexed by constraint row, x by basis position.
  void ftran(const std::vector<double>& rhs, std::vector<double>& x) const;

  /// Solve B^T y = z: z indexed by basis position, y by constraint row.
  void btran(const std::vector<double>& z, std::vector<double>& y) const;

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int dimension() const { return m_; }
  /// Nonzeros of L + U (diagonal included) of the last factorization.
  [[nodiscard]] std::size_t factor_nonzeros() const {
    return l_row_.size() + u_col_.size() + static_cast<std::size_t>(m_);
  }

private:
  lu_options options_;
  int m_ = 0;
  bool valid_ = false;

  /// One active-matrix entry inside a row.
  struct row_entry {
    int col; // basis position
    double value;
  };

  /// Elimination workspace of factorize(), reused across calls. Only its
  /// first m slots are live during a factorization.
  struct workspace {
    // Active matrix: exact row-wise storage plus per-column row lists that
    // may carry stale rows (cancelled entries, pivoted rows) and are
    // compacted lazily. col_count / row_count are kept exact -- they drive
    // Markowitz.
    std::vector<std::vector<row_entry>> rows;
    std::vector<std::vector<int>> col_rows;
    std::vector<int> col_count;
    std::vector<int> row_count;
    // Column-count buckets with lazy deletion: a column is (re)pushed
    // whenever its count changes; entries whose recorded count disagrees
    // are stale.
    std::vector<std::vector<int>> bucket;
    std::vector<char> row_done;
    std::vector<char> col_done;
    // Dense scratch for the row merges, all-zero between merges.
    std::vector<double> dense;
    std::vector<char> present;
    std::vector<int> pattern;
    // Valid (row, value) entries of one candidate column: `cached` holds
    // the best candidate's (column cached_col), `scratch` the one being
    // examined.
    std::vector<std::pair<int, double>> cached;
    std::vector<std::pair<int, double>> scratch;
    int cached_col = -1;
    // Row stamps of gather_column (a row listed twice is gathered once).
    std::vector<int> gather_mark;
    int gather_stamp = -1;
    // Column-wise U construction.
    std::vector<int> step_of_position;
    std::vector<int> cursor;
    // Flattened input of the vector-of-columns factorize().
    std::vector<int> input_start;
    std::vector<int> input_row;
    std::vector<double> input_value;
  };
  workspace ws_;

  /// Size the workspace for an m x m basis and clear its first m slots.
  void reset_workspace(int m);
  /// Gather the valid entries of active column `col` into `out`,
  /// compacting its row list.
  void gather_column(int col, std::vector<std::pair<int, double>>& out);
  /// Build the column-wise copy of U that btran walks.
  void build_u_columns();

  // Pivot sequence: step k eliminated constraint row pivot_row_[k] and
  // basis position pivot_col_[k].
  std::vector<int> pivot_row_;
  std::vector<int> pivot_col_;

  // L: per elimination step, the multipliers (constraint row, value),
  // flattened; applying step k subtracts value * v[pivot_row_[k]] from
  // v[row].
  std::vector<int> l_start_; // size m+1
  std::vector<int> l_row_;
  std::vector<double> l_value_;
  // The steps whose multiplier list is nonempty, in pivot order: the only
  // ones the solves need to visit (singleton pivots leave no L entries).
  std::vector<int> l_steps_;

  // U rows in pivot order: entries on later-pivoted basis positions.
  std::vector<int> u_start_; // size m+1
  std::vector<int> u_col_;   // basis positions
  std::vector<double> u_value_;
  std::vector<double> u_pivot_; // size m: diagonal of step k

  // U columns for btran: entries (earlier pivot step, value).
  std::vector<int> ucol_start_; // size m+1
  std::vector<int> ucol_step_;
  std::vector<double> ucol_value_;

  mutable std::vector<double> work_; // size m scratch for the solves
};

} // namespace transtore::milp
