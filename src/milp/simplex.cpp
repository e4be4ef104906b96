#include "milp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace transtore::milp {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

// Simplex tuning constants.
/// Primal feasibility tolerance on basic values and bounds.
constexpr double feasibility_tolerance = 1e-7;
/// Dual feasibility (reduced-cost) tolerance.
constexpr double optimality_tolerance = 1e-7;
/// Smallest pivot magnitude the ratio tests accept.
constexpr double pivot_tolerance = 1e-9;
/// Consecutive degenerate steps before the switch to Bland's rule (and,
/// in the dual, before the primal fallback).
constexpr int degenerate_switch = 400;
/// The LU retry after a singular factorization: the Suhl threshold relaxed
/// and the pivot floor lowered -- an ill-conditioned but nonsingular basis
/// often factors once sparsity stops vetoing the only usable pivots.
constexpr lu_options relaxed_lu{.pivot_tolerance = 1e-13,
                                .suhl_threshold = 0.01};

} // namespace

simplex_solver::simplex_solver(const lp_problem& problem,
                               simplex_options options)
    : problem_(problem), options_(options) {
  n_ = problem.num_vars;
  m_ = problem.num_rows;
  require(static_cast<int>(problem.cost.size()) == n_ &&
              static_cast<int>(problem.lower.size()) == n_ &&
              static_cast<int>(problem.upper.size()) == n_,
          "simplex: inconsistent column arrays");
  require(static_cast<int>(problem.row_lower.size()) == m_ &&
              static_cast<int>(problem.row_upper.size()) == m_,
          "simplex: inconsistent row arrays");
  require(static_cast<int>(problem.col_start.size()) == n_ + 1,
          "simplex: bad col_start");

  lower_.resize(total_columns());
  upper_.resize(total_columns());
  for (int j = 0; j < n_; ++j) {
    lower_[j] = problem.lower[j];
    upper_[j] = problem.upper[j];
  }
  for (int i = 0; i < m_; ++i) {
    lower_[n_ + i] = problem.row_lower[i];
    upper_[n_ + i] = problem.row_upper[i];
  }

  basis_.assign(m_, -1);
  basic_position_.assign(total_columns(), -1);
  status_.assign(total_columns(), status::at_lower);
  x_.assign(total_columns(), 0.0);
  dense_active_ = options_.engine == basis_engine::dense;
  // The O(m^2) dense inverse is what caps the dense engine at ~2500 rows;
  // under the sparse engine it is allocated lazily, only if the numerical
  // fallback ever engages.
  if (dense_active_) binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
  devex_weight_.assign(total_columns(), 1.0);
  dual_y_.assign(m_, 0.0);
  work_col_.assign(m_, 0.0);
  work_row_.assign(m_, 0.0);
  work_cost_.assign(m_, 0.0);
  work_rho_.assign(m_, 0.0);
  work_pos_.assign(m_, 0.0);
  work_rhs_.assign(m_, 0.0);
}

void simplex_solver::set_variable_bounds(int var, double lower, double upper) {
  require(var >= 0 && var < n_, "simplex: bound change on unknown variable");
  require(lower <= upper, "simplex: crossing bounds");
  lower_[var] = lower;
  upper_[var] = upper;
}

double simplex_solver::variable_lower(int var) const {
  require(var >= 0 && var < n_, "simplex: unknown variable");
  return lower_[var];
}

double simplex_solver::variable_upper(int var) const {
  require(var >= 0 && var < n_, "simplex: unknown variable");
  return upper_[var];
}

void simplex_solver::reset_to_slack_basis() {
  std::fill(basic_position_.begin(), basic_position_.end(), -1);
  for (int i = 0; i < m_; ++i) {
    basis_[i] = n_ + i;
    basic_position_[n_ + i] = i;
    status_[n_ + i] = status::basic;
  }
  for (int j = 0; j < n_; ++j) {
    if (lower_[j] == -inf && upper_[j] == inf) {
      status_[j] = status::free_zero;
      x_[j] = 0.0;
    } else if (lower_[j] == -inf) {
      status_[j] = status::at_upper;
      x_[j] = upper_[j];
    } else if (upper_[j] == inf || std::abs(lower_[j]) <= std::abs(upper_[j])) {
      status_[j] = status::at_lower;
      x_[j] = lower_[j];
    } else {
      status_[j] = status::at_upper;
      x_[j] = upper_[j];
    }
  }
  // Slack basis matrix is -I, so its inverse is -I as well; the LU
  // factorization of -I is trivial and cannot fail.
  if (options_.engine == basis_engine::sparse_lu) {
    gather_basis_columns();
    lu_.set_options(lu_options{});
    require(lu_.factorize(m_, basis_start_, basis_row_, basis_value_),
            "simplex: slack basis factorization");
    dense_active_ = false;
  } else {
    std::fill(binv_.begin(), binv_.end(), 0.0);
    for (int i = 0; i < m_; ++i)
      binv_[static_cast<std::size_t>(i) * m_ + i] = -1.0;
    dense_active_ = true;
  }
  clear_etas();
  reset_devex();
  candidates_.clear();
  pricing_cursor_ = 0;
  dual_y_valid_ = false;
  basis_valid_ = true;
}

void simplex_solver::clamp_nonbasic_to_bounds() {
  for (int j = 0; j < total_columns(); ++j) {
    if (status_[j] == status::basic) continue;
    if (lower_[j] == -inf && upper_[j] == inf) {
      status_[j] = status::free_zero;
      x_[j] = 0.0;
      continue;
    }
    if (status_[j] == status::free_zero) {
      // A previously free column acquired a bound (branching): park it.
      status_[j] = lower_[j] != -inf ? status::at_lower : status::at_upper;
    }
    if (status_[j] == status::at_lower && lower_[j] == -inf)
      status_[j] = status::at_upper;
    if (status_[j] == status::at_upper && upper_[j] == inf)
      status_[j] = status::at_lower;
    x_[j] = status_[j] == status::at_lower ? lower_[j] : upper_[j];
  }
}

void simplex_solver::compute_basic_values() {
  // Rows are homogeneous (A x - s = 0), so B x_B = -N x_N.
  std::vector<double>& rhs = work_rhs_;
  for (int j = 0; j < total_columns(); ++j) {
    if (status_[j] == status::basic) continue;
    const double v = x_[j];
    if (v == 0.0) continue;
    if (j < n_) {
      for (int k = problem_.col_start[j]; k < problem_.col_start[j + 1]; ++k)
        rhs[problem_.row_index[k]] -= problem_.value[k] * v;
    } else {
      rhs[j - n_] += v; // slack column is -e_row
    }
  }
  base_ftran(rhs, work_pos_);
  std::fill(rhs.begin(), rhs.end(), 0.0);
  apply_etas_ftran(work_pos_);
  for (int p = 0; p < m_; ++p) x_[basis_[p]] = work_pos_[p];
}

void simplex_solver::repair_to_slack_basis() {
  reset_to_slack_basis();
  ++stats_.refactorizations;
  ++stats_.refactor_slack_reset;
  compute_basic_values();
}

bool simplex_solver::refactorize(refactor_cause cause) {
  if (!build_base_inverse()) return false;
  clear_etas();
  ++stats_.refactorizations;
  switch (cause) {
  case refactor_cause::eta_fill: ++stats_.refactor_eta_fill; break;
  case refactor_cause::interval: ++stats_.refactor_interval; break;
  case refactor_cause::infeasibility_proof:
    ++stats_.refactor_infeasibility_proof;
    break;
  case refactor_cause::dual_abort: ++stats_.refactor_dual_abort; break;
  case refactor_cause::phase2_retry: ++stats_.refactor_phase2_retry; break;
  case refactor_cause::load_basis: ++stats_.refactor_load_basis; break;
  case refactor_cause::none: break;
  }
  compute_basic_values();
  // Recompute the incrementally maintained duals from the fresh factors on
  // the next dual iteration (drift control).
  dual_y_valid_ = false;
  return true;
}

void simplex_solver::gather_basis_columns() {
  basis_start_.assign(1, 0);
  basis_row_.clear();
  basis_value_.clear();
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (col < n_) {
      const std::size_t first = basis_row_.size();
      for (int k = problem_.col_start[col]; k < problem_.col_start[col + 1];
           ++k) {
        // Merge duplicate row entries (row indices ascend within a
        // column): basis_lu requires distinct rows per column.
        if (basis_row_.size() > first &&
            basis_row_.back() == problem_.row_index[k]) {
          basis_value_.back() += problem_.value[k];
        } else {
          basis_row_.push_back(problem_.row_index[k]);
          basis_value_.push_back(problem_.value[k]);
        }
      }
    } else {
      basis_row_.push_back(col - n_);
      basis_value_.push_back(-1.0);
    }
    basis_start_.push_back(static_cast<int>(basis_row_.size()));
  }
}

bool simplex_solver::build_base_inverse() {
  if (options_.engine == basis_engine::sparse_lu) {
    gather_basis_columns();
    lu_.set_options(lu_options{}); // strict thresholds, even after a retry
    if (lu_.factorize(m_, basis_start_, basis_row_, basis_value_)) {
      dense_active_ = false;
      ++stats_.lu_factorizations;
      return true;
    }
    // First fallback: retry under relaxed thresholds.
    lu_.set_options(relaxed_lu);
    if (lu_.factorize(m_, basis_start_, basis_row_, basis_value_)) {
      dense_active_ = false;
      ++stats_.lu_factorizations;
      return true;
    }
    // Second fallback: full partial pivoting on the explicit inverse may
    // still get through, and then backs the solves until the next
    // refactorization (which tries LU again). The O(m^3) rebuild is only
    // affordable at dense-viable sizes (the historical ~2500-row bound);
    // above that the caller's slack-basis repair is the cheaper correct
    // recovery -- and it stays responsive to deadlines and cancellation.
    if (m_ > 2500) return false;
  }
  if (dense_refactorize()) {
    if (options_.engine == basis_engine::sparse_lu) ++stats_.dense_fallbacks;
    dense_active_ = true;
    return true;
  }
  return false;
}

bool simplex_solver::dense_refactorize() {
  // Assemble the basis matrix and invert it by Gauss-Jordan elimination with
  // partial pivoting.
  if (binv_.empty()) binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
  std::vector<double> a(static_cast<std::size_t>(m_) * m_, 0.0);
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (col < n_) {
      for (int k = problem_.col_start[col]; k < problem_.col_start[col + 1];
           ++k)
        a[static_cast<std::size_t>(problem_.row_index[k]) * m_ + p] +=
            problem_.value[k];
    } else {
      a[static_cast<std::size_t>(col - n_) * m_ + p] = -1.0;
    }
  }
  std::fill(binv_.begin(), binv_.end(), 0.0);
  for (int i = 0; i < m_; ++i)
    binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;

  for (int k = 0; k < m_; ++k) {
    int pivot_row = k;
    double best = std::abs(a[static_cast<std::size_t>(k) * m_ + k]);
    for (int r = k + 1; r < m_; ++r) {
      const double cand = std::abs(a[static_cast<std::size_t>(r) * m_ + k]);
      if (cand > best) {
        best = cand;
        pivot_row = r;
      }
    }
    if (best < 1e-12) return false; // singular: caller repairs the basis
    if (pivot_row != k) {
      for (int c = 0; c < m_; ++c) {
        std::swap(a[static_cast<std::size_t>(pivot_row) * m_ + c],
                  a[static_cast<std::size_t>(k) * m_ + c]);
        std::swap(binv_[static_cast<std::size_t>(pivot_row) * m_ + c],
                  binv_[static_cast<std::size_t>(k) * m_ + c]);
      }
    }
    const double inv_pivot = 1.0 / a[static_cast<std::size_t>(k) * m_ + k];
    for (int c = 0; c < m_; ++c) {
      a[static_cast<std::size_t>(k) * m_ + c] *= inv_pivot;
      binv_[static_cast<std::size_t>(k) * m_ + c] *= inv_pivot;
    }
    for (int r = 0; r < m_; ++r) {
      if (r == k) continue;
      const double f = a[static_cast<std::size_t>(r) * m_ + k];
      if (f == 0.0) continue;
      for (int c = 0; c < m_; ++c) {
        a[static_cast<std::size_t>(r) * m_ + c] -=
            f * a[static_cast<std::size_t>(k) * m_ + c];
        binv_[static_cast<std::size_t>(r) * m_ + c] -=
            f * binv_[static_cast<std::size_t>(k) * m_ + c];
      }
    }
  }
  // binv_ now holds B^{-1} in "basis position" row order: row p gives the
  // coefficients expressing basis position p in terms of constraint rows.
  return true;
}

bool simplex_solver::load_basis(const std::vector<int>& basic_columns,
                                const std::vector<int>& at_upper_columns) {
  require(static_cast<int>(basic_columns.size()) == m_,
          "simplex: load_basis needs one column per row");
  std::fill(basic_position_.begin(), basic_position_.end(), -1);
  for (int p = 0; p < m_; ++p) {
    const int col = basic_columns[static_cast<std::size_t>(p)];
    require(col >= 0 && col < total_columns(),
            "simplex: load_basis column out of range");
    require(basic_position_[col] < 0, "simplex: load_basis repeats a column");
    basis_[p] = col;
    basic_position_[col] = p;
  }
  for (int j = 0; j < total_columns(); ++j)
    status_[j] = basic_position_[j] >= 0 ? status::basic : status::at_lower;
  for (const int col : at_upper_columns) {
    require(col >= 0 && col < total_columns(),
            "simplex: load_basis at-upper column out of range");
    if (status_[col] != status::basic && upper_[col] != inf)
      status_[col] = status::at_upper;
  }
  clamp_nonbasic_to_bounds();
  reset_devex();
  candidates_.clear();
  pricing_cursor_ = 0;
  basis_valid_ = true;
  if (refactorize(refactor_cause::load_basis)) return true;
  // Singular under every engine: repair to the slack basis so the solver
  // stays usable, and report the rejection.
  repair_to_slack_basis();
  return false;
}

// ----------------------------------------------------- basis inverse algebra

void simplex_solver::clear_etas() {
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_index_.clear();
  eta_value_.clear();
}

void simplex_solver::apply_etas_ftran(std::vector<double>& v) const {
  // B^-1 = E_k^-1 ... E_1^-1 B0^-1: the dense part was applied by the
  // caller, so run the etas in chronological order. Solving E z = v with E
  // equal to identity except column r (the spike w): z_r = v_r / w_r,
  // z_i = v_i - w_i z_r.
  for (std::size_t e = 0; e < eta_pos_.size(); ++e) {
    const int r = eta_pos_[e];
    const double t = v[r] / eta_pivot_[e];
    if (t != 0.0) {
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        v[eta_index_[k]] -= eta_value_[k] * t;
    }
    v[r] = t;
  }
}

void simplex_solver::apply_etas_btran(std::vector<double>& z) const {
  // Row-vector counterpart: z := z E^-1 changes only component r, with
  // z_r' = (z_r - sum_{i != r} z_i w_i) / w_r; etas run newest-first.
  for (std::size_t e = eta_pos_.size(); e-- > 0;) {
    const int r = eta_pos_[e];
    double s = z[r];
    for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
      s -= z[eta_index_[k]] * eta_value_[k];
    z[r] = s / eta_pivot_[e];
  }
}

void simplex_solver::base_ftran(const std::vector<double>& rhs,
                                std::vector<double>& v) const {
  if (dense_active_)
    dense_ftran(rhs, v);
  else
    lu_.ftran(rhs, v);
}

void simplex_solver::base_btran(const std::vector<double>& z,
                                std::vector<double>& y) const {
  if (dense_active_)
    dense_btran(z, y);
  else
    lu_.btran(z, y);
}

void simplex_solver::dense_ftran(const std::vector<double>& rhs,
                                 std::vector<double>& v) const {
  v.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double r = rhs[i];
    if (r == 0.0) continue;
    for (int p = 0; p < m_; ++p)
      v[p] += binv_[static_cast<std::size_t>(p) * m_ + i] * r;
  }
}

void simplex_solver::dense_btran(const std::vector<double>& z,
                                 std::vector<double>& y) const {
  y.assign(m_, 0.0);
  for (int p = 0; p < m_; ++p) {
    const double c = z[p];
    if (c == 0.0) continue;
    const double* row = &binv_[static_cast<std::size_t>(p) * m_];
    for (int i = 0; i < m_; ++i) y[i] += c * row[i];
  }
}

void simplex_solver::ftran(int column, std::vector<double>& w) const {
  if (!dense_active_) {
    // Scatter the sparse column into the all-zero row-space scratch, solve,
    // and restore the invariant.
    if (column < n_) {
      // += keeps the "CSC duplicates sum" convention every dot-product
      // path already uses (work_rhs_ is all-zero between calls).
      for (int k = problem_.col_start[column]; k < problem_.col_start[column + 1];
           ++k)
        work_rhs_[problem_.row_index[k]] += problem_.value[k];
      lu_.ftran(work_rhs_, w);
      for (int k = problem_.col_start[column]; k < problem_.col_start[column + 1];
           ++k)
        work_rhs_[problem_.row_index[k]] = 0.0;
    } else {
      work_rhs_[column - n_] = -1.0;
      lu_.ftran(work_rhs_, w);
      work_rhs_[column - n_] = 0.0;
    }
  } else if (column < n_) {
    for (int p = 0; p < m_; ++p) {
      const double* row = &binv_[static_cast<std::size_t>(p) * m_];
      double sum = 0.0;
      for (int k = problem_.col_start[column];
           k < problem_.col_start[column + 1]; ++k)
        sum += row[problem_.row_index[k]] * problem_.value[k];
      w[p] = sum;
    }
  } else {
    const int row_of_slack = column - n_;
    for (int p = 0; p < m_; ++p)
      w[p] = -binv_[static_cast<std::size_t>(p) * m_ + row_of_slack];
  }
  apply_etas_ftran(w);
}

void simplex_solver::btran_row(int position, std::vector<double>& rho) const {
  work_pos_.assign(m_, 0.0);
  work_pos_[position] = 1.0;
  apply_etas_btran(work_pos_);
  base_btran(work_pos_, rho);
}

void simplex_solver::tableau_row(int position, std::vector<double>& alpha) const {
  require(position >= 0 && position < m_, "simplex: tableau_row position");
  std::vector<double> rho(static_cast<std::size_t>(m_), 0.0);
  btran_row(position, rho);
  alpha.assign(static_cast<std::size_t>(total_columns()), 0.0);
  for (int j = 0; j < total_columns(); ++j) {
    if (basic_position_[j] >= 0) {
      // Exact by definition: e_p B^-1 B = e_p.
      alpha[static_cast<std::size_t>(j)] =
          basic_position_[j] == position ? 1.0 : 0.0;
    } else {
      alpha[static_cast<std::size_t>(j)] = column_dot(j, rho);
    }
  }
}

void simplex_solver::record_basis_update(int leaving_pos, double pivot_element,
                                         const std::vector<double>& w) {
  if (dense_active_ && eta_pos_.empty() &&
      2 * std::count_if(w.begin(), w.begin() + m_,
                        [](double v) { return v != 0.0; }) > m_) {
    // Dense spike with no pending etas: sparsity-aware in-place update of
    // the explicit inverse (work ~ nnz(w) x nnz(pivot row)). The LU factors
    // are immutable, so under the sparse engine every spike goes to the eta
    // file (eta-on-LU) until the next refactorization.
    double* pivot_row = &binv_[static_cast<std::size_t>(leaving_pos) * m_];
    const double inv_pivot = 1.0 / pivot_element;
    static thread_local std::vector<int> row_nonzeros;
    row_nonzeros.clear();
    for (int i = 0; i < m_; ++i) {
      pivot_row[i] *= inv_pivot;
      if (pivot_row[i] != 0.0) row_nonzeros.push_back(i);
    }
    for (int p = 0; p < m_; ++p) {
      if (p == leaving_pos) continue;
      const double f = w[p];
      if (f == 0.0) continue;
      double* row = &binv_[static_cast<std::size_t>(p) * m_];
      for (const int i : row_nonzeros) row[i] -= f * pivot_row[i];
    }
    return;
  }

  // Product-form update: append the spike as an eta vector, O(fill-in).
  // The off-pivot nonzeros are compacted without a branch per entry (dual
  // spikes are about half dense, so that branch would mispredict often):
  // room for m entries, every entry written, the cursor advanced only past
  // the kept ones.
  eta_pos_.push_back(leaving_pos);
  eta_pivot_.push_back(pivot_element);
  const std::size_t base = eta_index_.size();
  eta_index_.resize(base + static_cast<std::size_t>(m_));
  eta_value_.resize(base + static_cast<std::size_t>(m_));
  int* index = eta_index_.data() + base;
  double* value = eta_value_.data() + base;
  std::size_t kept = 0;
  for (int p = 0; p < m_; ++p) {
    index[kept] = p;
    value[kept] = w[p];
    kept += static_cast<std::size_t>(w[p] != 0.0 && p != leaving_pos);
  }
  eta_index_.resize(base + kept);
  eta_value_.resize(base + kept);
  eta_start_.push_back(static_cast<int>(eta_index_.size()));
}

simplex_solver::refactor_cause simplex_solver::refactor_due(
    int pivots_since_refactor) const {
  constexpr int refactor_interval = 200;
  if (pivots_since_refactor >= refactor_interval ||
      static_cast<int>(eta_pos_.size()) >= refactor_interval)
    return refactor_cause::interval;
  // Fill trigger: refactor once the eta file outgrows its base
  // representation -- m^2/8 against the dense inverse, a small multiple of
  // the LU factor nonzeros against the sparse factors (whose solves are
  // O(m + fill), so a bloated eta file would dominate them).
  const std::size_t nnz_cap =
      dense_active_
          ? std::max<std::size_t>(1024, static_cast<std::size_t>(m_) *
                                            static_cast<std::size_t>(m_) / 8)
          : std::max<std::size_t>(
                1024, 2 * (lu_.factor_nonzeros() + static_cast<std::size_t>(m_)));
  return eta_nonzeros() > nnz_cap ? refactor_cause::eta_fill
                                 : refactor_cause::none;
}

// ------------------------------------------------------------ reduced costs

void simplex_solver::compute_duals(const std::vector<double>& basic_cost,
                                   std::vector<double>& y) const {
  work_pos_.assign(basic_cost.begin(), basic_cost.end());
  apply_etas_btran(work_pos_);
  base_btran(work_pos_, y);
}

double simplex_solver::reduced_cost(int column,
                                    const std::vector<double>& y) const {
  return -column_dot(column, y); // caller adds the column's own cost
}

double simplex_solver::column_dot(int column,
                                  const std::vector<double>& y) const {
  if (column < n_) {
    double dot = 0.0;
    for (int k = problem_.col_start[column]; k < problem_.col_start[column + 1];
         ++k)
      dot += y[problem_.row_index[k]] * problem_.value[k];
    return dot;
  }
  return -y[column - n_]; // slack column is -e_row
}

double simplex_solver::column_cost_phase2(int column) const {
  return column < n_ ? problem_.cost[column] : 0.0;
}

double simplex_solver::infeasibility_sum() const {
  double total = 0.0;
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (x_[col] < lower_[col]) total += lower_[col] - x_[col];
    if (x_[col] > upper_[col]) total += x_[col] - upper_[col];
  }
  return total;
}

bool simplex_solver::basic_feasible() const {
  const double tol = feasibility_tolerance;
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (x_[col] < lower_[col] - tol || x_[col] > upper_[col] + tol)
      return false;
  }
  return true;
}

bool simplex_solver::dual_feasible(const std::vector<double>& y) const {
  const double tol = optimality_tolerance * 10.0;
  for (int j = 0; j < total_columns(); ++j) {
    const status s = status_[j];
    if (s == status::basic) continue;
    const double d = column_cost_phase2(j) + reduced_cost(j, y);
    if (s == status::at_lower && d < -tol) return false;
    if (s == status::at_upper && d > tol) return false;
    if (s == status::free_zero && std::abs(d) > tol) return false;
  }
  return true;
}

// ----------------------------------------------------------------- pricing

double simplex_solver::pricing_violation(int column, double reduced,
                                         int& direction) const {
  const double opt_tol = optimality_tolerance;
  const status s = status_[column];
  if (s == status::at_lower && reduced < -opt_tol) {
    direction = 1;
    return -reduced;
  }
  if (s == status::at_upper && reduced > opt_tol) {
    direction = -1;
    return reduced;
  }
  if (s == status::free_zero && std::abs(reduced) > opt_tol) {
    direction = reduced < 0.0 ? 1 : -1;
    return std::abs(reduced);
  }
  return 0.0;
}

simplex_solver::entering_choice simplex_solver::price_bland(
    bool phase1, const std::vector<double>& y) {
  entering_choice choice;
  for (int j = 0; j < total_columns(); ++j) {
    if (status_[j] == status::basic) continue;
    const double own_cost = phase1 ? 0.0 : column_cost_phase2(j);
    const double d = own_cost + reduced_cost(j, y);
    int dir = 0;
    if (pricing_violation(j, d, dir) <= 0.0) continue;
    choice.column = j;
    choice.direction = dir;
    return choice;
  }
  return choice;
}

void simplex_solver::refill_candidates(bool phase1,
                                       const std::vector<double>& y) {
  candidates_.clear();
  const int total = total_columns();
  // Partial-pricing candidate list size, derived from the column count.
  const int list_size = std::clamp(total / 8, 16, 256);
  for (int t = 0; t < total; ++t) {
    const int j = pricing_cursor_ + t < total ? pricing_cursor_ + t
                                              : pricing_cursor_ + t - total;
    if (status_[j] == status::basic) continue;
    const double own_cost = phase1 ? 0.0 : column_cost_phase2(j);
    const double d = own_cost + reduced_cost(j, y);
    int dir = 0;
    if (pricing_violation(j, d, dir) <= 0.0) continue;
    candidates_.push_back(j);
    if (static_cast<int>(candidates_.size()) >= list_size) {
      pricing_cursor_ = j + 1 < total ? j + 1 : 0;
      return;
    }
  }
  // Full wrap completed: the list (possibly empty) is a certificate that no
  // column outside it is attractive.
}

simplex_solver::entering_choice simplex_solver::price_devex(
    bool phase1, const std::vector<double>& y) {
  entering_choice choice;
  for (int attempt = 0; attempt < 2; ++attempt) {
    double best_score = 0.0;
    std::size_t keep = 0;
    for (const int j : candidates_) {
      if (status_[j] == status::basic) continue;
      const double own_cost = phase1 ? 0.0 : column_cost_phase2(j);
      const double d = own_cost + reduced_cost(j, y);
      int dir = 0;
      if (pricing_violation(j, d, dir) <= 0.0) continue;
      candidates_[keep++] = j; // compact: keep attractive entries, in order
      const double score = d * d / devex_weight_[j];
      if (score > best_score ||
          (score == best_score && choice.column >= 0 && j < choice.column)) {
        best_score = score;
        choice.column = j;
        choice.direction = dir;
      }
    }
    candidates_.resize(keep);
    if (choice.column >= 0) return choice;
    refill_candidates(phase1, y);
    if (candidates_.empty()) return choice; // full scan found nothing: optimal
  }
  return choice;
}

void simplex_solver::update_devex_weights(int entering, int leaving_pos,
                                          double pivot_element) {
  btran_row(leaving_pos, work_rho_);
  const double weight_q = devex_weight_[entering];
  const double inv_pivot_sq = 1.0 / (pivot_element * pivot_element);
  double max_weight = 0.0;
  for (const int j : candidates_) {
    if (j == entering || status_[j] == status::basic) continue;
    const double alpha = column_dot(j, work_rho_);
    if (alpha == 0.0) continue;
    const double cand = alpha * alpha * inv_pivot_sq * weight_q;
    if (cand > devex_weight_[j]) devex_weight_[j] = cand;
    max_weight = std::max(max_weight, devex_weight_[j]);
  }
  // The leaving column re-enters the nonbasic pool with the transformed
  // reference weight.
  devex_weight_[basis_[leaving_pos]] = std::max(1.0, weight_q * inv_pivot_sq);
  if (max_weight > 1e7) reset_devex(); // start a new reference framework
}

void simplex_solver::reset_devex() {
  std::fill(devex_weight_.begin(), devex_weight_.end(), 1.0);
}

// ---------------------------------------------------------- primal simplex

simplex_solver::pivot_outcome simplex_solver::iterate(bool phase1,
                                                      bool bland) {
  const double feas_tol = feasibility_tolerance;
  const double pivot_tol = pivot_tolerance;

  // Phase-dependent basic costs.
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (phase1) {
      if (x_[col] < lower_[col] - feas_tol)
        work_cost_[p] = -1.0;
      else if (x_[col] > upper_[col] + feas_tol)
        work_cost_[p] = 1.0;
      else
        work_cost_[p] = 0.0;
    } else {
      work_cost_[p] = column_cost_phase2(col);
    }
  }
  compute_duals(work_cost_, work_row_);

  // Entering column selection: devex over the partial-pricing candidate
  // list, unless Bland's anti-cycling rule forces a full scan.
  const entering_choice choice = bland ? price_bland(phase1, work_row_)
                                       : price_devex(phase1, work_row_);
  const int entering = choice.column;
  const int direction = choice.direction;

  pivot_outcome outcome;
  if (entering < 0) {
    outcome.no_candidate = true;
    return outcome;
  }

  ftran(entering, work_col_);


  // Ratio test. The entering variable moves by `step` in `direction`;
  // basic variable at position p changes at rate -direction * w[p].
  double best_step = inf;
  int leaving_pos = -1; // -1 means the entering column's own bound binds
  bool leaving_to_upper = false;
  double best_pivot = 0.0;

  if (lower_[entering] != -inf && upper_[entering] != inf)
    best_step = upper_[entering] - lower_[entering];

  for (int p = 0; p < m_; ++p) {
    const double w = work_col_[p];
    if (std::abs(w) <= pivot_tol) continue;
    const int col = basis_[p];
    const double rate = -direction * w;
    const double value = x_[col];
    double limit = inf;
    bool to_upper = false;

    const bool below = value < lower_[col] - feas_tol;
    const bool above = value > upper_[col] + feas_tol;
    if (phase1 && below) {
      // Infeasible basic below its lower bound: breakpoint only when it
      // rises to that bound (it leaves there, feasible).
      if (rate > 0.0) {
        limit = (lower_[col] - value) / rate;
        to_upper = false;
      }
    } else if (phase1 && above) {
      if (rate < 0.0) {
        limit = (upper_[col] - value) / rate;
        to_upper = true;
      }
    } else {
      if (rate > 0.0 && upper_[col] != inf) {
        limit = (upper_[col] - value) / rate;
        to_upper = true;
      } else if (rate < 0.0 && lower_[col] != -inf) {
        limit = (lower_[col] - value) / rate;
        to_upper = false;
      }
    }
    if (limit == inf) continue;
    if (limit < 0.0) limit = 0.0; // numerical guard
    bool better = false;
    if (limit < best_step - 1e-12) {
      better = true;
    } else if (limit <= best_step + 1e-12 && leaving_pos >= 0) {
      // Tie among basic candidates: Bland picks the lowest column index
      // (anti-cycling); otherwise prefer the largest pivot for stability.
      better = bland ? col < basis_[leaving_pos]
                     : std::abs(w) > std::abs(best_pivot);
    }
    if (better) {
      best_step = limit;
      leaving_pos = p;
      leaving_to_upper = to_upper;
      best_pivot = w;
    }
  }

  if (best_step == inf) {
    if (phase1)
      throw internal_error(
          "simplex: unbounded phase-1 direction (should be impossible)");
    outcome.unbounded = true;
    return outcome;
  }


  if (leaving_pos >= 0 && !bland)
    update_devex_weights(entering, leaving_pos, best_pivot);

  apply_pivot(entering, direction, best_step, leaving_pos, best_pivot,
              work_col_, leaving_to_upper);
  outcome.moved = true;
  outcome.step = best_step;
  return outcome;
}

void simplex_solver::apply_pivot(int entering, int direction, double step,
                                 int leaving_pos, double pivot_element,
                                 const std::vector<double>& w,
                                 bool leaving_to_upper) {
  // Move values along the simplex direction.
  x_[entering] += direction * step;
  if (step != 0.0) {
    for (int p = 0; p < m_; ++p) {
      if (w[p] == 0.0) continue;
      x_[basis_[p]] -= direction * step * w[p];
    }
  }

  if (leaving_pos < 0) {
    // Bound flip: the entering variable reached its opposite bound.
    status_[entering] =
        direction > 0 ? status::at_upper : status::at_lower;
    x_[entering] =
        direction > 0 ? upper_[entering] : lower_[entering];
    return;
  }

  const int leaving_col = basis_[leaving_pos];
  status_[leaving_col] =
      leaving_to_upper ? status::at_upper : status::at_lower;
  x_[leaving_col] = leaving_to_upper ? upper_[leaving_col] : lower_[leaving_col];
  basic_position_[leaving_col] = -1;

  basis_[leaving_pos] = entering;
  basic_position_[entering] = leaving_pos;
  status_[entering] = status::basic;
  dual_y_valid_ = false; // primal pivots move the basis under the dual's y

  record_basis_update(leaving_pos, pivot_element, w);
}

// ------------------------------------------------------------ dual simplex

simplex_solver::dual_outcome simplex_solver::dual_iterate() {
  const double feas_tol = feasibility_tolerance;
  const double opt_tol = optimality_tolerance;
  const double pivot_tol = pivot_tolerance;
  dual_outcome out;

  // Phase-2 duals, maintained incrementally across dual pivots (updated
  // from the pivot row below); a full btran recompute happens only when the
  // basis changed outside the dual loop or the factorization was refreshed.
  if (!dual_y_valid_) {
    for (int p = 0; p < m_; ++p) work_cost_[p] = column_cost_phase2(basis_[p]);
    compute_duals(work_cost_, dual_y_);
    dual_y_valid_ = true;
    ++stats_.dual_recomputes;
  }

  // Leaving-row selection: the basic variable with the largest bound
  // violation (tie-break: lowest position, deterministic).
  int leave_pos = -1;
  bool below = false;
  double best_violation = feas_tol;
  for (int p = 0; p < m_; ++p) {
    const int col = basis_[p];
    if (x_[col] < lower_[col] - feas_tol) {
      const double violation = lower_[col] - x_[col];
      if (violation > best_violation) {
        best_violation = violation;
        leave_pos = p;
        below = true;
      }
    } else if (x_[col] > upper_[col] + feas_tol) {
      const double violation = x_[col] - upper_[col];
      if (violation > best_violation) {
        best_violation = violation;
        leave_pos = p;
        below = false;
      }
    }
  }
  if (leave_pos < 0) {
    out.optimal = true;
    return out;
  }

  const int leave_col = basis_[leave_pos];
  // Signed change of x[leave_col] needed to land on its violated bound:
  // positive when below the lower bound, negative when above the upper.
  double delta = below ? lower_[leave_col] - x_[leave_col]
                       : upper_[leave_col] - x_[leave_col];

  // Pivot row of the tableau.
  btran_row(leave_pos, work_rho_);

  // Eligible entering candidates with their dual ratios. The entering
  // variable j moves by delta_j = -delta / alpha_j, so eligibility is the
  // sign pattern that moves x[leave_col] toward its bound while delta_j
  // respects j's own bound direction.
  struct dual_candidate {
    int col;
    double alpha;
    double d;   // signed reduced cost (for the incremental dual update)
    double mag; // dual-feasibility slack of the reduced cost, clamped >= 0
    double ratio;
  };
  static thread_local std::vector<dual_candidate> cands;
  cands.clear();
  for (int j = 0; j < total_columns(); ++j) {
    const status s = status_[j];
    if (s == status::basic) continue;
    // A fixed column (lower == upper) imposes no dual breakpoint: both
    // bound statuses are dual feasible for any reduced-cost sign, so it
    // can neither enter nor restrict the dual step. Admitting it causes
    // zero-step churn at branch-and-bound nodes where binaries are fixed.
    if (upper_[j] - lower_[j] <= feas_tol && s != status::free_zero) continue;
    const double alpha = column_dot(j, work_rho_);
    if (std::abs(alpha) <= pivot_tol) continue;
    bool eligible = false;
    if (s == status::free_zero) {
      eligible = true;
    } else if (delta > 0.0) { // leave_col must rise
      eligible = (s == status::at_lower && alpha < 0.0) ||
                 (s == status::at_upper && alpha > 0.0);
    } else { // leave_col must fall
      eligible = (s == status::at_lower && alpha > 0.0) ||
                 (s == status::at_upper && alpha < 0.0);
    }
    if (!eligible) continue;
    const double d = column_cost_phase2(j) + reduced_cost(j, dual_y_);
    double mag;
    if (s == status::at_lower)
      mag = std::max(0.0, d);
    else if (s == status::at_upper)
      mag = std::max(0.0, -d);
    else
      mag = std::abs(d);
    cands.push_back({j, alpha, d, mag, mag / std::abs(alpha)});
  }
  if (cands.empty()) {
    // Dual unbounded: the primal has no feasible point in this subproblem.
    out.infeasible = true;
    return out;
  }

  // Bound-flipping (long-step) ratio test: walk the dual breakpoints in
  // ratio order; boxed columns whose full range cannot absorb the remaining
  // infeasibility flip to their opposite bound and the walk continues.
  std::sort(cands.begin(), cands.end(),
            [](const dual_candidate& a, const dual_candidate& b) {
              if (a.ratio != b.ratio) return a.ratio < b.ratio;
              return a.col < b.col;
            });

  static thread_local std::vector<std::pair<int, double>> flips; // (col, move)
  flips.clear();
  double delta_rem = delta;
  int chosen = -1;
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const dual_candidate& cand = cands[c];
    const double needed = -delta_rem / cand.alpha;
    const double range = upper_[cand.col] - lower_[cand.col];
    if (range == inf || std::abs(needed) <= range + feas_tol) {
      // Harris-style second pass: among near-tied breakpoints that can also
      // absorb the remaining infeasibility, prefer the largest pivot.
      chosen = static_cast<int>(c);
      for (std::size_t k = c + 1; k < cands.size(); ++k) {
        if (cands[k].ratio > cand.ratio + opt_tol) break;
        const double k_needed = -delta_rem / cands[k].alpha;
        const double k_range = upper_[cands[k].col] - lower_[cands[k].col];
        if (k_range != inf && std::abs(k_needed) > k_range + feas_tol)
          continue;
        if (std::abs(cands[k].alpha) > std::abs(cands[chosen].alpha))
          chosen = static_cast<int>(k);
      }
      break;
    }
    // Flip: the column traverses its whole (finite) range. Eligibility
    // fixed the direction, so the flip cannot overshoot the bound.
    const double move = status_[cand.col] == status::at_lower ? range : -range;
    flips.emplace_back(cand.col, move);
    delta_rem += cand.alpha * move;
  }

  if (chosen < 0 && std::abs(delta_rem) > feas_tol) {
    // Breakpoints exhausted with infeasibility left: dual unbounded.
    out.infeasible = true;
    return out;
  }

  // Apply the accumulated bound flips with one batched ftran.
  if (!flips.empty()) {
    std::vector<double>& rhs = work_rhs_;
    for (const auto& [col, move] : flips) {
      if (col < n_) {
        for (int k = problem_.col_start[col]; k < problem_.col_start[col + 1];
             ++k)
          rhs[problem_.row_index[k]] += problem_.value[k] * move;
      } else {
        rhs[col - n_] -= move; // slack column is -e_row
      }
      status_[col] = status_[col] == status::at_lower ? status::at_upper
                                                      : status::at_lower;
      x_[col] = status_[col] == status::at_lower ? lower_[col] : upper_[col];
    }
    base_ftran(rhs, work_pos_);
    std::fill(rhs.begin(), rhs.end(), 0.0);
    apply_etas_ftran(work_pos_);
    for (int p = 0; p < m_; ++p) {
      if (work_pos_[p] != 0.0) x_[basis_[p]] -= work_pos_[p];
    }
    stats_.dual_bound_flips += static_cast<long>(flips.size());
  }

  if (chosen < 0) {
    // The flips alone absorbed the infeasibility (within tolerance).
    x_[leave_col] = below ? lower_[leave_col] : upper_[leave_col];
    out.moved = true;
    out.step = flips.empty() ? 0.0 : cands[flips.size() - 1].ratio;
    return out;
  }

  const dual_candidate entering = cands[static_cast<std::size_t>(chosen)];
  ftran(entering.col, work_col_);
  const double pivot = work_col_[leave_pos];
  if (std::abs(pivot) <= std::max(pivot_tol, 1e-7) ||
      std::abs(pivot - entering.alpha) >
          1e-6 * std::max(1.0, std::abs(entering.alpha))) {
    // The ftran'd pivot disagrees with the btran'd row: the factorization
    // has drifted. Abort; the caller refactorizes and retries.
    out.aborted = true;
    return out;
  }

  const double step = -delta_rem / pivot;
  x_[entering.col] += step;
  if (step != 0.0) {
    for (int p = 0; p < m_; ++p) {
      if (work_col_[p] == 0.0) continue;
      x_[basis_[p]] -= step * work_col_[p];
    }
  }
  x_[leave_col] = below ? lower_[leave_col] : upper_[leave_col];
  status_[leave_col] = below ? status::at_lower : status::at_upper;
  basic_position_[leave_col] = -1;
  basis_[leave_pos] = entering.col;
  basic_position_[entering.col] = leave_pos;
  status_[entering.col] = status::basic;
  devex_weight_[leave_col] = 1.0;

  record_basis_update(leave_pos, pivot, work_col_);

  // Incremental dual update from the pivot row (work_rho_ still holds
  // e_r B^-1 of the pre-pivot basis): y' = y + theta * rho with
  // theta = d_q / alpha_q zeroes the entering column's reduced cost and
  // makes y' exactly the dual vector of the updated basis.
  const double theta = entering.d / entering.alpha;
  if (theta != 0.0) {
    for (int i = 0; i < m_; ++i)
      if (work_rho_[i] != 0.0) dual_y_[i] += theta * work_rho_[i];
  }
  ++stats_.dual_updates;

  out.moved = true;
  // Progress is measured by the DUAL step (the entering column's ratio):
  // the dual objective strictly increases iff it is positive. Measuring the
  // primal violation instead masks dual-degenerate cycling, where large
  // violations ping-pong while the dual objective never moves.
  out.step = entering.ratio;
  return out;
}

// ------------------------------------------------------------------- solve

lp_result simplex_solver::solve(const deadline& time_budget, bool warm_start,
                                long iteration_limit) {
  lp_result result;
  const long max_iters =
      iteration_limit >= 0 ? iteration_limit : options_.max_iterations;

  const bool warmed = warm_start && basis_valid_;
  if (!warmed) {
    reset_to_slack_basis();
  } else {
    clamp_nonbasic_to_bounds();
  }
  compute_basic_values();

  long iterations = 0;
  long dual_iterations = 0;
  int pivots_since_refactor = 0;
  int degenerate_run = 0;
  bool bland = false;
  int phase1_retries = 0;
  int dual_aborts = 0;
  long dual_stall = 0;

  enum class mode { dual_method, phase1, phase2 };
  mode state = basic_feasible() ? mode::phase2 : mode::phase1;

  auto repair_basis = [&]() {
    // Singular basis: rebuild from the slack basis and restart the primal
    // from phase 1 (correct, if slow; singularity is rare).
    if (state == mode::dual_method) ++stats_.primal_fallbacks;
    repair_to_slack_basis();
    pivots_since_refactor = 0;
    state = basic_feasible() ? mode::phase2 : mode::phase1;
  };
  auto maybe_refactor = [&]() {
    const refactor_cause cause = refactor_due(pivots_since_refactor);
    if (cause != refactor_cause::none) {
      if (refactorize(cause))
        pivots_since_refactor = 0;
      else
        repair_basis();
    }
  };

  // A warm-started basis after branching keeps its reduced costs, so when
  // primal feasibility broke but dual feasibility survived, the dual
  // simplex re-solves in a handful of pivots.
  if (warmed && state == mode::phase1) {
    for (int p = 0; p < m_; ++p)
      work_cost_[p] = column_cost_phase2(basis_[p]);
    compute_duals(work_cost_, work_row_);
    if (dual_feasible(work_row_)) {
      state = mode::dual_method;
      result.used_dual = true;
      ++stats_.dual_solves;
      // Seed the incrementally maintained duals with the vector just
      // computed for the feasibility check.
      dual_y_ = work_row_;
      dual_y_valid_ = true;
    }
  }

  auto leave_dual = [&](bool count_fallback) {
    if (count_fallback) ++stats_.primal_fallbacks;
    state = basic_feasible() ? mode::phase2 : mode::phase1;
  };

  while (true) {
    if (iterations >= max_iters) {
      result.status = lp_status::iteration_limit;
      break;
    }
    if ((iterations & 63) == 0 && time_budget.expired()) {
      result.status = lp_status::time_limit;
      break;
    }

    auto note_step = [&](double step) {
      if (step <= 1e-11) {
        if (++degenerate_run > degenerate_switch) bland = true;
      } else {
        degenerate_run = 0;
        bland = false;
      }
    };

    if (state == mode::dual_method) {
      const dual_outcome out = dual_iterate();
      ++iterations;
      ++dual_iterations;
      ++stats_.dual_iterations;
      if (out.optimal) {
        // Primal feasibility regained; let the primal phase-2 loop certify
        // optimality (it terminates immediately when no candidate prices).
        state = mode::phase2;
        continue;
      }
      if (out.infeasible) {
        // Dual unboundedness proofs rest on alphas computed through the
        // eta file; accept them only from a fresh factorization so drift
        // cannot falsely prune a feasible branch-and-bound node.
        if (!eta_pos_.empty()) {
          if (refactorize(refactor_cause::infeasibility_proof))
            pivots_since_refactor = 0;
          else
            repair_basis();
          continue;
        }
        result.status = lp_status::infeasible;
        break;
      }
      if (out.aborted) {
        if (refactorize(refactor_cause::dual_abort)) {
          pivots_since_refactor = 0;
          if (++dual_aborts > 2) leave_dual(/*count_fallback=*/true);
        } else {
          repair_basis();
        }
        continue;
      }
      ++pivots_since_refactor;
      maybe_refactor();
      if (out.step <= 1e-11) {
        if (++dual_stall > degenerate_switch)
          leave_dual(/*count_fallback=*/true); // primal Bland breaks the tie
      } else {
        dual_stall = 0;
      }
      continue;
    }

    if (state == mode::phase1) {
      const pivot_outcome out = iterate(true, bland);
      ++iterations;
      ++stats_.primal_iterations;
      if (out.no_candidate) {
        if (infeasibility_sum() >
            feasibility_tolerance * (m_ + 1) * 16.0) {
          result.status = lp_status::infeasible;
          break;
        }
        state = mode::phase2; // residual infeasibility is numerical noise
        continue;
      }
      note_step(out.step);
      ++pivots_since_refactor;
      maybe_refactor();
      if (basic_feasible()) state = mode::phase2;
      continue;
    }

    const pivot_outcome out = iterate(false, bland);
    ++iterations;
    ++stats_.primal_iterations;
    if (out.no_candidate) {
      // Optimal -- but verify primal feasibility survived the arithmetic.
      if (!basic_feasible()) {
        if (++phase1_retries > 3) {
          result.status = lp_status::infeasible;
          break;
        }
        if (refactorize(refactor_cause::phase2_retry)) {
          pivots_since_refactor = 0;
          state = basic_feasible() ? mode::phase2 : mode::phase1;
        } else {
          repair_basis();
        }
        continue;
      }
      result.status = lp_status::optimal;
      break;
    }
    if (out.unbounded) {
      result.status = lp_status::unbounded;
      break;
    }
    note_step(out.step);
    ++pivots_since_refactor;
    maybe_refactor();
  }

  total_iterations_ += iterations;
  result.iterations = iterations;
  result.dual_iterations = dual_iterations;
  result.x.assign(x_.begin(), x_.begin() + n_);
  if (result.status == lp_status::optimal) {
    for (int p = 0; p < m_; ++p) work_cost_[p] = column_cost_phase2(basis_[p]);
    compute_duals(work_cost_, work_row_);
    result.duals = work_row_;
  }
  double objective = 0.0;
  for (int j = 0; j < n_; ++j) objective += problem_.cost[j] * x_[j];
  result.objective = objective;
  return result;
}

} // namespace transtore::milp
