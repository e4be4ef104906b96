// Bounded-variable primal/dual simplex.
//
// The LP engine behind branch and bound. Architecture (see
// src/milp/README.md for the long-form description):
//
//   * primal simplex with a composite phase 1 (basic bound violations are
//     priced with +/-1 costs, no artificial columns) for cold starts and
//     numerical recovery;
//   * dual simplex with a bound-flipping (long-step) two-pass ratio test
//     for warm re-solves after branch-and-bound bound changes, where the
//     previous optimal basis stays dual feasible;
//   * devex reference-weight pricing over a rotating partial-pricing
//     candidate list (Bland's rule as the anti-cycling fallback after a run
//     of degenerate steps);
//   * a basis factorization refreshed by periodic refactorization and kept
//     current between refactorizations by product-form (eta) updates
//     (eta-on-LU). Two engines are available behind `basis_engine`: the
//     default sparse LU (Markowitz pivoting with Suhl threshold partial
//     pivoting, O(m + fill) ftran/btran -- see milp/lu.h) and the dense
//     explicit inverse retained for ablation and as the numerical fallback
//     when a factorization comes out singular.
//
// solve() picks the method automatically: a warm-started basis that lost
// primal feasibility (branching) but kept dual feasibility re-solves with
// the dual method; everything else goes through the primal path. All
// tie-breaking is by lowest index and all decisions are seed/time
// independent, so repeated solves are bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stopwatch.h"
#include "milp/lp.h"
#include "milp/lu.h"

namespace transtore::milp {

/// Basis-inverse representation. sparse_lu is the default; dense keeps the
/// explicit m x m inverse (the seed representation, O(m^2) per solve step
/// and O(m^2) memory -- viable only to ~2500 rows).
enum class basis_engine : unsigned char { dense, sparse_lu };

/// Tunables for one simplex solve.
struct simplex_options {
  long max_iterations = 200000;
  /// Basis-inverse representation. The dense engine remains the numerical
  /// fallback: a singular sparse LU factorization retries densely before
  /// the slack-basis repair.
  basis_engine engine = basis_engine::sparse_lu;
};

/// Cumulative counters across all solves of one simplex_solver.
struct simplex_stats {
  long primal_iterations = 0;
  long dual_iterations = 0;
  long dual_bound_flips = 0;  // nonbasic flips taken by the dual ratio test
  long refactorizations = 0; // sum of the refactor_* causes below
  long dual_solves = 0;       // solves that entered the dual method
  long dual_updates = 0;      // incremental dual (y) updates from pivot rows
  long dual_recomputes = 0;   // full dual recomputations (btran) in the dual
  long primal_fallbacks = 0;  // dual aborts recovered by the primal path
  long lu_factorizations = 0; // successful sparse LU factorizations
  long dense_fallbacks = 0;   // singular LU repaired by the dense engine

  // Refactorizations by cause; exactly one is counted per refactorization.
  long refactor_eta_fill = 0;    // eta file outgrew its nonzero cap
  long refactor_interval = 0;    // 200 pivots or etas since the last one
  long refactor_infeasibility_proof = 0; // fresh factors for a dual proof
  long refactor_dual_abort = 0;  // ftran'd pivot disagreed with the row
  long refactor_phase2_retry = 0; // "optimal" basis lost primal feasibility
  long refactor_load_basis = 0;  // caller-installed basis (load_basis)
  long refactor_slack_reset = 0; // singular basis repaired to the slack basis
};

/// Stateful solver: keeps the basis between solves so that branch-and-bound
/// can warm start after bound changes.
class simplex_solver {
public:
  explicit simplex_solver(const lp_problem& problem,
                          simplex_options options = {});

  /// Replace the bounds of structural variable `var` (branching).
  void set_variable_bounds(int var, double lower, double upper);

  [[nodiscard]] double variable_lower(int var) const;
  [[nodiscard]] double variable_upper(int var) const;

  /// Solve from the current basis when `warm_start` is true (and a basis
  /// exists), otherwise from the all-slack basis. `iteration_limit`
  /// overrides options.max_iterations when >= 0 (strong-branching probes).
  lp_result solve(const deadline& time_budget, bool warm_start,
                  long iteration_limit = -1);

  /// Install a caller-specified basis (column indices in [0, n+m), one per
  /// row, slack column for row i being n+i) and refactorize. Nonbasic
  /// columns are parked at their nearest bound, except those listed in
  /// `at_upper_columns`, which are parked at their upper bound -- passing
  /// the previous solver's upper-parked set preserves dual feasibility
  /// across a row-append rebuild (the cut-loop warm start). Returns false
  /// when the requested basis is singular -- the solver then repairs itself
  /// by falling back to the slack basis, so it stays usable either way.
  bool load_basis(const std::vector<int>& basic_columns,
                  const std::vector<int>& at_upper_columns = {});

  /// Number of rows (basis dimension).
  [[nodiscard]] int rows() const { return m_; }

  // --- read-only basis/solution accessors (cut separation, basis export).
  /// Column basic at each basis position (size rows()).
  [[nodiscard]] const std::vector<int>& basic_columns() const { return basis_; }
  [[nodiscard]] bool column_is_basic(int column) const {
    return basic_position_[static_cast<std::size_t>(column)] >= 0;
  }
  /// True for a nonbasic column parked at its upper bound.
  [[nodiscard]] bool column_at_upper(int column) const {
    return status_[static_cast<std::size_t>(column)] == status::at_upper;
  }
  /// True for a nonbasic free column (parked at zero).
  [[nodiscard]] bool column_is_free(int column) const {
    return status_[static_cast<std::size_t>(column)] == status::free_zero;
  }
  /// Current value / bounds of any column (structural or slack).
  [[nodiscard]] double column_value(int column) const {
    return x_[static_cast<std::size_t>(column)];
  }
  [[nodiscard]] double column_lower(int column) const {
    return lower_[static_cast<std::size_t>(column)];
  }
  [[nodiscard]] double column_upper(int column) const {
    return upper_[static_cast<std::size_t>(column)];
  }
  /// Tableau row of basis position p: alpha[j] = (e_p B^-1 A)_j for every
  /// column j in [0, n+m) (slack column n+i contributes -e_i). Used by the
  /// Gomory separator; O(m + nnz(A)) via one btran.
  void tableau_row(int position, std::vector<double>& alpha) const;

  [[nodiscard]] const simplex_stats& stats() const { return stats_; }

private:
  enum class status : unsigned char { basic, at_lower, at_upper, free_zero };

  // Problem data (bounds are mutable copies; matrix/cost are fixed).
  const lp_problem& problem_;
  simplex_options options_;
  int n_ = 0; // structural columns
  int m_ = 0; // rows == slack columns == basis size
  std::vector<double> lower_; // size n_ + m_ (structural then slack bounds)
  std::vector<double> upper_;

  // Simplex state.
  std::vector<int> basis_;          // size m_: column basic at each position
  std::vector<int> basic_position_; // size n_+m_: position in basis_ or -1
  std::vector<status> status_;      // size n_+m_
  std::vector<double> x_;           // size n_+m_: current values
  bool basis_valid_ = false;
  long total_iterations_ = 0;
  simplex_stats stats_;

  // Basis inverse representation at the last refactorization -- either the
  // sparse LU factors (lu_) or the dense explicit B0^-1 (binv_, row-major
  // m_ x m_, row p = basis position p; allocated lazily, only when the
  // dense representation is actually in use) -- composed with a
  // product-form eta file for pivots since then. dense_active_ names the
  // representation currently backing the solves: under the sparse_lu
  // engine it flips to true for one refactorization cycle when the LU came
  // out singular but the dense inverse did not (numerical fallback).
  basis_lu lu_;
  std::vector<double> binv_;
  bool dense_active_ = false;
  // The basis columns handed to lu_, in compressed sparse column form
  // (rebuilt in place at every refactorization).
  std::vector<int> basis_start_;
  std::vector<int> basis_row_;
  std::vector<double> basis_value_;
  // Product-form eta file, flat: eta k replaces basis position eta_pos_[k]
  // with a spike whose pivot entry is eta_pivot_[k] and whose other
  // nonzeros are [eta_start_[k], eta_start_[k+1]) of eta_index_ (basis
  // position) / eta_value_.
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_start_{0};
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;

  // Devex pricing state.
  std::vector<double> devex_weight_; // size n_+m_
  std::vector<int> candidates_;      // partial-pricing candidate list
  int pricing_cursor_ = 0;

  // Incrementally maintained phase-2 duals for the dual simplex: updated
  // from the pivot row (y += theta * rho) instead of a full btran each
  // iteration, and recomputed from scratch whenever the factorization or
  // the basis changes outside the dual loop (refactorization, primal
  // pivots, slack reset, load_basis).
  std::vector<double> dual_y_;
  bool dual_y_valid_ = false;

  // Scratch buffers.
  std::vector<double> work_col_;  // w = B^-1 a_j
  std::vector<double> work_row_;  // y = c_B B^-1 (constraint-row space)
  std::vector<double> work_cost_; // phase-dependent basic costs
  std::vector<double> work_rho_;  // pivot row e_r B^-1
  mutable std::vector<double> work_pos_; // position-space scratch (const helpers)
  mutable std::vector<double> work_rhs_; // row-space scratch, kept all-zero

  [[nodiscard]] int total_columns() const { return n_ + m_; }

  /// Why a refactorization happens (simplex_stats counts each).
  enum class refactor_cause : unsigned char {
    none,
    eta_fill,
    interval,
    infeasibility_proof,
    dual_abort,
    phase2_retry,
    load_basis,
  };

  void reset_to_slack_basis();
  /// Repair after a singular refactorization: slack basis, fresh values.
  void repair_to_slack_basis();
  void clamp_nonbasic_to_bounds();
  void compute_basic_values();
  /// Rebuilds the basis factorization from the current basis; false when
  /// the basis is (numerically) singular under every available engine --
  /// the caller must repair, e.g. by resetting to the slack basis.
  [[nodiscard]] bool refactorize(refactor_cause cause);
  /// Engine-dispatched rebuild without the eta/statistics bookkeeping.
  [[nodiscard]] bool build_base_inverse();
  /// Load the current basis columns into basis_start_/row_/value_.
  void gather_basis_columns();
  void clear_etas();
  /// Eta-file nonzeros: off-pivot entries plus one pivot per eta.
  [[nodiscard]] std::size_t eta_nonzeros() const {
    return eta_index_.size() + eta_pos_.size();
  }
  [[nodiscard]] bool dense_refactorize();

  // Basis-inverse application helpers. base_* applies the representation of
  // the last refactorization (LU factors or dense inverse); the public
  // ftran/btran compose it with the eta file.
  void apply_etas_ftran(std::vector<double>& v) const;
  void apply_etas_btran(std::vector<double>& z) const;
  void base_ftran(const std::vector<double>& rhs, std::vector<double>& v) const;
  void base_btran(const std::vector<double>& z, std::vector<double>& y) const;
  void dense_ftran(const std::vector<double>& rhs, std::vector<double>& v) const;
  void dense_btran(const std::vector<double>& z, std::vector<double>& y) const;
  void ftran(int column, std::vector<double>& w) const; // w = B^-1 a_col
  void btran_row(int position, std::vector<double>& rho) const; // e_r B^-1
  void record_basis_update(int leaving_pos, double pivot_element,
                           const std::vector<double>& w);
  [[nodiscard]] refactor_cause refactor_due(int pivots_since_refactor) const;

  void compute_duals(const std::vector<double>& basic_cost,
                     std::vector<double>& y) const;
  [[nodiscard]] double reduced_cost(int column,
                                    const std::vector<double>& y) const;
  [[nodiscard]] double column_dot(int column,
                                  const std::vector<double>& y) const;
  [[nodiscard]] double column_cost_phase2(int column) const;

  [[nodiscard]] double infeasibility_sum() const;
  [[nodiscard]] bool basic_feasible() const;
  [[nodiscard]] bool dual_feasible(const std::vector<double>& y) const;

  // Pricing.
  struct entering_choice {
    int column = -1;
    int direction = 0;
  };
  [[nodiscard]] double pricing_violation(int column, double reduced,
                                         int& direction) const;
  /// Bland's anti-cycling rule: the lowest-index attractive column.
  entering_choice price_bland(bool phase1, const std::vector<double>& y);
  entering_choice price_devex(bool phase1, const std::vector<double>& y);
  void refill_candidates(bool phase1, const std::vector<double>& y);
  void update_devex_weights(int entering, int leaving_pos,
                            double pivot_element);
  void reset_devex();

  struct pivot_outcome {
    bool moved = false;        // any progress (step or bound flip)
    bool no_candidate = false; // no improving entering column
    bool unbounded = false;
    double step = 0.0;         // step length taken (0 => degenerate pivot)
  };
  /// One primal simplex iteration; phase1 selects the infeasibility
  /// objective.
  pivot_outcome iterate(bool phase1, bool bland);

  void apply_pivot(int entering, int direction, double step, int leaving_pos,
                   double pivot_element, const std::vector<double>& w,
                   bool leaving_to_upper);

  struct dual_outcome {
    bool moved = false;      // performed a pivot (possibly with flips)
    bool optimal = false;    // no primal-infeasible basic variable remains
    bool infeasible = false; // dual unbounded => primal infeasible
    bool aborted = false;    // numerical trouble: fall back to primal
    double step = 0.0;       // dual step taken (0 => dual-degenerate pivot)
  };
  /// One dual simplex iteration (leaving-row selection, bound-flipping
  /// two-pass ratio test, pivot).
  dual_outcome dual_iterate();
};

} // namespace transtore::milp
