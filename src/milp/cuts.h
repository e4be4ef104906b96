// Cutting-plane separation for the MILP solver's root node.
//
// Two families of globally valid cuts over the structural variables:
//
//   * Gomory mixed-integer (GMI) cuts, read off the optimal root basis: for
//     each basic integer variable with fractional value, the tableau row
//     (one btran through the sparse LU) is shifted to the nonbasic bounds,
//     the GMI formula applied per column (integer vs continuous, with slack
//     columns expanded back through their defining rows), and the result
//     expressed over structural variables only -- so the cut stays valid
//     for every node of the tree;
//   * knapsack cover cuts: single-sided rows are relaxed to 0/1 knapsacks
//     (non-binary terms replaced by their worst-case activity, negative
//     binary coefficients complemented) and violated minimal covers found
//     by the classic greedy separation.
//
// The `cut_generator` owns the pool: per round it separates at the current
// fractional point, filters candidates by violation, efficacy and pairwise
// parallelism (deterministically ordered), appends survivors as rows of an
// extended lp_problem, and ages/purges pooled cuts whose slack went idle.
// The caller (solver.cpp) rebuilds the simplex over `current()` and warm
// starts via load_basis -- the previous basis plus the new cut slacks is
// dual feasible, so each round re-solves with a handful of dual pivots.
#pragma once

#include <vector>

#include "milp/lp.h"
#include "milp/simplex.h"

namespace transtore::milp {

/// One cut: sum_j terms_j * x_j >= lower over structural variables.
struct cut {
  std::vector<std::pair<int, double>> terms; // (variable, coefficient), sorted
  double lower = 0.0;
  int age = 0;          // consecutive rounds with a strictly slack row
  const char* kind = ""; // "gomory" | "cover"
};

struct cut_stats {
  int rounds = 0;
  int gomory_generated = 0; // candidates produced (pre-filter)
  int cover_generated = 0;
  int added = 0;            // cut rows appended across all rounds
  int purged = 0;           // aged-out rows removed again
};

class cut_generator {
public:
  /// `base` must stay alive for the generator's lifetime.
  cut_generator(const lp_problem& base, std::vector<bool> is_integer);

  /// The base problem extended by the active cuts (base rows first, cut
  /// rows after, in pool order).
  [[nodiscard]] const lp_problem& current() const { return extended_; }
  [[nodiscard]] int active_cuts() const {
    return static_cast<int>(pool_.size());
  }
  [[nodiscard]] const std::vector<cut>& pool() const { return pool_; }
  [[nodiscard]] const cut_stats& stats() const { return stats_; }

  /// One separation round at the solver's current (optimal) point. Ages and
  /// purges idle pooled cuts, separates new ones, and rebuilds `current()`.
  /// Returns true when the extended problem changed (cuts added or purged)
  /// -- the caller must then rebuild its simplex over `current()`. The
  /// deadline is polled between source rows so cancellation interrupts a
  /// round in progress.
  bool round(const simplex_solver& solver, const deadline& time_budget);

  /// Basis mapping for the caller's warm start after `round()` returned
  /// true: given the pre-round basis (columns of the pre-round extended
  /// problem), returns the corresponding basis of the new extended problem
  /// -- surviving columns renumbered, purged cut slacks dropped, new cut
  /// slacks appended basic. `at_upper` is filled with the renumbered
  /// nonbasic-at-upper set read from the solver.
  [[nodiscard]] std::vector<int> remap_basis(const simplex_solver& solver,
                                             std::vector<int>& at_upper) const;

private:
  struct candidate {
    cut c;
    double violation = 0.0;
    double efficacy = 0.0;
    double norm = 1.0;
  };

  void separate_gomory(const simplex_solver& solver,
                       const deadline& time_budget,
                       std::vector<candidate>& out) const;
  void separate_covers(const std::vector<double>& x,
                       std::vector<candidate>& out) const;
  [[nodiscard]] bool finalize_candidate(candidate& cand,
                                        const std::vector<double>& x) const;
  void rebuild_extended();

  const lp_problem& base_;
  std::vector<bool> is_integer_;
  lp_problem extended_;
  std::vector<cut> pool_;
  cut_stats stats_;
  /// Base-row slack integrality (integer coefficients over integer columns
  /// and integral row bounds): such slacks take the integer GMI coefficient.
  std::vector<bool> slack_integer_;
  /// Row-wise view of the base rows for slack expansion and cover cuts.
  std::vector<row_terms> base_rows_;
  /// Scratch mapping of pre-round extended rows to post-round rows
  /// (base rows identity; purged cut rows -1), rebuilt by round().
  std::vector<int> row_map_;
};

} // namespace transtore::milp
