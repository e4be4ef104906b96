// Unit and property tests for the MILP substrate: model building, the
// bounded-variable simplex (through milp::solve on pure LPs), and branch and
// bound on integer programs with known optima.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assay/benchmarks.h"
#include "common/prng.h"
#include "milp/cuts.h"
#include "milp/lu.h"
#include "milp/model.h"
#include "milp/presolve.h"
#include "milp/simplex.h"
#include "milp/solver.h"
#include "sched/ilp_scheduler.h"
#include "sched/list_scheduler.h"

namespace transtore::milp {
namespace {

solver_options quick_options() {
  solver_options o;
  // A safety net, not a budget: every solve asserted optimal below closes in
  // well under a second in Release. The headroom is for sanitizer builds --
  // ThreadSanitizer's ~10x slowdown blew a 30 s limit on the weakest
  // formulation of FormulationStrengtheningPreservesTheOptimum.
  o.time_limit_seconds = 180.0;
  return o;
}

TEST(Model, VariableAndConstraintBookkeeping) {
  model m;
  const variable x = m.add_continuous(0, 10, "x");
  const variable y = m.add_binary("y");
  const variable z = m.add_integer(-5, 5, "z");
  EXPECT_EQ(m.variable_count(), 3);
  EXPECT_EQ(m.integer_variable_count(), 2);
  EXPECT_EQ(m.variable_at(x.index).name, "x");
  EXPECT_EQ(m.variable_at(y.index).upper, 1.0);
  EXPECT_EQ(m.variable_at(z.index).lower, -5.0);

  m.add_constraint(linear_expr(x) + 2.0 * y, cmp::less_equal, 4.0, "r0");
  EXPECT_EQ(m.constraint_count(), 1);
  EXPECT_EQ(m.constraint_at(0).terms.size(), 2u);
}

TEST(Model, BinaryBoundsAreForced) {
  model m;
  const variable b = m.add_variable(var_kind::binary, -4, 9, "b");
  EXPECT_EQ(m.variable_at(b.index).lower, 0.0);
  EXPECT_EQ(m.variable_at(b.index).upper, 1.0);
}

TEST(Model, CrossingBoundsRejected) {
  model m;
  EXPECT_THROW(m.add_continuous(3, 2), invalid_input_error);
}

TEST(Model, ConstantsFoldIntoRhs) {
  model m;
  const variable x = m.add_continuous(0, 10, "x");
  // x + 3 <= 7  =>  x <= 4
  m.add_constraint(linear_expr(x) + 3.0, cmp::less_equal, 7.0);
  m.set_objective(-1.0 * x, objective_sense::minimize); // maximize x
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.value(x), 4.0, 1e-6);
}

TEST(Model, FeasibilityChecker) {
  model m;
  const variable x = m.add_integer(0, 5, "x");
  m.add_constraint(linear_expr(x), cmp::greater_equal, 2.0);
  EXPECT_TRUE(m.is_feasible({3.0}));
  EXPECT_FALSE(m.is_feasible({1.0}));  // violates row
  EXPECT_FALSE(m.is_feasible({2.5})); // violates integrality
  EXPECT_FALSE(m.is_feasible({6.0})); // violates bound
}

TEST(Expr, OperatorAlgebra) {
  model m;
  const variable x = m.add_continuous(0, 1, "x");
  const variable y = m.add_continuous(0, 1, "y");
  linear_expr e = 2.0 * x + y - 3.0;
  e += 0.5 * y;
  e *= 2.0;
  EXPECT_DOUBLE_EQ(e.constant(), -6.0);
  EXPECT_DOUBLE_EQ(e.terms().at(x.index), 4.0);
  EXPECT_DOUBLE_EQ(e.terms().at(y.index), 3.0);
  const linear_expr neg = -e;
  EXPECT_DOUBLE_EQ(neg.constant(), 6.0);
  EXPECT_DOUBLE_EQ(neg.terms().at(x.index), -4.0);
}

// ---------------------------------------------------------------- pure LPs

TEST(Lp, TwoVariableOptimum) {
  // maximize 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0), obj 12.
  model m;
  const variable x = m.add_continuous(0, infinity, "x");
  const variable y = m.add_continuous(0, infinity, "y");
  m.add_constraint(linear_expr(x) + y, cmp::less_equal, 4);
  m.add_constraint(linear_expr(x) + 3.0 * y, cmp::less_equal, 6);
  m.set_objective(3.0 * x + 2.0 * y, objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.value(x), 4.0, 1e-6);
  EXPECT_NEAR(s.value(y), 0.0, 1e-6);
}

TEST(Lp, EqualityConstraint) {
  // minimize x + y st x + 2y = 3, 0 <= x,y <= 10 -> y=1.5, x=0, obj 1.5.
  model m;
  const variable x = m.add_continuous(0, 10, "x");
  const variable y = m.add_continuous(0, 10, "y");
  m.add_constraint(linear_expr(x) + 2.0 * y, cmp::equal, 3);
  m.set_objective(linear_expr(x) + y, objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-6);
}

TEST(Lp, RangeConstraint) {
  model m;
  const variable x = m.add_continuous(0, 100, "x");
  m.add_range_constraint(linear_expr(x), 5.0, 8.0);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.value(x), 5.0, 1e-6);
}

TEST(Lp, NegativeLowerBounds) {
  // minimize x st x >= -7 (bound), x >= -3 (row). Optimum -3.
  model m;
  const variable x = m.add_continuous(-7, 7, "x");
  m.add_constraint(linear_expr(x), cmp::greater_equal, -3);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-6);
}

TEST(Lp, FreeVariable) {
  // minimize y st y >= x - 4, y >= -x, x free in [-inf, inf].
  // Optimum at x = 2, y = -2.
  model m;
  const variable x = m.add_continuous(-infinity, infinity, "x");
  const variable y = m.add_continuous(-infinity, infinity, "y");
  m.add_constraint(linear_expr(y) - x, cmp::greater_equal, -4);
  m.add_constraint(linear_expr(y) + x, cmp::greater_equal, 0);
  m.set_objective(linear_expr(y), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-6);
  EXPECT_NEAR(s.value(x), 2.0, 1e-6);
}

TEST(Lp, InfeasibleDetected) {
  model m;
  const variable x = m.add_continuous(0, 1, "x");
  m.add_constraint(linear_expr(x), cmp::greater_equal, 2);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  EXPECT_EQ(s.status, solve_status::infeasible);
}

TEST(Lp, InfeasibleByConflictingRows) {
  model m;
  const variable x = m.add_continuous(-100, 100, "x");
  const variable y = m.add_continuous(-100, 100, "y");
  m.add_constraint(linear_expr(x) + y, cmp::greater_equal, 10);
  m.add_constraint(linear_expr(x) + y, cmp::less_equal, 5);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  EXPECT_EQ(s.status, solve_status::infeasible);
}

TEST(Lp, UnboundedDetected) {
  model m;
  const variable x = m.add_continuous(0, infinity, "x");
  m.set_objective(linear_expr(x), objective_sense::maximize);
  const solution s = solve(m, quick_options());
  EXPECT_EQ(s.status, solve_status::unbounded);
}

TEST(Lp, DegenerateProblemTerminates) {
  // Many redundant constraints through the optimum: classic degeneracy.
  model m;
  const variable x = m.add_continuous(0, infinity, "x");
  const variable y = m.add_continuous(0, infinity, "y");
  for (int k = 1; k <= 12; ++k)
    m.add_constraint(static_cast<double>(k) * x + static_cast<double>(k) * y,
                     cmp::less_equal, 10.0 * k);
  m.set_objective(linear_expr(x) + y, objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-6);
}

// ----------------------------------------------------------------- MILPs

TEST(Milp, KnapsackSmall) {
  // Classic 0-1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50.
  // Optimum: items 2+3 = 220.
  model m;
  const variable a = m.add_binary("a");
  const variable b = m.add_binary("b");
  const variable c = m.add_binary("c");
  m.add_constraint(10.0 * a + 20.0 * b + 30.0 * c, cmp::less_equal, 50);
  m.set_objective(60.0 * a + 100.0 * b + 120.0 * c, objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);
  EXPECT_NEAR(s.value(a), 0.0, 1e-6);
  EXPECT_NEAR(s.value(b), 1.0, 1e-6);
  EXPECT_NEAR(s.value(c), 1.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // maximize x st 2x <= 7, x integer -> 3 (LP gives 3.5).
  model m;
  const variable x = m.add_integer(0, 100, "x");
  m.add_constraint(2.0 * x, cmp::less_equal, 7);
  m.set_objective(linear_expr(x), objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(Milp, AssignmentProblemIsIntegral) {
  // 3x3 assignment; costs chosen so the optimum is the anti-diagonal.
  const double cost[3][3] = {{5, 4, 1}, {6, 2, 7}, {1, 8, 9}};
  model m;
  variable x[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) x[i][j] = m.add_binary();
  for (int i = 0; i < 3; ++i) {
    linear_expr row_sum, col_sum;
    for (int j = 0; j < 3; ++j) {
      row_sum += x[i][j];
      col_sum += x[j][i];
    }
    m.add_constraint(row_sum, cmp::equal, 1);
    m.add_constraint(col_sum, cmp::equal, 1);
  }
  linear_expr obj;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) obj += cost[i][j] * x[i][j];
  m.set_objective(obj, objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 1 + 2 + 1, 1e-6); // x02 + x11 + x20
}

TEST(Milp, BigMDisjunction) {
  // Either x <= 2 or x >= 8, pick the cheaper side of cost |x - 6|-ish:
  // minimize x with x >= 8 - M*(1-b), x <= 2 + M*b is SAT by b=0, x in [0,2].
  model m;
  const double big_m = 1000.0;
  const variable x = m.add_continuous(0, 10, "x");
  const variable b = m.add_binary("b");
  m.add_constraint(linear_expr(x) + big_m * b, cmp::greater_equal, 8.0);
  m.add_constraint(linear_expr(x) - big_m * (1.0 - b) * 1.0, cmp::less_equal,
                   2.0);
  // b=0 forces x >= 8; b=1 forces x <= 2. minimize x -> b=1, x=0.
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-6);
  EXPECT_NEAR(s.value(b), 1.0, 1e-6);
}

TEST(Milp, InfeasibleIntegerProgram) {
  // 2 <= 2x <= 3 has no integer solution but a fractional one.
  model m;
  const variable x = m.add_integer(0, 10, "x");
  m.add_range_constraint(2.0 * x, 2.9, 3.1);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  EXPECT_EQ(s.status, solve_status::infeasible);
}

TEST(Milp, WarmStartAcceptedAndImproved) {
  model m;
  const variable x = m.add_integer(0, 10, "x");
  m.add_constraint(2.0 * x, cmp::less_equal, 7);
  m.set_objective(linear_expr(x), objective_sense::maximize);
  solver_options o = quick_options();
  o.warm_start = std::vector<double>{1.0}; // feasible but suboptimal
  const solution s = solve(m, o);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(Milp, RejectedWarmStartIsIgnored) {
  model m;
  const variable x = m.add_integer(0, 3, "x");
  m.add_constraint(linear_expr(x), cmp::greater_equal, 1);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  solver_options o = quick_options();
  o.warm_start = std::vector<double>{9.0}; // violates bound
  const solution s = solve(m, o);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Milp, EqualityWithIntegers) {
  // 3x + 5y = 19, x,y >= 0 integer -> (3,2). Minimize x.
  model m;
  const variable x = m.add_integer(0, 100, "x");
  const variable y = m.add_integer(0, 100, "y");
  m.add_constraint(3.0 * x + 5.0 * y, cmp::equal, 19);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.value(x), 3.0, 1e-6);
  EXPECT_NEAR(s.value(y), 2.0, 1e-6);
}

TEST(Milp, TimeLimitReturnsBestEffort) {
  // A knapsack big enough not to finish in ~0 seconds, with a warm start:
  // the solver must return the incumbent, not fail.
  model m;
  prng r(123);
  std::vector<variable> xs;
  linear_expr weight, value;
  std::vector<double> zeros;
  for (int i = 0; i < 60; ++i) {
    xs.push_back(m.add_binary());
    weight += static_cast<double>(r.uniform_int(10, 40)) * xs.back();
    value += (static_cast<double>(r.uniform_int(10, 40)) + 0.1 * i) * xs.back();
    zeros.push_back(0.0);
  }
  m.add_constraint(weight, cmp::less_equal, 200);
  m.set_objective(value, objective_sense::maximize);
  solver_options o;
  o.time_limit_seconds = 0.05;
  o.warm_start = zeros;
  const solution s = solve(m, o);
  EXPECT_TRUE(s.status == solve_status::optimal ||
              s.status == solve_status::feasible);
  EXPECT_GE(s.objective, 0.0);
}

TEST(Milp, RootPropagationProvesInfeasibility) {
  // x + y >= 10 with x,y in [0,4] is infeasible by interval arithmetic alone:
  // presolve, or the root propagation pass that replaces it when presolve is
  // off, proves it before any node is explored.
  model m;
  const variable x = m.add_integer(0, 4, "x");
  const variable y = m.add_integer(0, 4, "y");
  m.add_constraint(linear_expr(x) + y, cmp::greater_equal, 10);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  for (const bool presolve : {true, false}) {
    SCOPED_TRACE(presolve);
    solver_options o = quick_options();
    o.presolve = presolve;
    const solution s = solve(m, o);
    EXPECT_EQ(s.status, solve_status::infeasible);
    EXPECT_EQ(s.nodes_explored, 0);
  }
}

TEST(Milp, GapIsZeroWhenOptimal) {
  model m;
  const variable x = m.add_integer(0, 5, "x");
  m.set_objective(linear_expr(x), objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_LE(s.gap(), 1e-6);
  EXPECT_NEAR(s.best_bound, s.objective, 1e-6);
}

// ------------------------------------------------- simplex engine (LP level)

namespace {

/// Random bounded LP in computational form: all variables boxed, rows
/// `lo <= a'x <= hi` with x = 0 feasible. Deterministic in `seed`.
lp_problem random_bounded_lp(std::uint64_t seed, int nvars, int nrows) {
  prng r(seed);
  lp_problem p;
  p.num_vars = nvars;
  p.num_rows = nrows;
  p.cost.resize(nvars);
  p.lower.assign(nvars, 0.0);
  p.upper.resize(nvars);
  for (int j = 0; j < nvars; ++j) {
    p.cost[j] = static_cast<double>(r.uniform_int(-10, 10));
    p.upper[j] = static_cast<double>(r.uniform_int(1, 12));
  }
  // Build CSC column by column.
  p.col_start.assign(nvars + 1, 0);
  std::vector<std::vector<std::pair<int, double>>> cols(nvars);
  for (int i = 0; i < nrows; ++i) {
    bool any = false;
    for (int j = 0; j < nvars; ++j) {
      if (!r.bernoulli(0.5)) continue;
      const double coeff = static_cast<double>(r.uniform_int(-5, 5));
      if (coeff == 0.0) continue;
      cols[j].emplace_back(i, coeff);
      any = true;
    }
    if (!any) cols[0].emplace_back(i, 1.0);
    p.row_lower.push_back(-static_cast<double>(r.uniform_int(5, 60)));
    p.row_upper.push_back(static_cast<double>(r.uniform_int(5, 60)));
  }
  for (int j = 0; j < nvars; ++j)
    p.col_start[j + 1] = p.col_start[j] + static_cast<int>(cols[j].size());
  for (int j = 0; j < nvars; ++j)
    for (const auto& [row, coeff] : cols[j]) {
      p.row_index.push_back(row);
      p.value.push_back(coeff);
    }
  return p;
}

} // namespace

TEST(Simplex, DualWarmStartMatchesPrimalOnRandomBoundedLps) {
  // After a branching-style bound change, the dual re-solve must reach the
  // same objective as a cold solve of the modified problem, which always
  // runs the primal method from the slack basis.
  const deadline no_limit(0.0);
  long dual_solves_seen = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    prng r(seed * 7919);
    const int nvars = static_cast<int>(r.uniform_int(3, 10));
    const int nrows = static_cast<int>(r.uniform_int(2, 8));
    lp_problem p = random_bounded_lp(seed, nvars, nrows);

    simplex_solver warm(p, simplex_options{});
    const lp_result root = warm.solve(no_limit, /*warm_start=*/false);
    ASSERT_EQ(root.status, lp_status::optimal) << "seed " << seed;

    // Tighten variable boxes through the LP optimum (what branching does):
    // cutting below a variable's optimal value breaks primal feasibility
    // of the basis while leaving it dual feasible -- the dual re-solve
    // pattern.
    int tightened_vars = 0;
    for (int var = 0; var < nvars && tightened_vars < 2; ++var) {
      const double at = root.x[static_cast<std::size_t>(var)];
      if (at <= warm.variable_lower(var) + 0.5) continue;
      const double cut = std::max(warm.variable_lower(var),
                                  std::ceil(at) - 1.0);
      warm.set_variable_bounds(var, warm.variable_lower(var), cut);
      ++tightened_vars;
    }
    const lp_result resolved = warm.solve(no_limit, /*warm_start=*/true);
    if (resolved.used_dual) ++dual_solves_seen;

    lp_problem tightened = p;
    for (int j = 0; j < nvars; ++j) {
      tightened.lower[j] = warm.variable_lower(j);
      tightened.upper[j] = warm.variable_upper(j);
    }
    simplex_solver reference(tightened, simplex_options{});
    const lp_result expected = reference.solve(no_limit, false);
    EXPECT_FALSE(expected.used_dual) << "seed " << seed;

    ASSERT_EQ(resolved.status, expected.status) << "seed " << seed;
    if (expected.status == lp_status::optimal) {
      EXPECT_NEAR(resolved.objective, expected.objective, 1e-5)
          << "seed " << seed;
    }
  }
  // The sweep must actually exercise the dual path, not just fall back.
  EXPECT_GT(dual_solves_seen, 10);
}

TEST(Simplex, DualRatioTestBoundFlip) {
  // minimize x1 + 3 x2 + 0 x3  st  x1 + x2 + x3 >= 10,
  // x1 in [0,1], x2,x3 in [0,20]. The root optimum is x3 = 10 (basic).
  // Branching x3 <= 4 leaves a dual-feasible basis with x3 six units above
  // its new upper bound; the dual ratio test must FLIP x1 (range 1 cannot
  // absorb the infeasibility) and then enter x2: x = (1, 5, 4), cost 16.
  lp_problem p;
  p.num_vars = 3;
  p.num_rows = 1;
  p.cost = {1.0, 3.0, 0.0};
  p.lower = {0.0, 0.0, 0.0};
  p.upper = {1.0, 20.0, 20.0};
  p.row_lower = {10.0};
  p.row_upper = {std::numeric_limits<double>::infinity()};
  p.col_start = {0, 1, 2, 3};
  p.row_index = {0, 0, 0};
  p.value = {1.0, 1.0, 1.0};

  const deadline no_limit(0.0);
  simplex_solver solver(p, simplex_options{});
  const lp_result root = solver.solve(no_limit, false);
  ASSERT_EQ(root.status, lp_status::optimal);
  EXPECT_NEAR(root.objective, 0.0, 1e-9);
  EXPECT_NEAR(root.x[2], 10.0, 1e-9);

  solver.set_variable_bounds(2, 0.0, 4.0);
  const lp_result resolved = solver.solve(no_limit, /*warm_start=*/true);
  ASSERT_EQ(resolved.status, lp_status::optimal);
  EXPECT_TRUE(resolved.used_dual);
  EXPECT_GE(solver.stats().dual_bound_flips, 1);
  EXPECT_NEAR(resolved.objective, 16.0, 1e-7);
  EXPECT_NEAR(resolved.x[0], 1.0, 1e-7);
  EXPECT_NEAR(resolved.x[1], 5.0, 1e-7);
  EXPECT_NEAR(resolved.x[2], 4.0, 1e-7);
}

TEST(Simplex, DualDetectsInfeasibleBoundChange) {
  // x1 + x2 >= 5 with both boxes shrunk to [0,1] is infeasible; the dual
  // re-solve must prove it (dual unbounded), matching the primal verdict.
  lp_problem p;
  p.num_vars = 2;
  p.num_rows = 1;
  p.cost = {-1.0, 1.0};
  p.lower = {0.0, 0.0};
  p.upper = {10.0, 10.0};
  p.row_lower = {5.0};
  p.row_upper = {std::numeric_limits<double>::infinity()};
  p.col_start = {0, 1, 2};
  p.row_index = {0, 0};
  p.value = {1.0, 1.0};

  const deadline no_limit(0.0);
  simplex_solver solver(p, simplex_options{});
  ASSERT_EQ(solver.solve(no_limit, false).status, lp_status::optimal);
  solver.set_variable_bounds(0, 0.0, 1.0);
  solver.set_variable_bounds(1, 0.0, 1.0);
  EXPECT_EQ(solver.solve(no_limit, true).status, lp_status::infeasible);
}

TEST(Simplex, RepeatedSolvesAreBitIdentical) {
  // Two fresh solvers over the same problem must take the exact same
  // pivots: equal iteration counts and bit-identical objectives.
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    lp_problem p = random_bounded_lp(seed, 8, 6);
    const deadline no_limit(0.0);
    simplex_solver a(p, simplex_options{});
    simplex_solver b(p, simplex_options{});
    const lp_result ra = a.solve(no_limit, false);
    const lp_result rb = b.solve(no_limit, false);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.objective, rb.objective); // bit-identical, not just close
    EXPECT_EQ(ra.x, rb.x);
  }
}

TEST(Milp, BranchAndBoundIsDeterministic) {
  // Two consecutive full solves: same incumbent, node count, and iteration
  // counts (covers dual re-solves, devex pricing, and pseudocost probes).
  model m;
  prng r(77);
  std::vector<variable> xs;
  linear_expr weight, value;
  for (int i = 0; i < 22; ++i) {
    xs.push_back(m.add_binary());
    weight += static_cast<double>(r.uniform_int(5, 35)) * xs.back();
    value += static_cast<double>(r.uniform_int(5, 55)) * xs.back();
  }
  m.add_constraint(weight, cmp::less_equal, 170.0);
  m.set_objective(value, objective_sense::maximize);

  const solution a = solve(m, quick_options());
  const solution b = solve(m, quick_options());
  ASSERT_EQ(a.status, solve_status::optimal);
  ASSERT_EQ(b.status, solve_status::optimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_EQ(a.dual_simplex_iterations, b.dual_simplex_iterations);
  EXPECT_EQ(a.values, b.values);
}

// Property sweep: random small knapsacks, solver vs exhaustive enumeration.
class RandomKnapsack : public ::testing::TestWithParam<int> {};

TEST_P(RandomKnapsack, MatchesBruteForce) {
  prng r(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const int items = static_cast<int>(r.uniform_int(4, 10));
  std::vector<double> weights(items), values(items);
  for (int i = 0; i < items; ++i) {
    weights[i] = static_cast<double>(r.uniform_int(1, 20));
    values[i] = static_cast<double>(r.uniform_int(1, 50));
  }
  const double capacity = static_cast<double>(r.uniform_int(10, 60));

  model m;
  std::vector<variable> xs;
  linear_expr weight_sum, value_sum;
  for (int i = 0; i < items; ++i) {
    xs.push_back(m.add_binary());
    weight_sum += weights[i] * xs.back();
    value_sum += values[i] * xs.back();
  }
  m.add_constraint(weight_sum, cmp::less_equal, capacity);
  m.set_objective(value_sum, objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal);

  double brute_best = 0.0;
  for (int mask = 0; mask < (1 << items); ++mask) {
    double w = 0.0, v = 0.0;
    for (int i = 0; i < items; ++i)
      if (mask & (1 << i)) {
        w += weights[i];
        v += values[i];
      }
    if (w <= capacity) brute_best = std::max(brute_best, v);
  }
  EXPECT_NEAR(s.objective, brute_best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomKnapsack, ::testing::Range(0, 20));

// Property sweep: random LPs never report optimal with an infeasible point.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, OptimalPointIsFeasible) {
  prng r(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const int nvars = static_cast<int>(r.uniform_int(2, 8));
  const int nrows = static_cast<int>(r.uniform_int(1, 10));
  model m;
  std::vector<variable> xs;
  for (int j = 0; j < nvars; ++j)
    xs.push_back(m.add_continuous(0, r.uniform_int(1, 20)));
  for (int i = 0; i < nrows; ++i) {
    linear_expr e;
    for (int j = 0; j < nvars; ++j)
      if (r.bernoulli(0.6))
        e += static_cast<double>(r.uniform_int(-5, 5)) * xs[j];
    if (e.empty()) continue;
    // Right-hand side chosen >= 0 so x = 0 keeps <= rows feasible.
    m.add_constraint(e, cmp::less_equal, static_cast<double>(r.uniform_int(0, 40)));
  }
  linear_expr obj;
  for (int j = 0; j < nvars; ++j)
    obj += static_cast<double>(r.uniform_int(-10, 10)) * xs[j];
  m.set_objective(obj, objective_sense::maximize);
  const solution s = solve(m, quick_options());
  ASSERT_EQ(s.status, solve_status::optimal) << "seed case " << GetParam();
  EXPECT_TRUE(m.is_feasible(s.values, 1e-5));
  EXPECT_NEAR(m.evaluate_objective(s.values), s.objective, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLp, ::testing::Range(0, 25));

// ------------------------------------------- sparse LU basis engine (lu.h)

namespace {

/// Random nonsingular sparse basis: a permuted triangular structure (column
/// p holds a strong "diagonal" entry plus entries confined to earlier
/// permuted rows), with a sprinkling of slack-like singleton columns. The
/// construction guarantees nonsingularity, so every factorize must succeed.
std::vector<basis_lu::sparse_column> random_sparse_basis(std::uint64_t seed,
                                                         int m) {
  prng r(seed);
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = m - 1; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(r.uniform_int(0, i))]);

  std::vector<basis_lu::sparse_column> cols(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) {
    basis_lu::sparse_column& c = cols[static_cast<std::size_t>(p)];
    if (r.bernoulli(0.3)) { // slack-like column
      c.emplace_back(perm[static_cast<std::size_t>(p)],
                     r.bernoulli(0.5) ? -1.0 : 1.0);
      continue;
    }
    const double diag = static_cast<double>(r.uniform_int(1, 6)) *
                        (r.bernoulli(0.5) ? 1.0 : -1.0);
    c.emplace_back(perm[static_cast<std::size_t>(p)], diag);
    const int extras = static_cast<int>(r.uniform_int(0, std::min(p, 4)));
    for (int e = 0; e < extras; ++e) {
      const int q = static_cast<int>(r.uniform_int(0, p - 1));
      const int row = perm[static_cast<std::size_t>(q)];
      bool dup = false;
      for (const auto& [i, v] : c) dup = dup || i == row;
      if (dup) continue;
      c.emplace_back(row, static_cast<double>(r.uniform_int(-4, 4)));
    }
    // Drop exact zero coefficients the generator may have produced.
    basis_lu::sparse_column cleaned;
    for (const auto& [i, v] : c)
      if (v != 0.0) cleaned.emplace_back(i, v);
    c = std::move(cleaned);
  }
  return cols;
}

/// Dense reference solve of B x = rhs via Gauss-Jordan with partial
/// pivoting (test-local, independent of both engines).
std::vector<double> dense_solve(
    const std::vector<basis_lu::sparse_column>& cols, int m,
    const std::vector<double>& rhs, bool transpose) {
  std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
  for (int p = 0; p < m; ++p)
    for (const auto& [i, v] : cols[static_cast<std::size_t>(p)]) {
      if (transpose)
        a[static_cast<std::size_t>(p) * m + i] = v; // B^T
      else
        a[static_cast<std::size_t>(i) * m + p] = v;
    }
  std::vector<double> x = rhs;
  std::vector<int> order(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < m; ++k) {
    int pivot = k;
    for (int i = k + 1; i < m; ++i)
      if (std::abs(a[static_cast<std::size_t>(order[static_cast<std::size_t>(
              i)]) * m + k]) >
          std::abs(a[static_cast<std::size_t>(order[static_cast<std::size_t>(
              pivot)]) * m + k]))
        pivot = i;
    std::swap(order[static_cast<std::size_t>(k)],
              order[static_cast<std::size_t>(pivot)]);
    const int rk = order[static_cast<std::size_t>(k)];
    const double pv = a[static_cast<std::size_t>(rk) * m + k];
    for (int i = 0; i < m; ++i) {
      const int ri = order[static_cast<std::size_t>(i)];
      if (ri == rk) continue;
      const double f = a[static_cast<std::size_t>(ri) * m + k] / pv;
      if (f == 0.0) continue;
      for (int c = k; c < m; ++c)
        a[static_cast<std::size_t>(ri) * m + c] -=
            f * a[static_cast<std::size_t>(rk) * m + c];
      x[static_cast<std::size_t>(ri)] -= f * x[static_cast<std::size_t>(rk)];
    }
  }
  std::vector<double> solution(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    const int rk = order[static_cast<std::size_t>(k)];
    solution[static_cast<std::size_t>(k)] =
        x[static_cast<std::size_t>(rk)] / a[static_cast<std::size_t>(rk) * m + k];
  }
  return solution;
}

} // namespace

TEST(BasisLu, FtranBtranMatchDenseInverseOnRandomBases) {
  // Satellite check of the issue: seeded random bases, the sparse solves
  // cross-checked entry-by-entry against an independent dense inverse.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    prng r(seed * 6151 + 7);
    const int m = static_cast<int>(r.uniform_int(1, 40));
    const auto cols = random_sparse_basis(seed, m);
    basis_lu lu;
    ASSERT_TRUE(lu.factorize(m, cols)) << "seed " << seed << " m " << m;

    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> rhs(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        rhs[static_cast<std::size_t>(i)] =
            static_cast<double>(r.uniform_int(-9, 9));
      std::vector<double> got;
      lu.ftran(rhs, got);
      const std::vector<double> want = dense_solve(cols, m, rhs, false);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                    want[static_cast<std::size_t>(i)], 1e-8)
            << "ftran seed " << seed << " i " << i;

      lu.btran(rhs, got);
      const std::vector<double> want_t = dense_solve(cols, m, rhs, true);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                    want_t[static_cast<std::size_t>(i)], 1e-8)
            << "btran seed " << seed << " i " << i;
    }
  }
}

TEST(BasisLu, UnitColumnsRoundTrip) {
  // ftran of the p-th basis column must return e_p exactly (up to fp noise).
  const auto cols = random_sparse_basis(99, 25);
  basis_lu lu;
  ASSERT_TRUE(lu.factorize(25, cols));
  for (int p = 0; p < 25; ++p) {
    std::vector<double> rhs(25, 0.0);
    for (const auto& [i, v] : cols[static_cast<std::size_t>(p)])
      rhs[static_cast<std::size_t>(i)] = v;
    std::vector<double> x;
    lu.ftran(rhs, x);
    for (int q = 0; q < 25; ++q)
      EXPECT_NEAR(x[static_cast<std::size_t>(q)], q == p ? 1.0 : 0.0, 1e-9);
  }
}

TEST(BasisLu, SingularBasesRejected) {
  basis_lu lu;
  { // Zero column: structurally singular.
    std::vector<basis_lu::sparse_column> cols = {{{0, 1.0}}, {}};
    EXPECT_FALSE(lu.factorize(2, cols));
    EXPECT_FALSE(lu.valid());
  }
  { // Duplicate columns.
    std::vector<basis_lu::sparse_column> cols = {
        {{0, 2.0}, {1, 1.0}}, {{0, 2.0}, {1, 1.0}}};
    EXPECT_FALSE(lu.factorize(2, cols));
  }
  { // Linear dependence: col2 = col0 + col1.
    std::vector<basis_lu::sparse_column> cols = {
        {{0, 1.0}, {2, 1.0}}, {{1, 1.0}, {2, 2.0}}, {{0, 1.0}, {1, 1.0}, {2, 3.0}}};
    EXPECT_FALSE(lu.factorize(3, cols));
  }
  { // Numerically null column (below the pivot floor).
    std::vector<basis_lu::sparse_column> cols = {{{0, 1.0}}, {{1, 1e-13}}};
    EXPECT_FALSE(lu.factorize(2, cols));
  }
  { // A valid basis afterwards still factors (state fully reset).
    std::vector<basis_lu::sparse_column> cols = {{{0, -1.0}}, {{1, 3.0}}};
    EXPECT_TRUE(lu.factorize(2, cols));
    EXPECT_TRUE(lu.valid());
  }
}

TEST(BasisLu, DeterministicFactorization) {
  // Same basis, two factorizations: bit-identical solves.
  const auto cols = random_sparse_basis(5, 30);
  std::vector<double> rhs(30);
  prng r(11);
  for (double& v : rhs) v = static_cast<double>(r.uniform_int(-9, 9));
  basis_lu a, b;
  ASSERT_TRUE(a.factorize(30, cols));
  ASSERT_TRUE(b.factorize(30, cols));
  std::vector<double> xa, xb;
  a.ftran(rhs, xa);
  b.ftran(rhs, xb);
  EXPECT_EQ(xa, xb);
  a.btran(rhs, xa);
  b.btran(rhs, xb);
  EXPECT_EQ(xa, xb);
}

namespace {

/// Random sparse basis with elimination work: a permuted nonzero "diagonal"
/// plus off-diagonal small integers anywhere (so pivots create fill and,
/// now and then, exact cancellation), and some slack-like unit columns.
std::vector<basis_lu::sparse_column> random_general_basis(prng& r, int m) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  r.shuffle(perm);
  const double density = 2.5 / m;
  std::vector<basis_lu::sparse_column> cols(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) {
    basis_lu::sparse_column& c = cols[static_cast<std::size_t>(p)];
    const int diag = perm[static_cast<std::size_t>(p)];
    if (r.bernoulli(0.3)) {
      c.emplace_back(diag, -1.0);
      continue;
    }
    for (int i = 0; i < m; ++i) {
      if (i == diag)
        c.emplace_back(i, static_cast<double>(r.uniform_int(1, 5)));
      else if (r.bernoulli(density))
        c.emplace_back(i, static_cast<double>(r.uniform_int(-4, 4)));
    }
  }
  return cols;
}

} // namespace

TEST(BasisLu, ReusedInstanceMatchesFreshInstances) {
  // One instance refactors a seeded sequence of bases whose size grows and
  // shrinks, with structurally and numerically singular bases in between
  // and a stretch under relaxed thresholds: after every factorization its
  // solves must equal a fresh instance's exactly. Kept workspaces must not
  // leak state from one factorization into the next.
  prng r(424242);
  lu_options relaxed;
  relaxed.suhl_threshold = 0.01;
  relaxed.pivot_tolerance = 1e-13;
  basis_lu reused;
  int valid_seen = 0;
  int singular_seen = 0;
  for (int step = 0; step < 120; ++step) {
    const int m = step % 7 == 3 ? static_cast<int>(r.uniform_int(60, 90))
                                : static_cast<int>(r.uniform_int(1, 30));
    std::vector<basis_lu::sparse_column> cols =
        r.bernoulli(0.3) ? random_sparse_basis(r.next(), m)
                         : random_general_basis(r, m);
    switch (step % 5) {
    case 1: // structurally singular: an empty column
      cols[r.index(cols.size())].clear();
      break;
    case 3: // numerically singular: one column repeats another
      if (m >= 2) cols[1] = cols[0];
      break;
    default:
      break;
    }
    const lu_options options = (step / 10) % 3 == 2 ? relaxed : lu_options{};
    reused.set_options(options);
    basis_lu fresh(options);
    const bool ok = reused.factorize(m, cols);
    ASSERT_EQ(ok, fresh.factorize(m, cols)) << "step " << step << " m " << m;
    ASSERT_EQ(reused.valid(), ok);
    if (!ok) {
      ++singular_seen;
      continue;
    }
    ++valid_seen;
    EXPECT_EQ(reused.factor_nonzeros(), fresh.factor_nonzeros());
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> rhs(static_cast<std::size_t>(m));
      for (double& v : rhs)
        v = r.bernoulli(0.5) ? r.uniform_real(-5.0, 5.0) : 0.0;
      std::vector<double> got;
      std::vector<double> want;
      reused.ftran(rhs, got);
      fresh.ftran(rhs, want);
      EXPECT_EQ(got, want) << "ftran step " << step;
      reused.btran(rhs, got);
      fresh.btran(rhs, want);
      EXPECT_EQ(got, want) << "btran step " << step;
    }
  }
  EXPECT_GT(valid_seen, 40);
  EXPECT_GT(singular_seen, 30);
}

// ----------------------------------- differential LP harness (both engines)

namespace {

/// Verifies the (x, y) pair of an optimal lp_result as an optimality
/// certificate of the min-form problem: primal feasibility, dual-feasible
/// reduced costs against the nonbasic sign conventions, and strong duality
/// (the bound-weighted dual objective equals the primal objective). All
/// bounds of `p` must be finite except where the duals vanish.
void expect_optimality_certificate(const lp_problem& p, const lp_result& r,
                                   double tol) {
  ASSERT_EQ(r.status, lp_status::optimal);
  ASSERT_EQ(static_cast<int>(r.x.size()), p.num_vars);
  ASSERT_EQ(static_cast<int>(r.duals.size()), p.num_rows);

  // Primal feasibility: bounds and row activities.
  std::vector<double> activity(static_cast<std::size_t>(p.num_rows), 0.0);
  for (int j = 0; j < p.num_vars; ++j) {
    EXPECT_GE(r.x[static_cast<std::size_t>(j)], p.lower[static_cast<std::size_t>(j)] - tol);
    EXPECT_LE(r.x[static_cast<std::size_t>(j)], p.upper[static_cast<std::size_t>(j)] + tol);
    for (int k = p.col_start[static_cast<std::size_t>(j)];
         k < p.col_start[static_cast<std::size_t>(j) + 1]; ++k)
      activity[static_cast<std::size_t>(p.row_index[static_cast<std::size_t>(k)])] +=
          p.value[static_cast<std::size_t>(k)] * r.x[static_cast<std::size_t>(j)];
  }
  for (int i = 0; i < p.num_rows; ++i) {
    EXPECT_GE(activity[static_cast<std::size_t>(i)],
              p.row_lower[static_cast<std::size_t>(i)] - tol);
    EXPECT_LE(activity[static_cast<std::size_t>(i)],
              p.row_upper[static_cast<std::size_t>(i)] + tol);
  }

  // Reduced costs d_j = c_j - y'A_j and the dual objective
  //   sum_i y_i * (binding row bound) + sum_j d_j * (binding var bound),
  // picking the bound the multiplier's sign pays for (weak duality made
  // tight iff optimal).
  double dual_objective = 0.0;
  for (int i = 0; i < p.num_rows; ++i) {
    const double y = r.duals[static_cast<std::size_t>(i)];
    dual_objective += y > 0.0 ? y * p.row_lower[static_cast<std::size_t>(i)]
                              : y * p.row_upper[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < p.num_vars; ++j) {
    double d = p.cost[static_cast<std::size_t>(j)];
    for (int k = p.col_start[static_cast<std::size_t>(j)];
         k < p.col_start[static_cast<std::size_t>(j) + 1]; ++k)
      d -= r.duals[static_cast<std::size_t>(
               p.row_index[static_cast<std::size_t>(k)])] *
           p.value[static_cast<std::size_t>(k)];
    dual_objective += d > 0.0 ? d * p.lower[static_cast<std::size_t>(j)]
                              : d * p.upper[static_cast<std::size_t>(j)];
  }
  const double scale = std::max(1.0, std::abs(r.objective));
  EXPECT_NEAR(dual_objective, r.objective, tol * scale)
      << "strong duality violated";
}

} // namespace

TEST(Simplex, EngineDifferentialOnRandomBoundedLps) {
  // The tentpole harness: seeded random LPs solved with both basis engines
  // must agree on status and objective, and each engine's (x, y) pair must
  // certify optimality on its own.
  const deadline no_limit(0.0);
  int optimal_cases = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    prng r(seed * 104729 + 5);
    const int nvars = static_cast<int>(r.uniform_int(3, 25));
    const int nrows = static_cast<int>(r.uniform_int(2, 18));
    const lp_problem p = random_bounded_lp(seed, nvars, nrows);

    simplex_options lu_opts;
    lu_opts.engine = basis_engine::sparse_lu;
    simplex_options dense_opts;
    dense_opts.engine = basis_engine::dense;

    simplex_solver lu_solver(p, lu_opts);
    simplex_solver dense_solver(p, dense_opts);
    const lp_result lu_res = lu_solver.solve(no_limit, false);
    const lp_result dense_res = dense_solver.solve(no_limit, false);

    ASSERT_EQ(lu_res.status, dense_res.status) << "seed " << seed;
    if (lu_res.status != lp_status::optimal) continue;
    ++optimal_cases;
    EXPECT_NEAR(lu_res.objective, dense_res.objective,
                1e-6 * std::max(1.0, std::abs(dense_res.objective)))
        << "seed " << seed;
    expect_optimality_certificate(p, lu_res, 1e-5);
    expect_optimality_certificate(p, dense_res, 1e-5);
  }
  EXPECT_GT(optimal_cases, 40); // the sweep must mostly exercise real solves
}

TEST(Simplex, EngineDifferentialOnWarmDualResolves) {
  // Branching-style bound changes re-solved warm (the dual path) under the
  // LU engine must match a cold dense primal reference.
  const deadline no_limit(0.0);
  long dual_solves_seen = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    prng r(seed * 7919 + 3);
    const int nvars = static_cast<int>(r.uniform_int(4, 14));
    const int nrows = static_cast<int>(r.uniform_int(2, 10));
    lp_problem p = random_bounded_lp(seed + 1000, nvars, nrows);

    simplex_options lu_opts;
    lu_opts.engine = basis_engine::sparse_lu;
    simplex_solver warm(p, lu_opts);
    const lp_result root = warm.solve(no_limit, /*warm_start=*/false);
    ASSERT_EQ(root.status, lp_status::optimal) << "seed " << seed;

    int tightened = 0;
    for (int var = 0; var < nvars && tightened < 2; ++var) {
      const double at = root.x[static_cast<std::size_t>(var)];
      if (at <= warm.variable_lower(var) + 0.5) continue;
      warm.set_variable_bounds(
          var, warm.variable_lower(var),
          std::max(warm.variable_lower(var), std::ceil(at) - 1.0));
      ++tightened;
    }
    const lp_result resolved = warm.solve(no_limit, /*warm_start=*/true);
    if (resolved.used_dual) ++dual_solves_seen;

    lp_problem tightened_p = p;
    for (int j = 0; j < nvars; ++j) {
      tightened_p.lower[static_cast<std::size_t>(j)] = warm.variable_lower(j);
      tightened_p.upper[static_cast<std::size_t>(j)] = warm.variable_upper(j);
    }
    simplex_options dense_primal;
    dense_primal.engine = basis_engine::dense;
    simplex_solver reference(tightened_p, dense_primal);
    const lp_result expected = reference.solve(no_limit, false);
    EXPECT_FALSE(expected.used_dual) << "seed " << seed;

    ASSERT_EQ(resolved.status, expected.status) << "seed " << seed;
    if (expected.status == lp_status::optimal) {
      EXPECT_NEAR(resolved.objective, expected.objective, 1e-5)
          << "seed " << seed;
      expect_optimality_certificate(tightened_p, resolved, 1e-5);
    }
  }
  EXPECT_GT(dual_solves_seen, 8);
}

namespace {

/// Continuous relaxation of a model: same rows/bounds/objective, every
/// variable continuous -- lets milp::solve run exactly one LP per engine.
model relax(const model& m) {
  model relaxed;
  for (int j = 0; j < m.variable_count(); ++j) {
    const var_info& v = m.variable_at(j);
    relaxed.add_continuous(v.lower, v.upper);
  }
  for (int i = 0; i < m.constraint_count(); ++i) {
    const row_info& row = m.constraint_at(i);
    linear_expr e;
    for (const auto& [var, coeff] : row.terms)
      e += coeff * variable{var};
    relaxed.add_range_constraint(e, row.lower, row.upper);
  }
  linear_expr obj;
  for (int j = 0; j < m.variable_count(); ++j)
    obj += m.objective_coefficients()[static_cast<std::size_t>(j)] *
           variable{j};
  obj += m.objective_constant();
  relaxed.set_objective(obj, m.sense());
  return relaxed;
}

/// The paper's Table 1 scheduling formulation for one assay, warm-started
/// like the pipeline does.
sched::scheduling_ilp table2_formulation(const std::string& name,
                                         int devices) {
  const auto graph = assay::make_benchmark(name);
  sched::list_scheduler_options lo;
  lo.device_count = devices;
  sched::ilp_scheduler_options so;
  so.device_count = devices;
  so.warm_start = sched::schedule_with_list(graph, lo);
  return sched::build_scheduling_ilp(graph, so);
}

} // namespace

TEST(Simplex, EngineDifferentialOnTable2Relaxations) {
  // LP relaxations of the paper's scheduling formulations: both engines
  // must solve them to the same optimum.
  struct spec {
    const char* name;
    int devices;
  };
  for (const spec& s : {spec{"PCR", 1}, spec{"IVD", 2}}) {
    const sched::scheduling_ilp ilp = table2_formulation(s.name, s.devices);
    const model lp_model = relax(ilp.model);

    double objectives[2] = {0.0, 0.0};
    for (const bool dense : {false, true}) {
      solver_options o;
      o.time_limit_seconds = 60.0;
      o.lp.engine = dense ? basis_engine::dense : basis_engine::sparse_lu;
      const solution sol = solve(lp_model, o);
      ASSERT_EQ(sol.status, solve_status::optimal)
          << s.name << (dense ? " dense" : " lu");
      objectives[dense ? 1 : 0] = sol.objective;
    }
    EXPECT_NEAR(objectives[0], objectives[1],
                1e-5 * std::max(1.0, std::abs(objectives[1])))
        << s.name;
  }
}

// -------------------------------------------- determinism regression (LU)

TEST(Milp, LuEngineDeterministicOnTable2Formulations) {
  // Two runs of each formulation under the sparse-LU engine must produce
  // bit-identical node counts, iteration counts, and incumbents. Node caps
  // (not time limits) keep capped runs deterministic.
  struct spec {
    const char* name;
    int devices;
    long max_nodes;
  };
  for (const spec& s : {spec{"PCR", 1, 2000}, spec{"IVD", 2, 250}}) {
    const sched::scheduling_ilp ilp = table2_formulation(s.name, s.devices);
    solver_options o;
    o.time_limit_seconds = 600.0; // must never bind: limits break determinism
    o.max_nodes = s.max_nodes;
    o.warm_start = ilp.warm_assignment;
    ASSERT_EQ(o.lp.engine, basis_engine::sparse_lu); // the default

    const solution a = solve(ilp.model, o);
    const solution b = solve(ilp.model, o);
    EXPECT_EQ(a.status, b.status) << s.name;
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << s.name;
    EXPECT_EQ(a.simplex_iterations, b.simplex_iterations) << s.name;
    EXPECT_EQ(a.dual_simplex_iterations, b.dual_simplex_iterations) << s.name;
    EXPECT_EQ(a.strong_branch_probes, b.strong_branch_probes) << s.name;
    EXPECT_EQ(a.objective, b.objective) << s.name; // bit-identical
    EXPECT_EQ(a.best_bound, b.best_bound) << s.name;
    EXPECT_EQ(a.values, b.values) << s.name;
  }
}

// --------------------------------------------- repair-path stress (ASan'd)

TEST(Simplex, LoadSingularBasisRepairsToSlack) {
  // A deliberately singular basis (duplicate columns basic) must be
  // rejected by load_basis, repaired to the slack basis, and the follow-up
  // solve must still reach the true optimum -- under both engines.
  lp_problem p;
  p.num_vars = 3;
  p.num_rows = 2;
  p.cost = {-1.0, -1.0, -2.0};
  p.lower = {0.0, 0.0, 0.0};
  p.upper = {10.0, 10.0, 10.0};
  p.row_lower = {-infinity, -infinity};
  p.row_upper = {8.0, 6.0};
  // Columns 0 and 1 are identical; column 2 differs.
  p.col_start = {0, 2, 4, 6};
  p.row_index = {0, 1, 0, 1, 0, 1};
  p.value = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0};

  const deadline no_limit(0.0);
  for (const basis_engine engine : {basis_engine::sparse_lu, basis_engine::dense}) {
    simplex_options o;
    o.engine = engine;
    simplex_solver solver(p, o);
    EXPECT_FALSE(solver.load_basis({0, 1})) << "engine " << static_cast<int>(engine);

    const lp_result after = solver.solve(no_limit, /*warm_start=*/true);
    ASSERT_EQ(after.status, lp_status::optimal);

    simplex_solver reference(p, o);
    const lp_result fresh = reference.solve(no_limit, false);
    ASSERT_EQ(fresh.status, lp_status::optimal);
    EXPECT_NEAR(after.objective, fresh.objective, 1e-7);
  }
}

TEST(Simplex, LoadValidBasisAccepted) {
  lp_problem p;
  p.num_vars = 2;
  p.num_rows = 1;
  p.cost = {-1.0, -1.0};
  p.lower = {0.0, 0.0};
  p.upper = {4.0, 4.0};
  p.row_lower = {-infinity};
  p.row_upper = {5.0};
  p.col_start = {0, 1, 2};
  p.row_index = {0, 0};
  p.value = {1.0, 1.0};

  const deadline no_limit(0.0);
  simplex_solver solver(p, simplex_options{});
  EXPECT_TRUE(solver.load_basis({0}));
  const lp_result r = solver.solve(no_limit, /*warm_start=*/true);
  ASSERT_EQ(r.status, lp_status::optimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-7); // x0 + x1 = 5 at the optimum
}

TEST(Simplex, IllConditionedColumnsStillAgreeAcrossEngines) {
  // Wide coefficient range plus near-duplicate columns: the Suhl threshold
  // must keep the LU stable and both engines on the same optimum. This runs
  // under the ASan/UBSan CI job via the test_milp filter.
  const deadline no_limit(0.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    prng r(seed * 31337 + 1);
    lp_problem p = random_bounded_lp(seed + 500, 10, 8);
    // Rescale some columns by up to 1e6 / 1e-6 and duplicate one column
    // with a tiny perturbation.
    for (int j = 0; j < p.num_vars; ++j) {
      if (!r.bernoulli(0.4)) continue;
      const double scale = r.bernoulli(0.5) ? 1e6 : 1e-6;
      for (int k = p.col_start[static_cast<std::size_t>(j)];
           k < p.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        p.value[static_cast<std::size_t>(k)] *= scale;
      p.cost[static_cast<std::size_t>(j)] *= scale;
      if (scale > 1.0)
        p.upper[static_cast<std::size_t>(j)] /= scale;
    }

    simplex_options lu_opts;
    lu_opts.engine = basis_engine::sparse_lu;
    simplex_options dense_opts;
    dense_opts.engine = basis_engine::dense;
    simplex_solver lu_solver(p, lu_opts);
    simplex_solver dense_solver(p, dense_opts);
    const lp_result a = lu_solver.solve(no_limit, false);
    const lp_result b = dense_solver.solve(no_limit, false);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    if (a.status == lp_status::optimal) {
      EXPECT_NEAR(a.objective, b.objective,
                  1e-5 * std::max(1.0, std::abs(b.objective)))
          << "seed " << seed;
    }
  }
}

// --------------------------- presolve + cutting planes (PR 4 tentpole)

namespace {

/// Minimize-form lp_problem image of a model (the converter the solver uses
/// internally, reproduced for LP-level presolve/cut tests).
lp_problem model_to_lp(const model& m, std::vector<bool>& is_integer) {
  lp_problem p;
  const int n = m.variable_count();
  p.num_vars = n;
  p.num_rows = m.constraint_count();
  p.cost.resize(n);
  p.lower.resize(n);
  p.upper.resize(n);
  is_integer.assign(static_cast<std::size_t>(n), false);
  for (int j = 0; j < n; ++j) {
    const var_info& v = m.variable_at(j);
    p.cost[static_cast<std::size_t>(j)] = m.objective_coefficients()[static_cast<std::size_t>(j)];
    p.lower[static_cast<std::size_t>(j)] = v.lower;
    p.upper[static_cast<std::size_t>(j)] = v.upper;
    is_integer[static_cast<std::size_t>(j)] = v.kind != var_kind::continuous;
  }
  std::vector<std::vector<std::pair<int, double>>> cols(static_cast<std::size_t>(n));
  for (int i = 0; i < p.num_rows; ++i) {
    const row_info& r = m.constraint_at(i);
    p.row_lower.push_back(r.lower);
    p.row_upper.push_back(r.upper);
    for (const auto& [var, c] : r.terms) cols[static_cast<std::size_t>(var)].emplace_back(i, c);
  }
  p.col_start.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 0; j < n; ++j)
    p.col_start[static_cast<std::size_t>(j) + 1] =
        p.col_start[static_cast<std::size_t>(j)] +
        static_cast<int>(cols[static_cast<std::size_t>(j)].size());
  for (int j = 0; j < n; ++j)
    for (const auto& [row, c] : cols[static_cast<std::size_t>(j)]) {
      p.row_index.push_back(row);
      p.value.push_back(c);
    }
  return p;
}

/// Random bounded mixed-integer model with x = 0 feasible; deterministic.
model random_bounded_milp(std::uint64_t seed, prng& r) {
  (void)seed;
  model m;
  const int nvars = static_cast<int>(r.uniform_int(3, 9));
  const int nrows = static_cast<int>(r.uniform_int(2, 9));
  std::vector<variable> xs;
  for (int j = 0; j < nvars; ++j) {
    const int kind = static_cast<int>(r.uniform_int(0, 2));
    if (kind == 0)
      xs.push_back(m.add_binary());
    else if (kind == 1)
      xs.push_back(m.add_integer(0, r.uniform_int(1, 8)));
    else
      xs.push_back(m.add_continuous(0, r.uniform_int(1, 12)));
  }
  for (int i = 0; i < nrows; ++i) {
    linear_expr e;
    for (int j = 0; j < nvars; ++j)
      if (r.bernoulli(0.6))
        e += static_cast<double>(r.uniform_int(-5, 5)) * xs[static_cast<std::size_t>(j)];
    if (e.empty()) continue;
    if (r.bernoulli(0.3))
      m.add_range_constraint(e, -static_cast<double>(r.uniform_int(0, 30)),
                             static_cast<double>(r.uniform_int(0, 30)));
    else
      m.add_constraint(e, cmp::less_equal,
                       static_cast<double>(r.uniform_int(0, 30)));
  }
  linear_expr obj;
  for (int j = 0; j < nvars; ++j)
    obj += static_cast<double>(r.uniform_int(-9, 9)) * xs[static_cast<std::size_t>(j)];
  m.set_objective(obj, r.bernoulli(0.5) ? objective_sense::minimize
                                        : objective_sense::maximize);
  return m;
}

solver_options ablation_off_options() {
  solver_options o;
  o.time_limit_seconds = 30.0;
  o.presolve = false;
  o.cuts = false;
  o.node_propagation = false;
  return o;
}

} // namespace

TEST(Presolve, DifferentialOnRandomMilps) {
  // The tentpole's differential harness: presolve+cuts+propagation on vs
  // everything off must agree on status and optimal objective, and the
  // returned full-space assignment must be feasible in the original model.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    prng r(seed * 7919 + 3);
    const model m = random_bounded_milp(seed, r);
    const solution on = solve(m, quick_options());
    const solution off = solve(m, ablation_off_options());
    ASSERT_EQ(on.status, off.status) << "seed " << seed;
    if (on.status != solve_status::optimal) continue;
    EXPECT_NEAR(on.objective, off.objective,
                1e-6 * std::max(1.0, std::abs(off.objective)))
        << "seed " << seed;
    EXPECT_TRUE(m.is_feasible(on.values, 1e-5)) << "seed " << seed;
    EXPECT_NEAR(m.evaluate_objective(on.values), on.objective, 1e-5)
        << "seed " << seed;
  }
}

TEST(Presolve, ContinuousLpKeepsObjectiveAndFullSpaceCertificate) {
  // On continuous LPs presolve never rounds, so the reduced optimum equals
  // the original optimum and the postsolved (x, duals) pair must certify
  // optimality of the original rows under the presolved variable bounds
  // (removed rows carry dual 0: exact, they are redundant there).
  const deadline no_limit(0.0);
  int optimal_cases = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const lp_problem p = random_bounded_lp(seed * 31 + 7, 10, 8);
    const std::vector<bool> is_integer(static_cast<std::size_t>(p.num_vars), false);
    const presolved_problem ps = presolve(p, is_integer);
    ASSERT_FALSE(ps.infeasible) << "seed " << seed; // x = 0 is feasible

    simplex_solver reduced_solver(ps.reduced, simplex_options{});
    const lp_result reduced = reduced_solver.solve(no_limit, false);
    simplex_solver full_solver(p, simplex_options{});
    const lp_result full = full_solver.solve(no_limit, false);
    ASSERT_EQ(reduced.status, full.status) << "seed " << seed;
    if (reduced.status != lp_status::optimal) continue;
    ++optimal_cases;
    EXPECT_NEAR(reduced.objective, full.objective,
                1e-6 * std::max(1.0, std::abs(full.objective)))
        << "seed " << seed;

    // Certificate problem: ORIGINAL rows, presolved bounds.
    lp_problem cert = p;
    cert.lower = ps.reduced.lower;
    cert.upper = ps.reduced.upper;
    lp_result full_space;
    full_space.status = lp_status::optimal;
    full_space.objective = reduced.objective;
    full_space.x = reduced.x;
    ps.postsolve_primal(full_space.x);
    full_space.duals = ps.postsolve_duals(reduced.duals);
    expect_optimality_certificate(cert, full_space, 1e-6);
  }
  EXPECT_GT(optimal_cases, 10); // the sweep must actually exercise the path
}

TEST(Presolve, AssayFormulationsKeepWarmStartFeasible) {
  // All six Table 2 formulations: presolve must never cut the heuristic
  // warm start (an integer-feasible point), and its reductions must fire on
  // the big-M structure (rows removed on every assay -- the symmetry rows
  // at minimum).
  for (const assay::benchmark_resources& spec : assay::benchmark_resource_table()) {
    const sched::scheduling_ilp ilp = table2_formulation(spec.name, spec.devices);
    ASSERT_TRUE(ilp.warm_assignment.has_value()) << spec.name;
    ASSERT_TRUE(ilp.model.is_feasible(*ilp.warm_assignment, 1e-5)) << spec.name;

    std::vector<bool> is_integer;
    const lp_problem p = model_to_lp(ilp.model, is_integer);
    const presolved_problem ps = presolve(p, is_integer);
    ASSERT_FALSE(ps.infeasible) << spec.name;
    EXPECT_GT(ps.stats.rows_removed, 0) << spec.name;

    const std::vector<double>& x = *ilp.warm_assignment;
    for (int j = 0; j < ps.reduced.num_vars; ++j) {
      EXPECT_GE(x[static_cast<std::size_t>(j)],
                ps.reduced.lower[static_cast<std::size_t>(j)] - 1e-6)
          << spec.name << " var " << j;
      EXPECT_LE(x[static_cast<std::size_t>(j)],
                ps.reduced.upper[static_cast<std::size_t>(j)] + 1e-6)
          << spec.name << " var " << j;
    }
    std::vector<double> activity(static_cast<std::size_t>(ps.reduced.num_rows), 0.0);
    for (int j = 0; j < ps.reduced.num_vars; ++j)
      for (int k = ps.reduced.col_start[static_cast<std::size_t>(j)];
           k < ps.reduced.col_start[static_cast<std::size_t>(j) + 1]; ++k)
        activity[static_cast<std::size_t>(
            ps.reduced.row_index[static_cast<std::size_t>(k)])] +=
            ps.reduced.value[static_cast<std::size_t>(k)] *
            x[static_cast<std::size_t>(j)];
    for (int i = 0; i < ps.reduced.num_rows; ++i) {
      EXPECT_GE(activity[static_cast<std::size_t>(i)],
                ps.reduced.row_lower[static_cast<std::size_t>(i)] - 1e-5)
          << spec.name << " reduced row " << i;
      EXPECT_LE(activity[static_cast<std::size_t>(i)],
                ps.reduced.row_upper[static_cast<std::size_t>(i)] + 1e-5)
          << spec.name << " reduced row " << i;
    }
  }
}

TEST(Presolve, DetectsInfeasibleBox) {
  model m;
  const variable x = m.add_integer(0, 10);
  const variable y = m.add_integer(0, 10);
  m.add_constraint(linear_expr(x) + y, cmp::greater_equal, 25.0);
  m.set_objective(linear_expr(x), objective_sense::minimize);
  const solution s = solve(m, quick_options()); // presolve on by default
  EXPECT_EQ(s.status, solve_status::infeasible);
}

namespace {

/// Drives the cut generator exactly like the solver's root loop: separate,
/// remap the basis, rebuild the simplex over the extended rows, re-solve.
/// Returns the generator's final pool (cuts over structural variables).
std::vector<cut> run_cut_rounds(const lp_problem& base,
                                const std::vector<bool>& is_integer,
                                int max_rounds) {
  const deadline no_limit(0.0);
  auto problem = std::make_unique<lp_problem>(base);
  auto lp = std::make_unique<simplex_solver>(*problem, simplex_options{});
  lp_result res = lp->solve(no_limit, false);
  if (res.status != lp_status::optimal) return {};
  cut_generator gen(base, is_integer);
  for (int round = 0; round < max_rounds; ++round) {
    if (!gen.round(*lp, no_limit)) break;
    std::vector<int> at_upper;
    const std::vector<int> basis = gen.remap_basis(*lp, at_upper);
    auto next_problem = std::make_unique<lp_problem>(gen.current());
    auto next_lp = std::make_unique<simplex_solver>(*next_problem, simplex_options{});
    next_lp->load_basis(basis, at_upper);
    lp = std::move(next_lp);
    problem = std::move(next_problem);
    res = lp->solve(no_limit, true);
    if (res.status != lp_status::optimal) break;
  }
  return gen.pool();
}

} // namespace

TEST(Cuts, PooledCutsAreSatisfiedByTheOptimalIncumbent) {
  // The issue's cut-validity check: every pooled cut must hold at the MILP
  // optimum (cuts may only remove fractional points). Random models plus
  // the PCR scheduling formulation.
  int cuts_seen = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    prng r(seed * 104729 + 11);
    const model m = random_bounded_milp(seed, r);
    const solution truth = solve(m, ablation_off_options());
    if (truth.status != solve_status::optimal) continue;
    std::vector<bool> is_integer;
    const lp_problem p = model_to_lp(m, is_integer);
    for (const cut& c : run_cut_rounds(p, is_integer, 4)) {
      double activity = 0.0;
      for (const auto& [var, coeff] : c.terms)
        activity += coeff * truth.values[static_cast<std::size_t>(var)];
      EXPECT_GE(activity, c.lower - 1e-6)
          << "seed " << seed << " " << c.kind << " cut";
      ++cuts_seen;
    }
  }
  const sched::scheduling_ilp pcr = table2_formulation("PCR", 1);
  solver_options o = quick_options();
  o.warm_start = pcr.warm_assignment;
  const solution truth = solve(pcr.model, o);
  ASSERT_EQ(truth.status, solve_status::optimal);
  std::vector<bool> is_integer;
  const lp_problem p = model_to_lp(pcr.model, is_integer);
  for (const cut& c : run_cut_rounds(p, is_integer, 4)) {
    double activity = 0.0;
    for (const auto& [var, coeff] : c.terms)
      activity += coeff * truth.values[static_cast<std::size_t>(var)];
    EXPECT_GE(activity, c.lower - 1e-6) << c.kind << " cut on PCR";
    ++cuts_seen;
  }
  EXPECT_GT(cuts_seen, 0); // the sweep must actually separate something
}

TEST(Cuts, TermListsAreDuplicateFreeAndSorted) {
  // Duplicate variables in a cut's term list poison the simplex CSC (the
  // scatter paths assume unique rows per column) -- the regression behind
  // the false-infeasibility bug found while building this layer.
  const sched::scheduling_ilp ra12 = table2_formulation("IVD", 2);
  std::vector<bool> is_integer;
  const lp_problem p = model_to_lp(ra12.model, is_integer);
  for (const cut& c : run_cut_rounds(p, is_integer, 4)) {
    for (std::size_t t = 1; t < c.terms.size(); ++t)
      EXPECT_LT(c.terms[t - 1].first, c.terms[t].first) << c.kind;
  }
}

TEST(Milp, DefaultStackIsDeterministic) {
  // Bit-identical repeats with the full presolve + cuts + propagation stack
  // (the pre-existing determinism test pins the LU engine; this one pins
  // the presolve, cut and propagation layers).
  const sched::scheduling_ilp ilp = table2_formulation("IVD", 2);
  solver_options o;
  o.time_limit_seconds = 600.0; // must never bind: limits break determinism
  o.max_nodes = 400;
  o.warm_start = ilp.warm_assignment;
  const solution a = solve(ilp.model, o);
  const solution b = solve(ilp.model, o);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_EQ(a.cuts_added, b.cuts_added);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.best_bound, b.best_bound);
  EXPECT_EQ(a.values, b.values);
}

TEST(Sched, FormulationStrengtheningPreservesTheOptimum) {
  // Device-load inequalities and symmetry breaking must not change the
  // optimal objective (6) value -- only how fast it is proven.
  for (const int ops : {6, 8, 10}) {
    const auto graph = assay::make_random_assay(ops, static_cast<std::uint64_t>(ops));
    sched::list_scheduler_options lo;
    lo.device_count = 2;
    const sched::schedule warm = sched::schedule_with_list(graph, lo);
    sched::ilp_scheduler_options base;
    base.device_count = 2;
    base.warm_start = warm;
    sched::ilp_scheduler_options plain = base;
    plain.load_valid_inequalities = false;
    plain.break_device_symmetry = false;

    const sched::scheduling_ilp strong = sched::build_scheduling_ilp(graph, base);
    const sched::scheduling_ilp weak = sched::build_scheduling_ilp(graph, plain);
    solver_options o = quick_options();
    o.warm_start = strong.warm_assignment;
    const solution a = solve(strong.model, o);
    o.warm_start = weak.warm_assignment;
    const solution b = solve(weak.model, o);
    ASSERT_EQ(a.status, solve_status::optimal) << ops << " ops";
    ASSERT_EQ(b.status, solve_status::optimal) << ops << " ops";
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << ops << " ops";
  }
}

namespace {

// A generated scheduling formulation with a list-schedule warm start,
// mirroring what schedule_with_ilp builds internally.
sched::scheduling_ilp make_ilp(const assay::sequencing_graph& graph,
                               int devices) {
  sched::list_scheduler_options lo;
  lo.device_count = devices;
  sched::ilp_scheduler_options io;
  io.device_count = devices;
  io.warm_start = sched::schedule_with_list(graph, lo);
  return sched::build_scheduling_ilp(graph, io);
}

struct pinned_trajectory {
  int operations;
  std::uint64_t seed;
  int devices;
  long nodes;
  long simplex_iterations;
  long dual_simplex_iterations;
  long strong_branch_probes;
  double objective;
};

/// Solves every case at one thread, through the round engine when
/// `deterministic`, and checks its trajectory with exact equality.
template <std::size_t N>
void expect_pinned(const pinned_trajectory (&cases)[N], bool deterministic) {
  for (const pinned_trajectory& c : cases) {
    const sched::scheduling_ilp ilp =
        make_ilp(assay::make_random_assay(c.operations, c.seed), c.devices);
    solver_options o = quick_options(); // never binds: limits break the pin
    o.threads = 1;
    o.deterministic = deterministic;
    o.warm_start = ilp.warm_assignment;
    const solution s = solve(ilp.model, o);
    const std::string label =
        std::to_string(c.operations) + " ops, seed " + std::to_string(c.seed) +
        ", " + std::to_string(c.devices) + " devices";
    ASSERT_EQ(s.status, solve_status::optimal) << label;
    EXPECT_EQ(s.nodes_explored, c.nodes) << label;
    EXPECT_EQ(s.simplex_iterations, c.simplex_iterations) << label;
    EXPECT_EQ(s.dual_simplex_iterations, c.dual_simplex_iterations) << label;
    EXPECT_EQ(s.strong_branch_probes, c.strong_branch_probes) << label;
    EXPECT_EQ(s.objective, c.objective) << label;
  }
}

} // namespace

TEST(Milp, SequentialTrajectoryIsPinned) {
  // The sequential engine's exact search trajectory on generated
  // formulations: any change to node processing, probing, branching,
  // child order or node order shows up here as a different node or
  // iteration count. Exact equality throughout.
  const pinned_trajectory cases[] = {
      {8, 2, 2, 70, 5955, 4444, 100, 164.5},
      {8, 4, 2, 164, 9041, 7264, 100, 164.5},
      {8, 5, 2, 660, 13640, 10447, 100, 154.49999999999997},
      {9, 1, 2, 83, 6367, 5530, 100, 193.0},
      {9, 1, 3, 52, 3322, 2952, 100, 183.00000000000006},
      {10, 1, 2, 42, 5623, 4464, 100, 220.5},
  };
  expect_pinned(cases, /*deterministic=*/false);
}

TEST(Milp, DeterministicTrajectoryIsPinned) {
  // The deterministic round engine's exact trajectory on the same
  // formulations (its cross-thread equality is test_parallel's concern).
  // Every node of a round gets the probe allowance left when the round
  // started, so a search may run more than the 100-probe budget.
  const pinned_trajectory cases[] = {
      {8, 2, 2, 99, 7318, 6043, 112, 164.5},
      {8, 4, 2, 81, 7866, 5751, 102, 164.5},
      {8, 5, 2, 779, 16254, 13407, 112, 154.49999999999997},
      {9, 1, 2, 419, 11859, 10324, 112, 193.0},
      {9, 1, 3, 27, 8137, 5722, 138, 183.00000000000003},
      {10, 1, 2, 63, 6935, 5636, 112, 220.5},
  };
  expect_pinned(cases, /*deterministic=*/true);
}

TEST(Simplex, WarmDualResolvesArePinned) {
  // The LP kernel's exact trajectory under branch-and-bound style warm
  // re-solves: the LP of one generated scheduling formulation, a seeded
  // dive of bound changes (branch down or up on a fractional integer
  // variable, backtrack on infeasibility or depth), each re-solved warm.
  // Any change to pivot choice, refactorization timing or the order of
  // floating-point operations in the factorization, the eta file or the
  // solves shows up as a different count or objective sum.
  const sched::scheduling_ilp ilp =
      make_ilp(assay::make_random_assay(9, 1), 2);
  std::vector<bool> is_integer;
  const lp_problem p = model_to_lp(ilp.model, is_integer);
  std::vector<int> integer_vars;
  for (int j = 0; j < p.num_vars; ++j)
    if (is_integer[static_cast<std::size_t>(j)]) integer_vars.push_back(j);
  ASSERT_FALSE(integer_vars.empty());

  const deadline no_limit(0.0);
  simplex_solver solver(p, simplex_options{});
  lp_result last = solver.solve(no_limit, /*warm_start=*/false);
  ASSERT_EQ(last.status, lp_status::optimal);

  struct saved_bounds {
    int var;
    double lower;
    double upper;
  };
  std::vector<saved_bounds> dive;
  prng r(20261017);
  long iterations = last.iterations;
  long dual_solves = 0;
  long infeasible = 0;
  double objective_sum = last.objective;
  for (int step = 0; step < 240; ++step) {
    std::vector<int> fractional;
    if (last.status == lp_status::optimal) {
      for (const int j : integer_vars) {
        const double v = last.x[static_cast<std::size_t>(j)];
        if (std::abs(v - std::round(v)) > 1e-6) fractional.push_back(j);
      }
    }
    const bool backtrack = !dive.empty() &&
                           (fractional.empty() || dive.size() >= 12 ||
                            r.bernoulli(0.15));
    if (backtrack) {
      const saved_bounds b = dive.back();
      dive.pop_back();
      solver.set_variable_bounds(b.var, b.lower, b.upper);
    } else {
      // Branch on a fractional variable, or fix a random unfixed one when
      // the relaxation is integral.
      int var = -1;
      double value = 0.0;
      if (!fractional.empty()) {
        var = fractional[r.index(fractional.size())];
        value = last.x[static_cast<std::size_t>(var)];
      } else {
        var = integer_vars[r.index(integer_vars.size())];
        value = solver.variable_lower(var) +
                0.5 * (solver.variable_upper(var) - solver.variable_lower(var));
      }
      const double lo = solver.variable_lower(var);
      const double up = solver.variable_upper(var);
      dive.push_back({var, lo, up});
      if (r.bernoulli(0.5))
        solver.set_variable_bounds(var, lo, std::max(lo, std::floor(value)));
      else
        solver.set_variable_bounds(var, std::min(up, std::ceil(value)), up);
    }
    last = solver.solve(no_limit, /*warm_start=*/true);
    iterations += last.iterations;
    if (last.used_dual) ++dual_solves;
    if (last.status == lp_status::infeasible) ++infeasible;
    if (last.status == lp_status::optimal) objective_sum += last.objective;
  }
  // The dive must exercise the dual path and its infeasibility proofs.
  EXPECT_EQ(dual_solves, 238);
  EXPECT_EQ(infeasible, 31);
  EXPECT_EQ(iterations, 1338);
  EXPECT_EQ(solver.stats().refactorizations, 39);
  EXPECT_EQ(solver.stats().lu_factorizations, 39);
  EXPECT_EQ(objective_sum, 43680.279720279723); // bit-exact

  // Every refactorization is counted under exactly one cause.
  const simplex_stats& st = solver.stats();
  EXPECT_EQ(st.refactor_eta_fill + st.refactor_interval +
                st.refactor_infeasibility_proof + st.refactor_dual_abort +
                st.refactor_phase2_retry + st.refactor_load_basis +
                st.refactor_slack_reset,
            st.refactorizations);
  EXPECT_EQ(st.refactor_eta_fill, 8);
  EXPECT_EQ(st.refactor_infeasibility_proof, 31);
}

TEST(Simplex, LoadBasisResolveIsPure) {
  // The tree search re-solves a node from its parent's recorded basis on
  // whichever simplex instance holds it, after that instance ran capped
  // strong-branching probes. load_basis must erase everything the probes
  // left behind (pricing, devex and eta state), so the re-solve equals,
  // bit for bit, the one of a fresh instance that loads the same basis.
  const sched::scheduling_ilp ilp =
      make_ilp(assay::make_random_assay(9, 1), 2);
  std::vector<bool> is_integer;
  const lp_problem p = model_to_lp(ilp.model, is_integer);
  const deadline no_limit(0.0);
  simplex_solver probed(p, simplex_options{});
  const lp_result root = probed.solve(no_limit, /*warm_start=*/false);
  ASSERT_EQ(root.status, lp_status::optimal);

  const std::vector<int> basic = probed.basic_columns();
  std::vector<int> at_upper;
  for (int c = 0; c < p.num_vars + probed.rows(); ++c)
    if (probed.column_at_upper(c)) at_upper.push_back(c);
  std::vector<int> fractional;
  for (int j = 0; j < p.num_vars; ++j)
    if (is_integer[static_cast<std::size_t>(j)] &&
        std::abs(root.x[j] - std::round(root.x[j])) > 1e-6)
      fractional.push_back(j);
  ASSERT_GE(fractional.size(), 2u);

  // Child -1 re-solves the parent's own bounds; child k >= 0 branches on
  // fractional[k / 2], down for even k and up for odd k.
  long probe_iterations = 0;
  const int children = static_cast<int>(std::min<std::size_t>(
      2 * fractional.size(), 8));
  for (int k = -1; k < children; ++k) {
    // A few capped probes under changed bounds, restoring them after each.
    for (std::size_t i = 0; i < std::min<std::size_t>(fractional.size(), 3);
         ++i) {
      const int j = fractional[i];
      const double lo = probed.variable_lower(j);
      const double up = probed.variable_upper(j);
      const double floor_val = std::floor(root.x[j]);
      probed.set_variable_bounds(j, lo, floor_val);
      probe_iterations +=
          probed.solve(no_limit, /*warm_start=*/true, 5).iterations;
      probed.set_variable_bounds(j, floor_val + 1.0, up);
      probe_iterations +=
          probed.solve(no_limit, /*warm_start=*/true, 5).iterations;
      probed.set_variable_bounds(j, lo, up);
    }

    simplex_solver fresh(p, simplex_options{});
    int var = -1;
    double lower = 0.0, upper = 0.0;
    if (k >= 0) {
      var = fractional[static_cast<std::size_t>(k / 2)];
      const double floor_val = std::floor(root.x[var]);
      lower = k % 2 == 0 ? p.lower[var] : floor_val + 1.0;
      upper = k % 2 == 0 ? floor_val : p.upper[var];
      probed.set_variable_bounds(var, lower, upper);
      fresh.set_variable_bounds(var, lower, upper);
    }
    ASSERT_TRUE(probed.load_basis(basic, at_upper));
    ASSERT_TRUE(fresh.load_basis(basic, at_upper));
    const lp_result a = probed.solve(no_limit, /*warm_start=*/true);
    const lp_result b = fresh.solve(no_limit, /*warm_start=*/true);
    const std::string label = "child " + std::to_string(k);
    EXPECT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.objective, b.objective) << label;
    EXPECT_EQ(a.x, b.x) << label;
    EXPECT_EQ(a.iterations, b.iterations) << label;
    EXPECT_EQ(a.dual_iterations, b.dual_iterations) << label;
    if (k < 0) { // the parent's optimum, certified by one pricing pass
      EXPECT_EQ(a.iterations, 1) << label;
      EXPECT_NEAR(a.objective, root.objective, 1e-9) << label;
    }
    if (var >= 0) probed.set_variable_bounds(var, p.lower[var], p.upper[var]);
  }
  EXPECT_GT(probe_iterations, 0); // the probes did move the basis
}

namespace {

/// The tree-search variants: one worker (the sequential plunge), the pool
/// at two workers, and the deterministic rounds.
std::vector<std::pair<std::string, solver_options>> engine_variants(
    const solver_options& base) {
  solver_options pool = base;
  pool.threads = 2;
  solver_options rounds = base;
  rounds.deterministic = true;
  rounds.threads = 2;
  return {{"sequential", base}, {"threads2", pool}, {"deterministic", rounds}};
}

} // namespace

TEST(Milp, InterruptedSearchReportsAnOpenGap) {
  // CPA's root LP does not finish in half a second, so the root node is
  // interrupted mid-LP: its bound must stay open, and an unproven solve
  // must never report a closed gap.
  const sched::scheduling_ilp ilp = table2_formulation("CPA", 4);
  solver_options o;
  o.time_limit_seconds = 0.5;
  o.cuts = false;
  o.warm_start = ilp.warm_assignment;
  for (const auto& [engine, options] : engine_variants(o)) {
    const solution s = solve(ilp.model, options);
    if (s.status == solve_status::optimal) continue;
    ASSERT_TRUE(s.has_solution()) << engine; // the warm start is feasible
    EXPECT_GT(s.gap(), 0.0) << engine;
    EXPECT_LT(s.best_bound, s.objective) << engine;
  }
}

TEST(Milp, DroppedNodeLeavesTheSearchUnproven) {
  // A 20-iteration LP cap drops nodes (the root among them) unsolved. A
  // dropped node's subtree is never searched, so the solve may prove
  // neither infeasibility nor optimality: PCR's optimum is 114.5.
  const sched::scheduling_ilp ilp = table2_formulation("PCR", 4);
  solver_options o = quick_options();
  o.cuts = false;
  const solution reference = solve(ilp.model, o);
  ASSERT_EQ(reference.status, solve_status::optimal);
  EXPECT_NEAR(reference.objective, 114.5, 1e-6);

  o.lp.max_iterations = 20;
  for (const auto& [engine, options] : engine_variants(o)) {
    const solution s = solve(ilp.model, options);
    EXPECT_TRUE(s.status == solve_status::no_solution ||
                s.status == solve_status::feasible)
        << engine << ": status " << static_cast<int>(s.status);
    if (s.has_solution()) {
      EXPECT_GE(s.objective, 114.5 - 1e-6) << engine;
      EXPECT_LE(s.best_bound, 114.5 + 1e-6) << engine;
    }
  }
}

TEST(Simplex, LuSolveIsBitIdenticalAcrossRuns) {
  // Engine-level determinism at the LP layer (the MILP-level regression is
  // LuEngineDeterministicOnTable2Formulations).
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    lp_problem p = random_bounded_lp(seed, 12, 9);
    const deadline no_limit(0.0);
    simplex_options o;
    o.engine = basis_engine::sparse_lu;
    simplex_solver a(p, o);
    simplex_solver b(p, o);
    const lp_result ra = a.solve(no_limit, false);
    const lp_result rb = b.solve(no_limit, false);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.objective, rb.objective);
    EXPECT_EQ(ra.x, rb.x);
    EXPECT_EQ(ra.duals, rb.duals);
  }
}

} // namespace
} // namespace transtore::milp
