#include "milp/model.h"

#include <cmath>
#include <sstream>

namespace transtore::milp {

variable model::add_variable(var_kind kind, double lower, double upper,
                             std::string name) {
  if (kind == var_kind::binary) {
    lower = 0.0;
    upper = 1.0;
  }
  require(lower <= upper, "model: variable lower bound exceeds upper bound");
  var_info info;
  if (name.empty()) {
    name += 'x';
    name += std::to_string(variables_.size());
  }
  info.name = std::move(name);
  info.kind = kind;
  info.lower = lower;
  info.upper = upper;
  variables_.push_back(std::move(info));
  objective_.push_back(0.0);
  return variable{static_cast<int>(variables_.size()) - 1};
}

int model::add_constraint(const linear_expr& expr, cmp op, double rhs,
                          std::string name) {
  const double adjusted = rhs - expr.constant();
  switch (op) {
    case cmp::less_equal:
      return add_range_constraint(expr - linear_expr(expr.constant()),
                                  -infinity, adjusted, std::move(name));
    case cmp::greater_equal:
      return add_range_constraint(expr - linear_expr(expr.constant()),
                                  adjusted, infinity, std::move(name));
    case cmp::equal:
      return add_range_constraint(expr - linear_expr(expr.constant()),
                                  adjusted, adjusted, std::move(name));
  }
  throw internal_error("model: unknown comparison");
}

int model::add_range_constraint(const linear_expr& expr, double lower,
                                double upper, std::string name) {
  require(lower <= upper, "model: row lower bound exceeds upper bound");
  row_info row;
  if (name.empty()) {
    name += 'c';
    name += std::to_string(rows_.size());
  }
  row.name = std::move(name);
  row.lower = lower - expr.constant();
  row.upper = upper == infinity ? infinity : upper - expr.constant();
  if (lower == -infinity) row.lower = -infinity;
  row.terms.reserve(expr.terms().size());
  for (const auto& [index, coeff] : expr.terms()) {
    require(index >= 0 && index < variable_count(),
            "model: constraint references unknown variable");
    if (coeff != 0.0) row.terms.emplace_back(index, coeff);
  }
  rows_.push_back(std::move(row));
  return static_cast<int>(rows_.size()) - 1;
}

void model::set_objective(const linear_expr& expr, objective_sense sense) {
  objective_.assign(variables_.size(), 0.0);
  for (const auto& [index, coeff] : expr.terms()) {
    require(index >= 0 && index < variable_count(),
            "model: objective references unknown variable");
    objective_[static_cast<std::size_t>(index)] = coeff;
  }
  objective_constant_ = expr.constant();
  sense_ = sense;
}

int model::integer_variable_count() const {
  int count = 0;
  for (const auto& v : variables_)
    if (v.kind != var_kind::continuous) ++count;
  return count;
}

const var_info& model::variable_at(int index) const {
  require(index >= 0 && index < variable_count(), "model: variable index");
  return variables_[static_cast<std::size_t>(index)];
}

const row_info& model::constraint_at(int index) const {
  require(index >= 0 && index < constraint_count(), "model: row index");
  return rows_[static_cast<std::size_t>(index)];
}

double model::evaluate_objective(const std::vector<double>& x) const {
  require(x.size() == variables_.size(),
          "model: assignment size mismatch in evaluate_objective");
  double total = objective_constant_;
  for (std::size_t j = 0; j < objective_.size(); ++j)
    total += objective_[j] * x[j];
  return total;
}

bool model::is_feasible(const std::vector<double>& x, double tolerance) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    const auto& v = variables_[j];
    if (x[j] < v.lower - tolerance || x[j] > v.upper + tolerance) return false;
    if (v.kind != var_kind::continuous &&
        std::abs(x[j] - std::round(x[j])) > tolerance)
      return false;
  }
  for (const auto& row : rows_) {
    double activity = 0.0;
    for (const auto& [index, coeff] : row.terms)
      activity += coeff * x[static_cast<std::size_t>(index)];
    if (activity < row.lower - tolerance || activity > row.upper + tolerance)
      return false;
  }
  return true;
}

std::string model::to_text() const {
  std::ostringstream out;
  out << (sense_ == objective_sense::minimize ? "minimize" : "maximize")
      << "\n  ";
  bool first = true;
  for (std::size_t j = 0; j < objective_.size(); ++j) {
    if (objective_[j] == 0.0) continue;
    if (!first) out << " + ";
    out << objective_[j] << " " << variables_[j].name;
    first = false;
  }
  if (objective_constant_ != 0.0) out << " + " << objective_constant_;
  out << "\nsubject to\n";
  for (const auto& row : rows_) {
    out << "  " << row.name << ": ";
    if (row.lower != -infinity) out << row.lower << " <= ";
    bool first_term = true;
    for (const auto& [index, coeff] : row.terms) {
      if (!first_term) out << " + ";
      out << coeff << " " << variables_[static_cast<std::size_t>(index)].name;
      first_term = false;
    }
    if (row.upper != infinity) out << " <= " << row.upper;
    out << "\n";
  }
  out << "bounds\n";
  for (const auto& v : variables_) {
    out << "  " << v.lower << " <= " << v.name << " <= " << v.upper;
    if (v.kind == var_kind::binary) out << " (binary)";
    if (v.kind == var_kind::integer) out << " (integer)";
    out << "\n";
  }
  return out.str();
}

} // namespace transtore::milp
