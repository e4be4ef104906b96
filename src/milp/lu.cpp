#include "milp/lu.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace transtore::milp {
namespace {

/// Columns (beyond the singleton bucket) examined per Markowitz search.
constexpr int search_columns = 8;

} // namespace

void basis_lu::reset_workspace(int m) {
  const auto size = static_cast<std::size_t>(m);
  workspace& w = ws_;
  if (w.rows.size() < size) {
    w.rows.resize(size);
    w.col_rows.resize(size);
  }
  if (w.bucket.size() < size + 1) w.bucket.resize(size + 1);
  for (std::size_t i = 0; i < size; ++i) {
    w.rows[i].clear();
    w.col_rows[i].clear();
  }
  for (std::size_t c = 0; c <= size; ++c) w.bucket[c].clear();
  w.col_count.assign(size, 0);
  w.row_count.assign(size, 0);
  w.row_done.assign(size, 0);
  w.col_done.assign(size, 0);
  w.dense.assign(size, 0.0);
  w.present.assign(size, 0);
  w.pattern.clear();
  w.cached.clear();
  w.scratch.clear();
  w.cached_col = -1;
  w.gather_mark.assign(size, -1);
  w.gather_stamp = -1;
}

// A row can appear twice in a column's list -- a stale copy from a
// cancelled entry plus a later re-fill -- so gathered rows are stamped:
// processing a duplicate would eliminate the same row twice and corrupt
// both the values and the Markowitz counts.
void basis_lu::gather_column(int col, std::vector<std::pair<int, double>>& out) {
  workspace& w = ws_;
  out.clear();
  const int stamp = ++w.gather_stamp;
  std::vector<int>& list = w.col_rows[static_cast<std::size_t>(col)];
  std::size_t keep = 0;
  for (const int i : list) {
    if (w.row_done[static_cast<std::size_t>(i)] ||
        w.gather_mark[static_cast<std::size_t>(i)] == stamp)
      continue;
    const row_entry* found = nullptr;
    for (const row_entry& e : w.rows[static_cast<std::size_t>(i)])
      if (e.col == col) {
        found = &e;
        break;
      }
    if (found == nullptr) continue; // cancelled
    w.gather_mark[static_cast<std::size_t>(i)] = stamp;
    list[keep++] = i;
    out.emplace_back(i, found->value);
  }
  list.resize(keep);
}

bool basis_lu::factorize(int m, const std::vector<sparse_column>& columns) {
  require(static_cast<int>(columns.size()) == m, "basis_lu: bad column count");
  workspace& w = ws_;
  w.input_start.assign(1, 0);
  w.input_row.clear();
  w.input_value.clear();
  for (const sparse_column& c : columns) {
    for (const auto& [i, v] : c) {
      w.input_row.push_back(i);
      w.input_value.push_back(v);
    }
    w.input_start.push_back(static_cast<int>(w.input_row.size()));
  }
  return factorize(m, w.input_start, w.input_row, w.input_value);
}

bool basis_lu::factorize(int m, std::span<const int> start,
                         std::span<const int> row,
                         std::span<const double> value) {
  require(static_cast<int>(start.size()) == m + 1,
          "basis_lu: bad column count");
  m_ = m;
  valid_ = false;

  pivot_row_.assign(m, -1);
  pivot_col_.assign(m, -1);
  l_start_.assign(1, 0);
  l_row_.clear();
  l_value_.clear();
  l_steps_.clear();
  u_start_.assign(1, 0);
  u_col_.clear();
  u_value_.clear();
  u_pivot_.assign(m, 0.0);
  work_.assign(m, 0.0);
  if (m == 0) {
    ucol_start_.assign(1, 0);
    ucol_step_.clear();
    ucol_value_.clear();
    valid_ = true;
    return true;
  }

  reset_workspace(m);
  workspace& w = ws_;
  auto& rows = w.rows;
  auto& col_rows = w.col_rows;
  auto& col_count = w.col_count;
  auto& row_count = w.row_count;
  auto& bucket = w.bucket;
  auto& row_done = w.row_done;
  auto& col_done = w.col_done;

  for (int p = 0; p < m; ++p) {
    for (int k = start[static_cast<std::size_t>(p)];
         k < start[static_cast<std::size_t>(p) + 1]; ++k) {
      const int i = row[static_cast<std::size_t>(k)];
      const double v = value[static_cast<std::size_t>(k)];
      require(i >= 0 && i < m, "basis_lu: row index out of range");
      if (v == 0.0) continue;
      rows[i].push_back({p, v});
      col_rows[p].push_back(i);
      ++col_count[p];
      ++row_count[i];
    }
    if (col_count[p] == 0) return false; // structurally singular
  }

  for (int p = 0; p < m; ++p) bucket[static_cast<std::size_t>(col_count[p])].push_back(p);
  auto rebucket = [&](int col) {
    bucket[static_cast<std::size_t>(col_count[col])].push_back(col);
  };

  for (int k = 0; k < m; ++k) {
    // ---------------------------------------------------- Markowitz search
    int best_row = -1;
    int best_col = -1;
    double best_value = 0.0;
    long best_cost = std::numeric_limits<long>::max();
    int examined = 0;

    for (int count = 0; count <= m && best_cost > 0; ++count) {
      if (count == 0) {
        // A live column can never sit in bucket 0: count 0 means every
        // entry cancelled, i.e. the basis became numerically singular.
        for (const int j : bucket[0])
          if (!col_done[j] && col_count[j] == 0) return false;
        continue;
      }
      std::vector<int>& b = bucket[static_cast<std::size_t>(count)];
      std::size_t idx = 0;
      while (idx < b.size()) {
        const int j = b[idx];
        if (col_done[j] || col_count[j] != count) {
          b[idx] = b.back(); // stale: drop (order is still deterministic)
          b.pop_back();
          continue;
        }
        ++idx;
        gather_column(j, w.scratch);
        double colmax = 0.0;
        for (const auto& [i, v] : w.scratch) colmax = std::max(colmax, std::abs(v));
        if (colmax < options_.pivot_tolerance)
          return false; // numerically dependent column
        const double admissible =
            std::max(options_.pivot_tolerance, options_.suhl_threshold * colmax);
        int cand_row = -1;
        double cand_value = 0.0;
        long cand_cost = std::numeric_limits<long>::max();
        for (const auto& [i, v] : w.scratch) {
          if (std::abs(v) < admissible) continue;
          const long cost = static_cast<long>(row_count[i] - 1) *
                            static_cast<long>(count - 1);
          if (cost < cand_cost || (cost == cand_cost && i < cand_row)) {
            cand_cost = cost;
            cand_row = i;
            cand_value = v;
          }
        }
        if (cand_row < 0) continue; // every admissible entry was below Suhl
        ++examined;
        if (cand_cost < best_cost) {
          best_cost = cand_cost;
          best_row = cand_row;
          best_col = j;
          best_value = cand_value;
          w.cached_col = j;
          std::swap(w.cached, w.scratch);
        }
        if (best_cost == 0) break;
        if (count > 1 && examined >= search_columns) break;
      }
      if (best_col >= 0 && (best_cost == 0 ||
                            (count > 1 && examined >= search_columns)))
        break;
    }
    if (best_col < 0) return false; // no admissible pivot anywhere

    // -------------------------------------------------------- elimination
    const int pr = best_row;
    const int pc = best_col;
    const double pv = best_value;
    pivot_row_[k] = pr;
    pivot_col_[k] = pc;
    u_pivot_[k] = pv;
    row_done[pr] = 1;
    col_done[pc] = 1;

    // The pivot row's remaining entries become U row k and leave the
    // active matrix.
    for (const row_entry& e : rows[pr]) {
      if (e.col == pc || col_done[e.col]) continue;
      u_col_.push_back(e.col);
      u_value_.push_back(e.value);
      --col_count[e.col];
      rebucket(e.col);
    }
    u_start_.push_back(static_cast<int>(u_col_.size()));

    // Eliminate column pc from every other active row. The candidate cache
    // holds exactly the valid (row, value) entries of the pivot column.
    if (w.cached_col != pc) gather_column(pc, w.cached);
    for (const auto& [i, a_ipc] : w.cached) {
      if (i == pr || row_done[i]) continue;
      const double mult = a_ipc / pv;
      l_row_.push_back(i);
      l_value_.push_back(mult);

      // row_i -= mult * row_pr, dropping the pivot column.
      w.pattern.clear();
      for (const row_entry& e : rows[i]) {
        if (e.col == pc) continue; // eliminated exactly
        w.dense[e.col] = e.value;
        w.present[e.col] = 1;
        w.pattern.push_back(e.col);
      }
      for (const row_entry& e : rows[pr]) {
        if (e.col == pc) continue;
        if (!w.present[e.col]) {
          w.present[e.col] = 1;
          w.pattern.push_back(e.col);
          w.dense[e.col] = 0.0;
          // Fill-in: column e.col gains an entry in row i.
          col_rows[e.col].push_back(i);
          ++col_count[e.col];
          rebucket(e.col);
        }
        w.dense[e.col] -= mult * e.value;
      }
      std::vector<row_entry>& target = rows[i];
      target.clear();
      for (const int c : w.pattern) {
        const double v = w.dense[c];
        w.dense[c] = 0.0;
        w.present[c] = 0;
        if (v == 0.0) {
          // Exact cancellation: the entry leaves column c.
          --col_count[c];
          rebucket(c);
          continue;
        }
        target.push_back({c, v});
      }
      row_count[i] = static_cast<int>(target.size());
    }
    // The pivot column's entries (including the pivot) are gone.
    col_count[pc] = 0;
    col_rows[pc].clear();
    rows[pr].clear();
    if (static_cast<int>(l_row_.size()) != l_start_.back()) l_steps_.push_back(k);
    l_start_.push_back(static_cast<int>(l_row_.size()));
    w.cached_col = -1;
  }

  build_u_columns();
  valid_ = true;
  return true;
}

void basis_lu::build_u_columns() {
  // Map each U entry's basis position to its pivot step and bucket by that
  // step.
  const auto size = static_cast<std::size_t>(m_);
  std::vector<int>& step_of_position = ws_.step_of_position;
  step_of_position.assign(size, -1);
  for (int k = 0; k < m_; ++k) step_of_position[pivot_col_[k]] = k;
  ucol_start_.assign(size + 1, 0);
  for (const int c : u_col_) ++ucol_start_[static_cast<std::size_t>(step_of_position[c]) + 1];
  for (std::size_t k = 0; k < size; ++k) ucol_start_[k + 1] += ucol_start_[k];
  ucol_step_.resize(u_col_.size());
  ucol_value_.resize(u_col_.size());
  std::vector<int>& cursor = ws_.cursor;
  cursor.assign(ucol_start_.begin(), ucol_start_.end() - 1);
  for (int k = 0; k < m_; ++k) {
    for (int idx = u_start_[k]; idx < u_start_[k + 1]; ++idx) {
      const int j = step_of_position[u_col_[static_cast<std::size_t>(idx)]];
      ucol_step_[static_cast<std::size_t>(cursor[j])] = k;
      ucol_value_[static_cast<std::size_t>(cursor[j])] =
          u_value_[static_cast<std::size_t>(idx)];
      ++cursor[j];
    }
  }
}

void basis_lu::ftran(const std::vector<double>& rhs,
                     std::vector<double>& x) const {
  require(valid_, "basis_lu: ftran without a valid factorization");
  work_.assign(rhs.begin(), rhs.end());
  // Apply the elimination steps: v[row] -= mult * v[pivot_row_[k]].
  for (const int k : l_steps_) {
    const double t = work_[pivot_row_[k]];
    if (t == 0.0) continue;
    for (int idx = l_start_[k]; idx < l_start_[k + 1]; ++idx)
      work_[l_row_[static_cast<std::size_t>(idx)]] -=
          l_value_[static_cast<std::size_t>(idx)] * t;
  }
  // Back substitution through U (positions pivoted later are solved first;
  // every position is written before it is read).
  x.resize(static_cast<std::size_t>(m_));
  for (int k = m_ - 1; k >= 0; --k) {
    double s = work_[pivot_row_[k]];
    for (int idx = u_start_[k]; idx < u_start_[k + 1]; ++idx)
      s -= u_value_[static_cast<std::size_t>(idx)] *
           x[u_col_[static_cast<std::size_t>(idx)]];
    x[pivot_col_[k]] = s / u_pivot_[k];
  }
}

void basis_lu::btran(const std::vector<double>& z,
                     std::vector<double>& y) const {
  require(valid_, "basis_lu: btran without a valid factorization");
  // Forward solve U^T w = z; w is indexed by pivot step.
  for (int k = 0; k < m_; ++k) {
    double s = z[pivot_col_[k]];
    for (int idx = ucol_start_[k]; idx < ucol_start_[k + 1]; ++idx)
      s -= ucol_value_[static_cast<std::size_t>(idx)] *
           work_[ucol_step_[static_cast<std::size_t>(idx)]];
    work_[k] = s / u_pivot_[k];
  }
  // y = M^T w: scatter w to constraint rows (pivot_row_ is a permutation,
  // so every entry is written), then apply the transposed elimination
  // steps newest-first (y[pivot_row] -= mult * y[row]).
  y.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) y[pivot_row_[k]] = work_[k];
  for (auto it = l_steps_.rbegin(); it != l_steps_.rend(); ++it) {
    const int k = *it;
    double s = y[pivot_row_[k]];
    for (int idx = l_start_[k]; idx < l_start_[k + 1]; ++idx)
      s -= l_value_[static_cast<std::size_t>(idx)] *
           y[l_row_[static_cast<std::size_t>(idx)]];
    y[pivot_row_[k]] = s;
  }
}

} // namespace transtore::milp
