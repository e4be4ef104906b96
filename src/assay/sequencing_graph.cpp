#include "assay/sequencing_graph.h"

#include <algorithm>
#include <sstream>

namespace transtore::assay {

int sequencing_graph::add_operation(std::string name, int duration_seconds) {
  require(duration_seconds > 0, "sequencing_graph: duration must be positive");
  operation op;
  if (name.empty()) {
    name += 'o';
    name += std::to_string(ops_.size() + 1);
  }
  op.name = std::move(name);
  op.duration = duration_seconds;
  ops_.push_back(std::move(op));
  children_.emplace_back();
  return static_cast<int>(ops_.size()) - 1;
}

void sequencing_graph::add_dependency(int parent, int child) {
  require(parent >= 0 && parent < operation_count(),
          "sequencing_graph: unknown parent id");
  require(child >= 0 && child < operation_count(),
          "sequencing_graph: unknown child id");
  require(parent != child, "sequencing_graph: self dependency");
  auto& plist = ops_[static_cast<std::size_t>(child)].parents;
  require(std::find(plist.begin(), plist.end(), parent) == plist.end(),
          "sequencing_graph: duplicate dependency");
  require(static_cast<int>(plist.size()) < max_inputs,
          "sequencing_graph: operation already has two inputs");
  require(static_cast<int>(children_[static_cast<std::size_t>(parent)].size()) <
              max_children,
          "sequencing_graph: operation output already feeds two consumers");
  plist.push_back(parent);
  children_[static_cast<std::size_t>(parent)].push_back(child);
  ++edge_count_;
}

const operation& sequencing_graph::at(int id) const {
  require(id >= 0 && id < operation_count(), "sequencing_graph: unknown id");
  return ops_[static_cast<std::size_t>(id)];
}

const std::vector<int>& sequencing_graph::children(int id) const {
  require(id >= 0 && id < operation_count(), "sequencing_graph: unknown id");
  return children_[static_cast<std::size_t>(id)];
}

std::vector<std::pair<int, int>> sequencing_graph::edges() const {
  std::vector<std::pair<int, int>> result;
  result.reserve(static_cast<std::size_t>(edge_count_));
  for (int child = 0; child < operation_count(); ++child)
    for (int parent : at(child).parents) result.emplace_back(parent, child);
  std::sort(result.begin(), result.end());
  return result;
}

void sequencing_graph::validate() const {
  require(operation_count() > 0, "sequencing_graph: empty graph");
  (void)topological_order(); // throws on cycles
}

std::vector<int> sequencing_graph::topological_order() const {
  const int n = operation_count();
  std::vector<int> indegree(n, 0);
  for (int i = 0; i < n; ++i)
    indegree[i] = static_cast<int>(at(i).parents.size());
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    // Pop the smallest id for deterministic output.
    const auto it = std::min_element(ready.begin(), ready.end());
    const int node = *it;
    ready.erase(it);
    order.push_back(node);
    for (int child : children(node))
      if (--indegree[child] == 0) ready.push_back(child);
  }
  require(static_cast<int>(order.size()) == n,
          "sequencing_graph: dependency cycle detected");
  return order;
}

int sequencing_graph::critical_path_duration() const {
  const std::vector<int> order = topological_order();
  std::vector<int> finish(ops_.size(), 0);
  int best = 0;
  for (int id : order) {
    int start = 0;
    for (int parent : at(id).parents)
      start = std::max(start, finish[static_cast<std::size_t>(parent)]);
    finish[static_cast<std::size_t>(id)] = start + at(id).duration;
    best = std::max(best, finish[static_cast<std::size_t>(id)]);
  }
  return best;
}

int sequencing_graph::total_duration() const {
  int total = 0;
  for (const auto& op : ops_) total += op.duration;
  return total;
}

bool sequencing_graph::reaches(int ancestor, int descendant) const {
  require(ancestor >= 0 && ancestor < operation_count(),
          "sequencing_graph: unknown id");
  require(descendant >= 0 && descendant < operation_count(),
          "sequencing_graph: unknown id");
  if (ancestor == descendant) return true;
  std::vector<int> stack{ancestor};
  std::vector<bool> seen(ops_.size(), false);
  seen[static_cast<std::size_t>(ancestor)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (int child : children(node)) {
      if (child == descendant) return true;
      if (!seen[static_cast<std::size_t>(child)]) {
        seen[static_cast<std::size_t>(child)] = true;
        stack.push_back(child);
      }
    }
  }
  return false;
}

reachability::reachability(const sequencing_graph& graph)
    : words_((static_cast<std::size_t>(graph.operation_count()) + 63) / 64),
      bits_(static_cast<std::size_t>(graph.operation_count()) * words_, 0) {
  // Children before parents: a row is the union of its children and
  // their (already complete) rows.
  const std::vector<int> order = graph.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint64_t* const out = &bits_[row(*it)];
    for (int child : graph.children(*it)) {
      const std::uint64_t* const in = &bits_[row(child)];
      for (std::size_t w = 0; w < words_; ++w) out[w] |= in[w];
      out[static_cast<std::size_t>(child) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(child) % 64);
    }
  }
}

std::string sequencing_graph::to_dot() const {
  std::ostringstream out;
  out << "digraph \"" << name_ << "\" {\n";
  for (int i = 0; i < operation_count(); ++i)
    out << "  n" << i << " [label=\"" << at(i).name << " (" << at(i).duration
        << "s)\"];\n";
  for (const auto& [parent, child] : edges())
    out << "  n" << parent << " -> n" << child << ";\n";
  out << "}\n";
  return out.str();
}

} // namespace transtore::assay
