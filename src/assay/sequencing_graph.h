// Sequencing graphs: the bioassay protocol DAGs that drive synthesis.
//
// A node is a (mixing) operation with a fixed duration; an edge (parent ->
// child) says the child consumes the parent's output fluid. Mixers take two
// inputs, so an operation with p parents additionally consumes (2 - p)
// primary reagent/sample inputs loaded from chip inlets. An operation's
// output has enough volume for at most two consumers (paper Fig. 4 shows an
// operation feeding two children).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace transtore::assay {

/// One operation (node) in the sequencing graph.
struct operation {
  std::string name;
  int duration = 30;        // execution time in seconds
  std::vector<int> parents; // producing operations (size <= max_inputs)
};

/// Directed acyclic graph of operations.
class sequencing_graph {
public:
  static constexpr int max_inputs = 2;   // a mixer joins two fluids
  static constexpr int max_children = 2; // output volume feeds at most two

  explicit sequencing_graph(std::string name = "assay")
      : name_(std::move(name)) {}

  /// Adds an operation; returns its id (dense, 0-based).
  int add_operation(std::string name, int duration_seconds);

  /// Declares that `child` consumes `parent`'s output.
  /// Throws invalid_input_error on unknown ids, duplicate edges, self loops,
  /// or input/output arity violations.
  void add_dependency(int parent, int child);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int operation_count() const {
    return static_cast<int>(ops_.size());
  }
  [[nodiscard]] const operation& at(int id) const;
  [[nodiscard]] const std::vector<int>& children(int id) const;
  [[nodiscard]] int edge_count() const { return edge_count_; }

  /// Primary (reagent/sample) inputs the operation loads from chip inlets.
  [[nodiscard]] int reagent_inputs(int id) const {
    return max_inputs - static_cast<int>(at(id).parents.size());
  }

  /// All (parent, child) pairs in id order.
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const;

  /// Throws invalid_input_error if the graph has a cycle or is empty.
  void validate() const;

  /// Operation ids in a topological order (parents first).
  /// Throws invalid_input_error on cycles.
  [[nodiscard]] std::vector<int> topological_order() const;

  /// Length (in seconds of execution time only) of the longest
  /// dependency chain; a lower bound on any schedule's makespan.
  [[nodiscard]] int critical_path_duration() const;

  /// Sum of all operation durations; the serial lower bound for one device.
  [[nodiscard]] int total_duration() const;

  /// True if `ancestor` can reach `descendant` along edges.
  [[nodiscard]] bool reaches(int ancestor, int descendant) const;

  /// Graphviz rendering for documentation and debugging.
  [[nodiscard]] std::string to_dot() const;

private:
  std::string name_;
  std::vector<operation> ops_;
  std::vector<std::vector<int>> children_;
  int edge_count_ = 0;
};

/// The transitive closure of a graph's edges, computed once (n^2 bits).
/// reaches() is then one bit test with no search and no allocation; the
/// annealers ask it on every move. A snapshot: later changes to the graph
/// are not reflected.
class reachability {
public:
  explicit reachability(const sequencing_graph& graph);

  /// Same answer as sequencing_graph::reaches (an op reaches itself).
  /// Both ids must be in range.
  [[nodiscard]] bool reaches(int ancestor, int descendant) const {
    return ancestor == descendant ||
           ((bits_[row(ancestor) + static_cast<std::size_t>(descendant) / 64] >>
             (static_cast<std::size_t>(descendant) % 64)) &
            1U) != 0;
  }

private:
  [[nodiscard]] std::size_t row(int op) const {
    return static_cast<std::size_t>(op) * words_;
  }

  std::size_t words_ = 0;            // 64-bit words per row
  std::vector<std::uint64_t> bits_;  // row a, bit d: a reaches d
};

} // namespace transtore::assay
