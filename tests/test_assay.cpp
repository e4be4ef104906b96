// Unit tests for the assay library: graph invariants, benchmark builders,
// the random assay generator, and the text format round trip.
#include <gtest/gtest.h>

#include <set>

#include "assay/benchmarks.h"
#include "assay/io.h"
#include "assay/sequencing_graph.h"

namespace transtore::assay {
namespace {

TEST(SequencingGraph, AddAndQuery) {
  sequencing_graph g("t");
  const int a = g.add_operation("a", 10);
  const int b = g.add_operation("b", 20);
  g.add_dependency(a, b);
  EXPECT_EQ(g.operation_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.at(b).parents, std::vector<int>{a});
  EXPECT_EQ(g.children(a), std::vector<int>{b});
  EXPECT_EQ(g.reagent_inputs(a), 2);
  EXPECT_EQ(g.reagent_inputs(b), 1);
}

TEST(SequencingGraph, RejectsBadDurations) {
  sequencing_graph g;
  EXPECT_THROW(g.add_operation("x", 0), invalid_input_error);
  EXPECT_THROW(g.add_operation("x", -5), invalid_input_error);
}

TEST(SequencingGraph, RejectsSelfAndDuplicateEdges) {
  sequencing_graph g;
  const int a = g.add_operation("a", 10);
  const int b = g.add_operation("b", 10);
  EXPECT_THROW(g.add_dependency(a, a), invalid_input_error);
  g.add_dependency(a, b);
  EXPECT_THROW(g.add_dependency(a, b), invalid_input_error);
}

TEST(SequencingGraph, EnforcesMixerArity) {
  sequencing_graph g;
  const int a = g.add_operation("a", 10);
  const int b = g.add_operation("b", 10);
  const int c = g.add_operation("c", 10);
  const int d = g.add_operation("d", 10);
  g.add_dependency(a, d);
  g.add_dependency(b, d);
  EXPECT_THROW(g.add_dependency(c, d), invalid_input_error); // 3rd input
}

TEST(SequencingGraph, EnforcesOutputVolume) {
  sequencing_graph g;
  const int a = g.add_operation("a", 10);
  const int x = g.add_operation("x", 10);
  const int y = g.add_operation("y", 10);
  const int z = g.add_operation("z", 10);
  g.add_dependency(a, x);
  g.add_dependency(a, y);
  EXPECT_THROW(g.add_dependency(a, z), invalid_input_error); // 3rd consumer
}

TEST(SequencingGraph, TopologicalOrderRespectsEdges) {
  const sequencing_graph g = make_pcr();
  const std::vector<int> order = g.topological_order();
  std::vector<int> position(static_cast<std::size_t>(g.operation_count()));
  for (std::size_t p = 0; p < order.size(); ++p)
    position[static_cast<std::size_t>(order[p])] = static_cast<int>(p);
  for (const auto& [parent, child] : g.edges())
    EXPECT_LT(position[static_cast<std::size_t>(parent)],
              position[static_cast<std::size_t>(child)]);
}

TEST(SequencingGraph, CriticalPathAndTotals) {
  const sequencing_graph g = make_pcr();
  EXPECT_EQ(g.critical_path_duration(), 90);  // three 30s levels
  EXPECT_EQ(g.total_duration(), 210);         // seven 30s mixes
}

TEST(SequencingGraph, Reachability) {
  const sequencing_graph g = make_pcr(); // o1..o7 = ids 0..6
  EXPECT_TRUE(g.reaches(0, 6));  // o1 -> o7
  EXPECT_TRUE(g.reaches(0, 4));  // o1 -> o5
  EXPECT_FALSE(g.reaches(0, 5)); // o1 cannot reach o6
  EXPECT_FALSE(g.reaches(6, 0));
  EXPECT_TRUE(g.reaches(3, 3));
}

TEST(SequencingGraph, EmptyGraphInvalid) {
  sequencing_graph g;
  EXPECT_THROW(g.validate(), invalid_input_error);
}

TEST(SequencingGraph, DotExportMentionsAllOps) {
  const sequencing_graph g = make_pcr();
  const std::string dot = g.to_dot();
  for (int i = 0; i < g.operation_count(); ++i)
    EXPECT_NE(dot.find(g.at(i).name), std::string::npos);
}

TEST(Benchmarks, PcrStructureMatchesFig2a) {
  const sequencing_graph g = make_pcr();
  EXPECT_EQ(g.operation_count(), 7);
  EXPECT_EQ(g.edge_count(), 6);
  // o5 mixes o1,o2; o6 mixes o3,o4; o7 mixes o5,o6.
  EXPECT_EQ(g.at(4).parents, (std::vector<int>{0, 1}));
  EXPECT_EQ(g.at(5).parents, (std::vector<int>{2, 3}));
  EXPECT_EQ(g.at(6).parents, (std::vector<int>{4, 5}));
}

TEST(Benchmarks, SizesMatchTable2) {
  EXPECT_EQ(make_pcr().operation_count(), 7);
  EXPECT_EQ(make_ivd().operation_count(), 12);
  EXPECT_EQ(make_cpa().operation_count(), 55);
  EXPECT_EQ(make_ra30().operation_count(), 30);
  EXPECT_EQ(make_ra70().operation_count(), 70);
  EXPECT_EQ(make_ra100().operation_count(), 100);
}

TEST(Benchmarks, AllValidate) {
  for (const char* name : {"PCR", "IVD", "CPA", "RA30", "RA70", "RA100"})
    EXPECT_NO_THROW(make_benchmark(name).validate()) << name;
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("NOPE"), invalid_input_error);
}

TEST(Benchmarks, Fig4ExampleShape) {
  const sequencing_graph g = make_fig4_example();
  EXPECT_EQ(g.operation_count(), 5);
  EXPECT_EQ(g.children(1), (std::vector<int>{3, 4})); // o2 feeds o4 and o5
  EXPECT_EQ(g.children(2), (std::vector<int>{4}));    // o3 feeds o5
}

TEST(Benchmarks, RandomAssayDeterministic) {
  const sequencing_graph a = make_random_assay(40, 7);
  const sequencing_graph b = make_random_assay(40, 7);
  EXPECT_EQ(a.edges(), b.edges());
  const sequencing_graph c = make_random_assay(40, 8);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Benchmarks, RandomAssayRespectsArity) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sequencing_graph g = make_random_assay(60, seed);
    g.validate();
    for (int i = 0; i < g.operation_count(); ++i) {
      EXPECT_LE(static_cast<int>(g.at(i).parents.size()),
                sequencing_graph::max_inputs);
      EXPECT_LE(static_cast<int>(g.children(i).size()),
                sequencing_graph::max_children);
    }
  }
}

TEST(Io, RoundTrip) {
  const sequencing_graph g = make_pcr();
  const std::string text = to_text(g);
  const sequencing_graph parsed = parse_sequencing_graph(text);
  EXPECT_EQ(parsed.name(), g.name());
  EXPECT_EQ(parsed.operation_count(), g.operation_count());
  EXPECT_EQ(parsed.edges(), g.edges());
  for (int i = 0; i < g.operation_count(); ++i)
    EXPECT_EQ(parsed.at(i).duration, g.at(i).duration);
}

TEST(Io, ParsesCommentsAndBlanks) {
  const sequencing_graph g = parse_sequencing_graph(
      "# a comment\n"
      "assay demo\n"
      "\n"
      "op a 10  # trailing comment\n"
      "op b 20\n"
      "dep a b\n");
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.operation_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(Io, RejectsMalformedInput) {
  EXPECT_THROW(parse_sequencing_graph(""), invalid_input_error);
  EXPECT_THROW(parse_sequencing_graph("op a 0\n"), invalid_input_error);
  EXPECT_THROW(parse_sequencing_graph("op a 10\nop a 10\n"),
               invalid_input_error);
  EXPECT_THROW(parse_sequencing_graph("dep a b\n"), invalid_input_error);
  EXPECT_THROW(parse_sequencing_graph("bogus\n"), invalid_input_error);
  EXPECT_THROW(parse_sequencing_graph("op a 10\nassay late\n"),
               invalid_input_error);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(load_sequencing_graph("/nonexistent/file.sg"),
               invalid_input_error);
}

// Property sweep: random assays of many sizes are valid DAGs with sane
// depth and fan-in distribution.
class RandomAssaySweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssaySweep, StructurallySound) {
  const int n = GetParam();
  const sequencing_graph g = make_random_assay(n, 1234 + n);
  g.validate();
  EXPECT_EQ(g.operation_count(), n);
  // Edges bounded by arity: at most 2 per op.
  EXPECT_LE(g.edge_count(), 2 * n);
  // The graph must not be edgeless for n > 1.
  if (n > 1) {
    EXPECT_GT(g.edge_count(), 0);
  }
  // Critical path at least two levels for n >= 4.
  if (n >= 4) {
    EXPECT_GE(g.critical_path_duration(), 60);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomAssaySweep,
                         ::testing::Values(1, 2, 5, 10, 20, 30, 50, 70, 100,
                                           150));

} // namespace
} // namespace transtore::assay
