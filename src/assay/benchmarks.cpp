#include "assay/benchmarks.h"

#include <algorithm>

#include "common/prng.h"

namespace transtore::assay {

sequencing_graph make_pcr() {
  sequencing_graph g("PCR");
  // Level 1: four mixes of the eight input samples.
  const int o1 = g.add_operation("o1", 30);
  const int o2 = g.add_operation("o2", 30);
  const int o3 = g.add_operation("o3", 30);
  const int o4 = g.add_operation("o4", 30);
  // Level 2 and the root, exactly as in Fig. 2(a).
  const int o5 = g.add_operation("o5", 30);
  const int o6 = g.add_operation("o6", 30);
  const int o7 = g.add_operation("o7", 30);
  g.add_dependency(o1, o5);
  g.add_dependency(o2, o5);
  g.add_dependency(o3, o6);
  g.add_dependency(o4, o6);
  g.add_dependency(o5, o7);
  g.add_dependency(o6, o7);
  return g;
}

sequencing_graph make_ivd() {
  // Four sample/reagent chains whose results merge pairwise into a
  // differential measurement, plus a final detection mix: a connected
  // 12-operation DAG with fan-in like the published IVD protocols.
  sequencing_graph g("IVD");
  std::vector<int> dilutes;
  for (int chain = 0; chain < 4; ++chain) {
    const std::string s = std::to_string(chain + 1);
    const int mix = g.add_operation("mix" + s, 30);    // sample + reagent
    const int dilute = g.add_operation("dil" + s, 30); // + buffer
    g.add_dependency(mix, dilute);
    dilutes.push_back(dilute);
  }
  const int c1 = g.add_operation("cmb1", 30);
  g.add_dependency(dilutes[0], c1);
  g.add_dependency(dilutes[1], c1);
  const int c2 = g.add_operation("cmb2", 30);
  g.add_dependency(dilutes[2], c2);
  g.add_dependency(dilutes[3], c2);
  const int diff = g.add_operation("diff", 30);
  g.add_dependency(c1, diff);
  g.add_dependency(c2, diff);
  const int detect = g.add_operation("det", 30); // + detection dye
  g.add_dependency(diff, detect);
  check(g.operation_count() == 12, "IVD reconstruction must have 12 ops");
  return g;
}

sequencing_graph make_cpa() {
  sequencing_graph g("CPA");
  // Exponential serial-dilution tree: levels of size 1, 2, 4, 8, 16.
  // Node k of level l mixes the output of node k/2 of level l-1 with buffer.
  std::vector<std::vector<int>> levels;
  levels.push_back({g.add_operation("d0", 30)});
  for (int level = 1; level <= 4; ++level) {
    std::vector<int> current;
    const int width = 1 << level;
    for (int k = 0; k < width; ++k) {
      std::string name = "d";
      name += std::to_string(level);
      name += '_';
      name += std::to_string(k);
      const int id = g.add_operation(std::move(name), 30);
      g.add_dependency(levels.back()[static_cast<std::size_t>(k / 2)], id);
      current.push_back(id);
    }
    levels.push_back(std::move(current));
  }
  // Eight odd leaves each feed a three-operation replicate chain:
  // leaf -> rep1, leaf -> rep2, rep2 -> rep3 (output volume limits an
  // operation to two direct consumers).
  const std::vector<int>& leaves = levels.back();
  for (int k = 1; k < 16; k += 2) {
    const int leaf = leaves[static_cast<std::size_t>(k)];
    const std::string s = std::to_string(k);
    const int rep1 = g.add_operation("r" + s + "a", 30);
    const int rep2 = g.add_operation("r" + s + "b", 30);
    const int rep3 = g.add_operation("r" + s + "c", 30);
    g.add_dependency(leaf, rep1);
    g.add_dependency(leaf, rep2);
    g.add_dependency(rep2, rep3);
  }
  check(g.operation_count() == 55, "CPA reconstruction must have 55 ops");
  return g;
}

sequencing_graph make_fig4_example() {
  sequencing_graph g("Fig4");
  const int o1 = g.add_operation("o1", 30);
  const int o2 = g.add_operation("o2", 30);
  const int o3 = g.add_operation("o3", 30);
  const int o4 = g.add_operation("o4", 30);
  const int o5 = g.add_operation("o5", 30);
  g.add_dependency(o1, o4);
  g.add_dependency(o2, o4);
  g.add_dependency(o2, o5);
  g.add_dependency(o3, o5);
  return g;
}

sequencing_graph make_random_assay(int operations, std::uint64_t seed,
                                   int duration,
                                   double two_parent_fraction) {
  require(operations > 0, "make_random_assay: operations must be positive");
  prng rng(seed);
  sequencing_graph g("RA" + std::to_string(operations));
  std::vector<int> child_slots; // remaining output capacity per op

  for (int i = 0; i < operations; ++i) {
    std::string name = "o";
    name += std::to_string(i + 1);
    const int id = g.add_operation(std::move(name), duration);
    child_slots.push_back(sequencing_graph::max_children);
    if (i == 0) continue;

    // Candidate producers: earlier ops with spare output volume, biased
    // toward recent ops so the DAG has realistic depth.
    auto pick_parent = [&](int exclude) -> int {
      std::vector<int> pool;
      const int window = std::min(i, 12);
      for (int back = 1; back <= window; ++back) {
        const int cand = i - back;
        if (cand != exclude && child_slots[static_cast<std::size_t>(cand)] > 0)
          pool.push_back(cand);
      }
      if (pool.empty()) {
        for (int cand = 0; cand < i; ++cand)
          if (cand != exclude &&
              child_slots[static_cast<std::size_t>(cand)] > 0)
            pool.push_back(cand);
      }
      if (pool.empty()) return -1;
      return pool[rng.index(pool.size())];
    };

    const int first = pick_parent(-1);
    if (first >= 0) {
      g.add_dependency(first, id);
      --child_slots[static_cast<std::size_t>(first)];
    }
    if (first >= 0 && rng.bernoulli(two_parent_fraction)) {
      const int second = pick_parent(first);
      if (second >= 0) {
        g.add_dependency(second, id);
        --child_slots[static_cast<std::size_t>(second)];
      }
    }
  }
  return g;
}

sequencing_graph make_benchmark(const std::string& name) {
  if (name == "PCR") return make_pcr();
  if (name == "IVD") return make_ivd();
  if (name == "CPA") return make_cpa();
  if (name == "RA30") return make_ra30();
  if (name == "RA70") return make_ra70();
  if (name == "RA100") return make_ra100();
  throw invalid_input_error("make_benchmark: unknown benchmark '" + name +
                            "'");
}

} // namespace transtore::assay
