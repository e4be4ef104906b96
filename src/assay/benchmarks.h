// Benchmark assays used in the paper's evaluation (Table 2).
//
// PCR is fully specified in the paper (Fig. 2(a)). CPA and IVD are standard
// bioassay benchmarks from the biochip synthesis literature; the paper only
// reports their operation counts (55 and 12), so we reconstruct graphs of
// exactly those sizes with the canonical structure of each protocol (see
// DESIGN.md, substitutions). RA30/RA70/RA100 are random assays; the paper's
// instances are not published, so we generate seeded layered DAGs with the
// same operation counts.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "assay/sequencing_graph.h"

namespace transtore::assay {

/// Polymerase chain reaction, mixing stage (paper Fig. 2(a)):
/// 8 samples, 7 mixing operations in a binary tree.
[[nodiscard]] sequencing_graph make_pcr();

/// In-vitro diagnostics: four sample/reagent chains of three operations
/// each (mix, dilute, detect-prep), 12 operations total.
[[nodiscard]] sequencing_graph make_ivd();

/// Colorimetric protein assay (Bradford): an exponential serial-dilution
/// tree of 31 mixing operations (levels 1+2+4+8+16) whose eight odd leaves
/// each feed three replicate reagent mixes -- 55 operations total.
[[nodiscard]] sequencing_graph make_cpa();

/// The five-operation example of the paper's Fig. 4 (o2 feeds o4 and o5;
/// o3 feeds o5) used to demonstrate storage-aware scheduling.
[[nodiscard]] sequencing_graph make_fig4_example();

/// Seeded random layered DAG with `operations` nodes. Operation durations
/// are `duration` seconds; roughly `two_parent_fraction` of non-root nodes
/// mix two earlier results, the rest mix one earlier result with a fresh
/// reagent. Deterministic in (operations, seed).
[[nodiscard]] sequencing_graph make_random_assay(int operations,
                                                 std::uint64_t seed,
                                                 int duration = 30,
                                                 double two_parent_fraction = 0.45);

/// The paper's random assays with fixed seeds.
[[nodiscard]] inline sequencing_graph make_ra30() {
  return make_random_assay(30, 30);
}
[[nodiscard]] inline sequencing_graph make_ra70() {
  return make_random_assay(70, 70);
}
[[nodiscard]] inline sequencing_graph make_ra100() {
  return make_random_assay(100, 100);
}

/// Fetch any benchmark by its Table 2 name ("PCR", "IVD", "CPA", "RA30",
/// "RA70", "RA100"); throws invalid_input_error for unknown names.
[[nodiscard]] sequencing_graph make_benchmark(const std::string& name);

/// Paper Table 2 resource configuration (device count, square grid edge)
/// per built-in assay, largest first -- the single source of truth shared
/// by the bench harnesses and the CLI's batch mode.
struct benchmark_resources {
  const char* name;
  int devices;
  int grid; // grid is grid x grid
};

[[nodiscard]] inline const std::array<benchmark_resources, 6>&
benchmark_resource_table() {
  static const std::array<benchmark_resources, 6> table = {{
      {"RA100", 4, 5}, {"RA70", 3, 4}, {"CPA", 3, 4},
      {"RA30", 2, 4},  {"IVD", 2, 4},  {"PCR", 1, 4},
  }};
  return table;
}

/// The table row of a built-in assay, or null for any other name.
[[nodiscard]] inline const benchmark_resources* find_benchmark_resources(
    const std::string& name) {
  for (const benchmark_resources& r : benchmark_resource_table())
    if (name == r.name) return &r;
  return nullptr;
}

} // namespace transtore::assay
