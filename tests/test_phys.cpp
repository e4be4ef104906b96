// Tests for physical design: scaling (d_r), device insertion (d_e),
// iterative compression (d_p), bend insertion, and SVG rendering.
#include <gtest/gtest.h>

#include "arch/synthesis.h"
#include "assay/benchmarks.h"
#include "phys/layout.h"
#include "sched/list_scheduler.h"

namespace transtore::phys {
namespace {

arch::arch_result synthesize(const char* name, int devices, int grid = 4) {
  sched::list_scheduler_options so;
  so.device_count = devices;
  const sched::schedule s =
      sched::schedule_with_list(assay::make_benchmark(name), so);
  arch::arch_options ao;
  ao.grid_width = grid;
  ao.grid_height = grid;
  return arch::synthesize_architecture(s, ao);
}

TEST(Layout, StagesAreOrdered) {
  const arch::arch_result a = synthesize("PCR", 1);
  const layout_result l = generate_layout(a.result);
  // Device insertion inflates, compression shrinks back (Fig. 7 shape).
  EXPECT_GE(l.after_devices.width, l.after_synthesis.width);
  EXPECT_GE(l.after_devices.height, l.after_synthesis.height);
  EXPECT_LE(l.after_compression.width, l.after_devices.width);
  EXPECT_LE(l.after_compression.height, l.after_devices.height);
  EXPECT_GT(l.compression_iterations, 0);
}

TEST(Layout, SynthesisDimsMatchScaledBoundingBox) {
  const arch::arch_result a = synthesize("PCR", 1);
  const rect box = a.result.used_bounding_box();
  const layout_result l = generate_layout(a.result);
  EXPECT_EQ(l.after_synthesis.width, std::max(1, box.width() * 5));
  EXPECT_EQ(l.after_synthesis.height, std::max(1, box.height() * 5));
}

TEST(Layout, DeviceInsertionCountsDeviceLanes) {
  const arch::arch_result a = synthesize("IVD", 2);
  const layout_result l = generate_layout(a.result);
  // Each distinct device column adds device_size-1 = 6 units.
  const int added_w = l.after_devices.width - l.after_synthesis.width;
  const int added_h = l.after_devices.height - l.after_synthesis.height;
  EXPECT_GT(added_w + added_h, 0);
  EXPECT_EQ(added_w % 6, 0);
  EXPECT_EQ(added_h % 6, 0);
}

TEST(Layout, CompressionRespectsMinimumPitch) {
  const arch::arch_result a = synthesize("RA30", 2);
  const layout_result l = generate_layout(a.result);
  phys_options opt;
  for (std::size_t i = 1; i < l.column_position.size(); ++i)
    EXPECT_GE(l.column_position[i] - l.column_position[i - 1], opt.pitch);
  for (std::size_t i = 1; i < l.row_position.size(); ++i)
    EXPECT_GE(l.row_position[i] - l.row_position[i - 1], opt.pitch);
}

TEST(Layout, BendsPreserveStorageLength) {
  const arch::arch_result a = synthesize("PCR", 1);
  phys_options opt;
  opt.storage_length = 9; // force bends: compressed segments are shorter
  const layout_result l = generate_layout(a.result, opt);
  if (!a.result.caches.empty()) {
    EXPECT_GT(l.bend_points, 0);
  }
}

TEST(Layout, NoBendsWhenSegmentsLongEnough) {
  const arch::arch_result a = synthesize("PCR", 1);
  phys_options opt;
  opt.storage_length = 1;
  const layout_result l = generate_layout(a.result, opt);
  EXPECT_EQ(l.bend_points, 0);
}

TEST(Layout, LargerDevicesInflateMore) {
  const arch::arch_result a = synthesize("IVD", 2);
  phys_options small;
  small.device_size = 3;
  phys_options big;
  big.device_size = 11;
  const layout_result ls = generate_layout(a.result, small);
  const layout_result lb = generate_layout(a.result, big);
  EXPECT_LT(ls.after_devices.width, lb.after_devices.width);
  EXPECT_LE(ls.after_compression.width, lb.after_compression.width);
}

TEST(Layout, RejectsBadOptions) {
  const arch::arch_result a = synthesize("PCR", 1);
  phys_options opt;
  opt.pitch = 0;
  EXPECT_THROW(generate_layout(a.result, opt), invalid_input_error);
}

TEST(Svg, ContainsDevicesAndChannels) {
  const arch::arch_result a = synthesize("PCR", 1);
  const layout_result l = generate_layout(a.result);
  const std::string svg = render_svg(a.result, l);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("d1"), std::string::npos);   // device label
  EXPECT_NE(svg.find("<line"), std::string::npos); // channels
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

// Property sweep: layouts for random assays keep all invariants.
class LayoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(LayoutSweep, InvariantsHold) {
  const int id = GetParam();
  sched::list_scheduler_options so;
  so.device_count = 1 + id % 3;
  so.restarts = 2;
  const sched::schedule s = sched::schedule_with_list(
      assay::make_random_assay(10 + id * 3, 77 + static_cast<std::uint64_t>(id)), so);
  arch::arch_options ao;
  // Three busy devices need more routing/storage fabric than 4x4.
  if (so.device_count >= 3) ao.grid_width = ao.grid_height = 5;
  const arch::arch_result a = arch::synthesize_architecture(s, ao);
  const layout_result l = generate_layout(a.result);
  EXPECT_GT(l.after_compression.width, 0);
  EXPECT_GT(l.after_compression.height, 0);
  EXPECT_LE(l.after_compression.width, l.after_devices.width);
  EXPECT_LE(l.after_compression.height, l.after_devices.height);
  EXPECT_GE(l.bend_points, 0);
  // Column/row bookkeeping is consistent.
  EXPECT_EQ(l.column_position.size(), l.used_columns.size());
  EXPECT_EQ(l.row_position.size(), l.used_rows.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayoutSweep, ::testing::Range(0, 10));

} // namespace
} // namespace transtore::phys
