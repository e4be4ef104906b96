// Allocation counts on the heuristic hot paths: the argument checks, the
// placement annealer, the timing model's preview and one annealing move.
// The global operator new is replaced by a counting one, so each test
// measures exactly the heap allocations of the code between two reads of
// the counter (after a warm-up call where buffers size themselves).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "arch/connection_grid.h"
#include "arch/placement.h"
#include "arch/workload.h"
#include "assay/benchmarks.h"
#include "common/error.h"
#include "sched/list_scheduler.h"
#include "sched/moves.h"
#include "sched/timing.h"

namespace {
std::atomic<long> allocations{0};

void* counted_alloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace transtore {
namespace {

/// Heap allocations made by `body`.
template <typename Body>
long allocations_of(Body&& body) {
  const long before = allocations.load();
  body();
  return allocations.load() - before;
}

// Message literals well past the 15-character small-string buffer: a
// std::string parameter would heap-allocate a copy on every call.
TEST(Alloc, PassingChecksAllocateNothing) {
  volatile bool ok = true;
  const long n = allocations_of([&] {
    for (int i = 0; i < 1000; ++i) {
      require(ok, "alloc test: a passing require() with a long message");
      check(ok, "alloc test: a passing check() with a long message");
    }
  });
  EXPECT_EQ(n, 0);
}

sched::schedule list_schedule(const assay::sequencing_graph& g, int devices) {
  sched::list_scheduler_options o;
  o.device_count = devices;
  o.restarts = 2;
  return sched::schedule_with_list(g, o);
}

TEST(Alloc, PlacementMovesAllocateNothing) {
  // Everything place_devices allocates is per call: the same count at 100
  // and at 4000 annealing iterations.
  const arch::routing_workload w = arch::derive_workload(
      list_schedule(assay::make_random_assay(30, 7), 4));
  const arch::connection_grid grid(6, 6);
  arch::placement_options few;
  few.iterations = 100;
  arch::placement_options many;
  many.iterations = 4000;
  std::vector<int> a, b;
  const long short_run = allocations_of([&] { a = place_devices(grid, w, few); });
  const long long_run = allocations_of([&] { b = place_devices(grid, w, many); });
  EXPECT_EQ(short_run, long_run);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(b.size(), 4u);
}

TEST(Alloc, RepeatedPreviewAllocatesNothing) {
  const assay::sequencing_graph g = assay::make_random_assay(24, 5);
  sched::timing_options timing;
  timing.count_reagent_loads = true;
  sched::timeline_builder builder(g, 3, timing);
  // Commit about half the ops so previews see pending outs, direct and
  // cached transfers and handoffs.
  for (int step = 0; step < g.operation_count() / 2; ++step)
    for (int op = 0; op < g.operation_count(); ++op)
      if (builder.ready(op)) {
        (void)builder.commit(op, step % 3);
        break;
      }
  auto preview_all = [&] {
    long checksum = 0;
    for (int op = 0; op < g.operation_count(); ++op)
      if (builder.ready(op))
        for (int d = 0; d < 3; ++d) checksum += builder.preview(op, d).end;
    return checksum;
  };
  const long warm = preview_all(); // sizes the scratch
  long again = 0;
  EXPECT_EQ(allocations_of([&] { again = preview_all(); }), 0);
  EXPECT_EQ(again, warm);
  EXPECT_GT(warm, 0);
}

TEST(Alloc, RepeatedGreedyPassAllocatesNothing) {
  // The list restarts' and GRASP rounds' hot loop: one greedy pass on a
  // reset builder. The first pass sizes the builder's scratch, its leg
  // list and the candidate buffer; repeating it (same seed, so the same
  // commits) allocates nothing at any step, in both pick modes.
  const assay::sequencing_graph g = assay::make_random_assay(24, 5);
  sched::timing_options timing;
  timing.count_reagent_loads = true;
  sched::timeline_builder builder(g, 3, timing);
  sched::greedy_pass pass(g, 3, 1.0, 0.15, true);
  for (const double rcl_alpha : {0.0, 0.3}) {
    pass.rcl_alpha = rcl_alpha;
    double objective = 0.0;
    auto one_pass = [&] {
      prng rng(7);
      builder.reset();
      objective = pass.run(builder, rng, rcl_alpha > 0.0 ? 0.0 : 5.0);
    };
    one_pass();
    const double warm = objective;
    EXPECT_EQ(allocations_of(one_pass), 0) << "rcl_alpha " << rcl_alpha;
    EXPECT_EQ(objective, warm);
    EXPECT_EQ(builder.committed_count(), g.operation_count());
  }
}

TEST(Alloc, RejectedAnnealingMoveAllocatesNothing) {
  // The annealers' rejection path: move the one binding in place, time
  // it, score it, and undo the move when the objective test says no.
  const assay::sequencing_graph g = assay::make_random_assay(20, 11);
  const int devices = 3;
  const sched::schedule start = list_schedule(g, devices);
  sched::binding current = sched::extract_binding(start, devices);
  sched::reserve_queues(current, current.device_of.size());
  const sched::binding before = current;
  const assay::reachability reach(g);
  sched::binding_timer timer(g, devices, sched::timing_options{});
  ASSERT_TRUE(timer.time(current)); // warm-up sizes the scratch
  EXPECT_EQ(timer.objective(1.0, 0.15),
            sched::refine_timing(g, current, devices).objective(1.0, 0.15));

  // Adjacent swaps along the longest queue, each rejected.
  int d = 0;
  for (int k = 1; k < devices; ++k)
    if (current.device_order[static_cast<std::size_t>(k)].size() >
        current.device_order[static_cast<std::size_t>(d)].size())
      d = k;
  sched::relocation move;
  int timed = 0;
  auto rejected_swaps = [&] {
    for (std::size_t k = 0;
         k + 1 < current.device_order[static_cast<std::size_t>(d)].size();
         ++k) {
      const int op = current.device_order[static_cast<std::size_t>(d)][k];
      if (sched::relocate_op(reach, current, op, d, k + 1, move) &&
          timer.time(current)) {
        ++timed;
        (void)timer.objective(1.0, 0.15);
      }
      sched::undo_relocation(current, move);
    }
  };
  // The first sweep may still grow the leg list and the plan scratch (a
  // move can create more legs than the start binding has); the second
  // repeats the same moves on buffers already sized for them.
  rejected_swaps();
  timed = 0;
  const long n = allocations_of(rejected_swaps);
  EXPECT_EQ(n, 0);
  EXPECT_GT(timed, 0);
  EXPECT_EQ(current.device_of, before.device_of);
  EXPECT_EQ(current.device_order, before.device_order);
}

} // namespace
} // namespace transtore
