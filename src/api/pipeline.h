// Staged synthesis pipeline -- the public surface of the library.
//
// The paper's method is four independent stages; this API makes each one a
// first-class value that can be inspected, serialized, and reused:
//
//   api::pipeline p(graph, options);
//   auto scheduled   = p.schedule(ctx);                 // Section 3.1
//   auto synthesized = scheduled->synthesize(ctx);      // Section 3.2
//   auto compressed  = synthesized->compress(ctx);      // Section 3.3
//   auto verified    = compressed->verify(ctx);         // simulator replay
//   api::flow_result r = verified->result();
//
// Every stage returns api::result<Stage> (see result.h): no exceptions
// cross the api boundary, deadline/cancel outcomes are structured, and a
// best-effort value (e.g. the heuristic schedule after a truncated ILP) is
// still delivered. Stage values are cheap to copy and share their upstream
// outputs, so parameter sweeps re-synthesize from one schedule without
// re-scheduling:
//
//   auto s = p.schedule().take();
//   for (int g : {4, 5, 6})
//     auto chip = s.synthesize({.grid_width = g, .grid_height = g}, ctx);
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "api/result.h"
#include "api/run_context.h"
#include "arch/synthesis.h"
#include "assay/sequencing_graph.h"
#include "baseline/dedicated_storage.h"
#include "phys/layout.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace transtore::api {

/// Bounds on the size knobs of pipeline_options. A stage rejects values
/// outside them with status::invalid_input before doing any work: far
/// beyond these sizes a run exhausts memory or time instead of answering.
/// The grid bound covers growth: max(grid_width, grid_height) +
/// grid_growth <= max_grid_side.
inline constexpr int max_device_count = 64;
inline constexpr int max_grid_side = 128;
inline constexpr int max_arch_attempts = 1000;
inline constexpr int max_heuristic_restarts = 10000;
inline constexpr int max_local_search_iterations = 10'000'000;

/// Complete configuration of one pipeline run.
struct pipeline_options {
  // Resources (paper: "maximum numbers of devices allowed in the chip").
  int device_count = 1; // [1, max_device_count]
  int grid_width = 4;   // [2, max_grid_side], as is grid_height
  int grid_height = 4;

  // Timing model.
  sched::timing_options timing{};

  // Scheduling (objective (6) weights and engine).
  double alpha = 1.0;
  double beta = 0.15;
  bool storage_aware = true; // false = "optimize execution time only"
  sched::schedule_engine schedule_engine = sched::schedule_engine::combined;
  double sched_ilp_time_limit = 10.0;
  int heuristic_restarts = 24; // [1, max_heuristic_restarts]
  /// Simulated-annealing improvement iterations after the constructive
  /// schedulers (sched::scheduler_options::local_search_iterations);
  /// [0, max_local_search_iterations].
  int local_search_iterations = 6000;
  /// Worker threads for the scheduling MILP's branch-and-bound tree search
  /// (sched::scheduler_options::solver_threads): 1 = sequential, 0 = all
  /// hardware threads, > 1 = parallel engine. Clamped at execution time by
  /// the run_context's thread budget (see run_context::set_thread_budget and
  /// the executor's oversubscription guard) -- the clamp never changes the
  /// cache key.
  int solver_threads = 1;
  /// Bit-identical deterministic parallel search at any thread count
  /// (milp::solver_options::deterministic).
  bool solver_deterministic = false;

  // Architecture.
  arch::synthesis_engine arch_engine = arch::synthesis_engine::heuristic;
  double arch_ilp_time_limit = 20.0;
  int arch_attempts = 8; // [1, max_arch_attempts]
  /// On capacity failure, retry synthesis up to this many times with a
  /// one-step-larger grid (0 = fail immediately, the paper's fixed-grid
  /// protocol). The grid actually used is visible in the chip. At least 0,
  /// and the grown grid stays within max_grid_side.
  int grid_growth = 0;
  /// Resources known to be failed before the run starts (arch/fault.h).
  /// Failed devices shrink the schedulable device pool; failed valves,
  /// channel segments, and storage segments are never placed on, routed
  /// over, or used for caching. Empty = healthy chip.
  arch::fault_set faults;

  // Physical design.
  phys::phys_options physical{};

  // Extras.
  bool run_baseline = false; // also evaluate the dedicated-storage baseline
  bool verify = true;        // run the independent simulator
  std::uint64_t seed = 1;
};

/// Aggregated outputs of a full run.
struct flow_result {
  sched::scheduling_result scheduling;
  arch::arch_result architecture;
  phys::layout_result layout;
  std::optional<sim::sim_stats> stats;
  std::optional<baseline::baseline_result> baseline;
  double total_seconds = 0.0;

  /// Multi-line summary of the headline metrics.
  [[nodiscard]] std::string report(const assay::sequencing_graph& graph) const;
};

/// The flow result as a JSON report (plus the assay identity): a
/// projection of the flow document (api/serialize.h) with derived
/// summaries. Wall-clock seconds, per stage and total_seconds, appear only
/// with include_timing; without them reports of deterministic runs are
/// byte-comparable across machines and worker counts.
[[nodiscard]] std::string to_json(const assay::sequencing_graph& graph,
                                  const flow_result& result,
                                  bool include_timing = true);

namespace detail {
/// Immutable per-run state shared by every stage value of one pipeline.
struct job_state {
  assay::sequencing_graph graph;
  pipeline_options options;
};

/// Internal bridge used by api/serialize.cpp to reconstruct stage values
/// from deserialized parts (the only way to build them outside a pipeline).
struct stage_access;
} // namespace detail

class result_cache;
class synthesized;
class compressed;
class verified;

/// Per-call overrides for scheduled::synthesize -- the sweep knobs.
struct synthesize_overrides {
  std::optional<int> grid_width;
  std::optional<int> grid_height;
  std::optional<arch::synthesis_engine> engine;
  std::optional<int> attempts;
  std::optional<int> grid_growth;
};

/// Stage 1 output: the storage-aware schedule. Reusable: synthesize() may
/// be called any number of times (different grids/engines) without paying
/// for scheduling again.
class scheduled {
public:
  [[nodiscard]] const sched::scheduling_result& scheduling() const {
    return *scheduling_;
  }
  [[nodiscard]] const sched::schedule& best() const {
    return scheduling_->best;
  }
  [[nodiscard]] const assay::sequencing_graph& graph() const {
    return state_->graph;
  }

  /// The schedule as a standalone JSON document.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] result<synthesized> synthesize(
      const run_context& ctx = {}) const;
  [[nodiscard]] result<synthesized> synthesize(
      const synthesize_overrides& overrides, const run_context& ctx = {}) const;

private:
  friend class pipeline;
  friend struct detail::stage_access;
  std::shared_ptr<const detail::job_state> state_;
  std::shared_ptr<const sched::scheduling_result> scheduling_;
};

/// Stage 2 output: the synthesized chip architecture.
class synthesized {
public:
  [[nodiscard]] const sched::scheduling_result& scheduling() const {
    return *scheduling_;
  }
  [[nodiscard]] const arch::arch_result& architecture() const {
    return *architecture_;
  }
  [[nodiscard]] const arch::chip& chip() const { return architecture_->result; }
  [[nodiscard]] const assay::sequencing_graph& graph() const {
    return state_->graph;
  }

  /// The architecture metrics as a standalone JSON document.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] result<compressed> compress(const run_context& ctx = {}) const;
  [[nodiscard]] result<compressed> compress(const phys::phys_options& physical,
                                            const run_context& ctx = {}) const;

private:
  friend class scheduled;
  friend struct detail::stage_access;
  std::shared_ptr<const detail::job_state> state_;
  std::shared_ptr<const sched::scheduling_result> scheduling_;
  std::shared_ptr<const arch::arch_result> architecture_;
};

/// Stage 3 output: the compacted physical layout.
class compressed {
public:
  [[nodiscard]] const sched::scheduling_result& scheduling() const {
    return *scheduling_;
  }
  [[nodiscard]] const arch::arch_result& architecture() const {
    return *architecture_;
  }
  [[nodiscard]] const phys::layout_result& layout() const { return *layout_; }
  [[nodiscard]] const assay::sequencing_graph& graph() const {
    return state_->graph;
  }

  /// The layout dimensions as a standalone JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Run the independent simulator (and, when options.run_baseline is set,
  /// the dedicated-storage baseline).
  [[nodiscard]] result<verified> verify(const run_context& ctx = {}) const;

  /// Assemble a flow_result without verification (options.verify = false
  /// path of the one-shot flow).
  [[nodiscard]] flow_result result_without_verification() const;

private:
  friend class synthesized;
  friend struct detail::stage_access;
  std::shared_ptr<const detail::job_state> state_;
  std::shared_ptr<const sched::scheduling_result> scheduling_;
  std::shared_ptr<const arch::arch_result> architecture_;
  std::shared_ptr<const phys::layout_result> layout_;
};

/// Stage 4 output: simulator statistics (and optional baseline) plus the
/// assembled flow_result.
class verified {
public:
  [[nodiscard]] const sim::sim_stats& stats() const { return *stats_; }
  [[nodiscard]] const assay::sequencing_graph& graph() const {
    return state_->graph;
  }

  /// The aggregate result (total_seconds = sum of recorded stage times).
  [[nodiscard]] flow_result result() const;

  /// Full JSON document (same shape as api::to_json).
  [[nodiscard]] std::string to_json(bool include_timing = true) const;

private:
  friend class compressed;
  friend struct detail::stage_access;
  std::shared_ptr<const detail::job_state> state_;
  std::shared_ptr<const sched::scheduling_result> scheduling_;
  std::shared_ptr<const arch::arch_result> architecture_;
  std::shared_ptr<const phys::layout_result> layout_;
  std::shared_ptr<const sim::sim_stats> stats_;
  std::shared_ptr<const baseline::baseline_result> baseline_; // may be null
};

/// Outcome of a cache-aware run: the structured result plus whether it was
/// served from the cache and the full serialized document (api/serialize.h
/// flow format) that was stored or loaded -- the service front end replies
/// with this document verbatim so replays are byte-identical.
///
/// The value is a *shared immutable* flow_result: a cache hit hands out
/// the cache entry's own object (and document bytes), so serving a hit
/// copies nothing -- every concurrent hit on a key shares one flow_result
/// and one document string with the cache.
struct cached_outcome {
  result<std::shared_ptr<const flow_result>> outcome;
  bool cache_hit = false;
  std::shared_ptr<const std::string> document; // null when nothing was cached
};

/// Entry point: binds a sequencing graph to a configuration. Stateless
/// apart from the immutable job description; schedule() may be called
/// repeatedly (e.g. after tweaking nothing but the run_context).
class pipeline {
public:
  explicit pipeline(assay::sequencing_graph graph,
                    pipeline_options options = {});

  [[nodiscard]] const assay::sequencing_graph& graph() const {
    return state_->graph;
  }
  [[nodiscard]] const pipeline_options& options() const {
    return state_->options;
  }

  /// Attach a result cache: run() becomes a lookup keyed on the canonical
  /// content hash of (graph, options) and only solves on a miss (storing
  /// the completed result). See api/result_cache.h.
  pipeline& set_cache(std::shared_ptr<result_cache> cache) {
    cache_ = std::move(cache);
    return *this;
  }

  /// Stage 1: storage-aware scheduling & binding.
  [[nodiscard]] result<scheduled> schedule(const run_context& ctx = {}) const;

  /// One-shot convenience: schedule -> synthesize -> compress -> verify
  /// (verification and baseline per options). Equivalent to the staged
  /// calls. Consults the cache when one is attached.
  [[nodiscard]] result<flow_result> run(const run_context& ctx = {}) const;

  /// run() plus cache bookkeeping: reports whether the result came from the
  /// cache, shares (never copies) the cached flow_result, and hands back
  /// the serialized flow document. Without an attached cache this is run()
  /// with cache_hit = false and no document. This is the zero-copy path
  /// the executor and serve front end use; run() itself pays one copy to
  /// honour its by-value contract.
  [[nodiscard]] cached_outcome run_cached(const run_context& ctx = {}) const;

private:
  friend struct detail::stage_access;
  [[nodiscard]] result<flow_result> run_uncached(const run_context& ctx) const;
  std::shared_ptr<const detail::job_state> state_;
  std::shared_ptr<result_cache> cache_;
};

} // namespace transtore::api
