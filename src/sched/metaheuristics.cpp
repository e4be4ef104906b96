#include "sched/metaheuristics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/prng.h"
#include "common/stopwatch.h"
#include "sched/list_scheduler.h"
#include "sched/moves.h"

namespace transtore::sched {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t z = (base ^ salt) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

// Annealing and construction tuning constants.
/// Starting temperature of the first SA restart, in objective units
/// (seconds-ish).
constexpr double initial_temperature = 60.0;
/// Each reheated restart starts at initial_temperature *
/// reheat_factor^restart.
constexpr double reheat_factor = 0.5;
/// GRASP's RCL threshold: candidates scoring within
/// rcl_alpha * (max - min) of the greedy best are selection candidates
/// (0 = pure greedy, 1 = fully random construction).
constexpr double rcl_alpha = 0.3;

/// One deterministic greedy list pass: the cheapest valid incumbent, used
/// when an engine is handed no starting schedule.
schedule greedy_seed(const assay::sequencing_graph& graph,
                     int device_count, const timing_options& timing,
                     double alpha, double beta, bool storage_aware,
                     std::uint64_t seed) {
  list_scheduler_options lo;
  lo.device_count = device_count;
  lo.timing = timing;
  lo.alpha = alpha;
  lo.beta = beta;
  lo.storage_aware = storage_aware;
  lo.restarts = 1;
  lo.seed = seed;
  return schedule_with_list(graph, lo);
}

// ------------------------------------------------------------------- SA ---

/// Mutate `candidate` with one randomly chosen neighborhood move, recorded
/// in `move`. `timed` is the realized schedule of `candidate` before the
/// move and supplies the transfer kinds the storage-aware flips target.
/// Returns false when the sampled move is infeasible; either way
/// undo_relocation(candidate, move) takes it back.
bool propose_move(const assay::reachability& reach, binding& candidate,
                  const schedule& timed, int devices, prng& rng,
                  relocation& move) {
  const std::size_t n = candidate.device_of.size();
  const double r = rng.uniform_real();

  if (r < 0.25 && !timed.transfers.empty()) {
    // Transport -> handoff flip: pick a cached transfer and pull its
    // consumer directly behind its producer on the producer's device. The
    // cache hold (and both its legs) disappear if timing accepts it.
    const auto& tr = timed.transfers[rng.index(timed.transfers.size())];
    if (tr.kind == transfer_kind::cached) {
      const int producer_device =
          candidate.device_of[static_cast<std::size_t>(tr.source_op)];
      std::size_t pos = queue_position(candidate, tr.source_op) + 1;
      if (candidate.device_of[static_cast<std::size_t>(tr.target_op)] ==
              producer_device &&
          queue_position(candidate, tr.target_op) < pos)
        --pos; // consumer currently earlier on the same queue shifts it
      return relocate_op(reach, candidate, tr.target_op, producer_device,
                         pos, move);
    }
    // Sampled a non-cached transfer: fall through to the generic moves.
  }
  if (r < 0.4 && devices > 1 && !timed.transfers.empty()) {
    // Handoff -> store flip: evict the consumer of a handoff/direct
    // transfer to another device. The producer's port frees up earlier for
    // the ops behind it, at the cost of one cached transfer.
    const auto& tr = timed.transfers[rng.index(timed.transfers.size())];
    if (tr.kind != transfer_kind::cached) {
      int to = static_cast<int>(rng.index(static_cast<std::size_t>(devices)));
      const int cur =
          candidate.device_of[static_cast<std::size_t>(tr.target_op)];
      if (to == cur) to = (to + 1) % devices;
      const std::size_t len =
          candidate.device_order[static_cast<std::size_t>(to)].size();
      return relocate_op(reach, candidate, tr.target_op, to,
                         rng.index(len + 1), move);
    }
  }
  if (r < 0.55) {
    // Adjacent swap on one device queue.
    const int d = static_cast<int>(rng.index(static_cast<std::size_t>(devices)));
    const auto& q = candidate.device_order[static_cast<std::size_t>(d)];
    if (q.size() >= 2) {
      const std::size_t k = rng.index(q.size() - 1);
      return relocate_op(reach, candidate, q[k], d, k + 1, move);
    }
    // Queue too short: fall through to relocation.
  }
  const int op = static_cast<int>(rng.index(n));
  const int to =
      devices > 1 && rng.bernoulli(0.35)
          ? static_cast<int>(rng.index(static_cast<std::size_t>(devices)))
          : candidate.device_of[static_cast<std::size_t>(op)];
  const std::size_t len =
      candidate.device_order[static_cast<std::size_t>(to)].size() +
      (to == candidate.device_of[static_cast<std::size_t>(op)] ? 0 : 1);
  return relocate_op(reach, candidate, op, to, rng.index(len), move);
}

/// The annealer behind schedule_with_sa, on a caller-owned timer (GRASP
/// keeps one across its rounds). Options are already checked.
schedule anneal(const assay::sequencing_graph& graph,
                const sa_scheduler_options& options, binding_timer& timer) {
  const double beta = options.storage_aware ? options.beta : 0.0;
  const deadline budget(options.time_budget_seconds, options.cancel);

  const schedule start =
      options.start ? *options.start
                    : greedy_seed(graph, options.device_count, options.timing,
                                  options.alpha, options.beta,
                                  options.storage_aware, options.seed);
  const double start_cost = start.objective(options.alpha, beta);

  binding best = extract_binding(start, options.device_count);
  double best_cost = start_cost;
  schedule best_timed = start;

  const assay::reachability reach(graph);
  const int per_restart =
      std::max(1, options.iterations / options.restarts);
  const double cooling = std::pow(0.05, 1.0 / per_restart);

  for (int restart = 0; restart < options.restarts; ++restart) {
    if (budget.expired() || options.iterations == 0) break;
    prng rng(derive_seed(options.seed, static_cast<std::uint64_t>(restart)));
    // Reheat: resume from the incumbent at a (decaying) high temperature.
    double temperature =
        initial_temperature * std::pow(reheat_factor, restart);
    // One binding, moved in place: a rejected move is undone, an accepted
    // one kept along with its schedule (the flips read its transfers).
    binding current = best;
    reserve_queues(current, current.device_of.size());
    double current_cost = best_cost;
    schedule current_timed = best_timed;
    relocation move;

    for (int iter = 0; iter < per_restart; ++iter) {
      if ((iter & 127) == 0 && budget.expired()) break;
      if (!propose_move(reach, current, current_timed, options.device_count,
                        rng, move) ||
          !timer.time(current)) {
        // Infeasible move or a cross-device deadlock: reject.
        undo_relocation(current, move);
        temperature *= cooling;
        continue;
      }
      const double cost = timer.objective(options.alpha, beta);
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          rng.uniform_real() <
              std::exp(-delta / std::max(1e-9, temperature))) {
        current_cost = cost;
        timer.build_into(current_timed);
        if (cost < best_cost) {
          best_cost = cost;
          best = current;
          best_timed = current_timed;
        }
      } else {
        undo_relocation(current, move);
      }
      temperature *= cooling;
    }
  }

  best_timed.validate(graph);
  if (best_timed.objective(options.alpha, beta) > start_cost) return start;
  return best_timed;
}

} // namespace

schedule schedule_with_sa(const assay::sequencing_graph& graph,
                          const sa_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0, "sa scheduler: device count must be positive");
  require(options.iterations >= 0, "sa scheduler: negative iterations");
  require(options.restarts >= 1, "sa scheduler: need at least one restart");
  binding_timer timer(graph, options.device_count, options.timing);
  return anneal(graph, options, timer);
}

// ---------------------------------------------------------------- GRASP ---

namespace {

/// One randomized-greedy construction on `builder` (reset first): the
/// list scheduler's scoring rule, but each step picks uniformly from the
/// restricted candidate list of placements scoring within
/// rcl_alpha * (max - min) of the best.
schedule rcl_pass(const assay::sequencing_graph& graph,
                  const grasp_scheduler_options& options, prng& rng,
                  timeline_builder& builder) {
  builder.reset();
  const int n = graph.operation_count();
  const double beta = options.storage_aware ? options.beta : 0.0;

  struct candidate {
    int op = -1;
    int device = -1;
    double score = 0.0;
  };
  std::vector<candidate> candidates;
  std::vector<std::size_t> rcl;

  for (int step = 0; step < n; ++step) {
    candidates.clear();
    double min_score = std::numeric_limits<double>::infinity();
    double max_score = -std::numeric_limits<double>::infinity();
    for (int op = 0; op < n; ++op) {
      if (!builder.ready(op)) continue;
      for (int d = 0; d < options.device_count; ++d) {
        const auto placement = builder.preview(op, d);
        const double score =
            options.alpha * placement.end +
            beta * static_cast<double>(placement.cache_time_added);
        candidates.push_back({op, d, score});
        min_score = std::min(min_score, score);
        max_score = std::max(max_score, score);
      }
    }
    check(!candidates.empty(), "grasp: no ready operation (cycle?)");

    const double threshold =
        min_score + rcl_alpha * (max_score - min_score) + 1e-9;
    rcl.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (candidates[i].score <= threshold) rcl.push_back(i);

    const std::size_t pick = rcl[rng.index(rcl.size())];
    builder.commit(candidates[pick].op, candidates[pick].device);
  }
  return builder.build();
}

} // namespace

schedule schedule_with_grasp(const assay::sequencing_graph& graph,
                             const grasp_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0,
          "grasp scheduler: device count must be positive");
  require(options.rounds >= 1, "grasp scheduler: need at least one round");

  const double beta = options.storage_aware ? options.beta : 0.0;
  const deadline budget(options.time_budget_seconds, options.cancel);

  schedule best;
  double best_cost = std::numeric_limits<double>::infinity();
  // One builder for the constructions, one timer for the anneals: every
  // round reuses their edge index and scratch.
  timeline_builder builder(graph, options.device_count, options.timing);
  binding_timer timer(graph, options.device_count, options.timing);

  for (int round = 0; round < options.rounds; ++round) {
    if (round > 0 && budget.expired()) break;
    // Round 0 is one deterministic list pass; later rounds construct with
    // derived (not reused) seeds, each its own independent stream.
    schedule constructed;
    if (round == 0) {
      constructed = greedy_seed(graph, options.device_count, options.timing,
                                options.alpha, options.beta,
                                options.storage_aware, options.seed);
    } else {
      prng rng(derive_seed(options.seed, 0x47524153ULL + round));
      constructed = rcl_pass(graph, options, rng, builder);
    }

    if (options.improvement_iterations > 0 && !budget.expired()) {
      sa_scheduler_options sa;
      sa.device_count = options.device_count;
      sa.timing = options.timing;
      sa.alpha = options.alpha;
      sa.beta = options.beta;
      sa.storage_aware = options.storage_aware;
      sa.iterations = options.improvement_iterations;
      sa.restarts = 1;
      sa.seed = derive_seed(options.seed, 0x53415F49ULL + round);
      sa.cancel = options.cancel;
      if (options.time_budget_seconds > 0.0)
        sa.time_budget_seconds = std::max(budget.remaining_seconds(), 1e-3);
      sa.start = std::move(constructed);
      constructed = anneal(graph, sa, timer);
    }

    const double cost = constructed.objective(options.alpha, beta);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(constructed);
    }
  }

  if (options.start &&
      options.start->objective(options.alpha, beta) < best_cost)
    return *options.start;
  best.validate(graph);
  return best;
}

} // namespace transtore::sched
