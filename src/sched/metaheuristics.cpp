#include "sched/metaheuristics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/prng.h"
#include "common/stopwatch.h"
#include "sched/list_scheduler.h"
#include "sched/local_search.h"
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
/// Starting temperature of an anneal (the first SA restart, the post-pass),
/// in objective units (seconds-ish).
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

// ------------------------------------------------------------ moves ---

/// The plain relocation move: a random operation to a random slot of its
/// own queue or, with probability 0.35 on several devices, of a random
/// device's queue. Returns false when the slot is precedence-infeasible;
/// either way undo_relocation(candidate, move) takes it back.
bool relocate_random(const assay::reachability& reach, binding& candidate,
                     int devices, prng& rng, relocation& move) {
  const int op = static_cast<int>(rng.index(candidate.device_of.size()));
  const int from = candidate.device_of[static_cast<std::size_t>(op)];
  const int to =
      devices > 1 && rng.bernoulli(0.35)
          ? static_cast<int>(rng.index(static_cast<std::size_t>(devices)))
          : from;
  const std::size_t slots =
      candidate.device_order[static_cast<std::size_t>(to)].size() +
      (to == from ? 0 : 1);
  return relocate_op(reach, candidate, op, to, rng.index(slots), move);
}

/// SA's move set: the storage-aware flips and adjacent swaps, falling
/// through to relocate_random. `timed` is the realized schedule of
/// `candidate` before the move and supplies the transfer kinds the flips
/// target. Returns false when the sampled move is infeasible; either way
/// undo_relocation(candidate, move) takes it back.
bool propose_move(const assay::reachability& reach, binding& candidate,
                  const schedule& timed, int devices, prng& rng,
                  relocation& move) {
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
  return relocate_random(reach, candidate, devices, rng, move);
}

// ----------------------------------------------------------- anneal ---

/// The best binding an anneal has found, its objective (6) and, when the
/// move set has flips, its timed schedule.
struct incumbent {
  binding order;
  double cost = 0.0;
  schedule timed;
};

/// The one annealing loop of `sched`. It serves SA's reheated restarts,
/// GRASP's per-round polish, `combined`'s pre-MILP anneal and the
/// post-pass (improve_schedule). The reachability closure and the timer
/// are built once and reused by every run.
class annealer {
public:
  annealer(const assay::sequencing_graph& graph, int devices,
           const timing_options& timing, double alpha, double beta)
      : graph_(graph), reach_(graph), timer_(graph, devices, timing),
        devices_(devices), alpha_(alpha), beta_(beta) {}

  [[nodiscard]] double cost(const schedule& s) const {
    return s.objective(alpha_, beta_);
  }

  /// `iterations` moves from `best` at `temperature`, cooling
  /// geometrically to 5% of it, on an RNG seeded with `seed`. A move is
  /// kept when it does not worsen objective (6) or passes the Metropolis
  /// test; `best` follows every improvement. `flips` selects SA's move
  /// set, whose flips read the accepted schedule's transfers, so only a
  /// run with flips builds that schedule and keeps `best.timed`; without
  /// it every move is a plain relocation.
  void run(incumbent& best, int iterations, double temperature,
           std::uint64_t seed, bool flips, const deadline& budget) {
    if (iterations <= 0) return;
    prng rng(seed);
    const double cooling = std::pow(0.05, 1.0 / iterations);
    // One binding, moved in place: a rejected move is undone, an accepted
    // one kept.
    binding current = best.order;
    reserve_queues(current, current.device_of.size());
    double current_cost = best.cost;
    schedule current_timed;
    if (flips) current_timed = best.timed;
    relocation move;

    for (int iter = 0; iter < iterations; ++iter) {
      if ((iter & 127) == 0 && budget.expired()) break;
      const bool moved =
          flips ? propose_move(reach_, current, current_timed, devices_,
                               rng, move)
                : relocate_random(reach_, current, devices_, rng, move);
      if (!moved || !timer_.time(current)) {
        // Infeasible move or a cross-device deadlock: reject.
        undo_relocation(current, move);
        temperature *= cooling;
        continue;
      }
      const double cost = timer_.objective(alpha_, beta_);
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          rng.uniform_real() <
              std::exp(-delta / std::max(1e-9, temperature))) {
        current_cost = cost;
        if (flips) timer_.build_into(current_timed);
        if (cost < best.cost) {
          best.cost = cost;
          best.order = current;
          if (flips) best.timed = current_timed;
        }
      } else {
        undo_relocation(current, move);
      }
      temperature *= cooling;
    }
  }

  /// SA: `restarts` runs with flips sharing `iterations`, each resuming
  /// from the incumbent, restart k at initial_temperature *
  /// reheat_factor^k on the stream derive_seed(seed, k). Returns the best
  /// schedule, or `start` itself when nothing improved on it.
  [[nodiscard]] schedule reheated(schedule start, int iterations,
                                  int restarts, std::uint64_t seed,
                                  const deadline& budget) {
    const double start_cost = cost(start);
    incumbent best{extract_binding(start, devices_), start_cost, start};
    const int per_restart = std::max(1, iterations / restarts);
    for (int restart = 0; restart < restarts; ++restart) {
      if (budget.expired() || iterations == 0) break;
      run(best, per_restart,
          initial_temperature * std::pow(reheat_factor, restart),
          derive_seed(seed, static_cast<std::uint64_t>(restart)),
          /*flips=*/true, budget);
    }
    best.timed.validate(graph_);
    if (cost(best.timed) > start_cost) return start;
    return std::move(best.timed);
  }

private:
  const assay::sequencing_graph& graph_;
  assay::reachability reach_;
  binding_timer timer_;
  int devices_;
  double alpha_;
  double beta_;
};

} // namespace

schedule schedule_with_sa(const assay::sequencing_graph& graph,
                          const sa_scheduler_options& options) {
  graph.validate();
  require(options.device_count > 0, "sa scheduler: device count must be positive");
  require(options.iterations >= 0, "sa scheduler: negative iterations");
  require(options.restarts >= 1, "sa scheduler: need at least one restart");
  const double beta = options.storage_aware ? options.beta : 0.0;
  annealer sa(graph, options.device_count, options.timing, options.alpha,
              beta);
  const deadline budget(options.time_budget_seconds, options.cancel);
  schedule start =
      options.start ? *options.start
                    : greedy_seed(graph, options.device_count, options.timing,
                                  options.alpha, options.beta,
                                  options.storage_aware, options.seed);
  return sa.reheated(std::move(start), options.iterations, options.restarts,
                     options.seed, budget);
}

schedule improve_schedule(const assay::sequencing_graph& graph,
                          const schedule& start,
                          const timing_options& timing,
                          const local_search_options& options) {
  require(options.iterations >= 0, "improve_schedule: negative iterations");
  const int devices = start.device_count;
  annealer post(graph, devices, timing, options.alpha, options.beta);
  const double start_cost = post.cost(start);
  incumbent best{extract_binding(start, devices), start_cost, {}};
  post.run(best, options.iterations, initial_temperature, options.seed,
           /*flips=*/false,
           deadline(options.time_budget_seconds, options.cancel));
  // Re-time the best binding even when no move improved on it, and keep
  // `start` only when that is worse.
  schedule result = refine_timing(graph, best.order, devices, timing);
  result.validate(graph);
  if (post.cost(result) > start_cost) return start;
  return result;
}

// ---------------------------------------------------------------- GRASP ---

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
  // One builder and pass for the constructions, one annealer for the
  // polish: every round reuses their buffers.
  timeline_builder builder(graph, options.device_count, options.timing);
  greedy_pass construct(graph, options.device_count, options.alpha,
                        options.beta, options.storage_aware);
  construct.rcl_alpha = rcl_alpha;
  annealer polish(graph, options.device_count, options.timing,
                  options.alpha, beta);

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
      builder.reset();
      construct.run(builder, rng);
      constructed = builder.build();
    }

    if (options.improvement_iterations > 0 && !budget.expired())
      constructed = polish.reheated(
          std::move(constructed), options.improvement_iterations, 1,
          derive_seed(options.seed, 0x53415F49ULL + round), budget);

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
