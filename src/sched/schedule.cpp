#include "sched/schedule.h"

#include <algorithm>
#include <string>

namespace transtore::sched {

int schedule::makespan() const {
  int latest = 0;
  for (const auto& op : ops) latest = std::max(latest, op.end);
  return latest;
}

int schedule::store_count() const {
  int count = 0;
  for (const auto& t : transfers)
    if (t.kind == transfer_kind::cached) ++count;
  return count;
}

int schedule::peak_concurrent_caches() const {
  // Sweep hold boundaries.
  std::vector<std::pair<int, int>> events; // (time, +1/-1)
  for (const auto& t : transfers) {
    if (t.kind != transfer_kind::cached || t.cache_hold.empty()) continue;
    events.emplace_back(t.cache_hold.begin, 1);
    events.emplace_back(t.cache_hold.end, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second; // process releases before acquires
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    (void)time;
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

long schedule::total_cache_time() const {
  long total = 0;
  for (const auto& t : transfers)
    if (t.kind == transfer_kind::cached) total += t.cache_hold.length();
  return total;
}

std::vector<int> schedule::caches_active_at(int t) const {
  std::vector<int> active;
  for (std::size_t i = 0; i < transfers.size(); ++i)
    if (transfers[i].kind == transfer_kind::cached &&
        transfers[i].cache_hold.contains(t))
      active.push_back(static_cast<int>(i));
  return active;
}

double schedule::objective(double alpha, double beta) const {
  return objective_value(alpha, beta, makespan(), total_cache_time());
}

void schedule::validate(const assay::sequencing_graph& graph) const {
  const int n = graph.operation_count();
  check(static_cast<int>(ops.size()) == n,
        "schedule: wrong number of scheduled operations");
  for (int i = 0; i < n; ++i) {
    const scheduled_op& s = ops[static_cast<std::size_t>(i)];
    check(s.op == i, "schedule: ops must be indexed by operation id");
    check(s.device >= 0 && s.device < device_count,
          "schedule: device out of range");
    check(s.end - s.start == graph.at(i).duration,
          "schedule: execution interval does not match duration");
    check(s.start >= 0, "schedule: negative start time");
  }

  check(static_cast<int>(transfers.size()) == graph.edge_count(),
        "schedule: one transfer required per graph edge");

  auto leg_at = [&](int index) -> const transport_leg& {
    check(index >= 0 && index < static_cast<int>(legs.size()),
          "schedule: transfer references unknown leg");
    return legs[static_cast<std::size_t>(index)];
  };

  for (const edge_transfer& t : transfers) {
    const scheduled_op& src = ops[static_cast<std::size_t>(t.source_op)];
    const scheduled_op& dst = ops[static_cast<std::size_t>(t.target_op)];
    switch (t.kind) {
      case transfer_kind::handoff:
        check(src.device == dst.device,
              "schedule: handoff across different devices");
        check(dst.start >= src.end, "schedule: handoff violates precedence");
        break;
      case transfer_kind::direct: {
        const transport_leg& leg = leg_at(t.direct_leg);
        check(leg.kind == leg_kind::direct, "schedule: direct leg kind");
        check(leg.window.begin >= src.end,
              "schedule: direct leg departs before producer finishes");
        check(leg.window.length() == transport_time,
              "schedule: direct leg length");
        check(dst.start >= leg.window.end,
              "schedule: consumer starts before direct leg arrives");
        break;
      }
      case transfer_kind::cached: {
        const transport_leg& store = leg_at(t.store_leg);
        const transport_leg& fetch = leg_at(t.fetch_leg);
        check(store.kind == leg_kind::store && fetch.kind == leg_kind::fetch,
              "schedule: cached transfer leg kinds");
        check(store.window.length() == transport_time &&
                  fetch.window.length() == transport_time,
              "schedule: cached transfer leg lengths");
        check(store.window.begin >= src.end,
              "schedule: store leg departs before producer finishes");
        check(t.cache_hold.begin == store.window.end &&
                  t.cache_hold.end == fetch.window.begin,
              "schedule: hold must span store end to fetch begin");
        check(!(t.cache_hold.end < t.cache_hold.begin),
              "schedule: negative cache hold");
        check(dst.start >= fetch.window.end,
              "schedule: consumer starts before fetch arrives");
        break;
      }
    }
  }

  // Device exclusivity: execution intervals and port legs must not overlap.
  std::vector<std::vector<time_interval>> busy(
      static_cast<std::size_t>(device_count));
  for (const auto& op : ops)
    busy[static_cast<std::size_t>(op.device)].push_back(
        {op.start, op.end});
  for (const auto& leg : legs) {
    check(leg.window.length() == transport_time, "schedule: leg length != uc");
    if (leg.from_device >= 0)
      busy[static_cast<std::size_t>(leg.from_device)].push_back(leg.window);
    if (leg.to_device >= 0 && leg.to_device != leg.from_device)
      busy[static_cast<std::size_t>(leg.to_device)].push_back(leg.window);
  }
  for (int d = 0; d < device_count; ++d) {
    auto& intervals = busy[static_cast<std::size_t>(d)];
    std::sort(intervals.begin(), intervals.end(),
              [](const time_interval& a, const time_interval& b) {
                return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < intervals.size(); ++i)
      if (intervals[i].begin < intervals[i - 1].end)
        throw internal_error("schedule: overlapping activity on device " +
                             std::to_string(d));
  }
}

} // namespace transtore::sched
