#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "sim/simulator.h"

namespace perfbench {

// ------------------------------------------------------------------ quality

namespace {

double trivial_lower_bound(const request_spec& spec) {
  const int devices = std::max(1, spec.options.device_count);
  const double load =
      std::ceil(static_cast<double>(spec.graph.total_duration()) / devices);
  return spec.options.alpha *
         std::max(static_cast<double>(spec.graph.critical_path_duration()),
                  load);
}

} // namespace

quality measure_quality(const request_spec& spec,
                        const api::flow_result& flow) {
  const api::pipeline_options& o = spec.options;
  const double beta = o.storage_aware ? o.beta : 0.0;
  const sched::scheduling_result& s = flow.scheduling;
  quality q;
  q.objective = s.best.objective(o.alpha, beta);
  q.makespan = s.best.makespan();
  q.valves = flow.architecture.result.valve_count();
  q.proven_optimal =
      s.used_ilp && s.ilp_status == milp::solve_status::optimal;
  double bound = trivial_lower_bound(spec);
  if (s.used_ilp && std::isfinite(s.ilp_bound))
    bound = std::max(bound, s.ilp_bound);
  q.bound_ratio = q.objective > 0.0 ? std::min(1.0, bound / q.objective) : 1.0;
  return q;
}

std::string check_result(const request_spec& spec,
                         const api::flow_result& flow) {
  try {
    flow.scheduling.best.validate(spec.graph);
    flow.architecture.result.validate(flow.architecture.workload);
    const sim::sim_stats stats =
        sim::simulate(spec.graph, flow.scheduling.best,
                      flow.architecture.workload, flow.architecture.result);
    if (stats.makespan != flow.scheduling.best.makespan())
      return "simulated makespan " + std::to_string(stats.makespan) +
             " differs from the schedule's " +
             std::to_string(flow.scheduling.best.makespan());
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

// ------------------------------------------------------------------ tracing

int tracer::open(const char* name, int request) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_seconds(), 0.0, parent, request});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_seconds();
  // Spans are strictly nested (RAII scopes on one thread).
  stack_.pop_back();
}

std::map<std::string, double> tracer::total_seconds() const {
  std::map<std::string, double> out;
  for (const span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  return out;
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"request\":%d}\n",
                 i, s.name, s.start - origin, s.end - origin, s.parent,
                 s.request);
  }
  return std::fclose(f) == 0;
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
}

double run_speed_probe() {
  // A table that stays in the core's own caches and one the size of its
  // L2: the probe feels contention for the core and for the caches behind
  // it, as the workloads do.
  static std::vector<std::uint32_t> small(std::size_t{1} << 16, 1u);
  static std::vector<std::uint32_t> large(std::size_t{1} << 19, 1u);
  double elapsed = 0.0;
  for (std::vector<std::uint32_t>* table : {&small, &large}) {
    std::uint32_t* words = table->data();
    const std::size_t mask = table->size() - 1;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
    const double start = now_seconds();
    for (int i = 0; i < 400000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * x + (x >> 3);
      acc += words[(x >> 20) & mask];
      words[(x >> 40) & mask] ^= static_cast<std::uint32_t>(acc);
    }
    elapsed += now_seconds() - start;
    words[0] += static_cast<std::uint32_t>(acc); // keeps the loop observable
  }
  return elapsed;
}

double peak_rss_mb(const std::string& proc_status) {
  std::ifstream status(proc_status);
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// --------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double tail_percentile(std::size_t samples) {
  if (samples <= 10) return 100.0;
  return std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(samples)));
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += std::log(v);
  return std::exp(sum / static_cast<double>(values.size()));
}

} // namespace perfbench
