// perfbench_runner: one synthesis workload end to end (untraced) or layer by
// layer (traced). perfbench/run.py builds this program and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_runner --workload W --seed S --seconds T --trace 0|1
//                    --cli PATH --work-dir DIR [--spawn-time MONO] [--setup-only]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/pipeline.h"
#include "runner.h"

namespace perfbench {
namespace {

void print_result(bool correct, long attempted, long failed,
                  const std::vector<metric>& metrics) {
  for (const metric& m : metrics)
    std::printf("metric %-32s %.9g %s (%s is better)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.better.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors)
    std::printf("incorrect: %s\n", e.c_str());
}

/// Workloads whose requests carry no wall-clock limit that binds, so every
/// pass must reproduce the first byte for byte.
bool deterministic_workload(const std::string& w) {
  return w == "exact_small" || w == "large_skip_ilp";
}

int trace_pipeline(const run_args& a, const std::vector<request_spec>& inputs) {
  std::vector<std::string> errors;
  long failed = 0;
  tracer t;
  layer_counts counts;
  // Each request runs once untraced (the reference for the tracing
  // overhead) and then traced, back to back. In-process, the client's own
  // time per request is the harness bookkeeping after each call.
  double untraced_sum = 0.0;
  double client_sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const request_spec& spec = inputs[i];
    const double t0 = now_seconds();
    const auto r = api::pipeline(spec.graph, spec.options).run();
    const double t1 = now_seconds();
    untraced_sum += t1 - t0;
    if (!r.ok()) errors.push_back(spec.label + ": untraced reference failed");
    client_sum += now_seconds() - t1;

    api::flow_result flow;
    const std::string bad =
        trace_request(t, static_cast<int>(i), spec, counts, flow);
    if (bad.rfind("invalid: ", 0) == 0)
      errors.push_back(spec.label + ": " + bad);
    else if (!bad.empty())
      ++failed;
    else if (a.workload == "exact_small" &&
             flow.scheduling.ilp_status != milp::solve_status::optimal)
      ++failed;
  }
  if (counts.probed == 0)
    probe_skipped_model(t, static_cast<int>(inputs.size()), inputs.front(),
                        counts);
  const double client_overhead =
      client_sum / static_cast<double>(inputs.size());
  return print_layers(a, t, counts,
                      layer_metrics(t, counts, untraced_sum, client_overhead),
                      static_cast<long>(inputs.size()), failed, errors);
}

} // namespace

int print_end_to_end(const end_to_end& e,
                     const std::vector<std::string>& errors) {
  // Throughput, median and tail latency, either over all samples pooled or
  // as the median over passes of each pass's own figures.
  double throughput = 0.0, p50 = 0.0, tail = 0.0;
  if (e.pool_passes) {
    std::vector<double> all;
    double seconds = 0.0;
    for (const pass_record& p : e.passes) {
      all.insert(all.end(), p.latency.begin(), p.latency.end());
      seconds += p.seconds;
    }
    // From 100 samples on, p90 (ten beyond it at 100): the highest
    // percentile with ten beyond would rise with the number of passes a run
    // fits, and move the tail onto a slower request when the host is fast.
    const double q = all.size() >= 100 ? 90.0 : tail_percentile(all.size());
    throughput = seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
    p50 = percentile(all, 50.0);
    tail = percentile(all, q);
    std::printf("latency_tail_s: p%g of %zu samples pooled over %zu passes\n",
                q, all.size(), e.passes.size());
  } else {
    std::vector<double> rates, p50s, tails;
    double q = 100.0;
    for (const pass_record& p : e.passes) {
      q = tail_percentile(p.latency.size());
      rates.push_back(static_cast<double>(p.latency.size()) / p.seconds);
      p50s.push_back(percentile(p.latency, 50.0));
      tails.push_back(percentile(p.latency, q));
    }
    throughput = percentile(rates, 50.0);
    p50 = percentile(p50s, 50.0);
    tail = percentile(tails, 50.0);
    std::printf("latency_tail_s: p%g of each pass's %zu samples, median over "
                "%zu passes\n",
                q, e.passes.empty() ? 0 : e.passes.front().latency.size(),
                e.passes.size());
  }
  std::printf("optimal_share: %ld of %ld requests proven optimal\n",
              e.proven_optimal, e.attempted);
  // Timing at the reference host speed (see run_speed_probe).
  const double probe = percentile(e.probe, 50.0);
  const double scale = probe > 0.0 ? reference_probe_s / probe : 1.0;
  std::printf("host speed: probe median %.6f s over %zu samples, reference "
              "%.6f s; wall time: requests_per_s %.9g latency_p50_s %.9g "
              "latency_tail_s %.9g\n",
              probe, e.probe.size(), reference_probe_s, throughput, p50, tail);
  throughput /= scale;
  p50 *= scale;
  tail *= scale;
  const std::vector<metric> metrics = {
      {"requests_per_s", throughput, "1/s", "higher"},
      {"latency_p50_s", p50, "s", "lower"},
      {"latency_tail_s", tail, "s", "lower"},
      {"ok_share",
       e.attempted > 0 ? static_cast<double>(e.attempted - e.failed) /
                             static_cast<double>(e.attempted)
                       : 0.0,
       "ratio", "higher"},
      {"objective6_gmean", geometric_mean(e.objective), "objective", "lower"},
      {"makespan_gmean", geometric_mean(e.makespan), "assay_s", "lower"},
      {"valves_gmean", geometric_mean(e.valves), "count", "lower"},
      {"bound_ratio_gmean", geometric_mean(e.bound_ratio), "ratio", "higher"},
      {"setup_s", e.setup_s, "s", "lower"},
      {"peak_rss_mb", e.peak_rss_mb, "MB", "lower"},
  };
  print_errors(errors);
  print_result(errors.empty(), e.attempted, e.failed, metrics);
  return errors.empty() ? 0 : 1;
}

int print_layers(const run_args& a, const tracer& t, const layer_counts& c,
                 const std::vector<metric>& layers, long attempted,
                 long failed, const std::vector<std::string>& errors) {
  const std::string path = a.work_dir + "/trace_" + a.workload + "_" +
                           std::to_string(a.seed) + ".jsonl";
  if (!t.write(path))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  else
    std::printf("trace: %zu spans written to %s\n", t.size(), path.c_str());
  for (const auto& [name, seconds] : t.self_seconds())
    std::printf("self_time %-22s %.6f s\n", name.c_str(), seconds);
  std::printf("replay: %d of %d uncapped requests reproduced the stage "
              "objective\n",
              c.replay_matches, c.uncapped);
  for (const std::string& m : c.replay_mismatches)
    std::printf("replay_mismatch: %s\n", m.c_str());
  print_errors(errors);
  print_result(errors.empty(), attempted, failed, layers);
  return errors.empty() ? 0 : 1;
}

int run_pipeline(const run_args& a) {
  const double spawn = a.spawn_time >= 0.0 ? a.spawn_time : now_seconds();
  const std::vector<request_spec> inputs = make_pass_inputs(a.workload, a.seed);
  print_manifest(a.workload, a.seed, inputs);
  const double setup_s = now_seconds() - spawn;
  if (a.setup_only) {
    std::printf("setup_s %.9f\n", setup_s);
    return 0;
  }
  if (a.trace) return trace_pipeline(a, inputs);

  end_to_end e;
  e.setup_s = setup_s;
  std::vector<std::string> errors;
  std::vector<std::string> first_pass(inputs.size());
  const bool deterministic = deterministic_workload(a.workload);
  // Deterministic workloads check reproducibility, so they run two passes.
  const int min_passes = deterministic ? 2 : 1;
  (void)run_speed_probe(); // first touch of the probe's table
  const double start = now_seconds();
  for (int pass = 0;; ++pass) {
    const double pass_start = now_seconds();
    pass_record record;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const request_spec& spec = inputs[i];
      const double t0 = now_seconds();
      const auto r = api::pipeline(spec.graph, spec.options).run();
      record.latency.push_back(now_seconds() - t0);
      e.probe.push_back(run_speed_probe());
      ++e.attempted;
      if (!r.has_value()) {
        ++e.failed;
        std::printf("failed: %s %s: %s\n", spec.label.c_str(),
                    api::to_string(r.code()), r.message().c_str());
        continue;
      }
      const api::flow_result& flow = r.value();
      if (const std::string bad = check_result(spec, flow); !bad.empty()) {
        errors.push_back(spec.label + ": " + bad);
        ++e.failed;
        continue;
      }
      const quality q = measure_quality(spec, flow);
      if (!r.ok() || (a.workload == "exact_small" && !q.proven_optimal)) {
        ++e.failed;
        std::printf("failed: %s %s%s\n", spec.label.c_str(),
                    api::to_string(r.code()),
                    q.proven_optimal ? "" : " (not proven optimal)");
        continue;
      }
      e.objective.push_back(q.objective);
      e.makespan.push_back(q.makespan);
      e.valves.push_back(q.valves);
      e.bound_ratio.push_back(q.bound_ratio);
      if (q.proven_optimal) ++e.proven_optimal;
      if (deterministic) {
        std::string doc = api::to_json(spec.graph, flow, false);
        if (pass == 0)
          first_pass[i] = std::move(doc);
        else if (doc != first_pass[i])
          errors.push_back(spec.label + ": pass " + std::to_string(pass + 1) +
                           " result differs from pass 1");
      }
    }
    const double pass_time = now_seconds() - pass_start;
    record.seconds = pass_time;
    e.passes.push_back(std::move(record));
    std::printf("pass %d: %zu requests in %.3f s\n", pass + 1, inputs.size(),
                pass_time);
    if (pass + 1 >= min_passes && now_seconds() - start + pass_time > a.seconds)
      break;
  }
  // VmHWM, not getrusage: ru_maxrss keeps the spawning parent's peak
  // across exec.
  e.peak_rss_mb = peak_rss_mb("/proc/self/status");
  return print_end_to_end(e, errors);
}

} // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload table2_default|exact_small|"
               "large_skip_ilp|serve_replay --seed S --seconds T --trace 0|1 "
               "--cli PATH --work-dir DIR [--spawn-time T] [--setup-only]\n");
}

} // namespace

int main(int argc, char** argv) {
  perfbench::run_args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      if (value == nullptr) {
        usage();
        std::exit(2);
      }
      ++i;
      return value;
    };
    if (arg == "--workload") a.workload = take();
    else if (arg == "--seed") a.seed = std::strtoull(take(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(take());
    else if (arg == "--trace") a.trace = std::strcmp(take(), "0") != 0;
    else if (arg == "--cli") a.cli = take();
    else if (arg == "--work-dir") a.work_dir = take();
    else if (arg == "--spawn-time") a.spawn_time = std::atof(take());
    else if (arg == "--setup-only") a.setup_only = true;
    else {
      usage();
      return 2;
    }
  }
  if (a.work_dir.empty()) a.work_dir = ".";
  perfbench::pin_to_one_cpu();
  try {
    if (a.workload == "serve_replay") {
      if (a.cli.empty()) {
        usage();
        return 2;
      }
      return perfbench::run_serve(a);
    }
    if (perfbench::make_pass_inputs(a.workload, a.seed).empty()) {
      usage();
      return 2;
    }
    return perfbench::run_pipeline(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
