// Shared vocabulary of the end-to-end synthesis benchmark: workload inputs,
// result quality and checks, the in-memory span tracer, and small
// statistics helpers. Everything here lives outside the library: the benchmark drives
// the public API and records spans around the calls it makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "assay/sequencing_graph.h"

namespace perfbench {

using namespace transtore;

/// Seconds on the monotonic clock (the clock run.py stamps spawns with).
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: derives every generated input from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One synthesis request as the program receives it.
struct request_spec {
  std::string label;             // manifest name
  assay::sequencing_graph graph;
  api::pipeline_options options;
  std::uint64_t generator_seed = 0; // 0 for the fixed Table 2 assays
};

/// Instance list of one workload pass, derived from the workload seed.
[[nodiscard]] std::vector<request_spec> make_pass_inputs(
    const std::string& workload, std::uint64_t seed);

/// serve_replay's hot set (catalog order), and the fresh assay a connection
/// sends as its miss of one round.
[[nodiscard]] std::vector<request_spec> serve_hot_set();
[[nodiscard]] request_spec serve_miss(std::uint64_t seed, int pass,
                                      int connection, int round);

/// One manifest line per request (name, operations, devices, grid, seeds).
void print_manifest(const std::string& workload, std::uint64_t seed,
                    const std::vector<request_spec>& inputs);

/// Quality of one verified result (objective (6) and the paper's metrics).
struct quality {
  double objective = 0.0;
  double makespan = 0.0;
  double valves = 0.0;
  double bound_ratio = 0.0; // proven lower bound / objective, in (0, 1]
  bool proven_optimal = false;
};

/// Quality of a flow result. The bound is the larger of the scheduling
/// MILP's proven bound (when it ran) and alpha * max(critical path, total
/// work / devices), which holds for every schedule because transport and
/// storage only add time.
[[nodiscard]] quality measure_quality(const request_spec& spec,
                                      const api::flow_result& flow);

/// Independent correctness check of a finished result: schedule and chip
/// validation plus a fresh simulator replay. Returns an empty string when
/// the result is sound, otherwise what failed.
[[nodiscard]] std::string check_result(const request_spec& spec,
                                       const api::flow_result& flow);

// ------------------------------------------------------------------ tracing

/// In-memory span recorder: name, start, end, parent, request id. Spans
/// are appended to a vector (no I/O while measuring) and written out once
/// at exit.
class tracer {
public:
  int open(const char* name, int request);
  void close(int id);

  /// RAII span around one call.
  class scope {
  public:
    scope(tracer& t, const char* name, int request)
        : tracer_(t), id_(t.open(name, request)) {}
    ~scope() { tracer_.close(id_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

  private:
    tracer& tracer_;
    int id_;
  };

  /// Self time (duration minus the part covered by direct children),
  /// summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Total duration per span name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// One JSON object per line.
  bool write(const std::string& path) const;

private:
  struct span {
    const char* name;
    double start;
    double end;
    int parent;
    int request;
  };
  std::vector<span> spans_;
  std::vector<int> stack_;
};

/// Confine this process, its threads and the processes it forks to one CPU
/// (the highest it may use). Spread over the box's shared cores, the serve
/// workload's requests pay cross-CPU wakeups whose cost follows the host's
/// load, and its throughput varied by 40 % from run to run. Every workload
/// runs pinned so their figures compare.
void pin_to_one_cpu();

/// Host-speed probe: a fixed kernel of dependent integer arithmetic and
/// random reads and writes over a 256 KiB and a 2 MiB table; returns its
/// wall time. The shared host's speed drifts by 10-30 % over minutes
/// (other tenants contend for the core and its caches), and the drift
/// moves whole runs; the timing metrics are scaled by reference_probe_s /
/// (median probe time of the run), which removes most of it. The probe
/// runs between requests, outside every request's latency.
double run_speed_probe();

/// Probe time that defines the reference host speed: a timing metric reads
/// as wall time on a host where the probe takes exactly this long.
inline constexpr double reference_probe_s = 0.004;

/// Peak resident set (VmHWM) in MB from a /proc/<pid>/status file.
[[nodiscard]] double peak_rss_mb(const std::string& proc_status);

// ---------------------------------------------------------------- statistics

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Highest whole percentile that leaves at least ten of `samples` beyond
/// it; 100 (the maximum) when there are ten samples or fewer.
[[nodiscard]] double tail_percentile(std::size_t samples);

[[nodiscard]] double geometric_mean(const std::vector<double>& values);

/// One reported metric.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better; // "lower" / "higher"
};

} // namespace perfbench
