// serve_replay: the cached path through `transtore_cli serve` on a unix
// socket, driven closed-loop by one client connection.
//
// One connection, because client and server share one CPU: with four, a
// hit waited behind another connection's miss for as long as the kernel
// scheduler's time slices said, and the tail latency swung 2.4x when the
// host's speed swung 1.6x. With one, every latency is service time.
//
// An untimed warm pass fills the result cache with a hot set of 32 assays.
// Each timed round then sends, per connection, nine hits (the connection
// walks the hot set cyclically from its own offset) and one miss: a fresh
// generated assay with the heuristic engine, issued by that connection
// only, so single-flight coalescing never merges two requests and the hit
// and miss counts repeat exactly. Misses store and evict (the cache holds
// 64 entries) beside the hits' lookups. Because every connection touches
// all hot keys between any four of its own misses, the LRU victim is
// always an old miss and no hot key is ever evicted.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/serialize.h"
#include "assay/io.h"
#include "common/json.h"
#include "runner.h"

namespace perfbench {
namespace {

constexpr int connections = 1;
constexpr int hits_per_miss = 9;
constexpr int rounds_per_pass = 80; // 800 requests a pass
constexpr int replayed_misses = 16; // traced run: misses replayed in-process

/// One blocking line-oriented client connection.
class connection {
public:
  explicit connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + why);
    }
  }
  ~connection() { ::close(fd_); }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  std::string request(std::string line) {
    line.push_back('\n');
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t k =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send: " + errno_text());
      }
      off += static_cast<std::size_t>(k);
    }
    return read_line();
  }

private:
  static std::string errno_text() { return std::strerror(errno); }

  std::string read_line() {
    std::size_t scanned = 0;
    for (;;) {
      const std::size_t pos = buffer_.find('\n', scanned);
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      scanned = buffer_.size();
      char chunk[1 << 16];
      const ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("recv: " + errno_text());
      }
      if (k == 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(k));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The serve process under test; killed and reaped if still running when
/// the benchmark leaves.
class server_process {
public:
  server_process(const std::string& cli, std::string socket)
      : socket_(std::move(socket)) {
    const std::string workers = std::to_string(connections);
    spawned_ = now_seconds();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The server must not outlive the benchmark, even when it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int null_fd = ::open("/dev/null", O_RDWR);
      if (null_fd >= 0) {
        ::dup2(null_fd, 0);
        ::dup2(null_fd, 1);
        ::dup2(null_fd, 2);
      }
      // One executor worker per connection: a hit never queues behind
      // another connection's miss.
      ::execl(cli.c_str(), "transtore_cli", "serve", "--socket",
              socket_.c_str(), "--workers", workers.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~server_process() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  /// Connect once the listener is up and answer one ping; returns the
  /// seconds from spawn to the answered ping.
  double wait_ready() {
    for (;;) {
      if (exited()) throw std::runtime_error("server exited during start-up");
      try {
        connection c(socket_);
        const std::string reply = c.request("{\"op\":\"ping\"}");
        if (reply.find("\"ok\"") == std::string::npos)
          throw std::runtime_error("bad ping reply: " + reply);
        return now_seconds() - spawned_;
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).rfind("connect", 0) != 0) throw;
      }
      if (now_seconds() - spawned_ > 30.0)
        throw std::runtime_error("server did not start listening");
      ::usleep(100);
    }
  }

  /// Peak resident set of the server, in MB.
  [[nodiscard]] double peak_rss() const {
    return peak_rss_mb("/proc/" + std::to_string(pid_) + "/status");
  }

  /// Ask the server to shut down and reap it (SIGKILL after 10 s).
  void stop() {
    try {
      connection c(socket_);
      (void)c.request("{\"op\":\"shutdown\"}");
    } catch (const std::runtime_error&) {
    }
    for (int waited = 0; waited < 10000 && !exited(); ++waited) ::usleep(1000);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

private:
  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  std::string socket_;
  pid_t pid_ = -1;
  double spawned_ = 0.0;
};

std::string synth_line(long id, const request_spec& spec) {
  json_writer w;
  w.begin_object();
  w.field("id", id);
  w.field("op", "synth");
  w.field("graph", assay::to_text(spec.graph));
  w.key("options");
  api::write_options(w, spec.options);
  w.end_object();
  return w.str();
}

struct reply {
  std::string status;
  bool cache_hit = false;
  std::string result; // the flow document, byte-exact
};

reply parse_reply(const std::string& line) {
  static const std::string marker = ",\"result\":";
  const std::size_t pos = line.find(marker);
  const json_value head = json_value::parse(
      pos == std::string::npos ? line : line.substr(0, pos) + "}");
  reply r;
  r.status = head.at("status").as_string();
  if (const json_value* hit = head.find("cache_hit")) r.cache_hit = hit->as_bool();
  if (pos != std::string::npos)
    r.result = line.substr(pos + marker.size(),
                           line.size() - pos - marker.size() - 1);
  return r;
}

/// Correctness and quality of one returned flow document.
struct checked_doc {
  std::string error;
  quality q;
};

checked_doc check_document(const std::string& doc) {
  checked_doc out;
  auto parsed = api::deserialize_flow(doc);
  if (!parsed.ok()) {
    out.error = "document does not deserialize: " + parsed.message();
    return out;
  }
  const api::flow_document& d = parsed.value();
  request_spec spec;
  spec.graph = d.graph;
  spec.options = d.options;
  out.error = check_result(spec, d.flow);
  out.q = measure_quality(spec, d.flow);
  return out;
}

/// Everything one connection saw during one pass.
struct connection_log {
  std::vector<double> latency;
  std::vector<int> hit_keys;             // hot index per hit, in order
  std::vector<request_spec> miss_specs;
  std::vector<std::string> miss_docs;
  std::vector<std::string> errors;       // incorrect outputs
  long failed = 0;
};

void run_connection(connection& c, std::uint64_t seed, int pass, int conn,
                    const std::vector<std::string>& hot_lines,
                    const std::vector<std::string>& hot_docs,
                    connection_log& log) {
  try {
    int cursor = 8 * conn + pass * rounds_per_pass * hits_per_miss;
    long id = (static_cast<long>(pass) << 32) | (static_cast<long>(conn) << 20);
    for (int round = 0; round < rounds_per_pass; ++round) {
      for (int k = 0; k <= hits_per_miss; ++k) {
        const bool miss = k == hits_per_miss;
        request_spec spec;
        int key = -1;
        std::string line;
        if (miss) {
          spec = serve_miss(seed, pass, conn, round);
          line = synth_line(++id, spec);
        } else {
          key = cursor++ % static_cast<int>(hot_lines.size());
          line = hot_lines[static_cast<std::size_t>(key)];
        }
        const double t0 = now_seconds();
        const std::string response = c.request(line);
        log.latency.push_back(now_seconds() - t0);
        const reply r = parse_reply(response);
        if (r.status != "ok") {
          ++log.failed;
        } else if (miss) {
          if (r.cache_hit)
            log.errors.push_back("fresh assay " + spec.label +
                                 " answered from the cache");
          log.miss_specs.push_back(std::move(spec));
          log.miss_docs.push_back(r.result);
        } else {
          if (!r.cache_hit)
            log.errors.push_back("hot key " + std::to_string(key) +
                                 " missed the cache");
          else if (r.result != hot_docs[static_cast<std::size_t>(key)])
            log.errors.push_back("hit on hot key " + std::to_string(key) +
                                 " is not byte-identical to its miss document");
          log.hit_keys.push_back(key);
        }
      }
    }
  } catch (const std::exception& e) {
    log.errors.push_back(std::string("connection ") + std::to_string(conn) +
                         ": " + e.what());
  }
}

/// Server-side counters from one `stats` reply.
struct server_counters {
  double lookups = 0, memory_hits = 0, disk_hits = 0, misses = 0;
  double coalesced = 0, evictions = 0, negative_hits = 0;
  double queue_full = 0, shed = 0, framing_errors = 0;
  double bytes_out = 0, responses = 0;
  double synth_count = 0, synth_total_ms = 0;
};

server_counters read_stats(connection& c) {
  const json_value v = json_value::parse(c.request("{\"op\":\"stats\"}"));
  server_counters s;
  const json_value& cache = v.at("cache");
  s.lookups = cache.at("lookups").as_double();
  s.memory_hits = cache.at("memory_hits").as_double();
  s.disk_hits = cache.at("disk_hits").as_double();
  s.misses = cache.at("misses").as_double();
  s.coalesced = cache.at("coalesced_hits").as_double();
  s.evictions = cache.at("evictions").as_double();
  s.negative_hits = cache.at("negative_hits").as_double();
  s.queue_full = v.at("executor").at("rejected_queue_full").as_double();
  const json_value& serve = v.at("serve");
  s.shed = serve.at("shed").as_double();
  s.framing_errors = serve.at("framing_errors").as_double();
  s.bytes_out = serve.at("bytes_out").as_double();
  s.responses = serve.at("responses").as_double();
  if (const json_value* synth = serve.at("latency").find("synth")) {
    s.synth_count = synth->at("count").as_double();
    s.synth_total_ms = synth->at("total_ms").as_double();
  }
  return s;
}

} // namespace

int run_serve(const run_args& a) {
  const std::string socket =
      a.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::vector<request_spec> hot = serve_hot_set();
  std::vector<std::string> hot_lines;
  for (std::size_t i = 0; i < hot.size(); ++i)
    hot_lines.push_back(synth_line(static_cast<long>(i), hot[i]));
  const int hot_keys = static_cast<int>(hot.size());
  print_manifest("serve_replay.hot", a.seed, hot);

  server_process server(a.cli, socket);
  const double setup_s = server.wait_ready();
  if (a.setup_only) {
    server.stop();
    std::printf("setup_s %.9f\n", setup_s);
    return 0;
  }

  std::vector<std::string> errors;

  // Warm pass (untimed): the connections split the hot set between them.
  std::vector<std::string> hot_docs(hot.size());
  std::vector<quality> hot_quality(hot.size());
  {
    std::vector<std::thread> threads;
    std::vector<std::string> warm_errors(connections);
    for (int conn = 0; conn < connections; ++conn)
      threads.emplace_back([&, conn] {
        try {
          connection c(socket);
          for (int i = conn; i < hot_keys; i += connections) {
            const reply r =
                parse_reply(c.request(hot_lines[static_cast<std::size_t>(i)]));
            if (r.status != "ok" || r.cache_hit)
              warm_errors[static_cast<std::size_t>(conn)] +=
                  "warm request " + hot[static_cast<std::size_t>(i)].label +
                  " answered " + r.status + "; ";
            hot_docs[static_cast<std::size_t>(i)] = r.result;
          }
        } catch (const std::exception& e) {
          warm_errors[static_cast<std::size_t>(conn)] += e.what();
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::string& e : warm_errors)
      if (!e.empty()) errors.push_back(e);
  }
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const checked_doc d = check_document(hot_docs[i]);
    if (!d.error.empty()) errors.push_back(hot[i].label + ": " + d.error);
    hot_quality[i] = d.q;
  }

  connection control(socket);
  const server_counters before = read_stats(control);

  // Timed replay: passes of rounds_per_pass rounds on every connection,
  // over connections that stay open for the whole run.
  std::vector<std::unique_ptr<connection>> clients;
  for (int conn = 0; conn < connections; ++conn)
    clients.push_back(std::make_unique<connection>(socket));
  end_to_end e2e;
  e2e.pool_passes = false;
  e2e.setup_s = setup_s;
  std::vector<quality> served;
  std::vector<request_spec> misses;
  std::vector<std::string> miss_docs;
  long hits_issued = 0;
  (void)run_speed_probe(); // first touch of the probe's table
  const double start = now_seconds();
  for (int pass = 0;; ++pass) {
    std::vector<connection_log> logs(connections);
    const double pass_start = now_seconds();
    {
      std::vector<std::thread> threads;
      for (int conn = 0; conn < connections; ++conn)
        threads.emplace_back(
            run_connection, std::ref(*clients[static_cast<std::size_t>(conn)]),
            a.seed, pass, conn, std::cref(hot_lines), std::cref(hot_docs),
            std::ref(logs[static_cast<std::size_t>(conn)]));
      for (std::thread& t : threads) t.join();
    }
    pass_record record;
    record.seconds = now_seconds() - pass_start;
    // Between passes no request is in flight and the server is idle.
    e2e.probe.push_back(run_speed_probe());
    for (connection_log& log : logs) {
      record.latency.insert(record.latency.end(), log.latency.begin(),
                            log.latency.end());
      e2e.attempted += static_cast<long>(log.latency.size());
      e2e.failed += log.failed;
      hits_issued += static_cast<long>(log.hit_keys.size());
      for (int key : log.hit_keys)
        served.push_back(hot_quality[static_cast<std::size_t>(key)]);
      errors.insert(errors.end(), log.errors.begin(), log.errors.end());
      for (std::size_t i = 0; i < log.miss_docs.size(); ++i) {
        misses.push_back(std::move(log.miss_specs[i]));
        miss_docs.push_back(std::move(log.miss_docs[i]));
      }
    }
    const double pass_time = record.seconds;
    e2e.passes.push_back(std::move(record));
    if (a.trace || now_seconds() - start + pass_time > a.seconds) break;
  }
  const server_counters after = read_stats(control);
  e2e.peak_rss_mb = server.peak_rss();
  clients.clear();
  server.stop();

  for (std::size_t i = 0; i < miss_docs.size(); ++i) {
    const checked_doc d = check_document(miss_docs[i]);
    if (!d.error.empty()) errors.push_back(misses[i].label + ": " + d.error);
    served.push_back(d.q);
  }

  // Exact cache accounting: every lookup is a hit or a miss, and the counts
  // are the ones the request plan fixes.
  const double lookups = after.lookups - before.lookups;
  const double hits = after.memory_hits - before.memory_hits;
  const double cache_misses = after.misses - before.misses;
  if (after.lookups != after.memory_hits + after.disk_hits + after.misses)
    errors.push_back("stats: lookups != hits + misses");
  if (hits != static_cast<double>(hits_issued) ||
      cache_misses != static_cast<double>(misses.size()) ||
      before.misses != static_cast<double>(hot_keys) ||
      before.memory_hits != 0.0)
    errors.push_back("stats: cache hits/misses differ from the request plan");

  if (!a.trace) {
    for (const quality& q : served) {
      e2e.objective.push_back(q.objective);
      e2e.makespan.push_back(q.makespan);
      e2e.valves.push_back(q.valves);
      e2e.bound_ratio.push_back(q.bound_ratio);
    }
    return print_end_to_end(e2e, errors);
  }

  // Traced run: server-side serving counters over the timed pass, and the
  // first misses replayed in-process through the traced staged calls.
  tracer t;
  layer_counts counts;
  double untraced_sum = 0.0;
  const std::size_t replay_count =
      std::min<std::size_t>(misses.size(), replayed_misses);
  for (std::size_t i = 0; i < replay_count; ++i) {
    const double t0 = now_seconds();
    const auto r = api::pipeline(misses[i].graph, misses[i].options).run();
    untraced_sum += now_seconds() - t0;
    if (!r.ok()) errors.push_back(misses[i].label + ": in-process run failed");
    api::flow_result flow;
    const std::string bad =
        trace_request(t, static_cast<int>(i), misses[i], counts, flow);
    if (!bad.empty()) errors.push_back(misses[i].label + ": " + bad);
  }
  if (counts.probed == 0 && replay_count > 0)
    probe_skipped_model(t, static_cast<int>(replay_count), misses.front(),
                        counts);
  // api.client_overhead_ms is replaced by the socket client's figure below.
  std::vector<metric> layers = layer_metrics(t, counts, untraced_sum, 0.0);
  const std::vector<double>& latency = e2e.passes.front().latency;
  double client_mean = 0.0;
  for (double l : latency) client_mean += l;
  client_mean /= static_cast<double>(latency.size());
  const double server_ms =
      after.synth_count > before.synth_count
          ? (after.synth_total_ms - before.synth_total_ms) /
                (after.synth_count - before.synth_count)
          : 0.0;
  const double responses = after.responses - before.responses;
  const std::map<std::string, double> serving = {
      {"api.server_latency_ms", server_ms},
      {"api.client_overhead_ms", 1e3 * client_mean - server_ms},
      {"api.cache_hit_share", lookups > 0.0 ? hits / lookups : 0.0},
      {"api.cache_evictions", after.evictions - before.evictions},
      {"api.coalesced_hits", after.coalesced - before.coalesced},
      {"api.bytes_out_per_request",
       responses > 0.0 ? (after.bytes_out - before.bytes_out) / responses
                       : 0.0},
      {"api.shed", after.shed - before.shed},
      {"api.queue_full", after.queue_full - before.queue_full},
      {"api.framing_errors", after.framing_errors - before.framing_errors},
  };
  for (metric& m : layers)
    if (const auto it = serving.find(m.name); it != serving.end())
      m.value = it->second;
  return print_layers(a, t, counts, layers, e2e.attempted, e2e.failed,
                      errors);
}

} // namespace perfbench
