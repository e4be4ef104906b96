// Serve front end: the one transport behind `transtore_cli serve`. It
// runs line-delimited sessions -- one per accepted unix-domain (or
// loopback-TCP) connection, or a single session over an already-open
// descriptor pair such as stdin/stdout -- and multiplexes them onto one
// request handler (in practice the wire protocol of api/protocol.h over
// one api::executor and one shared api::result_cache).
//
// The front end owns the transport and nothing else:
//
//  * an accept loop (one thread, poll over every listener plus a wake
//    pipe) hands each connection to a session; serve_stream() runs one
//    session over descriptors the caller owns;
//  * each session runs a reader thread (framing: the hardened 1 MiB
//    per-line cap, oversized/truncated lines answered with a structured
//    error built by the caller's framing_error hook) and a writer thread
//    (responses resolved and written strictly in request order);
//  * the handler is called on the reader thread and must never block on a
//    solve -- it either returns a complete response line or a deferred
//    `finish` closure that the writer resolves in order. `stats` and
//    `shutdown` are therefore sequence points per connection: their
//    replies are built only after every earlier response on that
//    connection has resolved.
//
// Backpressure: with max_inflight > 0 the front end counts, per
// connection, the responses admitted but not yet written; at the cap the
// handler is invoked with serve_request_info::overloaded set and is
// expected to shed the request (a structured queue_full error) instead of
// queueing more work. Shed replies are counted in serve_stats::shed.
//
// Observability: serve_stats is an atomic snapshot (one lock) of
// connection counters, per-connection request counts, byte counters, and
// per-op latency histograms (16 power-of-two millisecond buckets,
// admission to write completion).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace transtore::api {

/// What the handler hands back for one request line. Exactly one of
/// `line` (complete response) or `finish` (deferred builder, resolved on
/// the writer thread in request order) should be set; an empty reply
/// writes nothing but still advances the order.
struct serve_reply {
  std::string op = "error"; // metric label: latency is keyed per op
  std::string line;         // immediate response (errors, ping, acks)
  std::function<std::string()> finish; // deferred response, may block
  bool shed = false;              // counted in serve_stats::shed
  bool close_connection = false;  // close this connection after writing
  bool shutdown_server = false;   // unblock wait() after writing
};

class serve_front;

/// Per-request context passed to the handler.
struct serve_request_info {
  const serve_front* front = nullptr; // the front end serving the request
  std::uint64_t connection = 0; // 1-based connection id
  std::uint64_t sequence = 0;   // 1-based request number on this connection
  std::size_t inflight = 0;     // admitted, response not yet written
  std::size_t max_inflight = 0; // serve_options::max_inflight
  bool overloaded = false;      // inflight at max_inflight: please shed
};

using serve_handler =
    std::function<serve_reply(const std::string& line,
                              const serve_request_info& info)>;

struct serve_options {
  /// Unix-domain listener path; empty = no unix listener. An existing
  /// socket file at the path is replaced.
  std::string unix_path;
  /// Loopback TCP listener port; -1 = no TCP listener, 0 = ephemeral
  /// (read the bound port back via serve_front::tcp_port()).
  int tcp_port = -1;
  /// Hard per-request-line cap; longer lines are consumed up to the next
  /// newline and answered with one framing error.
  std::size_t max_line_bytes = std::size_t{1} << 20; // 1 MiB
  /// Per-connection cap on admitted-but-unwritten responses; 0 = none.
  std::size_t max_inflight = 0;
  /// Builds the response line for framing-level errors the front end
  /// itself detects (oversized/truncated lines, handler exceptions), so
  /// the wire protocol stays with the caller. Required.
  std::function<std::string(const char* code, const std::string& message)>
      framing_error;
};

/// One latency histogram: power-of-two millisecond buckets, bucket 0 is
/// [0, 1) ms, bucket i is [2^(i-1), 2^i) ms, the last bucket is open.
struct op_latency {
  static constexpr std::size_t bucket_count = 16;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  std::array<std::uint64_t, bucket_count> buckets{};
};

/// Atomic snapshot of the front end (every field under one lock, so
/// `requests == responses + currently-inflight + shed-but-unwritten`
/// style cross-checks hold in any snapshot).
struct serve_stats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;  // non-blank lines admitted to a handler
  std::uint64_t responses = 0; // response lines fully written
  std::uint64_t shed = 0;      // replies flagged shed by the handler
  std::uint64_t framing_errors = 0; // oversized/truncated/handler-throw
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Requests admitted per currently-open connection (unordered).
  std::vector<std::uint64_t> open_connection_requests;
  /// Admission-to-write-completion latency per op label.
  std::map<std::string, op_latency> latency;
};

class serve_front {
public:
  serve_front(serve_options options, serve_handler handler);
  ~serve_front();
  serve_front(const serve_front&) = delete;
  serve_front& operator=(const serve_front&) = delete;

  /// Bind + listen on every configured listener and start the accept
  /// loop. Returns an empty string on success, otherwise a description of
  /// the failure (no listener is left behind on failure).
  [[nodiscard]] std::string start();

  /// The TCP port actually bound (meaningful after start() when
  /// options.tcp_port >= 0; ephemeral requests read back the real port).
  [[nodiscard]] int tcp_port() const;

  /// Serve one session over an already-open descriptor pair (stdin and
  /// stdout, a pipe pair, a socketpair) and block until it ends: the input
  /// reached EOF, a reply set close_connection or shutdown_server, or
  /// stop() ran, and every admitted reply has been written. The session runs the same
  /// reader and writer as a socket connection (framing, ordering,
  /// max_inflight, stats) but never closes or shuts down its descriptors,
  /// and a vanished reader of a non-socket `out_fd` is a write error, not
  /// a SIGPIPE. No start() is needed. Returns an empty string on success,
  /// otherwise a description of why no session ran.
  [[nodiscard]] std::string serve_stream(int in_fd, int out_fd);

  /// Block until a handler reply set shutdown_server or stop() ran.
  void wait();

  /// Stop accepting, close the read side of every connection session
  /// (pending responses still resolve and get written, in order), join
  /// every thread, close and unlink listeners. A serve_stream() session
  /// stops reading as if its input had ended (its reader also waits on
  /// the front end's wake pipe) and returns once its admitted replies are
  /// written; its caller's descriptors are never shut down, joined or
  /// closed here, and it must return before the front end is destroyed.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] serve_stats stats() const;

private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

} // namespace transtore::api
