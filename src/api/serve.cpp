#include "api/serve.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace transtore::api {
namespace {

using steady_clock = std::chrono::steady_clock;

void record_latency(op_latency& h, double ms) {
  ++h.count;
  h.total_ms += ms;
  if (ms > h.max_ms) h.max_ms = ms;
  // Bucket 0 is [0, 1) ms; bucket i is [2^(i-1), 2^i) ms; last is open.
  std::size_t b = 0;
  double upper = 1.0;
  while (b + 1 < op_latency::bucket_count && ms >= upper) {
    upper *= 2.0;
    ++b;
  }
  ++h.buckets[b];
}

/// Write the whole buffer to a socket or any other descriptor. The writer
/// thread blocks SIGPIPE, so a vanished reader is an error return (EPIPE),
/// never a signal. Returns false once the peer is gone.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

} // namespace

struct serve_front::impl {
  /// One admitted request on its way to a written response.
  struct pending {
    std::string op;
    std::string line;
    std::function<std::string()> finish;
    steady_clock::time_point admitted;
    bool shed = false;
    bool counted = false; // a blank placeholder (nothing admitted)
    bool close_connection = false;
    bool shutdown_server = false;
  };

  struct session {
    int in_fd = -1;
    int out_fd = -1;  // the same socket as in_fd for a connection
    bool stream = false; // serve_stream(): the caller owns both descriptors
    std::uint64_t id = 0;
    std::uint64_t requests = 0; // admitted (mirrors metrics under impl lock)
    std::mutex lock;
    std::condition_variable ready;
    std::deque<pending> queue;
    std::size_t inflight = 0; // admitted, not yet written (== queue depth)
    bool reader_done = false;
    bool writer_done = false;
    bool write_failed = false;
    std::thread reader;
    std::thread writer;
  };

  serve_front* self = nullptr;
  serve_options options;
  serve_handler handler;

  int unix_fd = -1;
  int tcp_fd = -1;
  int bound_tcp_port = -1;
  int wake_pipe[2] = {-1, -1};
  std::thread acceptor;

  mutable std::mutex lock; // sessions list + metrics + shutdown flags
  std::condition_variable shutdown_cv;
  std::vector<std::unique_ptr<session>> sessions;
  std::uint64_t next_connection = 1;
  bool started = false;
  bool stopping = false;
  bool shutdown_requested = false;
  serve_stats metrics; // open_connection_requests filled on snapshot

  std::string open_wake_pipe();
  bool wait_readable(int fd) const;
  void accept_loop();
  void reader_loop(session& s);
  void writer_loop(session& s);
  bool admit(session& s, const std::string& line);
  void enqueue(session& s, pending p);
  void request_shutdown();
};

serve_front::serve_front(serve_options options, serve_handler handler)
    : impl_(new impl) {
  impl_->self = this;
  impl_->options = std::move(options);
  impl_->handler = std::move(handler);
}

serve_front::~serve_front() {
  stop();
  // Closed only here: serve_stream() readers poll the read end until they
  // return, which they must before the front end is destroyed.
  for (int& fd : impl_->wake_pipe)
    if (fd >= 0) ::close(fd), fd = -1;
}

int serve_front::tcp_port() const { return impl_->bound_tcp_port; }

// ---------------------------------------------------------------- listeners

namespace {

std::string close_and_report(int& fd, std::string message) {
  if (fd >= 0) ::close(fd);
  fd = -1;
  return message + " (" + std::strerror(errno) + ")";
}

} // namespace

std::string serve_front::start() {
  impl& im = *impl_;
  if (im.started) return "serve_front: already started";
  if (!im.options.framing_error)
    return "serve_front: options.framing_error is required";
  if (im.options.unix_path.empty() && im.options.tcp_port < 0)
    return "serve_front: no listener configured (unix_path or tcp_port)";

  if (!im.options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (im.options.unix_path.size() >= sizeof(addr.sun_path))
      return "serve_front: unix socket path too long: " + im.options.unix_path;
    std::memcpy(addr.sun_path, im.options.unix_path.c_str(),
                im.options.unix_path.size() + 1);
    im.unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (im.unix_fd < 0)
      return close_and_report(im.unix_fd, "serve_front: socket(AF_UNIX)");
    ::unlink(im.options.unix_path.c_str()); // replace a stale socket file
    if (::bind(im.unix_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      return close_and_report(im.unix_fd,
                              "serve_front: bind " + im.options.unix_path);
    if (::listen(im.unix_fd, 64) != 0)
      return close_and_report(im.unix_fd,
                              "serve_front: listen " + im.options.unix_path);
  }

  if (im.options.tcp_port >= 0) {
    im.tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (im.tcp_fd < 0) {
      if (im.unix_fd >= 0) ::close(im.unix_fd), im.unix_fd = -1;
      return close_and_report(im.tcp_fd, "serve_front: socket(AF_INET)");
    }
    const int one = 1;
    ::setsockopt(im.tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(im.options.tcp_port));
    if (::bind(im.tcp_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(im.tcp_fd, 64) != 0) {
      if (im.unix_fd >= 0) ::close(im.unix_fd), im.unix_fd = -1;
      return close_and_report(
          im.tcp_fd, "serve_front: bind/listen 127.0.0.1:" +
                         std::to_string(im.options.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(im.tcp_fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0)
      im.bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
  }

  if (std::string error = im.open_wake_pipe(); !error.empty()) {
    if (im.unix_fd >= 0) ::close(im.unix_fd), im.unix_fd = -1;
    if (im.tcp_fd >= 0) ::close(im.tcp_fd), im.tcp_fd = -1;
    return error;
  }

  im.started = true;
  im.acceptor = std::thread([&im] { im.accept_loop(); });
  return "";
}

/// Create the wake pipe unless it exists: stop() writes one byte to it and
/// never drains it, so from then on its read end stays readable and wakes
/// the accept loop and every stream reader polling it.
std::string serve_front::impl::open_wake_pipe() {
  std::lock_guard<std::mutex> guard(lock);
  if (wake_pipe[0] >= 0) return "";
  if (::pipe(wake_pipe) != 0)
    return "serve_front: pipe() failed (" + std::string(std::strerror(errno)) +
           ")";
  return "";
}

/// Block until `fd` has input, EOF or an error (true: read() tells which)
/// or stop() woke the front end (false).
bool serve_front::impl::wait_readable(int fd) const {
  for (;;) {
    pollfd fds[2] = {pollfd{fd, POLLIN, 0}, pollfd{wake_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return true;
    }
    return fds[1].revents == 0;
  }
}

// -------------------------------------------------------------- accept loop

void serve_front::impl::accept_loop() {
  for (;;) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = pollfd{wake_pipe[0], POLLIN, 0};
    if (unix_fd >= 0) fds[n++] = pollfd{unix_fd, POLLIN, 0};
    if (tcp_fd >= 0) fds[n++] = pollfd{tcp_fd, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    {
      std::lock_guard<std::mutex> guard(lock);
      if (stopping) return;
    }
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue; // transient; poll again
      auto s = std::make_unique<session>();
      s->in_fd = client;
      s->out_fd = client;
      session& ref = *s;
      {
        std::lock_guard<std::mutex> guard(lock);
        if (stopping) {
          ::close(client);
          return;
        }
        ref.id = next_connection++;
        ++metrics.connections_accepted;
        sessions.push_back(std::move(s));
      }
      ref.reader = std::thread([this, &ref] { reader_loop(ref); });
      ref.writer = std::thread([this, &ref] { writer_loop(ref); });
    }
  }
}

// ------------------------------------------------------------------ reader

void serve_front::impl::enqueue(session& s, pending p) {
  {
    std::lock_guard<std::mutex> guard(s.lock);
    if (p.counted) ++s.inflight;
    s.queue.push_back(std::move(p));
  }
  s.ready.notify_one();
}

/// Admit one complete line: consult the handler (with backpressure state)
/// and queue its reply for the writer. Runs on the reader thread; the
/// handler must not block on a solve. Returns true when the reply ends the
/// session, so the reader stops reading: the writer may already have
/// popped the reply, so only its flags here tell.
bool serve_front::impl::admit(session& s, const std::string& line) {
  serve_request_info info;
  info.front = self;
  std::size_t inflight;
  {
    std::lock_guard<std::mutex> guard(s.lock);
    inflight = s.inflight;
  }
  {
    std::lock_guard<std::mutex> guard(lock);
    ++metrics.requests;
    ++s.requests;
    info.connection = s.id;
    info.sequence = s.requests;
    info.inflight = inflight;
    info.max_inflight = options.max_inflight;
    info.overloaded =
        options.max_inflight > 0 && inflight >= options.max_inflight;
  }

  pending p;
  p.admitted = steady_clock::now();
  p.counted = true;
  try {
    serve_reply reply = handler(line, info);
    p.op = std::move(reply.op);
    p.line = std::move(reply.line);
    p.finish = std::move(reply.finish);
    p.shed = reply.shed;
    p.close_connection = reply.close_connection;
    p.shutdown_server = reply.shutdown_server;
  } catch (const std::exception& e) {
    p.op = "error";
    p.line = options.framing_error("internal", e.what());
    std::lock_guard<std::mutex> guard(lock);
    ++metrics.framing_errors;
  }
  const bool closing = p.close_connection || p.shutdown_server;
  enqueue(s, std::move(p));
  return closing;
}

void serve_front::impl::reader_loop(session& s) {
  std::string line;
  bool oversized = false;
  char buf[4096];
  bool closing = false;
  while (!closing) {
    // A stream's descriptor cannot be shut down (the caller owns it), so
    // its reader waits on the wake pipe too, and stop() reads as EOF.
    const ssize_t n = s.stream && !wait_readable(s.in_fd)
                          ? 0
                          : ::read(s.in_fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) { // EOF (client closed, or stop() ended the session)
      if (!line.empty() || oversized) {
        // The protocol is newline-delimited: a request without its
        // newline is truncated by definition.
        pending p;
        p.op = "error";
        p.admitted = steady_clock::now();
        p.line = options.framing_error(
            "invalid_input", "input ended mid-line (truncated request)");
        {
          std::lock_guard<std::mutex> guard(lock);
          ++metrics.framing_errors;
        }
        enqueue(s, std::move(p));
      }
      break;
    }
    {
      std::lock_guard<std::mutex> guard(lock);
      metrics.bytes_in += static_cast<std::uint64_t>(n);
    }
    for (ssize_t i = 0; i < n && !closing; ++i) {
      const char c = buf[i];
      if (c != '\n') {
        if (line.size() < options.max_line_bytes)
          line.push_back(c);
        else
          oversized = true; // keep consuming up to the newline
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (oversized) {
        pending p;
        p.op = "error";
        p.admitted = steady_clock::now();
        p.line = options.framing_error(
            "invalid_input", "request line exceeds the " +
                                 std::to_string(options.max_line_bytes) +
                                 "-byte limit");
        {
          std::lock_guard<std::mutex> guard(lock);
          ++metrics.framing_errors;
        }
        enqueue(s, std::move(p));
      } else if (line.find_first_not_of(" \t\r") != std::string::npos) {
        closing = admit(s, line);
      }
      line.clear();
      oversized = false;
    }
  }
  {
    std::lock_guard<std::mutex> guard(s.lock);
    s.reader_done = true;
  }
  s.ready.notify_all();
}

// ------------------------------------------------------------------ writer

void serve_front::impl::writer_loop(session& s) {
  // A write to a pipe or socket whose reader is gone raises SIGPIPE on the
  // writing thread. Blocked here, it stays pending on this thread (and is
  // discarded when the thread exits) while write() fails with EPIPE, which
  // drains the session like any other disconnect.
  sigset_t pipe_signal;
  sigemptyset(&pipe_signal);
  sigaddset(&pipe_signal, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
  for (;;) {
    pending p;
    {
      std::unique_lock<std::mutex> guard(s.lock);
      s.ready.wait(guard, [&s] { return s.reader_done || !s.queue.empty(); });
      if (s.queue.empty()) break; // reader done and drained
      p = std::move(s.queue.front());
      s.queue.pop_front();
    }
    std::string text = std::move(p.line);
    if (p.finish) {
      // Resolve even when the write side already failed: deferred replies
      // hold executor tickets that must be redeemed either way.
      try {
        text = p.finish();
      } catch (const std::exception& e) {
        text = options.framing_error("internal", e.what());
        std::lock_guard<std::mutex> guard(lock);
        ++metrics.framing_errors;
      }
    }
    bool wrote = false;
    if (!text.empty() && !s.write_failed) {
      text.push_back('\n');
      if (write_all(s.out_fd, text.data(), text.size()))
        wrote = true;
      else
        s.write_failed = true; // only the writer thread touches this
    }
    const double ms =
        std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                  p.admitted)
            .count();
    {
      std::lock_guard<std::mutex> guard(s.lock);
      if (p.counted && s.inflight > 0) --s.inflight;
    }
    {
      std::lock_guard<std::mutex> guard(lock);
      if (wrote) {
        ++metrics.responses;
        metrics.bytes_out += static_cast<std::uint64_t>(text.size());
      }
      if (p.shed) ++metrics.shed;
      if (p.counted) record_latency(metrics.latency[p.op], ms);
    }
    if (p.shutdown_server) request_shutdown();
    if (p.close_connection || p.shutdown_server) {
      if (!s.stream) ::shutdown(s.out_fd, SHUT_RDWR);
      std::lock_guard<std::mutex> guard(s.lock);
      if (s.reader_done && s.queue.empty()) break;
    }
  }
  std::lock_guard<std::mutex> guard(lock);
  s.writer_done = true;
}

void serve_front::impl::request_shutdown() {
  {
    std::lock_guard<std::mutex> guard(lock);
    shutdown_requested = true;
  }
  shutdown_cv.notify_all();
}

// ------------------------------------------------------------------ stream

std::string serve_front::serve_stream(int in_fd, int out_fd) {
  impl& im = *impl_;
  if (!im.options.framing_error)
    return "serve_front: options.framing_error is required";
  if (std::string error = im.open_wake_pipe(); !error.empty()) return error;
  auto owned = std::make_unique<impl::session>();
  impl::session& s = *owned;
  s.in_fd = in_fd;
  s.out_fd = out_fd;
  s.stream = true;
  {
    std::lock_guard<std::mutex> guard(im.lock);
    if (im.stopping) return "serve_front: stopped";
    s.id = im.next_connection++;
    ++im.metrics.connections_accepted;
    im.sessions.push_back(std::move(owned));
  }
  s.writer = std::thread([&im, &s] { im.writer_loop(s); });
  im.reader_loop(s);
  s.writer.join();
  std::lock_guard<std::mutex> guard(im.lock);
  std::erase_if(im.sessions, [&s](const auto& p) { return p.get() == &s; });
  return "";
}

// ----------------------------------------------------------------- control

void serve_front::wait() {
  impl& im = *impl_;
  std::unique_lock<std::mutex> guard(im.lock);
  im.shutdown_cv.wait(guard,
                      [&im] { return im.shutdown_requested || im.stopping; });
}

void serve_front::stop() {
  impl& im = *impl_;
  bool teardown = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> guard(im.lock);
    wake = !im.stopping && im.wake_pipe[1] >= 0;
    im.stopping = true;
    im.shutdown_requested = true;
    if (im.started) {
      im.started = false;
      teardown = true; // exactly one caller owns the teardown
    }
  }
  im.shutdown_cv.notify_all();
  // Wake the accept loop and every stream session's reader (each ends its
  // session like EOF: admitted replies are still written, in order).
  if (wake) {
    const char byte = 'x';
    (void)!::write(im.wake_pipe[1], &byte, 1);
  }
  if (!teardown) return;

  // Join the accept loop before touching the listeners.
  if (im.acceptor.joinable()) im.acceptor.join();
  if (im.unix_fd >= 0) ::close(im.unix_fd), im.unix_fd = -1;
  if (im.tcp_fd >= 0) ::close(im.tcp_fd), im.tcp_fd = -1;
  if (!im.options.unix_path.empty()) ::unlink(im.options.unix_path.c_str());

  // Close only the read side of every connection: readers see EOF and
  // stop, writers drain every already-admitted response (still in order)
  // and then exit. Stream sessions belong to their serve_stream() caller.
  std::vector<impl::session*> open;
  {
    std::lock_guard<std::mutex> guard(im.lock);
    for (auto& s : im.sessions)
      if (!s->stream) open.push_back(s.get());
  }
  for (impl::session* s : open) ::shutdown(s->in_fd, SHUT_RD);
  for (impl::session* s : open) {
    if (s->reader.joinable()) s->reader.join();
    if (s->writer.joinable()) s->writer.join();
    ::close(s->in_fd);
  }
  std::lock_guard<std::mutex> guard(im.lock);
  std::erase_if(im.sessions, [](const auto& s) { return !s->stream; });
}

serve_stats serve_front::stats() const {
  impl& im = *impl_;
  std::lock_guard<std::mutex> guard(im.lock);
  serve_stats out = im.metrics;
  out.connections_open = 0;
  out.open_connection_requests.clear();
  for (const auto& s : im.sessions) {
    if (s->writer_done) continue;
    ++out.connections_open;
    out.open_connection_requests.push_back(s->requests);
  }
  return out;
}

} // namespace transtore::api
