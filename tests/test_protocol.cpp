// The serve wire protocol (api/protocol.h) driven end to end through the
// one transport, api::serve_front: a serve_stream session over a pipe
// pair (the stdin/stdout shape) and a unix-socket connection. A hostile
// request corpus must get exactly one structured reply per line, in
// order, with exact stats accounting; shutdown, disconnects and
// out-of-range requests must leave the server standing. The CliServe
// cases run the built transtore_cli itself.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/executor.h"
#include "api/protocol.h"
#include "api/result_cache.h"
#include "api/serve.h"
#include "common/json.h"

extern char** environ;

namespace transtore::api {
namespace {

// ------------------------------------------------------------------ helpers

/// The protocol over a two-worker executor with a result cache, on a
/// serve_front that listens on `unix_path` (if any) and serves streams.
struct service {
  explicit service(const std::string& unix_path = "")
      : pool(pool_options()),
        front(transport(unix_path), make_protocol_handler(quick(), pool)) {}

  static executor_options pool_options() {
    executor_options o;
    o.workers = 2;
    o.cache = std::make_shared<result_cache>(result_cache_options{});
    return o;
  }
  static protocol_options quick() {
    protocol_options p;
    p.base.schedule_engine = sched::schedule_engine::heuristic;
    p.base.heuristic_restarts = 2;
    p.base.local_search_iterations = 200;
    p.base.grid_growth = 2;
    return p;
  }
  static serve_options transport(const std::string& unix_path) {
    serve_options so;
    so.unix_path = unix_path;
    so.framing_error = protocol_error;
    return so;
  }

  executor pool;
  serve_front front; // declared last: stopped before the pool goes away
};

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Every line until EOF.
std::vector<std::string> read_lines(int fd) {
  std::vector<std::string> lines;
  std::string line;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] != '\n') {
        line.push_back(buf[i]);
        continue;
      }
      lines.push_back(line);
      line.clear();
    }
  }
  return lines;
}

/// The next line ("" on EOF).
std::string read_line(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
  return line;
}

std::string raw_id(const json_value& reply) {
  const json_value* id = reply.find("id");
  if (id == nullptr) return "";
  json_writer w;
  write_value(w, *id);
  return w.str();
}

/// Raw bytes of a reply's "result" member (always written last).
std::string result_doc(const std::string& reply) {
  const std::size_t at = reply.find("\"result\":");
  return at == std::string::npos ? "" : reply.substr(at, reply.size() - at);
}

// ------------------------------------------------------------------- corpus

/// One hostile request line and the reply it must get. An empty status
/// means no reply at all (blank lines).
struct corpus_line {
  std::string line;
  std::string id; // raw id the reply echoes; "" = the reply has no id
  std::string status;
  std::string message_part; // must occur in "message" when non-empty
};

std::vector<corpus_line> hostile_corpus() {
  return {
      {R"({"id":1,"op":"synth","assay":"PCR"})", "1", "ok", ""},
      {R"({"id":2,"op":"synth","assay":"PCR"})", "2", "ok", ""},
      {R"({"id":3,"op":"synth","assay":"PC)", "", "invalid_input", ""},
      {std::string(100000, '['), "", "invalid_input", "nesting too deep"},
      {R"({"id":{"deep":[1,2,{"a":null}]},"op":"ping"})",
       R"({"deep":[1,2,{"a":null}]})", "ok", ""},
      {R"({"id":5,"op":"synth","assay":17})", "5", "invalid_input", ""},
      {R"({"id":6,"op":"synth","assay":"IVD","options":{"device_count":"2"}})",
       "6", "invalid_input", ""},
      {R"({"id":1e999,"op":"ping"})", "", "invalid_input", "number"},
      {R"({"id":123456789012345678901234567890,"op":"ping"})",
       "123456789012345678901234567890", "ok", ""},
      {R"({"id":8,"op":"synth","assay":"IVD","priority":1e30})", "8",
       "invalid_input", ""},
      {R"({"id":9,"op":"frobnicate"})", "9", "invalid_input", "unknown op"},
      {R"({"id":9,"op":"ping"})", "9", "ok", ""}, // duplicate id
      {R"("just a string")", "", "invalid_input", "JSON object"},
      {"   \t", "", "", ""},
      {R"({"id":12,"op":"synth"})", "12", "invalid_input", "exactly one of"},
      {R"({"id":13,"op":"recover","assay":"PCR","at":2})", "13",
       "invalid_input", "fraction"},
      {R"({"id":14,"op":"synth","graph":"not an assay"})", "14",
       "invalid_input", ""},
      {"{\"id\":15,\"op\":\"ping\"}\r", "15", "ok", ""},
      {R"({"id":16,"op":"synth","assay":"IVD","options":{"device_count":-3}})",
       "16", "invalid_input", "device_count"},
      {R"({"id":17,"op":"synth","assay":"IVD",)"
       R"("options":{"grid_width":100000}})",
       "17", "invalid_input", "grid_width"},
      {R"({"id":18,"op":"synth","assay":"PCR","options":{"seed":18},)"
       R"("deadline":1e10})",
       "18", "ok", ""},
      {R"({"id":19,"op":"synth","assay":"PCR",)"
       R"("options":{"schedule_engine":"decomp"}})",
       "19", "invalid_input", R"(unknown schedule engine "decomp")"},
      {R"({"id":20,"op":"synth","assay":"PCR",)"
       R"("options":{"portfolio":true}})",
       "20", "invalid_input", R"(unknown option "portfolio")"},
      {std::string((std::size_t{1} << 20) + 16, 'x'), "", "invalid_input",
       "1048576-byte limit"},
      {R"({"id":21,"op":"stats"})", "21", "ok", ""},
  };
}

std::string corpus_bytes() {
  std::string bytes;
  for (const corpus_line& c : hostile_corpus()) bytes += c.line + "\n";
  return bytes;
}

std::size_t answered_lines() {
  std::size_t n = 0;
  for (const corpus_line& c : hostile_corpus()) n += !c.status.empty();
  return n;
}

/// One structured reply per answered corpus line, in order; the leading PCR
/// pair is one miss and one hit with byte-identical results; the closing
/// stats reply is exact.
void check_corpus_replies(const std::vector<std::string>& replies) {
  std::vector<corpus_line> expected;
  for (const corpus_line& c : hostile_corpus())
    if (!c.status.empty()) expected.push_back(c);
  ASSERT_EQ(replies.size(), expected.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const json_value reply = json_value::parse(replies[i]);
    ASSERT_TRUE(reply.is_object()) << replies[i];
    EXPECT_EQ(raw_id(reply), expected[i].id) << replies[i];
    EXPECT_EQ(reply.at("status").as_string(), expected[i].status)
        << replies[i];
    if (!expected[i].message_part.empty()) {
      EXPECT_NE(reply.at("message").as_string().find(expected[i].message_part),
                std::string::npos)
          << replies[i];
    }
  }
  // The two identical PCR requests run on two workers, and either may lead
  // the cache flight: exactly one of them is the miss, in either order.
  const bool first_hit =
      json_value::parse(replies[0]).at("cache_hit").as_bool();
  const bool second_hit =
      json_value::parse(replies[1]).at("cache_hit").as_bool();
  EXPECT_NE(first_hit, second_hit) << replies[0] << "\n" << replies[1];
  EXPECT_EQ(result_doc(replies[0]), result_doc(replies[1]));
  EXPECT_FALSE(result_doc(replies[0]).empty());

  // The stats reply is built after every earlier reply was written.
  const json_value stats = json_value::parse(replies.back());
  const json_value& cache = stats.at("cache");
  EXPECT_EQ(cache.at("lookups").as_long(),
            cache.at("memory_hits").as_long() +
                cache.at("disk_hits").as_long() +
                cache.at("misses").as_long());
  const json_value& exec = stats.at("executor");
  EXPECT_EQ(exec.at("submitted").as_long(), exec.at("completed").as_long());
  const json_value& serve = stats.at("serve");
  EXPECT_EQ(serve.at("framing_errors").as_long(), 1);
  // Every admitted request before this one has its response written; the
  // framing error was written without being admitted.
  EXPECT_EQ(serve.at("requests").as_long() - 1,
            serve.at("responses").as_long() -
                serve.at("framing_errors").as_long());
}

// ------------------------------------------------------------------- stream

TEST(ProtocolStream, HostileCorpusGetsOneStructuredReplyPerLineInOrder) {
  service s;
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::string error = "not run";
  std::thread session([&] {
    error = s.front.serve_stream(in[0], out[1]);
    ::close(out[1]); // the session never closes the caller's descriptors
  });
  std::thread client([&] {
    EXPECT_TRUE(write_all(in[1], corpus_bytes()));
    ::close(in[1]);
  });
  const std::vector<std::string> replies = read_lines(out[0]);
  client.join();
  session.join();
  ::close(in[0]);
  ::close(out[0]);

  EXPECT_EQ(error, "");
  check_corpus_replies(replies);
  const serve_stats stats = s.front.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_EQ(stats.requests + stats.framing_errors, stats.responses);
  EXPECT_EQ(stats.responses, answered_lines());
}

TEST(ProtocolStream, ShutdownEndsTheSessionWithInputStillOpen) {
  service s;
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  // Lines after the shutdown arrive in the same write and go unanswered;
  // the input is never closed, so only the shutdown can end the session.
  ASSERT_TRUE(write_all(in[1], "{\"id\":1,\"op\":\"ping\"}\n"
                               "{\"id\":2,\"op\":\"shutdown\"}\n"
                               "{\"id\":3,\"op\":\"ping\"}\n"
                               "{\"id\":4,\"op\":\"synth\","
                               "\"assay\":\"PCR\"}\n"));
  auto session = std::async(std::launch::async, [&] {
    return s.front.serve_stream(in[0], out[1]);
  });
  const bool ended = session.wait_for(std::chrono::seconds(20)) ==
                     std::future_status::ready;
  ::close(in[1]); // unblocks a reader that missed the shutdown
  EXPECT_TRUE(ended) << "serve_stream still reading after shutdown";
  EXPECT_EQ(session.get(), "");
  ::close(out[1]);
  const std::vector<std::string> replies = read_lines(out[0]);
  ::close(in[0]);
  ::close(out[0]);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "{\"id\":1,\"status\":\"ok\",\"op\":\"ping\"}");
  EXPECT_EQ(replies[1], "{\"id\":2,\"status\":\"ok\",\"op\":\"shutdown\"}");
  EXPECT_EQ(s.pool.stats().submitted, 0u); // nothing after it was admitted
}

TEST(ProtocolStream, StopEndsASessionBlockedInRead) {
  service s;
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  auto session = std::async(std::launch::async, [&] {
    return s.front.serve_stream(in[0], out[1]);
  });
  // One answered request, so the reader is back in read(); the input
  // then stays open and silent, and nothing but stop() can end it.
  ASSERT_TRUE(write_all(in[1], "{\"id\":1,\"op\":\"ping\"}\n"));
  EXPECT_EQ(read_line(out[0]), "{\"id\":1,\"status\":\"ok\",\"op\":\"ping\"}");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto stopped_at = std::chrono::steady_clock::now();
  s.front.stop();
  const bool ended = session.wait_for(std::chrono::seconds(1)) ==
                     std::future_status::ready;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - stopped_at)
                             .count();
  ::close(in[1]); // lets a session that missed the stop end anyway
  EXPECT_TRUE(ended) << "serve_stream still reading " << seconds
                     << " s after stop()";
  EXPECT_EQ(session.get(), "");
  ::close(in[0]);
  ::close(out[1]);
  EXPECT_TRUE(read_lines(out[0]).empty()); // nothing more was written
  ::close(out[0]);
}

TEST(ProtocolStream, ReaderThatGoesAwayIsAWriteErrorNotASignal) {
  service s;
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  ::close(out[0]); // the client stops reading before any reply
  ASSERT_TRUE(write_all(in[1], "{\"id\":1,\"op\":\"synth\",\"assay\":\"PCR\"}\n"
                               "{\"id\":2,\"op\":\"ping\"}\n"
                               "{\"id\":3,\"op\":\"stats\"}\n"));
  ::close(in[1]);
  // Without SIGPIPE handling the first reply kills this process.
  EXPECT_EQ(s.front.serve_stream(in[0], out[1]), "");
  ::close(in[0]);
  ::close(out[1]);
  const serve_stats stats = s.front.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 0u);
  // The deferred synth was still redeemed: no executor ticket leaks.
  EXPECT_EQ(s.pool.stats().completed, 1u);
}

// ------------------------------------------------------------------- socket

std::string socket_path(const char* tag) {
  return "/tmp/transtore_protocol_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
    return fd;
  if (fd >= 0) ::close(fd);
  return -1;
}

TEST(ProtocolSocket, HostileCorpusGetsOneStructuredReplyPerLineInOrder) {
  const std::string path = socket_path("corpus");
  service s(path);
  ASSERT_EQ(s.front.start(), "");
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  std::thread client([fd] {
    EXPECT_TRUE(write_all(fd, corpus_bytes()));
    ::shutdown(fd, SHUT_WR);
  });
  std::vector<std::string> replies;
  for (std::size_t i = 0; i < answered_lines(); ++i)
    replies.push_back(read_line(fd));
  client.join();
  check_corpus_replies(replies);
  ::close(fd);
  s.front.stop();
  const serve_stats stats = s.front.stats();
  EXPECT_EQ(stats.requests + stats.framing_errors, stats.responses);
}

TEST(ProtocolSocket, DisconnectMidRequestLeavesTheServerServing) {
  const std::string path = socket_path("disconnect");
  service s(path);
  ASSERT_EQ(s.front.start(), "");
  {
    const int fd = connect_unix(path);
    ASSERT_GE(fd, 0);
    // A complete synth, then half a request, then the client vanishes
    // without reading anything.
    EXPECT_TRUE(write_all(fd,
                          "{\"id\":1,\"op\":\"synth\",\"assay\":\"PCR\"}\n"
                          "{\"id\":2,\"op\":\"pi"));
    ::close(fd);
  }
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all(fd, "{\"id\":\"alive\",\"op\":\"ping\"}\n"
                            "{\"op\":\"stats\"}\n"));
  EXPECT_EQ(read_line(fd),
            "{\"id\":\"alive\",\"status\":\"ok\",\"op\":\"ping\"}");
  const json_value stats = json_value::parse(read_line(fd));
  const json_value& cache = stats.at("cache");
  EXPECT_EQ(cache.at("lookups").as_long(),
            cache.at("memory_hits").as_long() +
                cache.at("disk_hits").as_long() +
                cache.at("misses").as_long());
  ::close(fd);
  s.front.stop();
  // The abandoned synth was redeemed and the truncated line answered.
  EXPECT_EQ(s.pool.stats().completed, 1u);
  EXPECT_EQ(s.front.stats().framing_errors, 1u);
}

// ---------------------------------------------------------------------- CLI

#ifdef TRANSTORE_CLI_PATH

/// A running transtore_cli with its stdin and stdout on pipes (stderr to
/// /dev/null).
struct cli_process {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
};

cli_process spawn_cli(const std::vector<std::string>& args) {
  cli_process p;
  int in[2];
  int out[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) return p;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<std::string> storage = {TRANSTORE_CLI_PATH};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  if (posix_spawn(&p.pid, TRANSTORE_CLI_PATH, &actions, nullptr, argv.data(),
                  environ) != 0)
    p.pid = -1;
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  p.stdin_fd = in[1];
  p.stdout_fd = out[0];
  return p;
}

/// The child's wait status once it exits, or -1 (after killing it) when it
/// is still running after `seconds`.
int wait_exit(pid_t pid, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    if (std::chrono::steady_clock::now() > until) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool exited_zero(int status) {
  return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(CliServe, ShutdownExitsPromptlyWithStdinStillOpen) {
  cli_process p = spawn_cli({"serve"});
  ASSERT_GT(p.pid, 0);
  ASSERT_TRUE(write_all(p.stdin_fd, "{\"op\":\"shutdown\"}\n"));
  EXPECT_EQ(read_line(p.stdout_fd), "{\"status\":\"ok\",\"op\":\"shutdown\"}");
  const int status = wait_exit(p.pid, 10.0);
  EXPECT_TRUE(exited_zero(status)) << "wait status " << status;
  ::close(p.stdin_fd);
  ::close(p.stdout_fd);
}

TEST(CliServe, ClientThatStopsReadingDoesNotKillTheServer) {
  cli_process p = spawn_cli({"serve", "--engine", "heuristic"});
  ASSERT_GT(p.pid, 0);
  ::close(p.stdout_fd); // nobody will read a reply
  // One write (below PIPE_BUF, so atomic): the server cannot have died
  // before it lands.
  ASSERT_TRUE(write_all(p.stdin_fd,
                        "{\"id\":1,\"op\":\"synth\",\"assay\":\"PCR\"}\n"
                        "{\"id\":2,\"op\":\"ping\"}\n"
                        "{\"op\":\"shutdown\"}\n"));
  ::close(p.stdin_fd);
  const int status = wait_exit(p.pid, 60.0);
  EXPECT_TRUE(exited_zero(status))
      << "wait status " << status
      << (status != -1 && WIFSIGNALED(status) ? " (killed by a signal)" : "");
}

TEST(CliServe, HugeDeadlineIsNoDeadline) {
  cli_process p = spawn_cli(
      {"synth", "PCR", "--engine", "heuristic", "--deadline", "1e10"});
  ASSERT_GT(p.pid, 0);
  ::close(p.stdin_fd);
  (void)read_lines(p.stdout_fd); // the report
  ::close(p.stdout_fd);
  const int status = wait_exit(p.pid, 60.0);
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "3 = the deadline expired at once";
}

#endif // TRANSTORE_CLI_PATH

} // namespace
} // namespace transtore::api
