// Execution context threaded through every pipeline stage: a wall-clock
// deadline shared by all stages, a cancellation token, a progress callback,
// and a logging sink. A default-constructed run_context imposes nothing --
// no deadline, no cancellation, silent.
//
// The deadline is absolute (fixed when set_deadline is called), so a
// four-stage pipeline and a thousand-job batch share one budget naturally:
// each stage clamps its solver time limits to remaining_seconds().
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "common/interrupt.h"
#include "common/logging.h"

namespace transtore::api {

/// One progress tick: which stage, what happened, seconds since the
/// context was created.
struct progress_event {
  std::string stage;  // "schedule" / "synthesize" / "compress" / "verify" / "batch"
  std::string detail;
  double elapsed_seconds = 0.0;
};

using progress_callback = std::function<void(const progress_event&)>;
using log_sink = std::function<void(log_level, const std::string&)>;

class run_context {
public:
  run_context() : created_(clock::now()) {}

  /// Absolute wall-clock budget measured from now; <= 0 clears it, and so
  /// does a budget the clock cannot represent (beyond ~292 years, or
  /// infinite): converting it to clock ticks would overflow.
  run_context& set_deadline(double seconds) {
    const clock::time_point now = clock::now();
    const double room =
        std::chrono::duration<double>(clock::time_point::max() - now).count();
    has_deadline_ = seconds > 0.0 && seconds < room - 1.0;
    deadline_ = has_deadline_
                    ? now + std::chrono::duration_cast<clock::duration>(
                                std::chrono::duration<double>(seconds))
                    : clock::time_point{};
    return *this;
  }
  run_context& set_cancel(cancel_token token) {
    cancel_ = std::move(token);
    return *this;
  }
  run_context& set_progress(progress_callback callback) {
    progress_ = std::move(callback);
    return *this;
  }
  run_context& set_log(log_sink sink) {
    log_ = std::move(sink);
    return *this;
  }
  /// Cap on the solver threads any single stage may use (0 = uncapped).
  /// The executor sets this on every job context so W concurrent jobs with
  /// T solver threads each keep W x T within hardware_concurrency.
  run_context& set_thread_budget(int threads) {
    thread_budget_ = threads > 0 ? threads : 0;
    return *this;
  }

  [[nodiscard]] static run_context with_deadline(double seconds) {
    run_context ctx;
    ctx.set_deadline(seconds);
    return ctx;
  }

  [[nodiscard]] bool cancelled() const { return cancel_.cancelled(); }
  [[nodiscard]] bool deadline_expired() const {
    return has_deadline_ && clock::now() >= deadline_;
  }
  [[nodiscard]] bool interrupted() const {
    return cancelled() || deadline_expired();
  }
  [[nodiscard]] bool has_deadline() const { return has_deadline_; }

  /// Seconds left on the deadline (never negative); "huge" when unlimited.
  [[nodiscard]] double remaining_seconds() const {
    if (!has_deadline_) return 1e18;
    const double left =
        std::chrono::duration<double>(deadline_ - clock::now()).count();
    return left > 0.0 ? left : 0.0;
  }
  /// Remaining budget in the 0-means-unlimited convention of the option
  /// structs, floored away from zero so an exhausted budget still reads as
  /// "a tiny limit" rather than "no limit".
  [[nodiscard]] double budget_or_zero() const {
    if (!has_deadline_) return 0.0;
    const double left = remaining_seconds();
    return left > 1e-3 ? left : 1e-3;
  }

  [[nodiscard]] const cancel_token& token() const { return cancel_; }

  [[nodiscard]] int thread_budget() const { return thread_budget_; }
  /// Apply the budget to a requested solver thread count: 0 (auto) becomes
  /// the budget itself when one is set, and explicit requests are clamped
  /// down to it. With no budget the request passes through.
  [[nodiscard]] int clamp_threads(int requested) const {
    if (thread_budget_ <= 0) return requested;
    if (requested <= 0) return thread_budget_;
    return requested < thread_budget_ ? requested : thread_budget_;
  }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - created_).count();
  }

  void report(const std::string& stage, const std::string& detail) const {
    if (progress_) progress_({stage, detail, elapsed_seconds()});
  }
  void log(log_level level, const std::string& message) const {
    if (log_)
      log_(level, message);
    else
      log_line(level, message);
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point created_;
  clock::time_point deadline_{};
  bool has_deadline_ = false;
  int thread_budget_ = 0;
  cancel_token cancel_;
  progress_callback progress_;
  log_sink log_;
};

} // namespace transtore::api
