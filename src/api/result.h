// Structured outcomes for the staged synthesis API.
//
// The api boundary does not throw: every stage returns api::result<T>,
// which carries a status code, a human-readable message, and -- for the
// best-effort outcomes time_limit and cancelled -- optionally still a
// value. This keeps the paper's protocol ("return the incumbent when the
// solver budget runs out") visible in the type system instead of hiding it
// behind exceptions.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "api/run_context.h"
#include "common/error.h"

namespace transtore::api {

enum class status {
  ok,            // stage completed inside its budget
  time_limit,    // deadline hit; a best-effort value may still be present
  cancelled,     // cancel token fired; a best-effort value may be present
  degraded,      // fault recovery succeeded but the recovered schedule
                 // finishes later than the original (value present)
  invalid_input, // malformed graph/options (maps invalid_input_error)
  infeasible,    // optimization model has no solution (infeasible_error)
  capacity,      // grid/storage budget exceeded (capacity_error)
  internal,      // library invariant violated (internal_error)
  queue_full,    // executor's bounded queue rejected the job (submit again
                 // later or shed load); the job never ran
};

[[nodiscard]] constexpr const char* to_string(status s) {
  switch (s) {
    case status::ok: return "ok";
    case status::time_limit: return "time_limit";
    case status::cancelled: return "cancelled";
    case status::degraded: return "degraded";
    case status::invalid_input: return "invalid_input";
    case status::infeasible: return "infeasible";
    case status::capacity: return "capacity";
    case status::internal: return "internal";
    case status::queue_full: return "queue_full";
  }
  return "unknown";
}

/// Outcome of one pipeline stage: a status plus, when the stage produced
/// anything (always for ok, best-effort for time_limit/cancelled), a value.
template <typename T>
class result {
public:
  static result success(T value) {
    return result(status::ok, std::move(value), {});
  }
  /// Best-effort outcome: the deadline or cancel fired but a usable value
  /// exists (e.g. the heuristic schedule after a truncated ILP).
  static result partial(status code, T value, std::string message) {
    return result(code, std::move(value), std::move(message));
  }
  static result failure(status code, std::string message) {
    return result(code, std::nullopt, std::move(message));
  }

  [[nodiscard]] status code() const { return status_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] bool ok() const { return status_ == status::ok; }
  [[nodiscard]] bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }

  [[nodiscard]] const T& value() const& {
    if (!value_.has_value()) throw_empty("value");
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!value_.has_value()) throw_empty("value");
    return *value_;
  }
  [[nodiscard]] T&& take() && {
    if (!value_.has_value()) throw_empty("take");
    return std::move(*value_);
  }
  const T* operator->() const { return &value(); }
  const T& operator*() const { return value(); }

  /// Re-wrap this outcome's status/message for a different value type
  /// (propagating a failed upstream stage through a chain).
  template <typename U>
  [[nodiscard]] api::result<U> propagate() const {
    check(status_ != status::ok,
          "api::result: propagate() on an ok result loses its value");
    return api::result<U>::failure(status_, message_);
  }

private:
  result(status code, std::optional<T> value, std::string message)
      : status_(code), value_(std::move(value)), message_(std::move(message)) {}

  [[noreturn]] void throw_empty(const char* accessor) const {
    throw internal_error(std::string("api::result: ") + accessor +
                         "() on empty result (" + to_string(status_) + ": " +
                         message_ + ")");
  }

  status status_;
  std::optional<T> value_;
  std::string message_;
};

/// Translate the exception currently in flight into a stage failure; call
/// it only from a catch block. cancelled_error is attributed to the token or
/// the deadline depending on which actually fired.
template <typename T>
[[nodiscard]] result<T> failure_from_current_exception(const run_context& ctx) {
  try {
    throw;
  } catch (const cancelled_error& e) {
    return result<T>::failure(
        ctx.cancelled() ? status::cancelled : status::time_limit, e.what());
  } catch (const invalid_input_error& e) {
    return result<T>::failure(status::invalid_input, e.what());
  } catch (const infeasible_error& e) {
    return result<T>::failure(status::infeasible, e.what());
  } catch (const capacity_error& e) {
    return result<T>::failure(status::capacity, e.what());
  } catch (const std::exception& e) {
    return result<T>::failure(status::internal, e.what());
  }
}

} // namespace transtore::api
