// Error handling for the transtore library.
//
// Policy (per C++ Core Guidelines E.2/E.3): errors that a caller can be
// expected to handle -- infeasible models, malformed inputs, resource
// exhaustion -- are reported by throwing one of the exception types below.
// Violations of internal invariants are reported through check() with a
// message and indicate a bug in this library, not in the caller.
//
// require() and check() take a string literal, so a passing check costs
// one branch and no allocation; they sit on hot paths (the annealers, the
// timing model, the LP kernel). A message that has to be composed (an
// index, a key, a file position) tests first and builds its text only on
// the failing path: `if (!ok) throw invalid_input_error("..." + key);`.
#pragma once

#include <stdexcept>
#include <string>

namespace transtore {

/// Base class of every exception thrown by this library.
class ts_error : public std::runtime_error {
public:
  explicit ts_error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller-supplied argument or input file is malformed.
class invalid_input_error : public ts_error {
public:
  explicit invalid_input_error(const std::string& what) : ts_error(what) {}
};

/// An optimization model has no feasible solution.
class infeasible_error : public ts_error {
public:
  explicit infeasible_error(const std::string& what) : ts_error(what) {}
};

/// A resource budget (grid capacity, storage capacity, ...) is exceeded.
class capacity_error : public ts_error {
public:
  explicit capacity_error(const std::string& what) : ts_error(what) {}
};

/// A solve was interrupted (cancel token or pipeline deadline) before any
/// usable result existed. Interruptions that still have a best-effort
/// result to hand back are reported through status fields instead.
class cancelled_error : public ts_error {
public:
  explicit cancelled_error(const std::string& what) : ts_error(what) {}
};

/// An internal invariant does not hold; indicates a library bug.
class internal_error : public ts_error {
public:
  explicit internal_error(const std::string& what) : ts_error(what) {}
};

/// Throw invalid_input_error unless `condition` holds.
inline void require(bool condition, const char* message) {
  if (!condition) throw invalid_input_error(message);
}

/// Throw internal_error unless `condition` holds. Use for invariants that
/// only a bug in this library can break.
inline void check(bool condition, const char* message) {
  if (!condition) throw internal_error(message);
}

} // namespace transtore
