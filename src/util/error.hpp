// Error handling utilities: checked preconditions and a library exception type.
//
// Library code throws pdslin::Error on precondition violations rather than
// aborting, so callers (tests, long-running drivers) can recover.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace pdslin {

/// Exception type thrown by all pdslin components on contract violations
/// (bad dimensions, non-finite input where finiteness is required, etc.).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, std::string expression = {},
                 std::string location = {})
      : std::runtime_error(what),
        expression_(std::move(expression)),
        location_(std::move(location)) {}

  /// For a failed PDSLIN_CHECK, the check's source text and its
  /// "<file>:<line>", kept for logs; empty otherwise.
  [[nodiscard]] const std::string& expression() const { return expression_; }
  [[nodiscard]] const std::string& location() const { return location_; }

 private:
  std::string expression_;
  std::string location_;
};

namespace detail {
/// what() is the check's message, the sentence meant for the user; a check
/// without one reads "pdslin check failed: <expr> at <file>:<line>".
[[noreturn]] inline void raise(const char* expr, const char* file, int line,
                               const std::string& msg) {
  const std::string where = std::string(file) + ":" + std::to_string(line);
  throw Error(msg.empty() ? "pdslin check failed: " + std::string(expr) +
                                " at " + where
                          : msg,
              expr, where);
}
}  // namespace detail

}  // namespace pdslin

/// Precondition check that is always active (release builds included).
/// Use for user-facing API contracts.
#define PDSLIN_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) ::pdslin::detail::raise(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define PDSLIN_CHECK_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) ::pdslin::detail::raise(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Internal invariant check; compiled out in NDEBUG builds.
#ifdef NDEBUG
#define PDSLIN_ASSERT(expr) ((void)0)
#else
#define PDSLIN_ASSERT(expr) PDSLIN_CHECK(expr)
#endif
