/// \file check.h
/// Contract-checking macros used throughout the library.
///
/// `LCS_CHECK` guards public-API preconditions and internal invariants.
/// Violations throw `lcs::CheckFailure` (derived from `std::logic_error`)
/// so tests can assert on them and callers get a diagnosable error instead
/// of undefined behaviour.
#pragma once

#include <stdexcept>
#include <string>

namespace lcs {

/// Thrown when a `LCS_CHECK` condition fails.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void check_failed(const char* condition,
                               const std::string& message);
}  // namespace detail

}  // namespace lcs

/// Verify `cond`; on failure throw lcs::CheckFailure naming the condition
/// and the message. The text carries no source location: it reaches the
/// JSON error documents, whose bytes must not depend on the checkout path
/// or on line numbers. Always enabled (also in release builds): the
/// simulator's value is its guarantees, so invariant checks are never
/// compiled out.
#define LCS_CHECK(cond, message)                        \
  do {                                                  \
    if (!(cond)) {                                      \
      ::lcs::detail::check_failed(#cond, (message));    \
    }                                                   \
  } while (false)
