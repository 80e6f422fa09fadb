// Always-on invariant checking.
//
// The constructions in this library are intricate (zooming sequences, host
// enumerations, translation maps); a silently violated invariant would
// invalidate every measurement downstream. RON_CHECK therefore stays enabled
// in all build types and throws ron::Error with file/line context (kept
// out of Error::message(), which is what a remote client may see).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ron {

/// Exception thrown on invariant violations and invalid arguments.
///
/// what() is the whole diagnostic for logs and tests; a RON_CHECK failure
/// adds the failed expression and its source location to it. message() is
/// the caller's message alone, the part that may be shown to a remote
/// client (the daemon's error frames carry it).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), message_(what) {}
  Error(const std::string& what, std::string message)
      : std::runtime_error(what), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "RON_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str(), msg.empty() ? "internal check failed" : msg);
}
}  // namespace detail

}  // namespace ron

// RON_CHECK(cond) or RON_CHECK(cond, streamable << message)
#define RON_CHECK(cond, ...)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream ron_check_os_;                                   \
      ron_check_os_ << "" __VA_ARGS__;                                    \
      ::ron::detail::check_failed(#cond, __FILE__, __LINE__,              \
                                  ron_check_os_.str());                   \
    }                                                                     \
  } while (false)
