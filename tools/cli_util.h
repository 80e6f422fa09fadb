// Shared command-line plumbing for the ron_* tools (ron_oracle, ron_served,
// ron_loadgen).
//
// Extracted so the tools cannot drift: every tool parses numbers with the
// same offending-token diagnostics ("bad --flag: 'value'"), rejects
// unknown/duplicate/value-less flags the same way, and maps failures to the
// same exit codes — 2 for a malformed command line (usage printed), 1 for a
// runtime ron::Error. Divergent re-implementations of parse_u64 across
// tools would mean divergent diagnostics for identical mistakes, which the
// shared cli.errors ctest would catch but users would hit first.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ron::cli {

/// Malformed command line (vs a runtime Error): tool_main prints usage and
/// exits 2.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// Strict decimal u64 with the offending token named on failure. Throws
/// ron::Error (runtime, exit 1) — a value that parses but is out of a
/// flag's accepted range is a runtime complaint, not a usage dump.
inline std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  RON_CHECK(ec == std::errc() && p == s.data() + s.size(),
            "bad " << what << ": '" << s << "'");
  return v;
}

/// parse_u64 narrowed to a NodeId with an explicit range check — a plain
/// static_cast would wrap 2^32 to node 0 and sail through the < n checks.
inline NodeId parse_node(const std::string& s, const char* what) {
  const std::uint64_t v = parse_u64(s, what);
  RON_CHECK(v < kInvalidNode,
            "bad " << what << ": " << v << " exceeds the node id range");
  return static_cast<NodeId>(v);
}

/// "--flag value" option map over argv[first..). Each subcommand declares
/// its accepted flags and positional arity up front (expect_known /
/// expect_positionals), so a typo'd flag is a usage error instead of being
/// silently ignored.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        if (i + 1 >= argc) {
          throw UsageError("missing value for " + a);
        }
        const std::string key = a.substr(2);
        if (key.empty() || flags_.count(key) > 0) {
          throw UsageError(key.empty() ? "malformed flag '--'"
                                       : "duplicate flag --" + key);
        }
        flags_[key] = argv[++i];
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  /// Throws UsageError for any flag outside `known`.
  void expect_known(std::initializer_list<const char*> known) const {
    for (const auto& [key, value] : flags_) {
      bool ok = false;
      for (const char* k : known) ok = ok || key == k;
      if (!ok) {
        throw UsageError("unknown flag --" + key);
      }
    }
  }

  /// Throws UsageError unless exactly `count` positionals were given.
  void expect_positionals(std::size_t count, const char* what) const {
    if (positional_.size() != count) {
      throw UsageError(std::string("expected ") + what + ", got " +
                       std::to_string(positional_.size()) +
                       " positional argument(s)");
    }
  }

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? dflt : it->second;
  }
  bool has(const std::string& key) const { return flags_.count(key) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The tools' shared exit-code contract, wrapped around each main():
/// UsageError -> tool-prefixed message + usage on stderr, exit 2; any other
/// std::exception (ron::Error from a runtime failure) -> tool-prefixed
/// message, exit 1 — no usage dump, the command line itself was fine.
/// A ron::Error prints its message() alone: the failed expression and the
/// source location a RON_CHECK adds to what() mean nothing to a user.
template <typename Run, typename Usage>
int tool_main(const char* tool, Run&& run, Usage&& usage) {
  try {
    return run();
  } catch (const UsageError& e) {
    std::cerr << tool << ": " << e.message() << "\n";
    usage(std::cerr);
    return 2;
  } catch (const Error& e) {
    std::cerr << tool << ": " << e.message() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ron::cli
