// A ron_served child process: spawn, port discovery, peak RSS, shutdown.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ronbench {

class Daemon {
 public:
  /// Forks and execs `exe args...` with stdout on a pipe (the daemon prints
  /// its bound port there) and stderr appended to `log_path`. The child
  /// gets SIGKILL if this process dies first. spawn_ns() is taken just
  /// before the fork.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  /// Kills the child if it is still running and reaps it.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint64_t spawn_ns() const { return spawn_ns_; }
  pid_t pid() const { return pid_; }

  /// Blocks until the port line arrives. Throws ron::Error when the daemon
  /// exits or stays silent past `timeout_s`.
  std::uint16_t wait_port(double timeout_s);

  /// The daemon's peak resident set (VmHWM) in MB (10^6 bytes).
  double peak_rss_mb() const;

  /// Waits for the child to exit after a shutdown frame; kills it after
  /// `timeout_s`. Returns true on a clean exit with status 0.
  bool wait_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint64_t spawn_ns_ = 0;
};

}  // namespace ronbench
