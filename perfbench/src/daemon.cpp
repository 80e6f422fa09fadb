#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "util.h"

namespace ronbench {

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  int out[2];
  RON_CHECK(::pipe2(out, O_CLOEXEC) == 0, "pipe2: " << std::strerror(errno));
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  RON_CHECK(log_fd >= 0, "cannot open daemon log '" << log_path << "'");
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  spawn_ns_ = now_ns();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(out[1]);
  ::close(log_fd);
  if (pid_ < 0) {
    ::close(out[0]);
    RON_CHECK(false, "fork: " << std::strerror(fork_errno));
  }
  stdout_fd_ = out[0];
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

std::uint16_t Daemon::wait_port(double timeout_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  std::string line;
  while (line.find('\n') == std::string::npos) {
    const std::uint64_t now = now_ns();
    RON_CHECK(now < deadline, "ron_served printed no port within "
                                  << timeout_s << " s");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ms = static_cast<int>((deadline - now) / 1'000'000 + 1);
    const int ready = ::poll(&pfd, 1, ms);
    if (ready < 0 && errno == EINTR) continue;
    RON_CHECK(ready >= 0, "poll: " << std::strerror(errno));
    if (ready == 0) continue;
    char buf[64];
    const ssize_t got = ::read(stdout_fd_, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    RON_CHECK(got > 0, "ron_served exited before printing its port (see "
                       "its log)");
    line.append(buf, static_cast<std::size_t>(got));
  }
  const unsigned long port = std::stoul(line.substr(0, line.find('\n')));
  RON_CHECK(port > 0 && port <= 65535, "bad port line '" << line << "'");
  return static_cast<std::uint16_t>(port);
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb * 1024.0 / 1e6;
    }
    std::string rest;
    std::getline(in, rest);
  }
  RON_CHECK(false, "no VmHWM for pid " << pid_);
  return 0.0;
}

bool Daemon::wait_exit(double timeout_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (now_ns() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      return false;
    }
    sleep_until_ns(now_ns() + 2'000'000);
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace ronbench
