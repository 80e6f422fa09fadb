#include "util.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/check.h"

namespace ronbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double quantile(std::vector<double> values, double q) {
  RON_CHECK(!values.empty(), "quantile of an empty sample");
  RON_CHECK(q >= 0.0 && q <= 1.0, "quantile q=" << q);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string json_number(double v) {
  RON_CHECK(std::isfinite(v), "non-finite metric value " << v);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

LoadPlacement::LoadPlacement(pid_t daemon) {
  RON_CHECK(pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) ==
                0,
            "pthread_getaffinity_np failed");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[0], &one);
  RON_CHECK(pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0,
            "cannot pin the generator to CPU " << cpus[0]);
  generator_cpu_ = cpus[0];
  CPU_ZERO(&one);
  CPU_SET(cpus[1], &one);
  RON_CHECK(sched_setaffinity(daemon, sizeof(one), &one) == 0,
            "cannot pin the daemon to CPU " << cpus[1]);
  daemon_cpu_ = cpus[1];
  spinner_ = std::thread([this, one] {
    const sched_param idle{};
    // A spinner that is not both pinned and at idle priority would take CPU
    // time from the daemon, so it gives up instead.
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0 ||
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0) {
      state_ = 2;
      return;
    }
    state_ = 1;
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  });
}

LoadPlacement::~LoadPlacement() {
  stop_ = true;
  if (spinner_.joinable()) spinner_.join();
  if (generator_cpu_ >= 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
}

bool LoadPlacement::spinning() const {
  if (!spinner_.joinable()) return false;
  while (state_.load() == 0) std::this_thread::yield();
  return state_.load() == 1;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* compiler_stamp() { return RONBENCH_COMPILER; }
const char* build_type_stamp() { return RONBENCH_BUILD_TYPE; }

}  // namespace ronbench
