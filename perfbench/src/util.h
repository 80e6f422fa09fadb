// Small helpers shared by the benchmark driver: one monotonic clock, order
// statistics, JSON number formatting, and the load phases' CPU placement.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace ronbench {

/// CLOCK_MONOTONIC in nanoseconds. Every timestamp the benchmark takes —
/// due times, sends, receives, spans — comes from this one clock, so they
/// subtract meaningfully inside one process.
std::uint64_t now_ns();

/// Sleeps until `deadline_ns` (absolute, now_ns() domain) with the kernel's
/// high-resolution timer; returns at once if the deadline has passed.
void sleep_until_ns(std::uint64_t deadline_ns);

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample, the
/// same definition numpy uses by default. Throws ron::Error when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// A finite double printed with all 17 significant digits (JSON number).
std::string json_number(double v);
/// A JSON string literal with quotes and escapes.
std::string json_string(const std::string& s);

/// CPU placement for the load phases. The calling (generator) thread and
/// the daemon each get a CPU of their own, so the guest's scheduler never
/// stacks them on one, and a spinner thread at SCHED_IDLE priority shares
/// the daemon's CPU: the daemon preempts it at once whenever it wakes, and
/// in between it keeps that CPU out of its idle halt. On a virtual machine
/// a halted CPU is woken by the host, which takes milliseconds whenever the
/// host is busy; a spinning one is already running. Other CPUs are left
/// alone. With fewer than two CPUs allowed it places nothing.
class LoadPlacement {
 public:
  explicit LoadPlacement(pid_t daemon);
  /// Stops the spinner and restores the calling thread's CPU mask.
  ~LoadPlacement();
  LoadPlacement(const LoadPlacement&) = delete;
  LoadPlacement& operator=(const LoadPlacement&) = delete;

  /// -1 when nothing was placed.
  int generator_cpu() const { return generator_cpu_; }
  int daemon_cpu() const { return daemon_cpu_; }
  /// Whether the spinner runs (waits until it has started).
  bool spinning() const;

 private:
  int generator_cpu_ = -1;
  int daemon_cpu_ = -1;
  cpu_set_t saved_{};
  std::atomic<bool> stop_{false};
  std::atomic<int> state_{0};  // 0 starting, 1 spinning, 2 gave up
  std::thread spinner_;
};

/// SplitMix64 finalizer: a stateless hash used to pick seeded samples.
std::uint64_t mix64(std::uint64_t x);

/// Compiler id and version, and CMake build type, of this build.
const char* compiler_stamp();
const char* build_type_stamp();

}  // namespace ronbench
