#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace ron {

unsigned available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<unsigned>(count);
  }
  // Masks wider than cpu_set_t (over 1024 CPUs) fail with EINVAL.
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned resolve_workers(std::size_t n, unsigned requested) {
  if (requested == 0) {
    requested = n < kMinParallelItems ? 1 : available_cpus();
  }
  return static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(requested, n)));
}

void run_slices(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned, std::size_t, std::size_t)>& fn) {
  if (workers <= 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  try {
    for (unsigned t = 0; t < workers; ++t) {
      const std::size_t begin = n * t / workers;
      const std::size_t end = n * (t + 1) / workers;
      threads.emplace_back([&fn, &errors, t, begin, end] {
        try {
          fn(t, begin, end);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // Thread spawn failed (resource limit): join what started, then
    // propagate instead of letting ~thread() call std::terminate.
    for (std::thread& w : threads) w.join();
    throw;
  }
  for (std::thread& w : threads) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ron
