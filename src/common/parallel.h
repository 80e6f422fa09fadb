// Contiguous-slice parallelism for deterministic builds.
//
// The per-node builds (dense proximity rows, ring sampling) are independent
// across nodes, so they split [0, n) into one contiguous slice per worker.
// Each worker writes only state owned by its slice; the caller reads it
// strictly after run_slices returns, which is after every worker joined
// (the happens-before edge the tsan.* shard checks). No locks: disjointness
// is the whole contract, so results never depend on the worker count.
#pragma once

#include <cstddef>
#include <functional>

namespace ron {

/// Below this many items an auto-sized build stays serial: the whole build
/// is microseconds of work and spawn/join would dominate.
inline constexpr std::size_t kMinParallelItems = 256;

/// CPUs this process may run on: the size of its scheduler affinity mask,
/// so a daemon started under taskset or a cpuset sizes itself to the cores
/// it actually has. At least 1.
unsigned available_cpus();

/// Worker count for a build over n items. `requested` > 0 is honored (an
/// explicit count is never second-guessed) but capped at n; 0 means auto:
/// one worker per available CPU, or 1 when n < kMinParallelItems.
unsigned resolve_workers(std::size_t n, unsigned requested);

/// Splits [0, n) into `workers` contiguous slices, in order, and runs
/// fn(slice, begin, end) for each: inline on the calling thread when
/// workers <= 1, otherwise one thread per slice. Returns after every
/// worker joined; a worker's exception (the first by slice index) is then
/// rethrown with its original type and message, so a ron::Error raised in
/// a worker reaches the caller as that ron::Error.
void run_slices(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned slice, std::size_t begin,
                             std::size_t end)>& fn);

}  // namespace ron
