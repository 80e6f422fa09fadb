// Workload definitions and seeded input generation.
//
// A workload is a snapshot, a set of daemon flags, a stream of query frames,
// an open-loop arrival schedule at a fixed offered rate, and on churn
// workloads a stream of churn chunks beside the queries. Every input is a
// pure function of (workload, seed, seconds): the same arguments give
// byte-identical frames, schedules and churn chunks, and all of it is built
// before the daemon starts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "common/rng.h"
#include "oracle/engine.h"
#include "scenario/scenario_spec.h"

namespace ronbench {

enum class QueryKind { kLocate, kEstimate };

/// Queries per frame, on every workload.
inline constexpr std::size_t kBatch = 64;
/// Operations per churn chunk (one admin frame).
inline constexpr std::size_t kChurnChunkOps = 16;

struct WorkloadConfig {
  std::string name;
  QueryKind kind = QueryKind::kLocate;
  /// Scenario recipe; make_inputs adds the seed-derived overlay_seed and
  /// churn_seed for overlay workloads.
  std::string scenario;
  /// Directory snapshot size (locate workloads).
  std::size_t objects = 0;
  std::size_t replicas = 0;
  /// Flags passed to ron_served on top of `<snapshot> --port 0`.
  std::vector<std::string> daemon_flags;
  /// Fixed open-loop offered load, queries per second, kept well below the
  /// closed-loop qps so the host's slower stretches do not build a backlog
  /// (see the workload table in workload.cpp).
  double open_loop_qps = 0.0;
  /// Daemon start-ups per run; setup_s reports their median.
  std::size_t setup_repeats = 3;
  /// Churn chunks of kChurnChunkOps operations sent through the admin
  /// channel at churn_hz beside the queries (0 = no churn stream).
  double churn_hz = 0.0;
  /// Listed in BENCHMARK.json, so its end-to-end metrics are gated. An
  /// ungated workload still runs by name, for its per-layer split.
  bool gated = true;

  bool churn() const { return churn_hz > 0.0; }
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadConfig>& workloads();
/// Throws ron::Error naming the known workloads.
const WorkloadConfig& workload(const std::string& name);

/// Phase lengths of one run. `seconds` (the driver's --seconds) is split
/// evenly between the closed-loop and open-loop measurements; each is
/// preceded by an unmeasured warm-up.
struct Phases {
  explicit Phases(double seconds);
  double closed_warm_s = 1.0;
  double closed_s = 0.0;
  double open_warm_s = 1.0;
  double open_s = 0.0;
  /// Upper bound on the churn stream's lifetime (both phases plus drains).
  double churn_horizon_s() const {
    return closed_warm_s + closed_s + open_warm_s + open_s + 3.0;
  }
};

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t draw(ron::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Splits `trace` into consecutive chunks of `ops_per_chunk` operations,
/// each with its own name table (the admin frame's wire form).
std::vector<ron::ChurnTrace> split_trace(const ron::ChurnTrace& trace,
                                         std::size_t ops_per_chunk);

/// Nodes no kLeave op of the trace ever removes.
std::vector<ron::NodeId> never_removed(std::size_t n,
                                       const ron::ChurnTrace& trace);

/// Query frames: `frames` batches of `batch` queries each. Estimate
/// endpoints are both drawn Zipf(1) over a seeded node permutation.
std::vector<std::vector<ron::LocateQuery>> make_locate_frames(
    std::span<const ron::NodeId> queriers,
    std::span<const ron::ObjectId> objects, std::size_t frames,
    std::size_t batch, std::uint64_t seed);
std::vector<std::vector<ron::QueryPair>> make_estimate_frames(
    std::size_t n, std::size_t frames, std::size_t batch, std::uint64_t seed);

/// Fixed-rate arrival offsets (ns from the phase start): frame k is due at
/// k / frames_per_s, for every k that falls within `seconds`.
std::vector<std::uint64_t> fixed_rate_offsets(double frames_per_s,
                                              double seconds);

/// Request ids: query frame k carries k + 1 (frames are reused cyclically by
/// the closed loop, and answers are matched first-in first-out per
/// connection); churn chunk k carries kChurnIdBase + k.
inline constexpr std::uint64_t kChurnIdBase = 1ULL << 40;

struct Inputs {
  const WorkloadConfig* cfg = nullptr;
  ron::ScenarioSpec spec;  // canonical, as stored in the snapshot
  std::size_t n = 0;
  std::string snapshot_path;
  /// Locate workloads: the nodes queries come from (on churn workloads,
  /// only nodes the trace never removes).
  std::vector<ron::NodeId> queriers;
  std::vector<std::vector<ron::LocateQuery>> locate_frames;
  std::vector<std::vector<ron::QueryPair>> estimate_frames;
  std::vector<std::vector<std::uint8_t>> payloads;  // encoded query frames
  /// Churn workloads: the chunks and their encoded admin frames.
  std::vector<ron::ChurnTrace> chunks;
  std::vector<std::vector<std::uint8_t>> churn_payloads;
  /// Open-loop schedule (warm-up + measurement), offsets from its start.
  std::vector<std::uint64_t> open_offsets_ns;

  std::size_t num_frames() const { return payloads.size(); }
};

/// Writes the snapshot under `work_dir` and builds every stream.
Inputs make_inputs(const WorkloadConfig& cfg, std::uint64_t seed,
                   const Phases& phases, const std::string& work_dir);

}  // namespace ronbench
