#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "churn/trace_generator.h"
#include "common/check.h"
#include "common/rng.h"
#include "oracle/snapshot.h"
#include "scenario/scenario_builder.h"
#include "served/protocol.h"
#include "util.h"

namespace ronbench {

using ron::ChurnOpKind;
using ron::ChurnTrace;
using ron::NodeId;

namespace {

// Tags that split one workload seed into independent streams.
enum SeedTag : std::uint64_t {
  kOverlayTag = 1,
  kDirectoryTag,
  kQueryTag,
  kChurnTag,
};

std::uint64_t derive(std::uint64_t seed, SeedTag tag) {
  return mix64(seed * 0x100000001b3ULL + tag);
}

}  // namespace

const std::vector<WorkloadConfig>& workloads() {
  static const std::vector<WorkloadConfig> table = [] {
    std::vector<WorkloadConfig> t;
    // Sparse million-node serving mode at n=20000: the greedy walk over
    // ~490 ring contacts per node and the RingsSmallWorld sampling that
    // dominates set-up. Open loop at about a third of closed-loop qps.
    WorkloadConfig ls;
    ls.name = "locate-sparse";
    ls.kind = QueryKind::kLocate;
    ls.scenario = "metric=geoline,base=1.0000001,n=20000";
    ls.objects = 1000;
    ls.replicas = 3;
    ls.daemon_flags = {"--backend", "sparse"};
    ls.open_loop_qps = 40000;
    ls.setup_repeats = 3;
    t.push_back(ls);

    // Estimates only: snapshot load at set-up, label intersections or LRU
    // hits per query. No overlay and no walk, so protocol, engine and cache
    // costs are what moves here. Open loop at about a third of closed-loop
    // qps.
    WorkloadConfig ez;
    ez.name = "estimate-zipf";
    ez.kind = QueryKind::kEstimate;
    ez.scenario = "metric=clustered,seed=2025,per_cluster=16,n=480";
    ez.daemon_flags = {"--cache", "4096"};
    ez.open_loop_qps = 56000;
    ez.setup_repeats = 5;
    t.push_back(ez);

    // Dense overlay with live churn: 16-op chunks through the admin
    // channel run the mutator, commit and epoch swap inline on the poll
    // loop while locates queue behind them. At 20 chunks/s of ~12 ms each
    // the chunks hold the loop about a quarter of the time, so p90 falls
    // well inside the locates delayed by churn and p50 well outside them;
    // the locate rate stays low (~1/8 of closed-loop qps) so it adds little
    // queueing of its own. Not gated: its small dense working set runs up
    // to 1.7x faster or slower with the host's load, within a run and
    // between runs of one seed, so its qps, p50 and p90 spread 0.3-0.5
    // over ten seeds. It is the only workload that reaches the churn layer.
    WorkloadConfig cd;
    cd.name = "churn-dense";
    cd.kind = QueryKind::kLocate;
    cd.scenario = "metric=clustered,seed=2025,per_cluster=16,n=1024";
    cd.objects = 256;
    cd.replicas = 3;
    cd.open_loop_qps = 24000;
    cd.setup_repeats = 5;
    cd.churn_hz = 20.0;
    cd.gated = false;
    t.push_back(cd);
    return t;
  }();
  return table;
}

const WorkloadConfig& workload(const std::string& name) {
  std::string known;
  for (const WorkloadConfig& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  RON_CHECK(false, "unknown workload '" << name << "' (known: " << known
                                        << ")");
  throw;  // unreachable
}

Phases::Phases(double seconds) {
  RON_CHECK(seconds >= 1.0 && seconds <= 600.0,
            "--seconds " << seconds << " outside [1, 600]");
  closed_s = seconds / 2.0;
  open_s = seconds / 2.0;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  RON_CHECK(n >= 1, "zipf over an empty range");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t ZipfSampler::draw(ron::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<ChurnTrace> split_trace(const ChurnTrace& trace,
                                    std::size_t ops_per_chunk) {
  RON_CHECK(ops_per_chunk >= 1, "empty churn chunks");
  std::vector<ChurnTrace> chunks;
  for (std::size_t begin = 0; begin < trace.ops.size();
       begin += ops_per_chunk) {
    const std::size_t end =
        std::min(trace.ops.size(), begin + ops_per_chunk);
    ChurnTrace chunk;
    std::map<ron::ObjectId, ron::ObjectId> remap;
    for (std::size_t i = begin; i < end; ++i) {
      ron::ChurnOp op = trace.ops[i];
      if (op.object != ron::kInvalidObject) {
        auto [it, fresh] = remap.try_emplace(
            op.object, static_cast<ron::ObjectId>(chunk.objects.size()));
        if (fresh) chunk.objects.push_back(trace.objects[op.object]);
        op.object = it->second;
      }
      chunk.ops.push_back(op);
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::vector<NodeId> never_removed(std::size_t n, const ChurnTrace& trace) {
  std::vector<char> removed(n, 0);
  for (const ron::ChurnOp& op : trace.ops) {
    if (op.kind == ChurnOpKind::kLeave) removed[op.node] = 1;
  }
  std::vector<NodeId> keep;
  for (std::size_t u = 0; u < n; ++u) {
    if (removed[u] == 0) keep.push_back(static_cast<NodeId>(u));
  }
  return keep;
}

std::vector<std::vector<ron::LocateQuery>> make_locate_frames(
    std::span<const NodeId> queriers, std::span<const ron::ObjectId> objects,
    std::size_t frames, std::size_t batch, std::uint64_t seed) {
  RON_CHECK(!queriers.empty() && !objects.empty(),
            "locate frames need queriers and objects");
  ron::Rng rng(seed);
  std::vector<std::vector<ron::LocateQuery>> out(frames);
  for (auto& frame : out) {
    frame.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const NodeId q = queriers[rng.index(queriers.size())];
      frame.emplace_back(q, objects[rng.index(objects.size())]);
    }
  }
  return out;
}

std::vector<std::vector<ron::QueryPair>> make_estimate_frames(
    std::size_t n, std::size_t frames, std::size_t batch, std::uint64_t seed) {
  ron::Rng rng(seed);
  // Zipf ranks map to nodes through a seeded permutation, so the hot
  // endpoints are arbitrary nodes rather than the lowest ids.
  std::vector<NodeId> perm(n);
  for (std::size_t u = 0; u < n; ++u) perm[u] = static_cast<NodeId>(u);
  rng.shuffle(perm);
  const ZipfSampler sampler(n, 1.0);
  std::vector<std::vector<ron::QueryPair>> out(frames);
  for (auto& frame : out) {
    frame.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const NodeId u = perm[sampler.draw(rng)];
      const NodeId v = perm[sampler.draw(rng)];
      frame.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<std::uint64_t> fixed_rate_offsets(double frames_per_s,
                                              double seconds) {
  RON_CHECK(frames_per_s > 0.0, "open-loop rate must be positive");
  std::vector<std::uint64_t> out;
  const double gap_ns = 1e9 / frames_per_s;
  const double end_ns = seconds * 1e9;
  for (std::size_t k = 0; static_cast<double>(k) * gap_ns < end_ns; ++k) {
    out.push_back(static_cast<std::uint64_t>(static_cast<double>(k) * gap_ns));
  }
  return out;
}

Inputs make_inputs(const WorkloadConfig& cfg, std::uint64_t seed,
                   const Phases& phases, const std::string& work_dir) {
  Inputs in;
  in.cfg = &cfg;
  ron::ScenarioSpec spec = ron::ScenarioSpec::parse(cfg.scenario);
  if (cfg.kind == QueryKind::kLocate) {
    spec.overlay_seed = 1 + derive(seed, kOverlayTag) % 1'000'000'000;
    spec.churn_seed = 1 + derive(seed, kChurnTag) % 1'000'000'000;
  }
  // The builder canonicalizes n; its sparse index (auto above the cutoff)
  // costs milliseconds, and only the labeling (estimate-zipf) costs more.
  ron::ScenarioBuilder builder(spec, 1, ron::ProxBackend::kAuto);
  in.spec = builder.spec();
  in.n = builder.n();
  std::filesystem::create_directories(work_dir);
  in.snapshot_path = work_dir + "/" + cfg.name + ".ron";

  // Open-loop frames come first in the pool, so the schedule never reuses
  // a frame; the closed loop cycles over the whole pool.
  const double frames_per_s = cfg.open_loop_qps / static_cast<double>(kBatch);
  in.open_offsets_ns =
      fixed_rate_offsets(frames_per_s, phases.open_warm_s + phases.open_s);
  const std::size_t pool =
      std::max<std::size_t>(8192, in.open_offsets_ns.size());

  if (cfg.kind == QueryKind::kEstimate) {
    ron::save_oracle(in.spec, builder.metric().name(), builder.labeling(),
                     in.snapshot_path);
    in.estimate_frames =
        make_estimate_frames(in.n, pool, kBatch, derive(seed, kQueryTag));
    for (std::size_t k = 0; k < pool; ++k) {
      in.payloads.push_back(
          ron::encode_estimate_request(k + 1, in.estimate_frames[k]));
    }
  } else {
    const ron::ObjectDirectory directory = builder.make_directory(
        cfg.objects, cfg.replicas, derive(seed, kDirectoryTag));
    ron::save_directory(in.spec, directory, in.snapshot_path);
    if (cfg.churn()) {
      ron::ChurnTraceParams params;
      const auto chunks = static_cast<std::size_t>(
          std::ceil(cfg.churn_hz * phases.churn_horizon_s()));
      params.ops = chunks * kChurnChunkOps;
      const std::vector<char> active(in.n, 1);
      const ChurnTrace trace = ron::generate_churn_trace(
          in.n, active, directory, params, derive(seed, kChurnTag));
      in.chunks = split_trace(trace, kChurnChunkOps);
      in.queriers = never_removed(in.n, trace);
    } else {
      for (std::size_t u = 0; u < in.n; ++u) {
        in.queriers.push_back(static_cast<NodeId>(u));
      }
    }
    std::vector<ron::ObjectId> objects(cfg.objects);
    for (std::size_t obj = 0; obj < cfg.objects; ++obj) {
      objects[obj] = static_cast<ron::ObjectId>(obj);
    }
    in.locate_frames = make_locate_frames(in.queriers, objects, pool, kBatch,
                                          derive(seed, kQueryTag));
    for (std::size_t k = 0; k < pool; ++k) {
      in.payloads.push_back(
          ron::encode_locate_request(k + 1, in.locate_frames[k]));
    }
  }

  for (std::size_t k = 0; k < in.chunks.size(); ++k) {
    in.churn_payloads.push_back(
        ron::encode_churn_request(kChurnIdBase + k, in.chunks[k]));
  }
  return in;
}

}  // namespace ronbench
