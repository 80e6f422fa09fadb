// In-process replay: the daemon's serving state rebuilt through the public
// constructors, the sent frames replayed through the public calls, and
// the spans that split the end-to-end numbers by layer.
//
// Every run rebuilds the state and replays its seeded sample of frames to
// check the daemon's answers against the in-process reference. A traced run
// also times each set-up stage and replays every open-loop frame with spans
// around decode, engine batch and encode, and around the per-query calls
// into location, metric, core and labeling. Churn chunks are replayed in
// the order they were sent, so each replayed frame sees the epoch the
// daemon served it from whenever that epoch is unambiguous.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "churn/overlay_mutator.h"
#include "loadgen.h"
#include "location/location_service.h"
#include "metric/proximity.h"
#include "metric/sparse_proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "oracle/engine.h"
#include "smallworld/rings_model.h"
#include "workload.h"

namespace ronbench {

/// Span names: one per call the traced run times.
enum class SpanName : std::uint32_t {
  kSetup,
  kSnapshotLoad,
  kProxBuild,
  kNetsBuild,
  kMeasureBuild,
  kRingsBuild,
  kSeal,
  kMutatorBuild,
  kFrame,
  kDecode,
  kBatch,
  kEncode,
  kLocate,
  kNearestIn,
  kVisit,
  kEstimate,
  kAdmin,
  kChurnApply,
  kChurnCommit,
  kEpochSwap,
  kCount,
};
const char* span_name(SpanName name);

/// Spans kept in memory and written out once at the end of the run.
class Spans {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  std::uint32_t open(SpanName name, std::uint32_t parent,
                     std::uint64_t request_id);
  void close(std::uint32_t span);

  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  auto timed(SpanName name, std::uint32_t parent, std::uint64_t request_id,
             Fn&& fn) {
    const std::uint32_t s = open(name, parent, request_id);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close(s);
    } else {
      auto out = fn();
      close(s);
      return out;
    }
  }

  /// Summed duration (s) and count of the spans named `name`.
  double total_s(SpanName name) const;
  std::size_t count(SpanName name) const;
  double mean_us(SpanName name) const {
    const std::size_t c = count(name);
    return c == 0 ? 0.0 : total_s(name) * 1e6 / static_cast<double>(c);
  }

  /// One tab-separated line per span: id, parent, name, request id, start
  /// and end (ns, monotonic clock).
  void write_tsv(const std::string& path) const;

 private:
  struct Span {
    SpanName name;
    std::uint32_t parent;
    std::uint64_t request_id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// A MetricSpace that counts (and optionally logs) the probes made through
/// it, delegating everything to the family's own metric — including the
/// point source, so a sparse index can be built over it.
class CountingMetric final : public ron::MetricSpace {
 public:
  explicit CountingMetric(const ron::MetricSpace& inner) : inner_(inner) {}
  std::size_t n() const override { return inner_.n(); }
  ron::Dist distance(ron::NodeId u, ron::NodeId v) const override;
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<ron::PointSource> make_point_source() const override {
    return inner_.make_point_source();
  }

  std::uint64_t probes() const { return probes_; }
  /// Logs up to `cap` probe pairs from now on.
  void log_pairs(std::size_t cap) { log_cap_ = cap; }
  const std::vector<std::pair<ron::NodeId, ron::NodeId>>& pairs() const {
    return pairs_;
  }

 private:
  const ron::MetricSpace& inner_;
  mutable std::uint64_t probes_ = 0;
  std::size_t log_cap_ = 0;
  mutable std::vector<std::pair<ron::NodeId, ron::NodeId>> pairs_;
};

/// The daemon's serving state, built in the daemon's order.
struct ServingState {
  ron::ScenarioSpec spec;
  ron::ProxBackend backend = ron::ProxBackend::kDense;
  std::unique_ptr<ron::MetricSpace> metric;
  std::unique_ptr<ron::ProximityIndex> prox;
  std::unique_ptr<ron::NetHierarchy> nets;
  std::unique_ptr<ron::MeasureView> measure;
  std::unique_ptr<ron::RingsSmallWorld> model;
  std::unique_ptr<ron::OverlayMutator> mutator;
  std::unique_ptr<ron::OracleEngine> engine;
  std::uint64_t ring_bytes = 0;  // RingsOfNeighbors::memory_bytes at start
};

/// Loads the snapshot and builds the state the way ron_served does for the
/// workload's flags. With `spans` non-null every stage is timed.
ServingState build_state(const Inputs& in, Spans* spans);

/// Per-query work counted by a traced replay.
struct WorkCounts {
  std::size_t locates = 0;
  std::size_t hops = 0;
  std::uint64_t probes = 0;
  double distance_ns = 0.0;  // per probe, timed over the logged probes
  std::size_t visits = 0;
  std::size_t contacts = 0;
  std::size_t estimates = 0;
  std::size_t candidates = 0;
  std::size_t churn_ops = 0;
  std::size_t ring_repairs = 0;
  double cache_hit_ratio = 0.0;
  double overhead_pct = 0.0;
};

struct ReplayOutcome {
  std::size_t compared = 0;   // sampled queries compared with the reference
  std::size_t ambiguous = 0;  // sampled queries skipped: epoch not pinned
  Failures fails;             // mismatches
  WorkCounts work;            // traced runs only
};

/// Replays the recorded load against `st` (mutated: churn chunks are
/// applied). `spans` non-null makes it a traced replay.
ReplayOutcome replay(ServingState& st, const Inputs& in,
                     const LoadRecord& rec, Spans* spans);

}  // namespace ronbench
