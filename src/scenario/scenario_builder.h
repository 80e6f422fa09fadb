// ScenarioBuilder: the whole artifact bundle from one ScenarioSpec.
//
// Deterministically materializes the pipeline every consumer used to
// assemble by hand — metric -> ProximityIndex -> {NeighborSystem ->
// DistanceLabeling} and/or {nets -> doubling measure -> X+Y rings overlay}
// -> optional ObjectDirectory — with each stage built lazily on first
// access and cached, so a rings-only consumer never pays for a labeling and
// vice versa. Two builders over equal specs produce bit-identical
// artifacts; that invariant is what makes a spec embedded in a snapshot a
// complete recipe (ron_oracle locate rebuilds the exact overlay the
// directory was published against).
//
// The spec is canonicalized on construction: families that round n up
// (clustered to whole clusters, grid/torus to squares, cliques to whole
// cliques) report the effective node count via spec().n, and
// re-building from the canonicalized spec yields the same metric.
#pragma once

#include <cstdint>
#include <memory>

#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/location_service.h"
#include "location/object_directory.h"
#include "metric/metric_space.h"
#include "metric/proximity.h"
#include "metric/sparse_proximity.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_spec.h"
#include "telemetry/metrics.h"

namespace ron {

class ScenarioBuilder {
 public:
  /// Resolves spec.family through `registry` and builds the metric and
  /// proximity index eagerly (everything else is lazy). `num_threads`
  /// parallelizes the dense proximity rows and the overlay's ring sampling
  /// (0 = one worker per available CPU) and never affects results.
  /// `backend` picks the proximity backend (kAuto: sparse iff the family
  /// has a PointSource and n > kAutoSparseCutoff); sparse builds also
  /// store their rings compactly (delta-coded, frozen), encoded straight
  /// from the sampler. Throws ron::Error for an unknown family or invalid
  /// parameters.
  explicit ScenarioBuilder(const ScenarioSpec& spec, unsigned num_threads = 0,
                           ProxBackend backend = ProxBackend::kAuto,
                           const MetricRegistry& registry =
                               MetricRegistry::global());

  /// True iff this build serves queries through the sparse backend (and
  /// therefore builds compact, frozen rings).
  bool sparse_backend() const { return !prox_->has_full_rows(); }

  /// The canonicalized spec (n = the metric's effective node count).
  const ScenarioSpec& spec() const { return spec_; }

  std::size_t n() const { return prox_->n(); }
  const MetricSpace& metric() const { return *metric_; }
  const ProximityIndex& prox() const { return *prox_; }

  /// §3 neighbor system at the spec's delta (built on first call).
  const NeighborSystem& neighbor_system();

  /// Theorem 3.2/3.4 distance labeling (built on first call).
  const DistanceLabeling& labeling();

  /// Moves the labeling out (building it first if needed) — for callers
  /// that outlive the builder and should not pay a deep copy (labelings
  /// dominate the builder's memory). The builder's cached labeling is gone
  /// afterwards; a later labeling() call rebuilds it.
  DistanceLabeling take_labeling();

  /// Theorem 5.2(a) overlay — nets, doubling measure and the ring small
  /// world with the spec's ring profile and overlay_seed (first call).
  const LocationOverlay& overlay();

  /// The overlay's rings of neighbors.
  const RingsOfNeighbors& rings() { return overlay().rings(); }

  /// Synthetic directory: `objects` objects named obj0.., each published at
  /// `replicas` random holders drawn from Rng(seed). The default seed is
  /// the spec's overlay_seed, which is what `ron_oracle publish` stores —
  /// so a directory snapshot's recipe regenerates its own publish workload.
  ObjectDirectory make_directory(std::size_t objects,
                                 std::size_t replicas) const {
    return make_directory(objects, replicas, spec_.overlay_seed);
  }
  ObjectDirectory make_directory(std::size_t objects, std::size_t replicas,
                                 std::uint64_t seed) const;

  /// Build telemetry (ron_build_* names): per-stage wall seconds as
  /// gauges (each lazy stage builds at most once; the overlay's total
  /// splits into nets, measure and rings) plus the node count.
  /// Timings come from Clock::real() — they annotate, never influence,
  /// the deterministic pipeline.
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Runs `build`, recording its wall time as gauge `name`.
  template <typename BuildFn>
  void timed_stage(const char* name, BuildFn&& build);

  ScenarioSpec spec_;
  unsigned num_threads_;
  MetricsRegistry metrics_{1};
  std::unique_ptr<MetricSpace> metric_;
  std::unique_ptr<ProximityIndex> prox_;
  std::unique_ptr<NeighborSystem> sys_;
  std::unique_ptr<DistanceLabeling> labeling_;
  std::unique_ptr<LocationOverlay> overlay_;
};

}  // namespace ron
