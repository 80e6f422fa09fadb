#include "scenario/scenario_builder.h"

#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "telemetry/clock.h"

namespace ron {

template <typename BuildFn>
void ScenarioBuilder::timed_stage(const char* name, BuildFn&& build) {
  const Stopwatch stage_watch(Clock::real());
  build();
  metrics_.gauge(name).set(stage_watch.elapsed_seconds());
}

ScenarioBuilder::ScenarioBuilder(const ScenarioSpec& spec,
                                 unsigned num_threads, ProxBackend backend,
                                 const MetricRegistry& registry)
    : spec_(spec), num_threads_(num_threads) {
  timed_stage("ron_build_metric_seconds",
              [&] { metric_ = registry.make(spec_); });
  spec_.n = metric_->n();  // canonical: families may round n up
  timed_stage("ron_build_prox_seconds", [&] {
    prox_ = make_proximity_index(*metric_, backend, num_threads);
  });
  metrics_.gauge("ron_build_n").set(static_cast<double>(prox_->n()));
}

const NeighborSystem& ScenarioBuilder::neighbor_system() {
  if (sys_ == nullptr) {
    RON_CHECK(prox_->has_full_rows(),
              "scenario: the labeling pipeline (NeighborSystem) needs full "
              "proximity rows; rebuild with the dense backend "
              "(--backend dense, n <= " << DenseProximityIndex::kMaxDenseNodes
              << ")");
    timed_stage("ron_build_neighbor_system_seconds", [&] {
      sys_ = std::make_unique<NeighborSystem>(*prox_, spec_.delta);
    });
  }
  return *sys_;
}

const DistanceLabeling& ScenarioBuilder::labeling() {
  if (labeling_ == nullptr) {
    // Build the dependency first so the labeling gauge reports only its
    // own stage, not a hidden neighbor-system build.
    neighbor_system();
    timed_stage("ron_build_labeling_seconds", [&] {
      labeling_ = std::make_unique<DistanceLabeling>(*sys_);
    });
  }
  return *labeling_;
}

DistanceLabeling ScenarioBuilder::take_labeling() {
  labeling();  // ensure built
  DistanceLabeling out = std::move(*labeling_);
  labeling_.reset();
  return out;
}

const LocationOverlay& ScenarioBuilder::overlay() {
  if (overlay_ == nullptr) {
    timed_stage("ron_build_overlay_seconds", [&] {
      // Large sparse-backend builds are served through LocationService
      // (visitation accessors), so their rings are built compact; small
      // dense builds keep the mutable form for churn and the span
      // accessors.
      overlay_ = std::make_unique<LocationOverlay>(
          *prox_, spec_.ring_params(), spec_.overlay_seed, num_threads_,
          sparse_backend() ? RingStorage::kSealed : RingStorage::kMutable);
    });
    const LocationOverlay::StageSeconds& stages = overlay_->stage_seconds();
    metrics_.gauge("ron_build_nets_seconds").set(stages.nets);
    metrics_.gauge("ron_build_measure_seconds").set(stages.measure);
    metrics_.gauge("ron_build_rings_seconds").set(stages.rings);
  }
  return *overlay_;
}

ObjectDirectory ScenarioBuilder::make_directory(std::size_t objects,
                                                std::size_t replicas,
                                                std::uint64_t seed) const {
  RON_CHECK(objects >= 1, "scenario: directory needs >= 1 object");
  ObjectDirectory dir(prox_->n());
  Rng rng(seed);
  for (std::size_t k = 0; k < objects; ++k) {
    dir.publish_random("obj" + std::to_string(k), replicas, rng);
  }
  return dir;
}

}  // namespace ron
