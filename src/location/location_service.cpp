#include "location/location_service.h"

#include <cmath>

#include "common/check.h"
#include "smallworld/model.h"
#include "telemetry/clock.h"

namespace ron {

std::size_t location_hop_bound(std::size_t n) {
  RON_CHECK(n >= 1, "n=" << n);
  const auto log_n = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(n, 2)))));
  return 4 * log_n + 8;
}

double location_stretch_bound(std::size_t hops) {
  return std::max(1.0, 2.0 * static_cast<double>(hops));
}

LocationService::LocationService(const ProximityIndex& prox,
                                 const RingsOfNeighbors& rings,
                                 const ObjectDirectory& directory)
    : prox_(prox), rings_(rings), directory_(directory) {
  RON_CHECK(rings.n() == prox.n(),
            "LocationService: rings over " << rings.n() << " nodes, metric has "
                                           << prox.n());
  RON_CHECK(directory.n() == prox.n(),
            "LocationService: directory over " << directory.n()
                                               << " nodes, metric has "
                                               << prox.n());
}

LocateResult LocationService::locate(NodeId querier, ObjectId obj,
                                     const LocateOptions& opts,
                                     LocateTrace* trace,
                                     std::uint64_t* probes) const {
  RON_CHECK(querier < n(), "locate: querier " << querier << " out of range");
  const std::span<const NodeId> holders = directory_.holders(obj);
  // Zero-holder contract (see object_directory.h): a live name whose every
  // copy was unpublished has no nearest copy to walk to. Churn makes this
  // routine, so it throws with the object's name instead of returning a
  // found=false that would masquerade as a routing failure.
  RON_CHECK(!holders.empty(), "locate: object '" << directory_.name(obj)
                                  << "' has zero holders (every copy "
                                     "unpublished)");
  LocateResult r;

  // The directory/prox layer resolves the target copy; the walk below is
  // the strongly local part and must reach it through ring contacts only.
  const NodeId target = prox_.nearest_in(querier, holders);
  r.nearest_dist = prox_.dist(querier, target);
  if (trace != nullptr) {
    // `found` stays false on the undelivered/stuck returns below — the
    // trace mirrors the result it was sampled with.
    *trace = LocateTrace{};
    trace->querier = querier;
    trace->object = obj;
    trace->target = target;
    trace->nearest_dist = r.nearest_dist;
  }
  NodeId cur = querier;
  while (cur != target) {
    if (r.hops >= opts.max_hops) return r;  // undelivered
    // The banded scan skips only contacts that cannot win the step, so
    // the walk is bit-identical on sealed and mutable rings.
    const NodeId next = greedy_next_hop(
        prox_.metric(), cur, target,
        [&](auto&& visit, Dist dut, const Dist& best_d) {
          rings_.visit_neighbors_near(cur, dut, best_d, visit);
        },
        probes);
    if (next == kInvalidNode || next == cur) return r;  // stuck
    if (trace != nullptr) {
      // Only the traced (sampled) walks pay the ring-level scan.
      trace->hops.push_back(TraceHop{next, rings_.ring_level_of(cur, next),
                                     prox_.dist(next, target)});
    }
    r.path_length += prox_.dist(cur, next);
    ++r.hops;
    cur = next;
    if (opts.stop_at_any_holder && directory_.is_holder(obj, cur)) break;
  }
  r.found = true;
  if (trace != nullptr) trace->found = true;
  r.holder = cur;
  r.holder_dist = prox_.dist(querier, cur);
  r.route_stretch =
      r.nearest_dist > 0.0 ? r.path_length / r.nearest_dist : 1.0;
  r.distance_stretch =
      r.nearest_dist > 0.0 ? r.holder_dist / r.nearest_dist : 1.0;
  return r;
}

LocateResult LocationService::locate(NodeId querier, const std::string& object,
                                     const LocateOptions& opts) const {
  const ObjectId obj = directory_.find(object);
  RON_CHECK(obj != kInvalidObject,
            "locate: object '" << object << "' was never published");
  return locate(querier, obj, opts);
}

LocationOverlay::LocationOverlay(const ProximityIndex& prox,
                                 const RingsModelParams& params,
                                 std::uint64_t seed, unsigned num_threads,
                                 RingStorage storage) {
  // Scale range [log Δ] as in §5: the top net level must span the diameter.
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1;
  Stopwatch watch(Clock::real());
  nets_ = std::make_unique<NetHierarchy>(prox, l_max);
  stage_seconds_.nets = watch.elapsed_seconds();
  watch.restart();
  mu_ = std::make_unique<MeasureView>(prox, doubling_measure(*nets_));
  mu_view_ = mu_.get();
  stage_seconds_.measure = watch.elapsed_seconds();
  watch.restart();
  model_ = std::make_unique<RingsSmallWorld>(prox, *mu_, params, seed,
                                             num_threads, storage);
  stage_seconds_.rings = watch.elapsed_seconds();
}

LocationOverlay::LocationOverlay(const MeasureView& mu,
                                 const RingsModelParams& params,
                                 std::uint64_t seed)
    : mu_view_(&mu) {
  model_ = std::make_unique<RingsSmallWorld>(mu.prox(), mu, params, seed);
}

}  // namespace ron
