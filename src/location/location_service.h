// LocationService: nearest-copy object location over rings of neighbors.
//
// The serving counterpart of the paper's §5 scenario (previously only a
// walkthrough in examples/p2p_object_location.cpp). Copies of objects are
// published in an ObjectDirectory; locate(querier, object) walks the overlay
// greedily toward the nearest copy using only each node's own ring contacts
// (Theorem 5.2(a): with X+Y rings the walk takes O(log n) hops even at
// super-polynomial aspect ratio; the Y-only foil degrades to Θ(log Δ)).
//
// Division of labor, stated honestly: the *directory* resolves which nodes
// hold a copy and the proximity index picks the nearest one (the directory
// plays the role of the DHT/rendezvous layer that any deployed locator
// has); the *overlay walk* is the paper's contribution — reaching that copy
// in few hops through strongly local greedy steps. The walk never teleports:
// every step moves to a ring contact of the current node that is strictly
// closer to the target copy.
//
// Stretch accounting: nearest_dist is the exact distance to the nearest
// copy; path_length is the total metric length of the walk. Greedy progress
// gives the a-priori guarantee
//
//     path_length < 2 * hops * nearest_dist
//
// (each hop u -> v satisfies d(u,v) <= d(u,t) + d(v,t) < 2 d(u,t)
// <= 2 d(s,t)), so route_stretch is bounded by twice the hop count, and the
// hop count by the Theorem 5.2(a) O(log n) bound — see location_hop_bound.
//
// Pruning. On sealed rings each greedy step scans u's contacts by distance
// band (core/rings.h, visit_neighbors_near), starting at the band that
// holds d(u,t), and skips every band whose triangle-inequality bound
// max(d(u,t) - hi_k, lo_k - d(u,t)) <= d(c,t) exceeds the best candidate's
// distance so far. A skipped contact is strictly farther from t than that
// candidate, so it can be neither the step's argmin nor a lowest-id tie:
// holders, hops, path lengths and traces are bit-identical to the full
// scan the mutable rings get, at a fraction of the distance probes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/rings.h"
#include "location/object_directory.h"
#include "metric/proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "smallworld/rings_model.h"
#include "telemetry/trace.h"

namespace ron {

struct LocateOptions {
  /// Walk abandonment threshold (failures count, they don't throw).
  std::size_t max_hops = 10000;
  /// Stop at the first holder encountered, even if it is not the nearest
  /// copy (the walk may brush past a replica on its way to the target).
  /// Off by default so locate() returns the true nearest copy.
  bool stop_at_any_holder = false;
};

struct LocateResult {
  /// A holder was reached within max_hops.
  bool found = false;
  /// The holder reached (kInvalidNode if not found).
  NodeId holder = kInvalidNode;
  std::size_t hops = 0;
  /// Exact distance from the querier to the nearest copy (the yardstick).
  Dist nearest_dist = 0.0;
  /// Distance from the querier to the holder actually returned.
  Dist holder_dist = 0.0;
  /// Total metric length of the walk.
  Dist path_length = 0.0;
  /// path_length / nearest_dist (1.0 when the querier holds a copy).
  double route_stretch = 1.0;
  /// holder_dist / nearest_dist (1.0 unless stop_at_any_holder found a
  /// farther replica first).
  double distance_stretch = 1.0;

  friend bool operator==(const LocateResult&, const LocateResult&) = default;
};

/// Engineering instantiation of the Theorem 5.2(a) hop bound for the
/// default overlay profile (c_x = c_y = 2): 4*ceil(log2 n) + 8. The tests
/// and the CLI assert per-query hops against it on every bundled metric.
std::size_t location_hop_bound(std::size_t n);

/// The a-priori route-stretch bound implied by strict greedy progress:
/// 2 * hops (at least 1.0 — a 0-hop locate has stretch exactly 1).
double location_stretch_bound(std::size_t hops);

class LocationService {
 public:
  /// All three references are borrowed and must outlive the service;
  /// rings/directory must be over the same node set as prox. The service
  /// itself is immutable and safe to share across threads.
  LocationService(const ProximityIndex& prox, const RingsOfNeighbors& rings,
                  const ObjectDirectory& directory);

  std::size_t n() const { return prox_.n(); }
  const ObjectDirectory& directory() const { return directory_; }
  const RingsOfNeighbors& rings() const { return rings_; }
  const ProximityIndex& prox() const { return prox_; }

  /// Walks from `querier` to the nearest copy of `obj`. Throws ron::Error
  /// for out-of-range ids and for a zero-holder object (naming it — see the
  /// contract in object_directory.h); a walk that stalls or exhausts
  /// max_hops yields found = false.
  ///
  /// When `trace` is non-null the walk is recorded hop by hop into it
  /// (telemetry/trace.h): endpoint fields plus, per step, the node moved
  /// to, the ring level of the previous node it was found through, and the
  /// remaining distance to the target copy. Tracing changes nothing about
  /// the walk; it only adds the per-hop ring-level scan, so callers sample
  /// (see TraceSink) rather than trace every query.
  ///
  /// When `probes` is non-null, *probes gains the number of distances the
  /// walk's greedy steps evaluated — the work pruning saves. It is kept
  /// out of LocateResult: a pruned and a full walk return equal results
  /// with different work.
  LocateResult locate(NodeId querier, ObjectId obj,
                      const LocateOptions& opts = {},
                      LocateTrace* trace = nullptr,
                      std::uint64_t* probes = nullptr) const;

  /// Name-resolving convenience; throws if the name was never published.
  LocateResult locate(NodeId querier, const std::string& object,
                      const LocateOptions& opts = {}) const;

 private:
  const ProximityIndex& prox_;
  const RingsOfNeighbors& rings_;
  const ObjectDirectory& directory_;
};

/// Bundles the Theorem 5.2(a) overlay build that every location consumer
/// repeated inline until now: net hierarchy over [log Δ] -> Theorem 1.3
/// doubling measure -> X+Y rings small world (or the Y-only foil). Owns the
/// intermediate machinery so callers keep exactly one object alive.
/// `num_threads` and `storage` go to the RingsSmallWorld build (0 = one
/// worker per available CPU; kSealed = compact serving storage, built
/// directly) and never change the overlay.
class LocationOverlay {
 public:
  /// Wall seconds of each build stage, from Clock::real() (annotation
  /// only; all zero for the borrowed-measure constructor).
  struct StageSeconds {
    double nets = 0.0;
    double measure = 0.0;
    double rings = 0.0;
  };

  LocationOverlay(const ProximityIndex& prox, const RingsModelParams& params,
                  std::uint64_t seed, unsigned num_threads = 0,
                  RingStorage storage = RingStorage::kMutable);

  /// Borrows a prebuilt doubling measure (`mu` must outlive the overlay) —
  /// the nets+measure do not depend on the ring profile, so comparisons
  /// like X+Y vs the Y-only foil should build them once:
  ///   LocationOverlay xy(prox, params, seed);
  ///   LocationOverlay foil(xy.measure(), y_only_params, seed);
  LocationOverlay(const MeasureView& mu, const RingsModelParams& params,
                  std::uint64_t seed);

  const RingsOfNeighbors& rings() const { return model_->rings(); }
  const RingsSmallWorld& model() const { return *model_; }
  const MeasureView& measure() const { return *mu_view_; }
  const StageSeconds& stage_seconds() const { return stage_seconds_; }

 private:
  std::unique_ptr<NetHierarchy> nets_;     // null when the measure is borrowed
  std::unique_ptr<MeasureView> mu_;        // null when the measure is borrowed
  const MeasureView* mu_view_ = nullptr;   // owned or borrowed measure
  std::unique_ptr<RingsSmallWorld> model_;
  StageSeconds stage_seconds_;
};

}  // namespace ron
