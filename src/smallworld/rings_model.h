// Theorem 5.2(a): small world with X-type and Y-type rings and greedy
// routing — O(log n)-hop paths even at super-polynomial aspect ratio.
//
//   X-type: for each i in [log n], c_x * log n nodes sampled uniformly from
//           B_{u,i}, the smallest ball around u with >= n/2^i nodes. These
//           provide property (*): from the annulus B_{t,i-1} \ B_{t,i} the
//           ball B_{t,i} is reached in O(1) hops.
//   Y-type: for each j in [log Δ], c_y * log n nodes sampled from B_u(2^j)
//           with probability mu(.)/mu(B), mu the Theorem 1.3 doubling
//           measure. These alone give the "straightforward" O(log Δ)-hop
//           model (the paper's foil, available as with_x = false).
//
// The routing algorithm is greedy (strongly local).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/rings.h"
#include "metric/proximity.h"
#include "net/doubling_measure.h"
#include "smallworld/model.h"

namespace ron {

struct RingsModelParams {
  double c_x = 2.0;     // X samples per ring = ceil(c_x * log2 n)
  double c_y = 2.0;     // Y samples per ring = ceil(c_y * log2 n)
  bool with_x = true;   // false = the Y-only O(log Δ)-hop foil
};

class RingsSmallWorld final : public SmallWorldModel {
 public:
  /// `mu` must be a doubling measure view over `prox` (Theorem 1.3). Node
  /// u's rings are drawn from Rng(seed).fork(u), so the overlay is the
  /// same for every `num_threads` (RingsOfNeighbors::build: 0 = one
  /// worker per available CPU). `storage` kSealed builds the compact
  /// serving form directly (contacts() is then unavailable, as after
  /// seal_rings()).
  RingsSmallWorld(const ProximityIndex& prox, const MeasureView& mu,
                  const RingsModelParams& params, std::uint64_t seed,
                  unsigned num_threads = 0,
                  RingStorage storage = RingStorage::kMutable);

  std::string name() const override {
    return params_.with_x ? "thm5.2a(X+Y)" : "Y-only";
  }
  const MetricSpace& metric() const override { return prox_.metric(); }
  std::span<const NodeId> contacts(NodeId u) const override;
  NodeId next_hop(NodeId u, NodeId t) const override;

  const RingsOfNeighbors& rings() const { return rings_; }

  /// Freezes the ring container into compact storage (core/rings.h). The
  /// walk-facing accessors keep working; contacts() — a span into the
  /// mutable neighbor cache — throws afterwards, so seal only when the
  /// overlay is consumed through LocationService.
  void seal_rings() { rings_.seal(); }

  /// Moves the rings out (for owners that outlive the model, like the
  /// churn mutator); the model is unusable afterwards.
  RingsOfNeighbors take_rings() && { return std::move(rings_); }

  /// Ring slots per node (#rings x samples) — the quantity Theorem 5.2(a)
  /// bounds by 2^O(alpha)(log n)(log Δ). The materialized out-degree is
  /// min(slots after dedup, n), which saturates at laptop scale on the
  /// geometric line (see EXPERIMENTS.md).
  std::size_t ring_slots() const { return ring_slots_; }

 private:
  const ProximityIndex& prox_;
  RingsModelParams params_;
  RingsOfNeighbors rings_;  // contacts(u) serves its deduped neighbor cache
  std::size_t ring_slots_ = 0;
};

}  // namespace ron
