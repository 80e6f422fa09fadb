// Probability measures on node sets, and the doubling measure of Theorem 1.3.
//
// A measure is s-doubling if mu(B_u(r)) <= s * mu(B_u(r/2)) for every ball.
// Theorem 1.3 ([55, 58, 39, 44]): every finite metric of doubling dimension
// alpha carries an efficiently constructible 2^O(alpha)-doubling measure.
// We realize it with the net-tree construction: build the nested net
// hierarchy, attach each level-(l-1) net point to its nearest level-l net
// point, and split each parent's mass equally among its children; node
// weights are the masses reaching level 0. On the paper's n-node exponential
// line this reproduces mu(2^i) = 2^(i-n) up to constants.
//
// MeasureView wraps (index, weights) with the ball-measure and measure-rank
// queries the packing construction needs.
#pragma once

#include <span>
#include <vector>

#include "metric/proximity.h"
#include "net/nets.h"

namespace ron {

class Rng;

/// Node weights of the Theorem 1.3 doubling measure; sums to 1.
std::vector<double> doubling_measure(const NetHierarchy& nets);

/// Uniform (normalized counting) measure: every node weighs 1/n.
std::vector<double> counting_measure(std::size_t n);

class MeasureView {
 public:
  /// `weights` are non-negative, sum to ~1, one per node; copied.
  MeasureView(const ProximityIndex& prox, std::span<const double> weights);

  double weight(NodeId v) const { return weights_[v]; }
  std::span<const double> weights() const { return weights_; }

  /// mu(B_u(r)).
  double ball_measure(NodeId u, Dist r) const;

  /// r_u(eps) with respect to mu: radius of the smallest closed ball around
  /// u of measure >= eps. Requires 0 < eps <= total mass.
  Dist rank_radius(NodeId u, double eps) const;

  /// `count` independent draws from B_u(r), each node with probability
  /// weight / ball mass, in draw order (with repeats). The ball and its
  /// mass are resolved once per call; each draw consumes exactly one
  /// uniform from `rng`, so the picks and the stream state equal `count`
  /// single draws.
  std::vector<NodeId> sample_in_ball(NodeId u, Dist r, std::size_t count,
                                     Rng& rng) const;

  /// Empirical doubling constant: max over sampled (u, dyadic r) of
  /// mu(B_u(r)) / mu(B_u(r/2)).
  double doubling_ratio(std::size_t center_samples, std::uint64_t seed) const;

  const ProximityIndex& prox() const { return prox_; }

 private:
  const ProximityIndex& prox_;
  std::vector<double> weights_;
  // G_[i] = sum of weights_[0..i), so a contiguous id-range [b, e) weighs
  // G_[e] - G_[b]. Ball measures are canonical sums over BallIds: runs-backed
  // balls use prefix differences, id-backed balls sum sequentially — the
  // branch depends only on the canonical ball form, so both proximity
  // backends produce bit-identical measures. O(n) memory (the previous
  // per-node nearest-prefix table was O(n^2)).
  std::vector<double> G_;
};

}  // namespace ron
