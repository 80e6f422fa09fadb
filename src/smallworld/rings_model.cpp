#include "smallworld/rings_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace ron {

namespace {

/// Samples per ring: ceil(c * log2 n).
std::size_t samples_per_ring(double c, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(c * std::log2(static_cast<double>(n))));
}

/// Samples the whole X+Y ring overlay (the constructor's checks first, so
/// a bad profile fails before any worker starts).
RingsOfNeighbors sample_rings(const ProximityIndex& prox,
                              const MeasureView& mu,
                              const RingsModelParams& params,
                              std::uint64_t seed, unsigned num_threads,
                              RingStorage storage) {
  RON_CHECK(&mu.prox() == &prox, "measure must be over the same metric");
  RON_CHECK(params.c_x > 0.0 && params.c_y > 0.0,
            "c_x=" << params.c_x << ", c_y=" << params.c_y);
  const std::size_t n = prox.n();
  const std::size_t x_samples = samples_per_ring(params.c_x, n);
  const std::size_t y_samples = samples_per_ring(params.c_y, n);
  const Rng root(seed);
  auto sample_node = [&](NodeId u, std::vector<Ring>& out) {
    Rng rng = root.fork(u);
    if (params.with_x) {
      for (int i = 0; i < prox.num_levels(); ++i) {
        const auto k = static_cast<std::size_t>(
            std::ceil(std::ldexp(static_cast<double>(n), -i)));
        out.push_back(sample_uniform_ball_ring(
            prox, u, std::max<std::size_t>(k, 1), x_samples, rng));
      }
    }
    for (int j = 0; j <= prox.num_scales(); ++j) {
      const Dist radius = prox.dmin() * std::ldexp(1.0, j);
      out.push_back(sample_measure_ball_ring(mu, u, radius, y_samples, rng));
    }
  };
  return RingsOfNeighbors::build(n, sample_node, storage, num_threads);
}

}  // namespace

RingsSmallWorld::RingsSmallWorld(const ProximityIndex& prox,
                                 const MeasureView& mu,
                                 const RingsModelParams& params,
                                 std::uint64_t seed, unsigned num_threads,
                                 RingStorage storage)
    : prox_(prox),
      params_(params),
      rings_(sample_rings(prox, mu, params, seed, num_threads, storage)) {
  ring_slots_ =
      (params_.with_x ? static_cast<std::size_t>(prox_.num_levels()) *
                            samples_per_ring(params_.c_x, prox_.n())
                      : 0) +
      static_cast<std::size_t>(prox_.num_scales() + 1) *
          samples_per_ring(params_.c_y, prox_.n());
}

std::span<const NodeId> RingsSmallWorld::contacts(NodeId u) const {
  return rings_.all_neighbors(u);
}

NodeId RingsSmallWorld::next_hop(NodeId u, NodeId t) const {
  return greedy_next_hop(metric(), contacts(u), u, t);
}

}  // namespace ron
