// ProximityIndex: ball/rank queries over a finite metric, behind two
// backends.
//
// Every construction in the paper repeatedly asks three questions about a
// metric: "which nodes lie in the closed ball B_u(r)?", "what is r_u(eps),
// the radius of the smallest ball around u with at least eps*n nodes?"
// (written r_{u,i} = r_u(2^-i) throughout §3 and §5), and "what are Δ and
// d_min?". ProximityIndex is the query interface; how the answers are
// produced is a backend choice:
//
//   DenseProximityIndex   precomputed per-node distance-sorted rows.
//                         O(n^2 log n) build, O(n^2) memory — the paper's
//                         laptop-scale regime (n up to a few thousand) and
//                         the differential-test oracle for the sparse
//                         backend. Guarded: construction above
//                         kMaxDenseNodes throws ron::Error instead of
//                         attempting a multi-GB allocation.
//
//   SparseProximityIndex  (sparse_proximity.h) truncated k-nearest rows
//                         plus on-demand queries through the metric
//                         family's PointSource. O(n polylog n) build,
//                         O(n) memory — the million-node regime.
//
// Both backends answer every portable query (ball_ids / ball_size /
// kth_radius / level_radius / rank_radius / dmin / dmax) bit-identically:
// all distance values come from metric.distance() probes and ball member
// sets use the canonical BallIds representation (point_source.h). Full
// (d, v)-sorted rows exist only on the dense backend — consumers that need
// them check has_full_rows() and get a named error otherwise.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "metric/metric_space.h"
#include "metric/point_source.h"

namespace ron {

class ProximityIndex {
 public:
  struct Neighbor {
    Dist d;
    NodeId v;
  };

  virtual ~ProximityIndex() = default;
  ProximityIndex(const ProximityIndex&) = delete;
  ProximityIndex& operator=(const ProximityIndex&) = delete;

  const MetricSpace& metric() const { return metric_; }
  std::size_t n() const { return n_; }

  Dist dist(NodeId u, NodeId v) const { return metric_.distance(u, v); }

  /// True iff row()/ball() spans are available (dense backend).
  virtual bool has_full_rows() const = 0;

  /// Row of (distance, node) pairs sorted by distance; row[0] is (0, u).
  /// Dense backend only: throws ron::Error when !has_full_rows().
  virtual std::span<const Neighbor> row(NodeId u) const;

  /// Nodes in the closed ball B_u(r), as a prefix of row(u).
  /// Dense backend only: throws ron::Error when !has_full_rows().
  virtual std::span<const Neighbor> ball(NodeId u, Dist r) const;

  /// |B_u(r)| — portable (both backends, bit-identical).
  virtual std::size_t ball_size(NodeId u, Dist r) const = 0;

  /// Member ids of B_u(r) in canonical BallIds form — portable.
  virtual BallIds ball_ids(NodeId u, Dist r) const = 0;

  /// Distance from u to its k-th nearest node counting u itself
  /// (k = 1 gives 0). Requires 1 <= k <= n. Portable.
  virtual Dist kth_radius(NodeId u, std::size_t k) const = 0;

  /// The k nearest nodes as (d, v) pairs sorted by (d, v), k <= n.
  /// Portable (computed from kth_radius + ball_ids + probes); the dense
  /// backend's row(u) prefix agrees bit-identically.
  std::vector<Neighbor> row_prefix(NodeId u, std::size_t k) const;

  /// r_u(eps): radius of the smallest closed ball around u containing at
  /// least eps*n nodes (eps in (0, 1]); implemented as kth_radius with
  /// k = ceil(eps * n). For the dyadic levels eps = 2^-i prefer
  /// level_radius, which computes k in exact integer arithmetic.
  Dist rank_radius(NodeId u, double eps) const;

  /// r_{u,i} = r_u(2^-i) for i >= 0, with k = ceil(n / 2^i) computed in
  /// exact integer arithmetic (clamped to >= 1, so large i is fine).
  Dist level_radius(NodeId u, int i) const;

  /// r_{u,i-1} with the paper's boundary convention r_{u,-1} = +infinity.
  Dist level_radius_prev(NodeId u, int i) const {
    return i == 0 ? kInfDist : level_radius(u, i - 1);
  }

  /// Nearest node to u among `candidates` (ties to the lower id);
  /// kInvalidNode if the set is empty. `candidates` need not be sorted.
  NodeId nearest_in(NodeId u, std::span<const NodeId> candidates) const;

  /// Smallest positive pairwise distance.
  Dist dmin() const { return dmin_; }
  /// Diameter.
  Dist dmax() const { return dmax_; }
  /// Aspect ratio Δ = dmax / dmin.
  double aspect_ratio() const { return dmax_ / dmin_; }

  /// Number of levels "i in [log n]": ceil(log2 n), at least 1.
  int num_levels() const { return num_levels_; }

  /// Number of distance scales "j in [log Δ]": floor(log2 Δ) + 1, at least 1.
  int num_scales() const { return num_scales_; }

 protected:
  explicit ProximityIndex(const MetricSpace& metric);

  /// Derives num_levels/num_scales once the subclass has set dmin_/dmax_.
  void init_scales();

  const MetricSpace& metric_;
  std::size_t n_;
  Dist dmin_ = kInfDist;
  Dist dmax_ = 0.0;

 private:
  int num_levels_ = 1;
  int num_scales_ = 1;
};

class DenseProximityIndex final : public ProximityIndex {
 public:
  /// Largest n the dense backend will build. Rows cost n^2 * 12 bytes
  /// (~4.8 GB at the cap); beyond it a typo'd n must fail loudly, not OOM
  /// the machine — use SparseProximityIndex (or lower n).
  static constexpr std::size_t kMaxDenseNodes = 20000;

  /// Builds the per-node distance-sorted rows. Row construction is
  /// independent across nodes and runs on `num_threads` workers over
  /// contiguous node slices (common/parallel.h; 0 = one per available CPU,
  /// or serial for small metrics); results are identical for any thread
  /// count. `metric.distance()` must be safe to call concurrently.
  ///
  /// Parallel-construction handoff: each worker writes only its own slice
  /// of rows_ and its own dmin/dmax accumulator slot, read after the join
  /// (the tsan.* stress shard builds the index multi-threaded and asserts
  /// bit-identical results against a serial build).
  explicit DenseProximityIndex(const MetricSpace& metric,
                               unsigned num_threads = 0);

  bool has_full_rows() const override { return true; }
  std::span<const Neighbor> row(NodeId u) const override;
  std::span<const Neighbor> ball(NodeId u, Dist r) const override;
  std::size_t ball_size(NodeId u, Dist r) const override {
    return ball(u, r).size();
  }
  BallIds ball_ids(NodeId u, Dist r) const override;
  Dist kth_radius(NodeId u, std::size_t k) const override;

 private:
  std::vector<Neighbor> rows_;  // n_ consecutive sorted rows of length n_
};

}  // namespace ron
