// Rings of neighbors — the paper's unifying data structure (§1).
//
// Every node u stores pointers to some nodes ("neighbors"), partitioned into
// rings: for an increasing sequence of balls {B_i} around u, the i-th ring's
// neighbors lie inside B_i. The radii and the selection rule are
// application-specific; the paper combines two canonical collections:
//
//   (1) ball CARDINALITIES grow exponentially and the i-ring neighbors are
//       uniform on the node set of B_i (the X-type rings of §3 and §5);
//   (2) ball RADII grow exponentially and the i-ring neighbors are
//       distributed "uniformly in space", i.e. by a doubling measure, or are
//       the net points of a 2^i-net (the Y-type rings).
//
// RingsOfNeighbors is the shared container (with honest bit accounting);
// the free functions below are the selection policies. Rings are appended
// by the static builders and *patched in place* by the churn subsystem
// (src/churn/): add_member/remove_member/clear_members keep the per-node
// neighbor caches and the degree accounting exact under mutation, which is
// what makes incremental overlay maintenance possible without a rebuild.
//
// Two storage modes. The container starts mutable (vector-of-vectors per
// node — what churn patches in place). seal() freezes it into compact
// storage: per-node varint-delta blobs for ring member sets and for the
// deduped neighbor union, built for the million-node serving regime where
// the mutable form's per-ring vector headers dominate the ids themselves.
// After sealing, mutators and the span/reference accessors (rings(),
// all_neighbors()) throw ron::Error; the visitation accessors
// (visit_neighbors, visit_ring, ring_level_of) and all O(1) accounting
// (out_degree, max/avg degree, pointer_bits) work in both modes.
// visit_ring enumerates a ring's members in ascending id order in both
// modes, so snapshot writers are byte-identical on either representation.
//
// Banded neighbor unions. A container sampled over a ProximityIndex (the
// `bands` argument of build(), kept across copies of a mutable container
// until seal()) seals each node's neighbor union grouped by distance band:
// band k holds the contacts c with lo_k < d(u,c) <= hi_k, where
// hi_k = ldexp(dmin, k), lo_k = hi_{k-1} and lo_0 = 0 (so u itself, at
// distance 0, sits in band 0). That is the Y rings' radius ladder, so a
// node has at most num_scales() + 1 bands. Per node the blob holds a band
// directory — the band count, then (k, contact count, byte length) per
// non-empty band in ascending k — followed by one ascending varint-delta
// id stream per band, so a walk can jump to any band without decoding the
// others. Containers without an index (hand-built, or loaded from a kRings
// snapshot), or over an index without a positive normal dmin, seal as one
// unbounded band (lo = 0, hi = +inf).
//
// Visit order. visit_neighbors yields each distinct neighbor exactly once:
// ascending ids on a mutable or unbanded container; band by band, with
// ascending ids within a band, on a banded one. Nothing may rely on global
// id order — the greedy walk's lowest-id tie-break is order-independent,
// and snapshots write through visit_ring. visit_neighbors_near is the
// greedy step's pruned scan over the same bands (see its comment).
//
// Whole overlays are built in bulk by RingsOfNeighbors::build, which runs a
// per-node sampler over contiguous node slices on every core and, when
// asked for sealed storage, encodes each slice straight into the compact
// form — bit-identical to add_ring() per ring followed by seal().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "metric/proximity.h"
#include "net/doubling_measure.h"

namespace ron {

struct Ring {
  /// Application-specific scale annotation (ball radius or cardinality).
  double scale = 0.0;
  /// Neighbor nodes; unique within the ring, sorted by id.
  std::vector<NodeId> members;

  friend bool operator==(const Ring&, const Ring&) = default;
};

/// The representation a bulk build produces (see the two storage modes
/// above).
enum class RingStorage { kMutable, kSealed };

/// Per-node ring sampler for RingsOfNeighbors::build: appends node u's
/// rings, in ring order, to `out` (empty on entry). Called concurrently for
/// distinct nodes, so it may only read shared state; per-node randomness
/// comes from a stream keyed by u (Rng::fork), never from a shared one.
using RingSampler = std::function<void(NodeId u, std::vector<Ring>& out)>;

class RingsOfNeighbors {
 public:
  explicit RingsOfNeighbors(std::size_t n);

  /// Builds the rings of all n nodes by running `sample` once per node,
  /// over contiguous node slices on `num_threads` workers
  /// (common/parallel.h: 0 = one per available CPU, serial below
  /// kMinParallelItems nodes). The result is identical for every thread
  /// count and equal to add_ring() of each sampled ring in node order
  /// (same member range check, same degree totals and maxima), followed
  /// by seal() for RingStorage::kSealed. kSealed encodes each slice into
  /// compact storage as it is sampled, so the mutable form never exists
  /// for the whole container. A non-null `bands` (the index the sampler
  /// draws from; it must outlive the container's seal()) bands the sealed
  /// neighbor unions by distance: during the build for kSealed, at seal()
  /// for kMutable. A sampler or range-check failure in any worker
  /// propagates as its original ron::Error.
  static RingsOfNeighbors build(std::size_t n, const RingSampler& sample,
                                RingStorage storage, unsigned num_threads = 0,
                                const ProximityIndex* bands = nullptr);

  std::size_t n() const { return n_; }

  /// Appends a ring to node u (members are deduped and sorted).
  void add_ring(NodeId u, Ring ring);

  std::size_t num_rings(NodeId u) const;

  /// Inserts v into u's `ring_index`-th ring, keeping the ring and the
  /// neighbor cache sorted. Returns false (no-op) if v is already a member.
  bool add_member(NodeId u, std::size_t ring_index, NodeId v);

  /// Removes v from u's `ring_index`-th ring. Returns false (no-op) if v is
  /// not a member. The neighbor cache drops v only when no other ring of u
  /// still holds it; the degree maxima are re-derived when the removal
  /// shrinks the current maximum.
  bool remove_member(NodeId u, std::size_t ring_index, NodeId v);

  /// Empties every ring of u (ring count and scale annotations are kept, so
  /// ring indices stay meaningful for later re-population). Used when a
  /// node leaves the overlay.
  void clear_members(NodeId u);

  bool ring_contains(NodeId u, std::size_t ring_index, NodeId v) const;

  /// Updates the scale annotation of u's `ring_index`-th ring (the churn
  /// layer re-derives it when it re-populates a cleared ring).
  void set_ring_scale(NodeId u, std::size_t ring_index, double scale);

  std::span<const Ring> rings(NodeId u) const;

  /// Distinct neighbors of u across all rings, sorted by id. O(1): served
  /// from a cache maintained incrementally by add_ring.
  const std::vector<NodeId>& all_neighbors(NodeId u) const;

  /// Number of distinct neighbors (the out-degree of the overlay). O(1).
  std::size_t out_degree(NodeId u) const;

  std::size_t max_out_degree() const { return max_degree_; }
  double avg_out_degree() const {
    // n_, not rings_.size(): seal() frees the mutable per-node vector.
    return static_cast<double>(total_degree_) / static_cast<double>(n_);
  }

  /// Bits to store u's neighbor pointers as global node ids
  /// (#neighbors * ceil(log2 n) — the paper's baseline encoding).
  std::uint64_t pointer_bits(NodeId u) const;

  // ---- compact storage -----------------------------------------------

  /// Freezes the container into the compact varint-delta representation
  /// (banded if the container was built with an index) and frees the
  /// mutable vectors, encoding node slices on every available CPU; the
  /// result is the same for any CPU count. Idempotent. After sealing,
  /// every mutator and the span/reference accessors throw ron::Error; use
  /// the visit_* accessors instead.
  void seal();

  bool sealed() const { return sealed_; }

  /// Scale annotation of u's ring_index-th ring (both modes).
  double ring_scale(NodeId u, std::size_t ring_index) const;

  /// Visits the members of u's ring_index-th ring in ascending id order
  /// (both modes).
  void visit_ring(NodeId u, std::size_t ring_index,
                  const std::function<void(NodeId)>& fn) const;

  /// Visits each of u's distinct neighbors once (both modes), in the
  /// order the header describes: ascending ids, or band by band on a
  /// banded container. The compact-mode counterpart of all_neighbors();
  /// inline so a scan does not pay an indirect call per member.
  template <typename Fn>
  void visit_neighbors(NodeId u, Fn&& fn) const {
    if (!sealed_) {
      for (NodeId v : all_neighbors(u)) fn(v);
      return;
    }
    with_bands(u, [&](std::span<const Band> bands,
                      const std::uint8_t* streams) {
      for (const Band& b : bands) decode_ids(streams + b.offset, b.count, fn);
    });
  }

  /// The greedy step's pruned scan (the AESA/LAESA elimination rule of
  /// Micó, Oncina & Vidal, 1994) toward a target t with d(u,t) = `dut`:
  /// visits u's bands starting at the first band with hi_k >= dut, then
  /// alternately one band further out and one further in, and stops a
  /// side at its first band whose triangle-inequality bound
  ///     d(c,t) >= max(dut - hi_k, lo_k - dut)
  /// exceeds the live `best_d` (re-read before every band) by more than
  /// kBandSlack * (dut + hi_k). Bounds only grow outward on each side, so
  /// every contact skipped has d(c,t) > best_d; the slack keeps the
  /// rounding in computed distances (tight on colinear points) from
  /// dropping a candidate. Mutable containers visit every neighbor.
  template <typename Fn>
  void visit_neighbors_near(NodeId u, Dist dut, const Dist& best_d,
                            Fn&& fn) const {
    if (!sealed_) {
      visit_neighbors(u, fn);
      return;
    }
    with_bands(u, [&](std::span<const Band> bands,
                      const std::uint8_t* streams) {
      auto may_improve = [&](const Band& b) {
        const Dist hi = band_hi(b.k);
        return std::max(dut - hi, band_lo(b.k) - dut) <=
               best_d + kBandSlack * (dut + hi);
      };
      std::size_t up = 0;
      while (up < bands.size() && band_hi(bands[up].k) < dut) ++up;
      std::size_t down = up;  // bands [0, down) lie below dut
      while (up < bands.size() || down > 0) {
        if (up < bands.size()) {
          if (may_improve(bands[up])) {
            decode_ids(streams + bands[up].offset, bands[up].count, fn);
            ++up;
          } else {
            up = bands.size();
          }
        }
        if (down > 0) {
          if (may_improve(bands[down - 1])) {
            --down;
            decode_ids(streams + bands[down].offset, bands[down].count, fn);
          } else {
            down = 0;
          }
        }
      }
    });
  }

  /// Relative slack of visit_neighbors_near's band bound.
  static constexpr double kBandSlack = 1e-9;

  /// Visits u's bands in ascending k as fn(k, lo_k, hi_k, ids), ids
  /// ascending (both modes; a mutable or unbanded container reports one
  /// band k = 0 with lo = 0, hi = +inf). For tests and inspection.
  void visit_bands(NodeId u,
                   const std::function<void(int k, Dist lo, Dist hi,
                                            std::span<const NodeId> ids)>&
                       fn) const;

  /// Ring level of the first ring of u containing v; -1 if none. The
  /// member-function counterpart of the free ring_level_of below, working
  /// in both modes.
  int ring_level_of(NodeId u, NodeId v) const;

  /// Heap bytes held by the ring storage (the bench's bytes-per-node
  /// metric; both modes).
  std::uint64_t memory_bytes() const;

 private:
  /// A contiguous node range in the sealed layout, offsets relative to
  /// the part (defined in rings.cpp).
  struct SealedPart;

  /// kSealed starts with no mutable per-node vectors at all.
  RingsOfNeighbors(std::size_t n, RingStorage storage);

  /// Groups a node's neighbor union into distance bands (rings.cpp).
  class Bander;

  /// One entry of a node's band directory, decoded.
  struct Band {
    int k;
    std::uint32_t count;
    std::uint64_t offset;  // of the id stream, from the end of the directory
  };

  /// Band k's edges: hi_k = ldexp(dmin, k), lo_k = hi_{k-1}, lo_0 = 0.
  Dist band_hi(int k) const { return std::ldexp(band_base_, k); }
  Dist band_lo(int k) const { return k == 0 ? 0.0 : band_hi(k - 1); }

  /// Decodes u's band directory and calls fn(bands, streams), `streams`
  /// pointing just past the directory. Directories that fit (up to 32
  /// bands: an aspect ratio below 2^31) stay on the stack.
  template <typename Fn>
  void with_bands(NodeId u, Fn&& fn) const {
    RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
    const std::uint8_t* p = nbr_blob_.data() + nbr_begin_[u];
    const auto nb = static_cast<std::size_t>(read_varint(p));
    constexpr std::size_t kInlineBands = 32;
    Band inline_bands[kInlineBands] = {};
    std::vector<Band> heap;
    Band* bands = inline_bands;
    if (nb > kInlineBands) {
      heap.resize(nb);
      bands = heap.data();
    }
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      bands[i].k = static_cast<int>(read_varint(p));
      bands[i].count = static_cast<std::uint32_t>(read_varint(p));
      bands[i].offset = offset;
      offset += read_varint(p);
    }
    fn(std::span<const Band>(bands, nb), p);
  }

  /// Appends one node's rings and neighbor union to `part` in the sealed
  /// layout — the one encoder behind both seal() and build(kSealed).
  static void encode_node(NodeId u, std::span<const Ring> rings,
                          std::span<const NodeId> nbrs, Bander& bander,
                          SealedPart& part);

  /// Installs `parts`, covering nodes [0, n) in order, as the sealed
  /// storage (offsets rebased, blobs concatenated with exact capacity).
  void adopt(std::vector<SealedPart> parts);

  Ring& ring_at(NodeId u, std::size_t ring_index);

  /// Reads one LEB128 varint at p and advances p past it.
  static std::uint64_t read_varint(const std::uint8_t*& p) {
    std::uint64_t x = 0;
    int shift = 0;
    std::uint8_t byte;
    do {
      byte = *p++;
      x |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      shift += 7;
    } while ((byte & 0x80) != 0);
    return x;
  }

  /// Decodes `count` varint-delta ids (first absolute, rest deltas), feeds
  /// them to fn in ascending order and returns the end of the stream.
  template <typename Fn>
  static const std::uint8_t* decode_ids(const std::uint8_t* p,
                                        std::uint64_t count, Fn&& fn) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t delta = read_varint(p);
      acc = (i == 0) ? delta : acc + delta;
      fn(static_cast<NodeId>(acc));
    }
    return p;
  }
  /// O(n) re-derivation of max_degree_; only needed when a mutation shrinks
  /// the node currently holding the maximum (growth keeps the max exact
  /// incrementally).
  void recompute_max_degree();

  std::size_t n_ = 0;
  std::vector<std::vector<Ring>> rings_;
  // Accounting caches, updated by every mutation (add_ring, add_member,
  // remove_member, clear_members) so the degree views stay O(1).
  std::vector<std::vector<NodeId>> neighbors_;  // sorted-unique union per node
  std::size_t max_degree_ = 0;
  std::uint64_t total_degree_ = 0;
  // The index seal() bands by (mutable mode only; null = one band).
  const ProximityIndex* band_index_ = nullptr;

  // Compact mode (seal()). Ring member sets live in blob_, grouped by node:
  // per ring, a member-count varint followed by the varint-delta ids.
  // Scales are flat per ring; node_ring_first_ slices them per node. The
  // deduped neighbor unions get their own blob (band directory + streams)
  // so the serving walk never touches the ring sets.
  bool sealed_ = false;
  Dist band_base_ = kInfDist;  // hi_0 = dmin; +inf = one unbounded band
  std::vector<std::uint8_t> blob_;
  std::vector<std::uint64_t> node_blob_begin_;  // n+1 offsets into blob_
  std::vector<std::uint64_t> node_ring_first_;  // n+1 indices into ring_scale_
  std::vector<double> ring_scale_;              // flat, one per ring
  std::vector<std::uint8_t> nbr_blob_;
  std::vector<std::uint64_t> nbr_begin_;        // n+1 offsets into nbr_blob_
  std::vector<std::uint32_t> degree_;           // distinct neighbors per node
};

/// Policy (1): `count` nodes sampled uniformly (with replacement, then
/// deduped) from the smallest ball around u holding >= min_ball_size nodes.
Ring sample_uniform_ball_ring(const ProximityIndex& prox, NodeId u,
                              std::size_t min_ball_size, std::size_t count,
                              Rng& rng);

/// Policy (2a): `count` nodes sampled from B_u(radius) with probability
/// mu(.)/mu(B) (deduped).
Ring sample_measure_ball_ring(const MeasureView& mu, NodeId u, Dist radius,
                              std::size_t count, Rng& rng);

/// Policy (2b): all net points of `net_members` inside B_u(radius)
/// (deterministic net-intersection ring, as in Theorem 2.1).
Ring net_intersection_ring(const ProximityIndex& prox, NodeId u, Dist radius,
                           std::span<const NodeId> net_members);

/// Ring level of the first ring in `rings` containing v; -1 if v is in no
/// ring. Takes the ring list itself (not the container + node id) because
/// the protocol view (src/sim/) asks it of a node's *local* rings copy,
/// while the traced in-process walks pass RingsOfNeighbors::rings(u).
int ring_level_of(std::span<const Ring> rings, NodeId v);

}  // namespace ron
