// (1+delta)-approximate distance labeling (Theorem 3.4).
//
// The label of node u consists of:
//   - quantized distances to its host neighbors H_u = X_u ∪ Y_u, stored as an
//     array indexed by the host enumeration phi_u (an O(log 1/δ)-bit mantissa
//     and O(log log Δ)-bit exponent per distance — never a global node id);
//   - translation maps zeta_{u,i} with entries
//         zeta_{u,i}(phi_u(v), psi_v(w)) = phi_u(w)
//     for v in N(i) = X_{u,i} ∪ Y_{u,i} and w in N(i+1) ∩ T_v, where T_v is
//     the set of *virtual neighbors* of v and psi_v its enumeration;
//   - the zooming sequence f_u, encoded as phi_u(f_{u,0}) (the level-0 host
//     enumeration is common to all nodes) followed by the index of each
//     f_{u,i+1} in the virtual enumeration of f_{u,i} (Claim 3.5(c));
//   - the node's global id (the paper's "WLOG L_u contains ID(u)").
//
// In memory each zeta_{u,i} is row-indexed (DlsZeta): |H_u| + 1 u32 row
// offsets indexed by x = phi_u(v), and one packed {y, z} array in (x, y)
// order, so the decoder reaches row x with two loads whatever the level's
// size. On the wire (snapshots and the simulator's priced messages) a
// level travels as rows too: x is implicit in the row order, and each row
// is its length, then each entry's y as the gap from the previous y and
// its z, all varints (write_label in oracle/snapshot.h), about 2 bytes an
// entry. The one way to build a level is DlsZeta::from_triples, for the
// builder, the snapshot loader and tests alike, and it validates what it
// is given.
//
// Decoding a pair (L_u, L_v) identifies common neighbors WITHOUT global ids:
// it walks both zooming sequences, translating each chain element through
// both labels' zeta maps, and at every level joins the two maps' rows to
// enumerate nodes that are simultaneously virtual neighbors of the chain
// element and (X/Y)-neighbors of both endpoints. The proof guarantees that
// some identified common neighbor w0 lies within delta*d of u or v, so the
// best upper bound min(d_uw + d_vw) is a (1+O(delta))-approximation of d.
// Only the upper bound is returned: with rounded distances the difference
// |d'_uw - d'_vw| is not a valid lower bound (the paper's footnote 11).
//
// A decode reads a translation-map entry only when the join matches it
// with an entry of the other label's row, or when it is a chain step. On
// a clustered n=480 labeling 45% of the entries are read by no ordered
// pair. DistanceLabeling::pruned() drops them, and the oracle snapshot
// (save_oracle) stores its result. The answers stay the same, but the
// pruned labels are no longer the Theorem 3.4 construction. So tests
// that recompute labels from the definition, the labeling snapshot
// (save_labeling) and the simulator all keep the construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/distcode.h"
#include "labeling/neighbor_system.h"

namespace ron {

/// One entry (x, y, z) of a translation map: zeta_{u,i}(x, y) = z. The
/// input of DlsZeta::from_triples; the snapshot loader expands wire rows
/// into these.
struct DlsTriple {
  std::uint32_t x;  // phi_u(v)
  std::uint32_t y;  // psi_v(w)
  std::uint32_t z;  // phi_u(w)

  friend bool operator==(const DlsTriple&, const DlsTriple&) = default;
};

/// The entries of one row of a DlsZeta (a fixed x), in increasing y.
struct DlsZetaEntry {
  std::uint32_t y;  // psi_v(w)
  std::uint32_t z;  // phi_u(w)

  friend bool operator==(const DlsZetaEntry&, const DlsZetaEntry&) = default;
};

/// One level zeta_{u,i} of a label's translation maps, row-indexed by
/// x = phi_u(v): row x is the entries between offsets x and x + 1, sorted
/// by y. Every level of a label has one row per host of that label, empty
/// rows included.
class DlsZeta {
 public:
  /// The only way to build a level. `triples` must be sorted by (x, y),
  /// with every x and z below `hosts`; anything else throws ron::Error, so
  /// a level reached from snapshot bytes is as well-formed as a built one.
  /// Repeated (x, y) keys are accepted; the chain step takes the first.
  static DlsZeta from_triples(std::span<const DlsTriple> triples,
                              std::size_t hosts);

  /// Number of rows: the host count of the label this level belongs to.
  std::size_t rows() const {
    return row_begin_.empty() ? 0 : row_begin_.size() - 1;
  }
  /// Number of entries (triples) in the level.
  std::size_t size() const { return entries_.size(); }

  /// Row x. Throws ron::Error when x >= rows().
  std::span<const DlsZetaEntry> row(std::uint32_t x) const {
    RON_CHECK(x < rows(), "zeta row " << x << " of " << rows());
    return {entries_.data() + row_begin_[x],
            entries_.data() + row_begin_[x + 1]};
  }
  /// Every entry, row after row; rows are subspans of it.
  std::span<const DlsZetaEntry> entries() const { return entries_; }

  friend bool operator==(const DlsZeta&, const DlsZeta&) = default;

 private:
  std::vector<std::uint32_t> row_begin_;  // rows() + 1 offsets
  std::vector<DlsZetaEntry> entries_;     // every row, in (x, y) order
};

/// A node's label L_u. Its translation maps are row-indexed in memory
/// (one DlsZeta per level); write_label in oracle/snapshot.h puts them on
/// the wire row by row, as varint row lengths, y gaps and z.
struct DlsLabel {
  std::uint32_t id = 0;                       // ceil(log n)-bit node id
  std::vector<Dist> host_dist;                // indexed by phi_u, rounded up
  std::vector<DlsZeta> zeta;                  // per level i, one row per host
  std::uint32_t zoom0 = 0;                    // phi(f_{u,0}), common level-0
  std::vector<std::uint32_t> zoom;            // psi-chain, length levels-1

  friend bool operator==(const DlsLabel&, const DlsLabel&) = default;
};

struct DlsEstimate {
  Dist upper = kInfDist;        // the distance estimate (non-contracting)
  std::size_t candidates = 0;   // common neighbors identified
};

class DistanceLabeling {
 public:
  explicit DistanceLabeling(const NeighborSystem& sys);

  /// Rebuilds a labeling from its serialized parts (snapshot loading). The
  /// labels are taken verbatim; `labels[u].id` must equal u (estimates are
  /// computed between labels, so a permuted load would silently answer for
  /// the wrong pairs), and every zeta level must have one row per host of
  /// its label (DlsZeta::from_triples has validated the rows themselves).
  /// Throws ron::Error on malformed parts.
  static DistanceLabeling from_parts(DistanceCodec codec,
                                     std::uint64_t psi_bits,
                                     std::uint64_t id_bits,
                                     std::vector<DlsLabel> labels);

  std::size_t n() const { return labels_.size(); }
  const DlsLabel& label(NodeId u) const;

  /// Label-only decoding; symmetric in its arguments. Returns 0 for equal
  /// ids. The upper bound always satisfies d <= upper <= (1+O(delta)) d.
  static DlsEstimate estimate(const DlsLabel& a, const DlsLabel& b);

  /// This labeling with only the translation-map entries that some decode
  /// reads: the entries a join matches and the chain steps, collected by
  /// decoding all n^2 ordered pairs. So the result holds for any query mix.
  /// Host arrays, row counts, zooming chains, the codec, psi_bits and
  /// id_bits are kept as they are.
  ///
  /// The prune is exact: estimate() returns the same upper bound and
  /// candidate count on every pair. A row is sorted by y, and the join is
  /// a merge, so an entry no pair matches can go without changing what
  /// the other entries match. With repeated y in a row, the k-th copy
  /// matches only where the other row holds more than k copies, so the
  /// copies kept are a prefix. The chain step finds the first entry with
  /// its y, and that entry is kept because the step read it. A step that
  /// found its entry in only one label stops the chain, and still stops
  /// it when that entry is gone. The pruned labeling reads the same
  /// entries, so pruning it again changes nothing.
  ///
  /// Costs one walk per ordered pair, split over `num_threads` workers
  /// (0 = one per available CPU, see common/parallel.h).
  DistanceLabeling pruned(unsigned num_threads = 0) const;

  /// Honest payload bits of u's label under the paper's encoding.
  std::uint64_t label_bits(NodeId u) const;

  const DistanceCodec& codec() const { return codec_; }

  /// Width of a psi (virtual-enumeration) index: ceil(log2 max_u |T_u|).
  std::uint64_t psi_bits() const { return psi_bits_; }

  /// Width of the global node id stored in every label: ceil(log2 n).
  std::uint64_t id_bits() const { return id_bits_; }

 private:
  explicit DistanceLabeling(DistanceCodec codec) : codec_(codec) {}

  DistanceCodec codec_;
  std::uint64_t psi_bits_ = 0;
  std::uint64_t id_bits_ = 0;
  std::vector<DlsLabel> labels_;
};

}  // namespace ron
