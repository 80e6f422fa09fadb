#include "core/rings.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "common/bits.h"
#include "common/check.h"
#include "common/parallel.h"

namespace ron {

namespace {

void encode_varint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

/// Appends the varint-delta stream of a sorted-unique id list, no count.
void encode_deltas(std::vector<std::uint8_t>& out,
                   std::span<const NodeId> ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    encode_varint(out, i == 0 ? ids[0] : ids[i] - ids[i - 1]);
  }
}

/// Appends [count][first][deltas...] for a sorted-unique id list.
void encode_ids(std::vector<std::uint8_t>& out,
                std::span<const NodeId> ids) {
  encode_varint(out, ids.size());
  encode_deltas(out, ids);
}

/// hi_0 of the bands an index gives: its dmin, or +inf (one unbounded
/// band) without an index or a positive normal dmin (the band encoder
/// reads bands off binary exponents, which needs a normal hi_0).
Dist band_base(const ProximityIndex* index) {
  if (index == nullptr || !(index->dmin() > 0.0) ||
      !std::isnormal(index->dmin())) {
    return kInfDist;
  }
  return index->dmin();
}

/// Sorts and dedups `ring`, checks its members against n, and merges them
/// into the sorted-unique neighbor union `cache`.
void absorb_ring(Ring& ring, std::vector<NodeId>& cache, std::size_t n) {
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(std::unique(ring.members.begin(), ring.members.end()),
                     ring.members.end());
  for (NodeId v : ring.members) {
    RON_CHECK(v < n, "ring member out of range");
  }
  std::vector<NodeId> merged;
  merged.reserve(cache.size() + ring.members.size());
  std::set_union(cache.begin(), cache.end(), ring.members.begin(),
                 ring.members.end(), std::back_inserter(merged));
  cache = std::move(merged);
}

/// Concatenates `field` of every part into one vector of exact capacity,
/// freeing each part's copy once appended (a lone part is moved), so the
/// transient peak stays near one copy.
template <typename T, typename Part>
std::vector<T> concat_parts(std::vector<Part>& parts,
                            std::vector<T> Part::*field) {
  if (parts.size() == 1) {
    std::vector<T> out = std::move(parts[0].*field);
    out.shrink_to_fit();
    return out;
  }
  std::size_t total = 0;
  for (const Part& part : parts) total += (part.*field).size();
  std::vector<T> out;
  out.reserve(total);
  for (Part& part : parts) {
    std::vector<T>& v = part.*field;
    out.insert(out.end(), v.begin(), v.end());
    std::vector<T>().swap(v);
  }
  return out;
}

}  // namespace

struct RingsOfNeighbors::SealedPart {
  std::vector<std::uint8_t> blob;       // per ring: [count][ids...]
  std::vector<double> scales;           // one per ring
  std::vector<std::uint8_t> nbr_blob;   // per node: directory + streams
  // Per node, in node order:
  std::vector<std::uint64_t> blob_end;  // end offset into blob
  std::vector<std::uint64_t> ring_end;  // end index into scales
  std::vector<std::uint64_t> nbr_end;   // end offset into nbr_blob
  std::vector<std::uint32_t> degree;    // neighbor-union size
};

/// Writes one node's neighbor union in the banded layout (rings.h): the
/// band of each contact from an exact edge table hi_k = ldexp(dmin, k),
/// then a stable counting sort by band, so ids stay ascending within a
/// band. One per worker; the scratch vectors are reused across nodes.
class RingsOfNeighbors::Bander {
 public:
  explicit Bander(const ProximityIndex* index)
      : index_(index),
        base_(band_base(index)),
        base_exponent_(biased_exponent(base_)) {
    hi_.push_back(base_);
    if (std::isfinite(base_)) {
      while (hi_.back() < index_->dmax()) grow();
    }
  }

  void encode(NodeId u, std::span<const NodeId> nbrs,
              std::vector<std::uint8_t>& out) {
    band_.assign(nbrs.size(), 0);
    if (std::isfinite(base_)) {
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        band_[i] = band_of(index_->dist(u, nbrs[i]));
      }
    }
    // end_[k + 1] counts band k, then (prefix sums) ends it.
    end_.assign(hi_.size() + 1, 0);
    for (const std::uint32_t k : band_) ++end_[k + 1];
    for (std::size_t k = 0; k < hi_.size(); ++k) end_[k + 1] += end_[k];
    sorted_.resize(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      sorted_[end_[band_[i]]++] = nbrs[i];
    }
    // end_[k] now ends band k, and band k begins where band k - 1 ends.
    std::size_t bands = 0;
    streams_.clear();
    directory_.clear();
    for (std::size_t k = 0, begin = 0; k < hi_.size(); begin = end_[k++]) {
      if (end_[k] == begin) continue;
      ++bands;
      const std::size_t before = streams_.size();
      encode_deltas(streams_,
                    std::span(sorted_).subspan(begin, end_[k] - begin));
      encode_varint(directory_, k);
      encode_varint(directory_, end_[k] - begin);
      encode_varint(directory_, streams_.size() - before);
    }
    encode_varint(out, bands);
    out.insert(out.end(), directory_.begin(), directory_.end());
    out.insert(out.end(), streams_.begin(), streams_.end());
  }

 private:
  static int biased_exponent(Dist d) {
    return static_cast<int>((std::bit_cast<std::uint64_t>(d) >> 52) & 0x7ff);
  }

  void grow() {
    hi_.push_back(std::ldexp(base_, static_cast<int>(hi_.size())));
  }

  /// The smallest k with d <= hi_[k]. hi_[k] has base_'s exponent plus k,
  /// so d's exponent names k or k - 1 (0 for d below base_), and one
  /// comparison with the edge table settles which.
  std::uint32_t band_of(Dist d) {
    while (d > hi_.back()) grow();
    const int k = std::max(0, biased_exponent(d) - base_exponent_);
    return static_cast<std::uint32_t>(k + (d > hi_[k] ? 1 : 0));
  }

  const ProximityIndex* index_;
  Dist base_;
  int base_exponent_;
  std::vector<Dist> hi_;             // hi_[k] = ldexp(base_, k)
  std::vector<std::uint32_t> band_;  // per contact
  std::vector<std::size_t> end_;     // per band, counting-sort cursor
  std::vector<NodeId> sorted_;
  std::vector<std::uint8_t> directory_;
  std::vector<std::uint8_t> streams_;
};

RingsOfNeighbors::RingsOfNeighbors(std::size_t n)
    : RingsOfNeighbors(n, RingStorage::kMutable) {}

RingsOfNeighbors::RingsOfNeighbors(std::size_t n, RingStorage storage)
    : n_(n) {
  RON_CHECK(n >= 1, "n=" << n);
  if (storage == RingStorage::kMutable) {
    rings_.resize(n);
    neighbors_.resize(n);
  }
}

RingsOfNeighbors RingsOfNeighbors::build(std::size_t n,
                                         const RingSampler& sample,
                                         RingStorage storage,
                                         unsigned num_threads,
                                         const ProximityIndex* bands) {
  RingsOfNeighbors out(n, storage);
  out.band_index_ = bands;
  const unsigned workers = resolve_workers(n, num_threads);
  if (storage == RingStorage::kMutable) {
    // Worker slices own disjoint rings_[u]/neighbors_[u] entries.
    run_slices(n, workers, [&](unsigned, std::size_t begin,
                               std::size_t end) {
      for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
        std::vector<Ring>& rings = out.rings_[u];
        sample(u, rings);
        for (Ring& ring : rings) absorb_ring(ring, out.neighbors_[u], n);
      }
    });
    for (const auto& cache : out.neighbors_) {
      out.total_degree_ += cache.size();
    }
    out.recompute_max_degree();
    return out;
  }
  std::vector<SealedPart> parts(workers);
  run_slices(n, workers, [&](unsigned t, std::size_t begin,
                             std::size_t end) {
    // Encode into a local part (no cache-line sharing with the other
    // workers' vector headers), handed off once the slice is done.
    SealedPart part;
    Bander bander(bands);
    std::vector<Ring> rings;
    std::vector<NodeId> nbrs;
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      rings.clear();
      nbrs.clear();
      sample(u, rings);
      for (Ring& ring : rings) absorb_ring(ring, nbrs, n);
      encode_node(u, rings, nbrs, bander, part);
    }
    parts[t] = std::move(part);
  });
  out.adopt(std::move(parts));
  return out;
}

void RingsOfNeighbors::add_ring(NodeId u, Ring ring) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): add_ring "
                      "requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  std::vector<NodeId>& cache = neighbors_[u];
  const std::size_t old_degree = cache.size();
  absorb_ring(ring, cache, n_);
  total_degree_ += cache.size() - old_degree;
  max_degree_ = std::max(max_degree_, cache.size());
  rings_[u].push_back(std::move(ring));
}

Ring& RingsOfNeighbors::ring_at(NodeId u, std::size_t ring_index) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): in-place ring "
                      "mutation requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  RON_CHECK(ring_index < rings_[u].size(),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << rings_[u].size() << " rings)");
  return rings_[u][ring_index];
}

void RingsOfNeighbors::recompute_max_degree() {
  max_degree_ = 0;
  for (const auto& cache : neighbors_) {
    max_degree_ = std::max(max_degree_, cache.size());
  }
}

bool RingsOfNeighbors::add_member(NodeId u, std::size_t ring_index, NodeId v) {
  RON_CHECK(v < rings_.size(), "ring member out of range");
  Ring& ring = ring_at(u, ring_index);
  const auto pos = std::lower_bound(ring.members.begin(), ring.members.end(),
                                    v);
  if (pos != ring.members.end() && *pos == v) return false;
  ring.members.insert(pos, v);
  std::vector<NodeId>& cache = neighbors_[u];
  const auto cpos = std::lower_bound(cache.begin(), cache.end(), v);
  if (cpos == cache.end() || *cpos != v) {
    cache.insert(cpos, v);
    ++total_degree_;
    max_degree_ = std::max(max_degree_, cache.size());
  }
  return true;
}

bool RingsOfNeighbors::remove_member(NodeId u, std::size_t ring_index,
                                     NodeId v) {
  Ring& ring = ring_at(u, ring_index);
  const auto pos = std::lower_bound(ring.members.begin(), ring.members.end(),
                                    v);
  if (pos == ring.members.end() || *pos != v) return false;
  ring.members.erase(pos);
  // The cache keeps v while any other ring of u still holds it.
  for (const Ring& other : rings_[u]) {
    if (std::binary_search(other.members.begin(), other.members.end(), v)) {
      return true;
    }
  }
  std::vector<NodeId>& cache = neighbors_[u];
  const auto cpos = std::lower_bound(cache.begin(), cache.end(), v);
  RON_CHECK(cpos != cache.end() && *cpos == v, "neighbor cache out of sync");
  const bool was_max = cache.size() == max_degree_;
  cache.erase(cpos);
  --total_degree_;
  if (was_max) recompute_max_degree();
  return true;
}

void RingsOfNeighbors::clear_members(NodeId u) {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): clear_members "
                      "requires the mutable representation");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  for (Ring& ring : rings_[u]) ring.members.clear();
  std::vector<NodeId>& cache = neighbors_[u];
  const bool was_max = cache.size() == max_degree_;
  total_degree_ -= cache.size();
  cache.clear();
  if (was_max) recompute_max_degree();
}

void RingsOfNeighbors::set_ring_scale(NodeId u, std::size_t ring_index,
                                      double scale) {
  ring_at(u, ring_index).scale = scale;
}

bool RingsOfNeighbors::ring_contains(NodeId u, std::size_t ring_index,
                                     NodeId v) const {
  if (sealed_) {
    bool found = false;
    visit_ring(u, ring_index, [&](NodeId m) { found = found || m == v; });
    return found;
  }
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  RON_CHECK(ring_index < rings_[u].size(),
            "ring index " << ring_index << " out of range");
  const std::vector<NodeId>& ms = rings_[u][ring_index].members;
  return std::binary_search(ms.begin(), ms.end(), v);
}

std::span<const Ring> RingsOfNeighbors::rings(NodeId u) const {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): the rings() span "
                      "is only available on the mutable representation — use "
                      "num_rings/ring_scale/visit_ring");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  return rings_[u];
}

std::size_t RingsOfNeighbors::num_rings(NodeId u) const {
  RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
  if (sealed_) return node_ring_first_[u + 1] - node_ring_first_[u];
  return rings_[u].size();
}

const std::vector<NodeId>& RingsOfNeighbors::all_neighbors(NodeId u) const {
  RON_CHECK(!sealed_, "rings are sealed (compact storage): the "
                      "all_neighbors() reference is only available on the "
                      "mutable representation — use visit_neighbors");
  RON_CHECK(u < rings_.size(), "node u=" << u << ", n=" << rings_.size());
  return neighbors_[u];
}

std::size_t RingsOfNeighbors::out_degree(NodeId u) const {
  if (sealed_) {
    RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
    return degree_[u];
  }
  return all_neighbors(u).size();
}

std::uint64_t RingsOfNeighbors::pointer_bits(NodeId u) const {
  return out_degree(u) * bits_for_index(n_);
}

void RingsOfNeighbors::encode_node(NodeId u, std::span<const Ring> rings,
                                   std::span<const NodeId> nbrs,
                                   Bander& bander, SealedPart& part) {
  for (const Ring& ring : rings) {
    part.scales.push_back(ring.scale);
    encode_ids(part.blob, ring.members);
  }
  bander.encode(u, nbrs, part.nbr_blob);
  part.blob_end.push_back(part.blob.size());
  part.ring_end.push_back(part.scales.size());
  part.nbr_end.push_back(part.nbr_blob.size());
  part.degree.push_back(static_cast<std::uint32_t>(nbrs.size()));
}

void RingsOfNeighbors::adopt(std::vector<SealedPart> parts) {
  node_blob_begin_.assign(n_ + 1, 0);
  node_ring_first_.assign(n_ + 1, 0);
  nbr_begin_.assign(n_ + 1, 0);
  std::size_t u = 0;
  std::uint64_t blob_base = 0;
  std::uint64_t ring_base = 0;
  std::uint64_t nbr_base = 0;
  for (const SealedPart& part : parts) {
    for (std::size_t i = 0; i < part.degree.size(); ++i, ++u) {
      node_blob_begin_[u + 1] = blob_base + part.blob_end[i];
      node_ring_first_[u + 1] = ring_base + part.ring_end[i];
      nbr_begin_[u + 1] = nbr_base + part.nbr_end[i];
    }
    blob_base += part.blob.size();
    ring_base += part.scales.size();
    nbr_base += part.nbr_blob.size();
  }
  RON_CHECK(u == n_, "sealed parts cover " << u << " of " << n_ << " nodes");
  blob_ = concat_parts(parts, &SealedPart::blob);
  ring_scale_ = concat_parts(parts, &SealedPart::scales);
  nbr_blob_ = concat_parts(parts, &SealedPart::nbr_blob);
  degree_ = concat_parts(parts, &SealedPart::degree);
  total_degree_ = 0;
  max_degree_ = 0;
  for (const std::uint32_t d : degree_) {
    total_degree_ += d;
    max_degree_ = std::max<std::size_t>(max_degree_, d);
  }
  band_base_ = band_base(band_index_);
  band_index_ = nullptr;
  sealed_ = true;
}

void RingsOfNeighbors::seal() {
  if (sealed_) return;
  const unsigned workers = resolve_workers(n_, 0);
  std::vector<SealedPart> parts(workers);
  // Worker slices own disjoint rings_[u]/neighbors_[u] entries.
  run_slices(n_, workers, [&](unsigned t, std::size_t begin,
                              std::size_t end) {
    SealedPart part;
    Bander bander(band_index_);
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      encode_node(u, rings_[u], neighbors_[u], bander, part);
      // Free each node's mutable storage as it is encoded, so the peak is
      // one representation plus a node per worker, not two full copies.
      rings_[u].clear();
      rings_[u].shrink_to_fit();
      neighbors_[u].clear();
      neighbors_[u].shrink_to_fit();
    }
    parts[t] = std::move(part);
  });
  rings_.clear();
  rings_.shrink_to_fit();
  neighbors_.clear();
  neighbors_.shrink_to_fit();
  adopt(std::move(parts));
}

double RingsOfNeighbors::ring_scale(NodeId u, std::size_t ring_index) const {
  RON_CHECK(ring_index < num_rings(u),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << num_rings(u) << " rings)");
  if (sealed_) return ring_scale_[node_ring_first_[u] + ring_index];
  return rings_[u][ring_index].scale;
}

void RingsOfNeighbors::visit_ring(
    NodeId u, std::size_t ring_index,
    const std::function<void(NodeId)>& fn) const {
  RON_CHECK(ring_index < num_rings(u),
            "ring index " << ring_index << " out of range (node " << u
                          << " has " << num_rings(u) << " rings)");
  if (!sealed_) {
    for (NodeId v : rings_[u][ring_index].members) fn(v);
    return;
  }
  const std::uint8_t* p = blob_.data() + node_blob_begin_[u];
  for (std::size_t k = 0; k < ring_index; ++k) {
    const std::uint64_t count = read_varint(p);
    p = decode_ids(p, count, [](NodeId) {});
  }
  const std::uint64_t count = read_varint(p);
  decode_ids(p, count, fn);
}

void RingsOfNeighbors::visit_bands(
    NodeId u,
    const std::function<void(int, Dist, Dist, std::span<const NodeId>)>& fn)
    const {
  if (!sealed_) {
    fn(0, 0.0, kInfDist, all_neighbors(u));
    return;
  }
  std::vector<NodeId> ids;
  with_bands(u, [&](std::span<const Band> bands,
                    const std::uint8_t* streams) {
    for (const Band& b : bands) {
      ids.clear();
      decode_ids(streams + b.offset, b.count,
                 [&](NodeId v) { ids.push_back(v); });
      fn(b.k, band_lo(b.k), band_hi(b.k), ids);
    }
  });
}

int RingsOfNeighbors::ring_level_of(NodeId u, NodeId v) const {
  if (!sealed_) return ron::ring_level_of(rings(u), v);
  RON_CHECK(u < n_, "node u=" << u << ", n=" << n_);
  const std::uint8_t* p = blob_.data() + node_blob_begin_[u];
  const std::size_t nr = node_ring_first_[u + 1] - node_ring_first_[u];
  for (std::size_t k = 0; k < nr; ++k) {
    const std::uint64_t count = read_varint(p);
    bool found = false;
    p = decode_ids(p, count, [&](NodeId m) { found = found || m == v; });
    if (found) return static_cast<int>(k);
  }
  return -1;
}

std::uint64_t RingsOfNeighbors::memory_bytes() const {
  auto bytes = [](const auto& vec) {
    return static_cast<std::uint64_t>(vec.capacity()) *
           sizeof(typename std::decay_t<decltype(vec)>::value_type);
  };
  std::uint64_t total = bytes(blob_) + bytes(node_blob_begin_) +
                        bytes(node_ring_first_) + bytes(ring_scale_) +
                        bytes(nbr_blob_) + bytes(nbr_begin_) + bytes(degree_);
  total += bytes(rings_) + bytes(neighbors_);
  for (const auto& node_rings : rings_) {
    total += bytes(node_rings);
    for (const Ring& ring : node_rings) total += bytes(ring.members);
  }
  for (const auto& cache : neighbors_) total += bytes(cache);
  return total;
}

Ring sample_uniform_ball_ring(const ProximityIndex& prox, NodeId u,
                              std::size_t min_ball_size, std::size_t count,
                              Rng& rng) {
  RON_CHECK(min_ball_size >= 1 && min_ball_size <= prox.n(),
            "min_ball_size=" << min_ball_size << ", n=" << prox.n());
  const Dist r = prox.kth_radius(u, min_ball_size);
  const BallIds ball = prox.ball_ids(u, r);
  Ring ring;
  ring.scale = static_cast<double>(ball.size());
  ring.members.reserve(count);
  // Canonical draw: uniform rank resolved in ascending id order, so both
  // proximity backends sample the same nodes from the same rng stream.
  for (std::size_t i = 0; i < count; ++i) {
    ring.members.push_back(ball.at(rng.index(ball.size())));
  }
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(
      std::unique(ring.members.begin(), ring.members.end()),
      ring.members.end());
  return ring;
}

Ring sample_measure_ball_ring(const MeasureView& mu, NodeId u, Dist radius,
                              std::size_t count, Rng& rng) {
  Ring ring;
  ring.scale = radius;
  ring.members = mu.sample_in_ball(u, radius, count, rng);
  std::sort(ring.members.begin(), ring.members.end());
  ring.members.erase(
      std::unique(ring.members.begin(), ring.members.end()),
      ring.members.end());
  return ring;
}

Ring net_intersection_ring(const ProximityIndex& prox, NodeId u, Dist radius,
                           std::span<const NodeId> net_members) {
  Ring ring;
  ring.scale = radius;
  for (NodeId p : net_members) {
    if (prox.dist(u, p) <= radius) ring.members.push_back(p);
  }
  std::sort(ring.members.begin(), ring.members.end());
  return ring;
}

int ring_level_of(std::span<const Ring> rings, NodeId v) {
  for (std::size_t r = 0; r < rings.size(); ++r) {
    const auto& members = rings[r].members;
    if (std::binary_search(members.begin(), members.end(), v)) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

}  // namespace ron
