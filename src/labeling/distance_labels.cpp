#include "labeling/distance_labels.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/bits.h"
#include "common/check.h"
#include "common/parallel.h"

namespace ron {

namespace {

/// UINT32_MAX: "no such psi index" in psi_of, and one past the largest
/// host count or level size that u32 row offsets can index.
constexpr std::uint32_t kNull = 0xffffffffu;

/// The entry of `row` with the given y, or nullptr if absent.
const DlsZetaEntry* row_find(std::span<const DlsZetaEntry> row,
                             std::uint32_t y) {
  auto it = std::lower_bound(
      row.begin(), row.end(), y,
      [](const DlsZetaEntry& e, std::uint32_t yy) { return e.y < yy; });
  if (it == row.end() || it->y != y) return nullptr;
  return &*it;
}

/// Walks b's zooming chain through both labels, joining zeta rows at every
/// level to harvest common-neighbor candidates. `upper` is improved in
/// place; returns the number of candidates seen. `read(j, ea, eb)` is
/// called with the level and the entry of a and of b for every join match
/// and for every chain step taken: the only entries the walk's result
/// depends on (DistanceLabeling::pruned).
template <typename OnRead>
std::size_t walk_chain(const DlsLabel& a, const DlsLabel& b, Dist& upper,
                       OnRead&& read) {
  std::size_t candidates = 0;
  // phi-index of the current chain element f_{b,j} in a's and b's labels.
  std::uint32_t ia = b.zoom0;
  std::uint32_t ib = b.zoom0;  // level-0 host enumerations coincide
  const std::size_t levels = b.zoom.size();  // chain advances levels times
  for (std::size_t j = 0;; ++j) {
    RON_CHECK(ia < a.host_dist.size() && ib < b.host_dist.size(),
              "chain index out of range");
    // The chain element itself is a common neighbor.
    upper = std::min(upper, a.host_dist[ia] + b.host_dist[ib]);
    ++candidates;
    if (j >= levels || j >= a.zeta.size() || j >= b.zeta.size()) break;
    // Join the two zeta rows on y: every shared y identifies a node that is
    // a virtual neighbor of f_{b,j} and an N(j+1)-neighbor of both ends.
    const std::span<const DlsZetaEntry> ra = a.zeta[j].row(ia);
    const std::span<const DlsZetaEntry> rb = b.zeta[j].row(ib);
    std::size_t p = 0, q = 0;
    while (p < ra.size() && q < rb.size()) {
      if (ra[p].y < rb[q].y) {
        ++p;
      } else if (ra[p].y > rb[q].y) {
        ++q;
      } else {
        const std::uint32_t za = ra[p].z;
        const std::uint32_t zb = rb[q].z;
        RON_CHECK(za < a.host_dist.size() && zb < b.host_dist.size(),
                  "za=" << za << "/" << a.host_dist.size() << ", zb=" << zb
                        << "/" << b.host_dist.size());
        upper = std::min(upper, a.host_dist[za] + b.host_dist[zb]);
        ++candidates;
        read(j, ra[p], rb[q]);
        ++p;
        ++q;
      }
    }
    // Advance the chain: f_{b,j+1} is given as a psi-index into T_{f_{b,j}},
    // the y of its entry in the rows just joined.
    const std::uint32_t y = b.zoom[j];
    const DlsZetaEntry* na = row_find(ra, y);
    const DlsZetaEntry* nb = row_find(rb, y);
    if (na == nullptr || nb == nullptr) break;
    read(j, *na, *nb);
    ia = na->z;
    ib = nb->z;
  }
  return candidates;
}

}  // namespace

DistanceLabeling::DistanceLabeling(const NeighborSystem& sys)
    : codec_(sys.prox().dmin(), 2.0 * sys.prox().dmax(),
             sys.delta() / 8.0) {
  const ProximityIndex& prox = sys.prox();
  const std::size_t n = prox.n();
  const int levels = sys.num_levels();
  id_bits_ = bits_for_index(n);

  // psi width: the virtual enumeration of any node.
  std::size_t max_t = 1;
  for (NodeId v = 0; v < n; ++v) {
    max_t = std::max(max_t, sys.virtual_set(v).size());
  }
  psi_bits_ = bits_for_index(max_t);

  // Per-node phi (host index) lookup tables.
  std::vector<std::unordered_map<NodeId, std::uint32_t>> phi(n);
  for (NodeId u = 0; u < n; ++u) {
    auto hosts = sys.host_set(u);
    phi[u].reserve(hosts.size());
    for (std::uint32_t k = 0; k < hosts.size(); ++k) {
      phi[u].emplace(hosts[k], k);
    }
  }
  auto psi_of = [&](NodeId v, NodeId w) -> std::uint32_t {
    auto tv = sys.virtual_set(v);
    auto it = std::lower_bound(tv.begin(), tv.end(), w);
    if (it == tv.end() || *it != w) return kNull;
    return static_cast<std::uint32_t>(it - tv.begin());
  };

  labels_.resize(n);
  std::vector<DlsTriple> triples;  // one level's zeta, reused
  for (NodeId u = 0; u < n; ++u) {
    DlsLabel& lab = labels_[u];
    lab.id = u;
    auto hosts = sys.host_set(u);
    lab.host_dist.resize(hosts.size());
    for (std::size_t k = 0; k < hosts.size(); ++k) {
      lab.host_dist[k] = codec_.round_up(prox.dist(u, hosts[k]));
    }

    // Per-level N(i) = X_{u,i} ∪ Y_{u,i}, sorted by id.
    std::vector<std::vector<NodeId>> N(levels);
    for (int i = 0; i < levels; ++i) {
      auto xs = sys.X(u, i);
      auto ys = sys.Y(u, i);
      N[i].assign(xs.begin(), xs.end());
      N[i].insert(N[i].end(), ys.begin(), ys.end());
      std::sort(N[i].begin(), N[i].end());
      N[i].erase(std::unique(N[i].begin(), N[i].end()), N[i].end());
    }

    // Translation maps zeta_{u,i} for i in [0, levels-2].
    lab.zeta.reserve(levels > 1 ? levels - 1 : 0);
    for (int i = 0; i + 1 < levels; ++i) {
      triples.clear();
      for (NodeId v : N[i]) {
        auto tv = sys.virtual_set(v);
        // Intersect N(i+1) with T_v (both sorted).
        std::size_t p = 0, q = 0;
        const auto& next = N[i + 1];
        while (p < next.size() && q < tv.size()) {
          if (next[p] < tv[q]) {
            ++p;
          } else if (next[p] > tv[q]) {
            ++q;
          } else {
            triples.push_back(DlsTriple{phi[u].at(v),
                                        static_cast<std::uint32_t>(q),
                                        phi[u].at(next[p])});
            ++p;
            ++q;
          }
        }
      }
      std::sort(triples.begin(), triples.end(),
                [](const DlsTriple& a, const DlsTriple& b) {
                  if (a.x != b.x) return a.x < b.x;
                  if (a.y != b.y) return a.y < b.y;
                  return a.z < b.z;
                });
      lab.zeta.push_back(DlsZeta::from_triples(triples, hosts.size()));
    }

    // Zooming sequence encoding.
    const NodeId f0 = sys.f(u, 0);
    auto it0 = phi[u].find(f0);
    RON_CHECK(it0 != phi[u].end(), "f_{u,0} must be a host neighbor");
    lab.zoom0 = it0->second;
    lab.zoom.resize(levels > 1 ? levels - 1 : 0);
    for (int i = 0; i + 1 < levels; ++i) {
      const NodeId fi = sys.f(u, i);
      const NodeId fn = sys.f(u, i + 1);
      const std::uint32_t y = psi_of(fi, fn);
      RON_CHECK(y != kNull,
                "Claim 3.5(c) violated: f_{u,i+1} not a virtual neighbor of "
                "f_{u,i} (u=" << u << ", i=" << i << ")");
      lab.zoom[i] = y;
    }
  }
}

DlsZeta DlsZeta::from_triples(std::span<const DlsTriple> triples,
                              std::size_t hosts) {
  RON_CHECK(hosts >= 1 && hosts < kNull, "zeta: " << hosts << " hosts");
  RON_CHECK(triples.size() < kNull,
            "zeta: " << triples.size() << " triples overflow u32 offsets");
  DlsZeta level;
  level.row_begin_.assign(hosts + 1, 0);
  level.entries_.reserve(triples.size());
  std::uint32_t x = 0;  // rows [0, x] have their begin set
  for (std::size_t k = 0; k < triples.size(); ++k) {
    const DlsTriple& t = triples[k];
    RON_CHECK(t.x < hosts && t.z < hosts,
              "zeta: triple " << k << " (x=" << t.x << ", z=" << t.z
                              << ") out of range (hosts=" << hosts << ")");
    // The decoder finds a row by its offsets and a chain entry by binary
    // search on y; an unsorted level would be silently wrong estimates.
    RON_CHECK(t.x > x || (t.x == x && (k == 0 || triples[k - 1].y <= t.y)),
              "zeta: triple " << k << " (x=" << t.x << ", y=" << t.y
                              << ") not sorted by (x, y)");
    while (x < t.x) level.row_begin_[++x] = static_cast<std::uint32_t>(k);
    level.entries_.push_back(DlsZetaEntry{t.y, t.z});
  }
  while (x < hosts) {
    level.row_begin_[++x] = static_cast<std::uint32_t>(triples.size());
  }
  return level;
}

DistanceLabeling DistanceLabeling::from_parts(DistanceCodec codec,
                                              std::uint64_t psi_bits,
                                              std::uint64_t id_bits,
                                              std::vector<DlsLabel> labels) {
  RON_CHECK(!labels.empty(), "from_parts: no labels");
  RON_CHECK(psi_bits >= 1 && psi_bits <= 64, "from_parts: psi_bits");
  RON_CHECK(id_bits >= 1 && id_bits <= 32, "from_parts: id_bits");
  for (std::size_t u = 0; u < labels.size(); ++u) {
    const DlsLabel& lab = labels[u];
    RON_CHECK(lab.id == u, "from_parts: label " << u << " carries id "
                                                << lab.id);
    RON_CHECK(!lab.host_dist.empty(), "from_parts: empty host array at "
                                          << u);
    RON_CHECK(lab.zoom0 < lab.host_dist.size(),
              "from_parts: zoom0 out of range at " << u);
    for (const DlsZeta& zeta : lab.zeta) {
      // walk_chain indexes a level's rows with phi indices it has checked
      // against this label's host array, so the two must agree.
      RON_CHECK(zeta.rows() == lab.host_dist.size(),
                "from_parts: zeta level with " << zeta.rows()
                                               << " rows for "
                                               << lab.host_dist.size()
                                               << " hosts at " << u);
    }
  }
  DistanceLabeling dls(codec);
  dls.psi_bits_ = psi_bits;
  dls.id_bits_ = id_bits;
  dls.labels_ = std::move(labels);
  return dls;
}

const DlsLabel& DistanceLabeling::label(NodeId u) const {
  RON_CHECK(u < labels_.size(), "node u=" << u << ", n=" << labels_.size());
  return labels_[u];
}

DlsEstimate DistanceLabeling::estimate(const DlsLabel& a, const DlsLabel& b) {
  DlsEstimate out;
  if (a.id == b.id) {
    out.upper = 0.0;
    out.candidates = 1;
    return out;
  }
  const auto no_read = [](std::size_t, const DlsZetaEntry&,
                          const DlsZetaEntry&) {};
  out.candidates += walk_chain(a, b, out.upper, no_read);
  out.candidates += walk_chain(b, a, out.upper, no_read);
  RON_CHECK(out.upper < kInfDist, "decode produced no common neighbor");
  return out;
}

DistanceLabeling DistanceLabeling::pruned(unsigned num_threads) const {
  const std::size_t n = labels_.size();
  const unsigned workers = resolve_workers(n, num_threads);
  // One read flag per zeta entry, level after level. Not a char type, so
  // a flag store aliases no entry and the walk keeps its rows in registers.
  enum class Flag : std::uint8_t { kUnread, kRead };
  std::size_t entries = 0;
  for (const DlsLabel& lab : labels_) {
    for (const DlsZeta& zeta : lab.zeta) entries += zeta.size();
  }
  std::vector<Flag> flags(entries, Flag::kUnread);
  // Label u's level j is levels[level_begin[u] + j]: its first entry and
  // its first flag, so an entry's flag is one subtraction away.
  struct Level {
    const DlsZetaEntry* first;
    Flag* flags;
  };
  std::vector<std::size_t> level_begin(n + 1, 0);
  std::vector<Level> levels;
  Flag* next = flags.data();
  for (std::size_t u = 0; u < n; ++u) {
    for (const DlsZeta& zeta : labels_[u].zeta) {
      levels.push_back(Level{zeta.entries().data(), next});
      next += zeta.size();
    }
    level_begin[u + 1] = levels.size();
  }

  // walk_chain(a, b) over every ordered pair a != b is every walk that
  // estimate() can make; each walk flags what it reads in both labels, so
  // a worker also flags labels outside its slice. Flags only ever go from
  // unread to read, so relaxed atomics suffice: no flag is used until
  // run_slices has joined every worker. Loading first keeps the store,
  // and its cache-line transfer, to the first read of an entry.
  auto mark = [](const Level& level, const DlsZetaEntry& e) {
    std::atomic_ref<Flag> flag(level.flags[&e - level.first]);
    if (flag.load(std::memory_order_relaxed) == Flag::kUnread) {
      flag.store(Flag::kRead, std::memory_order_relaxed);
    }
  };
  run_slices(n, workers, [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t a = begin; a < end; ++a) {
      const Level* la = levels.data() + level_begin[a];
      // b runs from a + 1 around to a - 1: workers start in their own
      // slices instead of all flagging label 0, then 1, at the same time.
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t b = (a + k) % n;
        const Level* lb = levels.data() + level_begin[b];
        Dist upper = kInfDist;
        walk_chain(labels_[a], labels_[b], upper,
                   [&](std::size_t j, const DlsZetaEntry& ea,
                       const DlsZetaEntry& eb) {
                     mark(la[j], ea);
                     mark(lb[j], eb);
                   });
      }
    }
  });

  std::vector<DlsLabel> kept(n);
  run_slices(n, workers, [&](unsigned, std::size_t begin, std::size_t end) {
    std::vector<DlsTriple> triples;  // one level, reused
    for (std::size_t u = begin; u < end; ++u) {
      const DlsLabel& lab = labels_[u];
      DlsLabel& out = kept[u] =
          DlsLabel{lab.id, lab.host_dist, {}, lab.zoom0, lab.zoom};
      for (std::size_t j = 0; j < lab.zeta.size(); ++j) {
        const DlsZeta& zeta = lab.zeta[j];
        const Flag* flag = levels[level_begin[u] + j].flags;
        triples.clear();
        for (std::uint32_t x = 0; x < zeta.rows(); ++x) {
          for (const DlsZetaEntry& e : zeta.row(x)) {
            if (*flag++ == Flag::kRead) {
              triples.push_back(DlsTriple{x, e.y, e.z});
            }
          }
        }
        out.zeta.push_back(DlsZeta::from_triples(triples, zeta.rows()));
      }
    }
  });
  return from_parts(codec_, psi_bits_, id_bits_, std::move(kept));
}

std::uint64_t DistanceLabeling::label_bits(NodeId u) const {
  RON_CHECK(u < labels_.size(), "node u=" << u << ", n=" << labels_.size());
  const DlsLabel& lab = labels_[u];
  const std::uint64_t phi_bits = bits_for_index(
      std::max<std::size_t>(lab.host_dist.size(), 2));
  std::uint64_t bits = id_bits_;
  bits += lab.host_dist.size() * codec_.bits();
  for (const DlsZeta& zeta : lab.zeta) {
    bits += zeta.size() * (2 * phi_bits + psi_bits_);
  }
  bits += phi_bits;                        // zoom0
  bits += lab.zoom.size() * psi_bits_;     // psi chain
  return bits;
}

}  // namespace ron
