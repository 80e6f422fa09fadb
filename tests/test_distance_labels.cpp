// Tests for Theorem 3.4's (1+delta)-approximate distance labeling: the
// label-only decoder must sandwich the true distance on every pair, the
// zooming/translation machinery must be self-consistent, and label sizes
// must follow the O_{alpha,delta}(log n)(log log Delta) shape on the
// geometric line (the regime the theorem targets). The row-indexed decoder
// is checked against the binary-search decoder over sorted triples it
// replaced, kept below as a reference; the pruned labeling must keep
// exactly the entries that reference decoder reads; and a snapshot must
// carry the labels in at most a quarter of the bytes of the triple form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "metric/clustered.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "scenario/scenario_spec.h"

namespace ron {
namespace {

void check_all_pairs_dls(const MetricSpace& metric, double delta,
                         double slack) {
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, delta);
  DistanceLabeling dls(sys);
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (NodeId v = u + 1; v < prox.n(); ++v) {
      const Dist d = prox.dist(u, v);
      const auto est = DistanceLabeling::estimate(dls.label(u), dls.label(v));
      EXPECT_GE(est.upper, d - 1e-9)
          << "estimate contracted for (" << u << "," << v << ")";
      EXPECT_LE(est.upper, (1.0 + slack * delta) * d + 1e-9)
          << "estimate too loose for (" << u << "," << v << ") d=" << d;
    }
  }
}

// The proof gives upper <= (1 + 2 delta) d before quantization; the codec
// adds at most delta/8 twice. slack = 3 covers both with margin.
TEST(DistanceLabeling, GuaranteeOnEuclideanCloud) {
  auto metric = random_cube_metric(64, 2, 41);
  check_all_pairs_dls(metric, 0.25, 3.0);
}

TEST(DistanceLabeling, GuaranteeOnGeometricLine) {
  GeometricLineMetric metric(48, 2.0);
  check_all_pairs_dls(metric, 0.25, 3.0);
}

TEST(DistanceLabeling, GuaranteeOnClusteredMetric) {
  ClusteredParams p;
  p.clusters = 5;
  p.per_cluster = 10;
  auto metric = clustered_metric(p, 19);
  check_all_pairs_dls(metric, 0.25, 3.0);
}

TEST(DistanceLabeling, GuaranteeTighterDelta) {
  auto metric = random_cube_metric(48, 2, 43);
  check_all_pairs_dls(metric, 0.125, 3.0);
}

TEST(DistanceLabeling, SelfEstimateIsZero) {
  auto metric = random_cube_metric(32, 2, 7);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  const auto est = DistanceLabeling::estimate(dls.label(5), dls.label(5));
  EXPECT_EQ(est.upper, 0.0);
}

TEST(DistanceLabeling, EstimateIsSymmetric) {
  auto metric = random_cube_metric(48, 2, 13);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  for (NodeId u = 0; u < prox.n(); u += 5) {
    for (NodeId v = u + 1; v < prox.n(); v += 7) {
      const auto ab = DistanceLabeling::estimate(dls.label(u), dls.label(v));
      const auto ba = DistanceLabeling::estimate(dls.label(v), dls.label(u));
      EXPECT_DOUBLE_EQ(ab.upper, ba.upper);
    }
  }
}

TEST(DistanceLabeling, QuantizedDistancesAreRoundedUp) {
  auto metric = random_cube_metric(40, 2, 3);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  for (NodeId u = 0; u < prox.n(); u += 3) {
    auto hosts = sys.host_set(u);
    const auto& lab = dls.label(u);
    ASSERT_EQ(lab.host_dist.size(), hosts.size());
    for (std::size_t k = 0; k < hosts.size(); ++k) {
      const Dist true_d = prox.dist(u, hosts[k]);
      EXPECT_GE(lab.host_dist[k], true_d - 1e-12);
      EXPECT_LE(lab.host_dist[k],
                true_d * (1.0 + dls.codec().max_relative_error()) + 1e-12);
    }
  }
}

TEST(DistanceLabeling, ZetaTriplesAreConsistent) {
  // Every entry (x, y, z) of zeta_{u,i} (row x) must satisfy the definition:
  // x = phi_u(v) for some v in N(i), y = psi_v(w), z = phi_u(w), and the
  // distances stored at x and z match d(u,v), d(u,w) up to rounding.
  auto metric = random_cube_metric(48, 2, 29);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  for (NodeId u = 0; u < prox.n(); u += 11) {
    auto hosts = sys.host_set(u);
    const auto& lab = dls.label(u);
    for (const DlsZeta& zeta : lab.zeta) {
      ASSERT_EQ(zeta.rows(), hosts.size());
      for (std::uint32_t x = 0; x < zeta.rows(); ++x) {
        for (const DlsZetaEntry& e : zeta.row(x)) {
          ASSERT_LT(e.z, hosts.size());
          const NodeId v = hosts[x];
          const NodeId w = hosts[e.z];
          auto tv = sys.virtual_set(v);
          ASSERT_LT(e.y, tv.size());
          EXPECT_EQ(tv[e.y], w) << "psi mismatch";
        }
      }
    }
  }
}

TEST(DistanceLabeling, LabelBitsAccounting) {
  auto metric = random_cube_metric(40, 2, 3);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  for (NodeId u = 0; u < prox.n(); u += 13) {
    const auto& lab = dls.label(u);
    std::uint64_t triples = 0;
    for (const auto& z : lab.zeta) triples += z.size();
    // The accounting must be monotone in the structure sizes and at least
    // the distance-array payload.
    EXPECT_GE(dls.label_bits(u),
              lab.host_dist.size() * dls.codec().bits());
    EXPECT_GE(dls.label_bits(u), triples * dls.psi_bits());
  }
}

TEST(DistanceLabeling, LineLabelsGrowSlowly) {
  // On the geometric line, label payloads must grow far slower than the
  // trivial n * (distance code) labeling.
  const double delta = 0.25;
  std::vector<std::size_t> ns{32, 64, 128};
  std::vector<double> avg_bits;
  for (auto n : ns) {
    GeometricLineMetric metric(n, 1.5);
    DenseProximityIndex prox(metric);
    NeighborSystem sys(prox, delta);
    DistanceLabeling dls(sys);
    double total = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      total += static_cast<double>(dls.label_bits(u));
    }
    avg_bits.push_back(total / static_cast<double>(n));
  }
  // Quadrupling n (and Delta^2!) should much less than quadruple the label.
  EXPECT_LT(avg_bits[2], 3.0 * avg_bits[0]);
}

// --- the row-indexed level --------------------------------------------------

TEST(DistanceLabeling, ZetaRowsFollowTheTriples) {
  // Rows are indexed by x, empty rows included; y may drop at a row
  // boundary, and ties within a row load as they always did.
  const std::vector<DlsTriple> triples = {
      {0, 5, 1}, {0, 7, 0}, {2, 1, 3}, {2, 1, 2}, {3, 0, 0}};
  const DlsZeta zeta = DlsZeta::from_triples(triples, 5);
  EXPECT_EQ(zeta.rows(), 5u);
  EXPECT_EQ(zeta.size(), triples.size());
  using Row = std::vector<DlsZetaEntry>;
  auto row = [&](std::uint32_t x) {
    auto r = zeta.row(x);
    return Row(r.begin(), r.end());
  };
  EXPECT_EQ(row(0), (Row{{5, 1}, {7, 0}}));
  EXPECT_EQ(row(1), Row{});
  EXPECT_EQ(row(2), (Row{{1, 3}, {1, 2}}));
  EXPECT_EQ(row(3), (Row{{0, 0}}));
  EXPECT_EQ(row(4), Row{});
  EXPECT_THROW(zeta.row(5), Error);
  EXPECT_EQ(DlsZeta::from_triples({}, 3).rows(), 3u);
}

TEST(DistanceLabeling, ZetaRejectsDecreasingX) {
  const std::vector<DlsTriple> triples = {{0, 0, 0}, {2, 0, 1}, {1, 1, 1}};
  EXPECT_THROW(DlsZeta::from_triples(triples, 3), Error);
}

TEST(DistanceLabeling, ZetaRejectsDecreasingYWithinARow) {
  const std::vector<DlsTriple> triples = {{0, 0, 0}, {1, 2, 1}, {1, 1, 2}};
  EXPECT_THROW(DlsZeta::from_triples(triples, 3), Error);
}

TEST(DistanceLabeling, ZetaRejectsIndicesAtOrAboveHosts) {
  const std::vector<DlsTriple> big_x = {{0, 0, 0}, {3, 0, 1}};
  EXPECT_THROW(DlsZeta::from_triples(big_x, 3), Error);
  const std::vector<DlsTriple> big_z = {{0, 0, 3}};
  EXPECT_THROW(DlsZeta::from_triples(big_z, 3), Error);
  EXPECT_THROW(DlsZeta::from_triples({}, 0), Error);
}

// --- reference decoder --------------------------------------------------------
//
// The decoder over (x, y)-sorted triple vectors that the row-indexed layout
// replaced: two binary searches to find a row, one more per chain step. It
// lives only here, as the reference the library decoder must match bit for
// bit, and it reads triples recomputed from the NeighborSystem by the
// definition, so the library's builder and level factory are checked too.

constexpr std::uint32_t kRefNull = 0xffffffffu;

using RefZeta = std::vector<std::vector<DlsTriple>>;  // per level, sorted

/// Per level, one flag per triple of a RefZeta: the triples a decode read.
using RefReads = std::vector<std::vector<bool>>;

/// Index of the first triple of `zeta` with key (x, y), or kRefNull.
std::uint32_t ref_lookup(const std::vector<DlsTriple>& zeta, std::uint32_t x,
                         std::uint32_t y) {
  auto it = std::lower_bound(
      zeta.begin(), zeta.end(), std::make_pair(x, y),
      [](const DlsTriple& t, const std::pair<std::uint32_t, std::uint32_t>& k) {
        return t.x != k.first ? t.x < k.first : t.y < k.second;
      });
  if (it == zeta.end() || it->x != x || it->y != y) return kRefNull;
  return static_cast<std::uint32_t>(it - zeta.begin());
}

std::pair<std::size_t, std::size_t> ref_row(const std::vector<DlsTriple>& zeta,
                                            std::uint32_t x) {
  auto lo = std::lower_bound(
      zeta.begin(), zeta.end(), x,
      [](const DlsTriple& t, std::uint32_t xx) { return t.x < xx; });
  auto hi = std::upper_bound(
      zeta.begin(), zeta.end(), x,
      [](std::uint32_t xx, const DlsTriple& t) { return xx < t.x; });
  return {static_cast<std::size_t>(lo - zeta.begin()),
          static_cast<std::size_t>(hi - zeta.begin())};
}

/// `ar` and `br`, when given, receive the triples of az and bz that the
/// walk reads: the pairs the join matches and the chain steps taken.
std::size_t ref_walk(const DlsLabel& a, const RefZeta& az, const DlsLabel& b,
                     const RefZeta& bz, Dist& upper, RefReads* ar = nullptr,
                     RefReads* br = nullptr) {
  std::size_t candidates = 0;
  std::uint32_t ia = b.zoom0;
  std::uint32_t ib = b.zoom0;
  const std::size_t levels = b.zoom.size();
  for (std::size_t j = 0;; ++j) {
    EXPECT_TRUE(ia < a.host_dist.size() && ib < b.host_dist.size());
    upper = std::min(upper, a.host_dist[ia] + b.host_dist[ib]);
    ++candidates;
    if (j >= levels || j >= az.size() || j >= bz.size()) break;
    auto [alo, ahi] = ref_row(az[j], ia);
    auto [blo, bhi] = ref_row(bz[j], ib);
    std::size_t p = alo, q = blo;
    while (p < ahi && q < bhi) {
      if (az[j][p].y < bz[j][q].y) {
        ++p;
      } else if (az[j][p].y > bz[j][q].y) {
        ++q;
      } else {
        upper = std::min(upper, a.host_dist[az[j][p].z] +
                                    b.host_dist[bz[j][q].z]);
        ++candidates;
        if (ar != nullptr) (*ar)[j][p] = true;
        if (br != nullptr) (*br)[j][q] = true;
        ++p;
        ++q;
      }
    }
    const std::uint32_t na = ref_lookup(az[j], ia, b.zoom[j]);
    const std::uint32_t nb = ref_lookup(bz[j], ib, b.zoom[j]);
    if (na == kRefNull || nb == kRefNull) break;
    if (ar != nullptr) (*ar)[j][na] = true;
    if (br != nullptr) (*br)[j][nb] = true;
    ia = az[j][na].z;
    ib = bz[j][nb].z;
  }
  return candidates;
}

DlsEstimate ref_estimate(const DlsLabel& a, const RefZeta& az,
                         const DlsLabel& b, const RefZeta& bz,
                         RefReads* ar = nullptr, RefReads* br = nullptr) {
  DlsEstimate out;
  if (a.id == b.id) {
    out.upper = 0.0;
    out.candidates = 1;
    return out;
  }
  out.candidates += ref_walk(a, az, b, bz, out.upper, ar, br);
  out.candidates += ref_walk(b, bz, a, az, out.upper, br, ar);
  return out;
}

/// zeta_{u,i} by the definition: (phi_u(v), psi_v(w), phi_u(w)) for v in
/// N(i) and w in N(i+1) ∩ T_v, sorted by (x, y, z).
RefZeta ref_zeta(const NeighborSystem& sys, NodeId u) {
  const auto hosts = sys.host_set(u);
  auto phi = [&](NodeId w) {
    const auto it = std::find(hosts.begin(), hosts.end(), w);
    EXPECT_NE(it, hosts.end());
    return static_cast<std::uint32_t>(it - hosts.begin());
  };
  const int levels = sys.num_levels();
  std::vector<std::vector<NodeId>> N(levels);
  for (int i = 0; i < levels; ++i) {
    for (NodeId v : sys.X(u, i)) N[i].push_back(v);
    for (NodeId v : sys.Y(u, i)) N[i].push_back(v);
    std::sort(N[i].begin(), N[i].end());
    N[i].erase(std::unique(N[i].begin(), N[i].end()), N[i].end());
  }
  RefZeta zeta(levels > 1 ? levels - 1 : 0);
  for (int i = 0; i + 1 < levels; ++i) {
    for (NodeId v : N[i]) {
      const auto tv = sys.virtual_set(v);
      for (std::uint32_t q = 0; q < tv.size(); ++q) {
        if (std::binary_search(N[i + 1].begin(), N[i + 1].end(), tv[q])) {
          zeta[i].push_back(DlsTriple{phi(v), q, phi(tv[q])});
        }
      }
    }
    std::sort(zeta[i].begin(), zeta[i].end(),
              [](const DlsTriple& a, const DlsTriple& b) {
                if (a.x != b.x) return a.x < b.x;
                if (a.y != b.y) return a.y < b.y;
                return a.z < b.z;
              });
  }
  return zeta;
}

/// A label's levels flattened back to (x, y, z) triples, row by row.
RefZeta flatten(const DlsLabel& lab) {
  RefZeta out;
  for (const DlsZeta& zeta : lab.zeta) {
    auto& level = out.emplace_back();
    for (std::uint32_t x = 0; x < zeta.rows(); ++x) {
      for (const DlsZetaEntry& e : zeta.row(x)) {
        level.push_back(DlsTriple{x, e.y, e.z});
      }
    }
  }
  return out;
}

void expect_decode_equals_reference(const MetricSpace& metric) {
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  const DistanceLabeling built(sys);
  const std::string path = std::string(::testing::TempDir()) +
                           "ron_dls_reference_" + std::to_string(prox.n()) +
                           ".snapshot";
  save_labeling(built, path);
  const DistanceLabeling loaded = load_labeling(path);
  std::remove(path.c_str());

  std::vector<RefZeta> ref(prox.n());
  for (NodeId u = 0; u < prox.n(); ++u) {
    ref[u] = ref_zeta(sys, u);
    ASSERT_EQ(flatten(built.label(u)), ref[u]) << "built label " << u;
    ASSERT_EQ(flatten(loaded.label(u)), ref[u]) << "loaded label " << u;
  }
  std::size_t candidates = 0;
  for (const DistanceLabeling* dls : {&built, &loaded}) {
    for (NodeId u = 0; u < prox.n(); ++u) {
      for (NodeId v = 0; v < prox.n(); ++v) {
        const DlsEstimate want =
            ref_estimate(dls->label(u), ref[u], dls->label(v), ref[v]);
        const DlsEstimate got =
            DistanceLabeling::estimate(dls->label(u), dls->label(v));
        ASSERT_EQ(got.upper, want.upper) << "(" << u << "," << v << ")";
        ASSERT_EQ(got.candidates, want.candidates)
            << "(" << u << "," << v << ")";
        candidates += got.candidates;
      }
    }
  }
  // The joins did real work: more than the two chains' own elements.
  EXPECT_GT(candidates, 2 * 2 * prox.n() * prox.n());
}

TEST(DistanceLabeling, RowIndexedDecodeEqualsReference) {
  expect_decode_equals_reference(random_cube_metric(48, 2, 41));
  expect_decode_equals_reference(GeometricLineMetric(40, 2.0));
  ClusteredParams p;
  p.clusters = 5;
  p.per_cluster = 10;
  expect_decode_equals_reference(clustered_metric(p, 19));
}

// --- pruning -------------------------------------------------------------------

/// Every ordered pair decodes to the same upper bound and candidate count
/// from `got` as from `want`.
void expect_same_answers(const DistanceLabeling& got,
                         const DistanceLabeling& want) {
  ASSERT_EQ(got.n(), want.n());
  for (NodeId u = 0; u < want.n(); ++u) {
    for (NodeId v = 0; v < want.n(); ++v) {
      const DlsEstimate a =
          DistanceLabeling::estimate(got.label(u), got.label(v));
      const DlsEstimate b =
          DistanceLabeling::estimate(want.label(u), want.label(v));
      ASSERT_EQ(a.upper, b.upper) << "(" << u << "," << v << ")";
      ASSERT_EQ(a.candidates, b.candidates) << "(" << u << "," << v << ")";
    }
  }
}

void expect_prune_keeps_the_reference_reads(const MetricSpace& metric) {
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  const DistanceLabeling built(sys);
  const DistanceLabeling pruned = built.pruned();
  const std::size_t n = prox.n();

  // The read set, by the reference decoder over the triples recomputed
  // from the definition, across every ordered pair.
  std::vector<RefZeta> ref(n);
  std::vector<RefReads> reads(n);
  for (NodeId u = 0; u < n; ++u) {
    ref[u] = ref_zeta(sys, u);
    for (const auto& level : ref[u]) reads[u].emplace_back(level.size());
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ref_estimate(built.label(u), ref[u], built.label(v), ref[v], &reads[u],
                   &reads[v]);
    }
  }

  std::size_t built_entries = 0;
  std::size_t kept_entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    RefZeta want(ref[u].size());
    for (std::size_t j = 0; j < ref[u].size(); ++j) {
      for (std::size_t k = 0; k < ref[u][j].size(); ++k) {
        if (reads[u][j][k]) want[j].push_back(ref[u][j][k]);
      }
      built_entries += ref[u][j].size();
      kept_entries += want[j].size();
    }
    const DlsLabel& a = built.label(u);
    const DlsLabel& b = pruned.label(u);
    ASSERT_EQ(flatten(b), want) << "label " << u;
    // Everything but the entries stays as built.
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.host_dist, a.host_dist) << "label " << u;
    EXPECT_EQ(b.zoom0, a.zoom0) << "label " << u;
    EXPECT_EQ(b.zoom, a.zoom) << "label " << u;
    ASSERT_EQ(b.zeta.size(), a.zeta.size());
    for (std::size_t j = 0; j < a.zeta.size(); ++j) {
      EXPECT_EQ(b.zeta[j].rows(), a.zeta[j].rows());
    }
  }
  // The prune drops entries here, and keeps some.
  EXPECT_LT(kept_entries, built_entries);
  EXPECT_GT(kept_entries, 0u);
  EXPECT_EQ(pruned.psi_bits(), built.psi_bits());
  EXPECT_EQ(pruned.id_bits(), built.id_bits());
  EXPECT_EQ(pruned.codec().bits(), built.codec().bits());

  const DistanceLabeling twice = pruned.pruned();
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(twice.label(u), pruned.label(u)) << "label " << u;
  }
  expect_same_answers(pruned, built);
}

TEST(DistanceLabeling, PrunedKeepsExactlyTheEntriesTheReferenceDecodeReads) {
  // The fixtures of RowIndexedDecodeEqualsReference.
  expect_prune_keeps_the_reference_reads(random_cube_metric(48, 2, 41));
  expect_prune_keeps_the_reference_reads(GeometricLineMetric(40, 2.0));
  ClusteredParams p;
  p.clusters = 5;
  p.per_cluster = 10;
  expect_prune_keeps_the_reference_reads(clustered_metric(p, 19));
}

// --- snapshot size ------------------------------------------------------------

/// The bytes a labeling payload saved with an empty spec took in the
/// triple form that formats 1 and 2 stored: the fixed fields, a u64 count
/// per zeta level and 12 bytes per (x, y, z) triple.
std::uint64_t triple_form_bytes(const DistanceLabeling& dls) {
  WireWriter spec;
  write_spec(spec, ScenarioSpec{});
  // codec (4 x u32 + f64), psi_bits, id_bits, n
  std::uint64_t bytes = spec.size() + 4 * 4 + 8 + 3 * 8;
  for (NodeId u = 0; u < dls.n(); ++u) {
    const DlsLabel& lab = dls.label(u);
    bytes += 4 + 8 + 8 * lab.host_dist.size() + 8;  // id, hosts, levels
    for (const DlsZeta& zeta : lab.zeta) bytes += 8 + 12 * zeta.size();
    bytes += 4 + 8 + 4 * lab.zoom.size();  // zoom0, zoom chain
  }
  return bytes;
}

void expect_quarter_of_the_triple_form(const MetricSpace& metric) {
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  const DistanceLabeling dls(sys);
  const std::string path = std::string(::testing::TempDir()) +
                           "ron_dls_size_" + std::to_string(prox.n()) +
                           ".snapshot";
  save_labeling(dls, path);
  const std::uint64_t payload = inspect_snapshot(path).payload_bytes;
  std::remove(path.c_str());
  const std::uint64_t triples = triple_form_bytes(dls);
  EXPECT_LE(4 * payload, triples)
      << "n=" << prox.n() << ": " << payload << " payload bytes against "
      << triples << " in the triple form";
}

TEST(DistanceLabeling, SnapshotLabelsTakeAQuarterOfTheTripleForm) {
  // The fixtures of RowIndexedDecodeEqualsReference, which reloads them.
  expect_quarter_of_the_triple_form(random_cube_metric(48, 2, 41));
  expect_quarter_of_the_triple_form(GeometricLineMetric(40, 2.0));
  ClusteredParams p;
  p.clusters = 5;
  p.per_cluster = 10;
  expect_quarter_of_the_triple_form(clustered_metric(p, 19));
}

}  // namespace
}  // namespace ron
