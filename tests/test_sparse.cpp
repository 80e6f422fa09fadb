// Differential and guardrail tests for the sparse proximity backend, the
// compact (sealed) ring storage and its banded pruned walk, the parallel
// ring build, and the streaming snapshot path.
//
// The load-bearing contract: SparseProximityIndex answers every portable
// ProximityIndex query bit-identically to DenseProximityIndex — not
// approximately, not within an ulp. Every distance either backend reports
// is a metric.distance() probe and every member set uses the canonical
// BallIds form, so the dense backend (exhaustive rows) serves as the oracle
// here across several metric families and seeds. On top of that sits the
// full-build differential: the same scenario built through either backend
// must serialize to byte-identical ring and directory snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "churn/overlay_mutator.h"
#include "core/rings.h"
#include "location/location_service.h"
#include "metric/dense_metric.h"
#include "metric/proximity.h"
#include "metric/sparse_proximity.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"
#include "smallworld/rings_model.h"
#include "served/served_state.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_sparse_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RON_CHECK(is.good(), "cannot open '" << path << "'");
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  RON_CHECK(os.good(), "cannot write '" << path << "'");
}

std::vector<NodeId> members_of(const BallIds& ids) {
  std::vector<NodeId> out;
  out.reserve(ids.size());
  ids.for_each([&](NodeId v) { out.push_back(v); });
  return out;
}

// The differential corpus: every family here has a PointSource (line, ring,
// and the generic coordinate scan), exercised at three seeds each. Small n
// keeps the dense oracle cheap; the bit-identity claim does not depend on n.
std::vector<std::string> differential_specs() {
  std::vector<std::string> specs;
  for (const char* seed : {"1", "5", "9"}) {
    // base chosen so base^(n-1) stays far below the overflow guard.
    specs.push_back(std::string("metric=geoline,n=257,base=1.01,seed=") +
                    seed);
    specs.push_back(std::string("metric=uniline,n=300,seed=") + seed);
    specs.push_back(std::string("metric=ring,n=256,seed=") + seed);
    specs.push_back(std::string("metric=euclid,n=200,dim=3,seed=") + seed);
  }
  return specs;
}

// --- Differential: sparse vs dense, query by query -------------------------

TEST(SparseDifferential, ScalarsMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    EXPECT_FALSE(sparse.has_full_rows());
    EXPECT_EQ(sparse.n(), dense.n());
    EXPECT_EQ(sparse.dmin(), dense.dmin());
    EXPECT_EQ(sparse.dmax(), dense.dmax());
    EXPECT_EQ(sparse.aspect_ratio(), dense.aspect_ratio());
    EXPECT_EQ(sparse.num_levels(), dense.num_levels());
    EXPECT_EQ(sparse.num_scales(), dense.num_scales());
  }
}

TEST(SparseDifferential, KthRadiusMatchesDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    // k values straddle the truncated-row cache boundary (16/17) and the
    // on-demand regime up to k = n.
    const std::size_t ks[] = {1, 2, 7, 16, 17, 33, n / 2, n - 1, n};
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t k : ks) {
        if (k < 1 || k > n) continue;
        ASSERT_EQ(sparse.kth_radius(u, k), dense.kth_radius(u, k))
            << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(SparseDifferential, LevelAndRankRadiiMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    for (NodeId u = 0; u < dense.n(); u += 7) {
      for (int i = 0; i <= dense.num_levels() + 1; ++i) {
        ASSERT_EQ(sparse.level_radius(u, i), dense.level_radius(u, i))
            << "u=" << u << " i=" << i;
        ASSERT_EQ(sparse.level_radius_prev(u, i),
                  dense.level_radius_prev(u, i))
            << "u=" << u << " i=" << i;
      }
      for (double eps : {1.0, 0.5, 0.25, 0.1, 0.01}) {
        ASSERT_EQ(sparse.rank_radius(u, eps), dense.rank_radius(u, eps))
            << "u=" << u << " eps=" << eps;
      }
    }
  }
}

TEST(SparseDifferential, BallQueriesMatchDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    for (NodeId u = 0; u < n; u += 5) {
      for (std::size_t k : {std::size_t{1}, std::size_t{8}, n / 4, n}) {
        if (k < 1) continue;
        const Dist r = dense.kth_radius(u, k);
        ASSERT_EQ(sparse.ball_size(u, r), dense.ball_size(u, r))
            << "u=" << u << " r=" << r;
        const BallIds ds = dense.ball_ids(u, r);
        const BallIds ss = sparse.ball_ids(u, r);
        // Same members AND the same canonical representation: a mixed
        // runs/ids answer would break bit-identical snapshot writers.
        ASSERT_EQ(ss.runs_backed(), ds.runs_backed())
            << "u=" << u << " r=" << r;
        ASSERT_EQ(members_of(ss), members_of(ds)) << "u=" << u << " r=" << r;
        // Just inside the ball boundary the membership count drops
        // identically on both backends.
        const Dist r_in = r * (1.0 - 1e-12);
        ASSERT_EQ(sparse.ball_size(u, r_in), dense.ball_size(u, r_in))
            << "u=" << u << " r_in=" << r_in;
      }
    }
  }
}

TEST(SparseDifferential, RowPrefixMatchesDenseExactly) {
  for (const std::string& text : differential_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    const auto metric = MetricRegistry::global().make(spec);
    const DenseProximityIndex dense(*metric);
    const SparseProximityIndex sparse(*metric);
    const std::size_t n = dense.n();
    for (NodeId u = 0; u < n; u += 11) {
      for (std::size_t k : {std::size_t{1}, std::size_t{16}, std::size_t{33},
                            n}) {
        const auto dp = dense.row_prefix(u, k);
        const auto sp = sparse.row_prefix(u, k);
        ASSERT_EQ(sp.size(), dp.size()) << "u=" << u << " k=" << k;
        for (std::size_t i = 0; i < dp.size(); ++i) {
          ASSERT_EQ(sp[i].d, dp[i].d) << "u=" << u << " k=" << k << " i=" << i;
          ASSERT_EQ(sp[i].v, dp[i].v) << "u=" << u << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(SparseDifferential, NearestInMatchesDense) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=euclid,n=150,dim=2,seed=3");
  const auto metric = MetricRegistry::global().make(spec);
  const DenseProximityIndex dense(*metric);
  const SparseProximityIndex sparse(*metric);
  const std::vector<NodeId> candidates{140, 3, 77, 9, 58, 101, 2};
  for (NodeId u = 0; u < dense.n(); ++u) {
    ASSERT_EQ(sparse.nearest_in(u, candidates), dense.nearest_in(u, candidates))
        << "u=" << u;
  }
  EXPECT_EQ(sparse.nearest_in(0, std::vector<NodeId>{}), kInvalidNode);
}

TEST(SparseDifferential, MemoryIsLinearNotQuadratic) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=2048,seed=1");
  const auto metric = MetricRegistry::global().make(spec);
  const SparseProximityIndex sparse(*metric);
  // Truncated rows: n * kTruncatedRowLen neighbors, nowhere near n^2.
  EXPECT_LE(sparse.memory_bytes(),
            2 * 2048 * SparseProximityIndex::kTruncatedRowLen *
                sizeof(ProximityIndex::Neighbor));
  EXPECT_GT(sparse.memory_bytes(), 0u);
}

// --- Differential: whole builds serialize byte-identically -----------------

TEST(SparseDifferential, FullBuildSnapshotsAreByteIdentical) {
  // Dense path: mutable rings. Sparse path: sealed compact rings. The spec,
  // overlay, directory — and therefore the serialized bytes — must agree.
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=600,base=1.005,seed=4");
  ScenarioBuilder dense_b(spec, 0, ProxBackend::kDense);
  ScenarioBuilder sparse_b(spec, 0, ProxBackend::kSparse);
  ASSERT_FALSE(dense_b.sparse_backend());
  ASSERT_TRUE(sparse_b.sparse_backend());

  TempFile dense_rings("rings_dense");
  TempFile sparse_rings("rings_sparse");
  save_rings(dense_b.rings(), dense_rings.path(), spec);
  save_rings(sparse_b.rings(), sparse_rings.path(), spec);
  EXPECT_TRUE(dense_b.rings().sealed() == false);
  EXPECT_TRUE(sparse_b.rings().sealed());
  EXPECT_EQ(slurp(dense_rings.path()), slurp(sparse_rings.path()));

  TempFile dense_dir("dir_dense");
  TempFile sparse_dir("dir_sparse");
  save_directory(spec, dense_b.make_directory(32, 2), dense_dir.path());
  save_directory(spec, sparse_b.make_directory(32, 2), sparse_dir.path());
  EXPECT_EQ(slurp(dense_dir.path()), slurp(sparse_dir.path()));
}

// --- Compact (sealed) ring storage -----------------------------------------

RingsOfNeighbors sample_rings(std::size_t n) {
  RingsOfNeighbors rings(n);
  for (NodeId u = 0; u < n; ++u) {
    Ring near;
    near.scale = 1.0 + u;
    for (NodeId v = 0; v < n; v += 3) {
      if (v != u) near.members.push_back(v);
    }
    rings.add_ring(u, near);
    Ring far;
    far.scale = 100.0 + u;
    far.members = {static_cast<NodeId>((u + 1) % n),
                   static_cast<NodeId>((u * 7 + 2) % n)};
    rings.add_ring(u, far);
  }
  return rings;
}

TEST(CompactRings, SealedAccessorsMatchMutable) {
  const std::size_t n = 40;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  sealed.seal();
  ASSERT_TRUE(sealed.sealed());
  EXPECT_EQ(sealed.max_out_degree(), mut.max_out_degree());
  EXPECT_EQ(sealed.avg_out_degree(), mut.avg_out_degree());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(sealed.num_rings(u), mut.num_rings(u)) << "u=" << u;
    ASSERT_EQ(sealed.out_degree(u), mut.out_degree(u)) << "u=" << u;
    for (std::size_t i = 0; i < mut.num_rings(u); ++i) {
      ASSERT_EQ(sealed.ring_scale(u, i), mut.ring_scale(u, i));
      std::vector<NodeId> got, want;
      sealed.visit_ring(u, i, [&](NodeId v) { got.push_back(v); });
      mut.visit_ring(u, i, [&](NodeId v) { want.push_back(v); });
      ASSERT_EQ(got, want) << "u=" << u << " ring=" << i;
      for (NodeId v : want) {
        ASSERT_TRUE(sealed.ring_contains(u, i, v));
      }
    }
    std::vector<NodeId> got, want;
    sealed.visit_neighbors(u, [&](NodeId v) { got.push_back(v); });
    mut.visit_neighbors(u, [&](NodeId v) { want.push_back(v); });
    ASSERT_EQ(got, want) << "u=" << u;
    for (NodeId v : want) {
      ASSERT_EQ(sealed.ring_level_of(u, v), mut.ring_level_of(u, v));
    }
  }
}

TEST(CompactRings, SealedSnapshotIsByteIdentical) {
  const std::size_t n = 40;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  sealed.seal();
  TempFile a("rings_mut");
  TempFile b("rings_sealed");
  save_rings(mut, a.path());
  save_rings(sealed, b.path());
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(CompactRings, MutationAfterSealThrows) {
  RingsOfNeighbors rings = sample_rings(8);
  rings.seal();
  rings.seal();  // idempotent
  EXPECT_THROW(rings.add_ring(0, Ring{1.0, {2}}), Error);
  EXPECT_THROW(rings.all_neighbors(0), Error);
  EXPECT_THROW(rings.set_ring_scale(0, 0, 2.0), Error);
}

TEST(CompactRings, SealedStorageIsSmaller) {
  // The compact blobs must beat the vector-of-vectors form on a real
  // overlay shape — that is the whole point of sealing.
  const std::size_t n = 256;
  RingsOfNeighbors mut = sample_rings(n);
  RingsOfNeighbors sealed = sample_rings(n);
  const std::uint64_t before = mut.memory_bytes();
  sealed.seal();
  EXPECT_LT(sealed.memory_bytes(), before);
}

// --- Guardrails -------------------------------------------------------------

TEST(SparseGuardrails, DenseIndexRefusesHugeN) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=20001,base=1.0001,seed=1");
  const auto metric = MetricRegistry::global().make(spec);
  EXPECT_THROW(make_proximity_index(*metric, ProxBackend::kDense), Error);
  // Auto picks sparse at this size — construction succeeds, O(n) memory.
  const auto prox = make_proximity_index(*metric);
  EXPECT_FALSE(prox->has_full_rows());
}

TEST(SparseGuardrails, DenseMetricRefusesHugeN) {
  EXPECT_THROW(DenseMetric(DenseMetric::kMaxDenseMetricNodes + 1,
                           std::vector<Dist>{}),
               Error);
  EXPECT_THROW(DenseMetric(DenseMetric::kMaxDenseMetricNodes + 1,
                           [](NodeId, NodeId) { return 1.0; }),
               Error);
}

TEST(SparseGuardrails, SparseRequiresPointSource) {
  // An explicit matrix has no coordinate structure to query implicitly.
  std::vector<Dist> m{0, 1, 3, 1, 0, 2, 3, 2, 0};
  DenseMetric dm(3, m);
  EXPECT_THROW(SparseProximityIndex{dm}, Error);
  EXPECT_THROW(make_proximity_index(dm, ProxBackend::kSparse), Error);
  // Auto degrades to dense for such families.
  EXPECT_TRUE(make_proximity_index(dm)->has_full_rows());
}

TEST(SparseGuardrails, ParseBackend) {
  EXPECT_EQ(parse_prox_backend("auto"), ProxBackend::kAuto);
  EXPECT_EQ(parse_prox_backend("dense"), ProxBackend::kDense);
  EXPECT_EQ(parse_prox_backend("sparse"), ProxBackend::kSparse);
  EXPECT_THROW(parse_prox_backend("fast"), Error);
  EXPECT_THROW(parse_prox_backend(""), Error);
}

TEST(SparseGuardrails, AutoCutoverAtThreshold) {
  const ScenarioSpec below =
      ScenarioSpec::parse("metric=uniline,n=512,seed=1");
  const ScenarioSpec above =
      ScenarioSpec::parse("metric=uniline,n=4097,seed=1");
  const auto m_below = MetricRegistry::global().make(below);
  const auto m_above = MetricRegistry::global().make(above);
  EXPECT_TRUE(make_proximity_index(*m_below)->has_full_rows());
  EXPECT_FALSE(make_proximity_index(*m_above)->has_full_rows());
}

TEST(SparseGuardrails, FullRowConsumersThrowNamedError) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=300,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  ASSERT_TRUE(builder.sparse_backend());
  // row()/ball() are dense-only.
  EXPECT_THROW(builder.prox().row(0), Error);
  EXPECT_THROW(builder.prox().ball(0, 1.0), Error);
  // The labeling pipeline needs full rows.
  EXPECT_THROW(builder.neighbor_system(), Error);
  // Churn needs full rows: the mutator's rebuild walks whole sorted rows.
  EXPECT_THROW(OverlayMutator(builder.prox(), builder.spec(),
                              ObjectDirectory(spec.n)),
               Error);
  // The overlay itself works — sparse is a serving backend, not a stub.
  EXPECT_EQ(builder.rings().n(), 300u);
  EXPECT_TRUE(builder.rings().sealed());
}

// --- Streaming snapshots ----------------------------------------------------

TEST(StreamingSnapshot, RingsRoundTrip) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=ring,n=128,seed=6");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("stream_rings");
  save_rings(builder.rings(), snap.path(), spec);

  const SnapshotInfo info = inspect_snapshot(snap.path());
  EXPECT_EQ(info.kind, SnapshotKind::kRings);
  EXPECT_EQ(info.version, kSnapshotVersion);

  ScenarioSpec loaded_spec;
  const RingsOfNeighbors loaded = load_rings(snap.path(), &loaded_spec);
  EXPECT_EQ(loaded_spec.to_string(), spec.to_string());
  ASSERT_EQ(loaded.n(), builder.rings().n());
  for (NodeId u = 0; u < loaded.n(); ++u) {
    ASSERT_EQ(loaded.num_rings(u), builder.rings().num_rings(u));
    for (std::size_t i = 0; i < loaded.num_rings(u); ++i) {
      ASSERT_EQ(loaded.ring_scale(u, i), builder.rings().ring_scale(u, i));
      std::vector<NodeId> got, want;
      loaded.visit_ring(u, i, [&](NodeId v) { got.push_back(v); });
      builder.rings().visit_ring(u, i, [&](NodeId v) { want.push_back(v); });
      ASSERT_EQ(got, want) << "u=" << u << " ring=" << i;
    }
    // The built rings are banded by distance, the loaded ones list their
    // union by id (no index on load): the same set in another order.
    std::vector<NodeId> got, want;
    loaded.visit_neighbors(u, [&](NodeId v) { got.push_back(v); });
    builder.rings().visit_neighbors(u, [&](NodeId v) { want.push_back(v); });
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "u=" << u;
  }
}

TEST(StreamingSnapshot, UnfinishedSaveKeepsThePreviousSnapshot) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=ring,n=64,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("atomic");
  save_rings(builder.rings(), snap.path(), spec);
  const std::vector<char> before = slurp(snap.path());
  {
    // A second save to the same path, abandoned before finish() as on an
    // exception mid-save.
    WireStreamWriter w(snap.path(),
                       static_cast<std::uint32_t>(SnapshotKind::kRings));
    for (std::uint64_t i = 0; i < 1000; ++i) w.u64(i);
  }
  EXPECT_EQ(slurp(snap.path()), before);
  EXPECT_EQ(load_rings(snap.path()).n(), spec.n);
  const std::filesystem::path target(snap.path());
  const std::string temp_prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
        << "left behind: " << entry.path();
  }
}

TEST(StreamingSnapshot, DirectoryRoundTrip) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=uniline,n=200,seed=8");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  const ObjectDirectory dir = builder.make_directory(16, 2);
  TempFile snap("stream_dir");
  save_directory(spec, dir, snap.path());

  const LoadedDirectory loaded = load_directory(snap.path());
  EXPECT_EQ(loaded.spec.to_string(), spec.to_string());
  EXPECT_EQ(loaded.directory.n(), dir.n());
  EXPECT_EQ(loaded.directory.num_objects(), dir.num_objects());
}

TEST(StreamingSnapshot, CorruptPayloadFailsChecksum) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=ring,n=64,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("corrupt");
  save_rings(builder.rings(), snap.path(), spec);
  std::vector<char> bytes = slurp(snap.path());
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit near the tail
  dump(snap.path(), bytes);
  EXPECT_THROW(load_rings(snap.path()), Error);
  EXPECT_THROW(inspect_snapshot(snap.path()), Error);
}

TEST(StreamingSnapshot, TruncationAndTrailingGarbageFail) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=ring,n=64,seed=2");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("trunc");
  save_rings(builder.rings(), snap.path(), spec);
  const std::vector<char> bytes = slurp(snap.path());

  std::vector<char> shorter(bytes.begin(), bytes.end() - 5);
  dump(snap.path(), shorter);
  EXPECT_THROW(load_rings(snap.path()), Error);

  std::vector<char> longer = bytes;
  longer.insert(longer.end(), {'j', 'u', 'n', 'k'});
  dump(snap.path(), longer);
  EXPECT_THROW(load_rings(snap.path()), Error);
}

// --- Parallel ring builds ----------------------------------------------------
//
// RingsOfNeighbors::build samples nodes over contiguous slices on several
// workers and can encode straight into sealed storage. Every case compares
// against the serial mutable build followed by seal(), and the overlays
// are additionally pinned to fingerprints recorded from the serial
// add_ring build the bulk entry point replaced.

constexpr unsigned kThreadCounts[] = {1, 2, 3, 7};
constexpr RingStorage kStorages[] = {RingStorage::kMutable,
                                     RingStorage::kSealed};

const char* storage_name(RingStorage storage) {
  return storage == RingStorage::kSealed ? "sealed" : "mutable";
}

std::vector<NodeId> ring_members(const RingsOfNeighbors& rings, NodeId u,
                                 std::size_t i) {
  std::vector<NodeId> out;
  rings.visit_ring(u, i, [&](NodeId v) { out.push_back(v); });
  return out;
}

std::vector<NodeId> neighbor_union(const RingsOfNeighbors& rings, NodeId u) {
  std::vector<NodeId> out;
  rings.visit_neighbors(u, [&](NodeId v) { out.push_back(v); });
  return out;
}

/// Every ring's scale and members, every neighbor union and out-degree,
/// and the degree totals agree (either storage mode on either side). The
/// unions are compared as sequences, or as sorted sets when
/// `union_as_set`: a mutable container lists its union by id, a sealed one
/// built over an index band by band (core/rings.h).
void expect_same_rings(const RingsOfNeighbors& got,
                       const RingsOfNeighbors& want,
                       bool union_as_set = false) {
  ASSERT_EQ(got.n(), want.n());
  EXPECT_EQ(got.avg_out_degree(), want.avg_out_degree());
  EXPECT_EQ(got.max_out_degree(), want.max_out_degree());
  for (NodeId u = 0; u < want.n(); ++u) {
    ASSERT_EQ(got.num_rings(u), want.num_rings(u)) << "u=" << u;
    ASSERT_EQ(got.out_degree(u), want.out_degree(u)) << "u=" << u;
    for (std::size_t i = 0; i < want.num_rings(u); ++i) {
      ASSERT_EQ(got.ring_scale(u, i), want.ring_scale(u, i))
          << "u=" << u << " ring=" << i;
      ASSERT_EQ(ring_members(got, u, i), ring_members(want, u, i))
          << "u=" << u << " ring=" << i;
    }
    std::vector<NodeId> a = neighbor_union(got, u);
    std::vector<NodeId> b = neighbor_union(want, u);
    if (union_as_set) {
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    }
    ASSERT_EQ(a, b) << "u=" << u;
  }
}

/// Mutable-only views: the rings() spans and all_neighbors() caches.
void expect_same_mutable_views(const RingsOfNeighbors& got,
                               const RingsOfNeighbors& want) {
  for (NodeId u = 0; u < want.n(); ++u) {
    const auto a = got.rings(u);
    const auto b = want.rings(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "u=" << u;
    ASSERT_EQ(got.all_neighbors(u), want.all_neighbors(u)) << "u=" << u;
  }
}

std::vector<char> rings_bytes(const RingsOfNeighbors& rings,
                              const std::string& tag) {
  TempFile snap(tag);
  save_rings(rings, snap.path());
  return slurp(snap.path());
}

std::vector<char> directory_bytes(const ScenarioSpec& spec,
                                  const ObjectDirectory& dir,
                                  const std::string& tag) {
  TempFile snap(tag);
  save_directory(spec, dir, snap.path());
  return slurp(snap.path());
}

struct ParallelCase {
  std::string spec;
  ProxBackend backend;
};

// geoline, ring and clustered on the sparse backend plus a graph family on
// the dense one, three seeds each. No n is a multiple of 2, 3 or 7 (257
// and 131 are prime, clustered rounds to 5 x 19 = 95), and the n=5 line
// has fewer nodes than the largest thread count.
std::vector<ParallelCase> parallel_cases() {
  std::vector<ParallelCase> cases;
  for (const char* seed : {"1", "5", "9"}) {
    const std::string s = std::string(",seed=") + seed;
    cases.push_back({"metric=geoline,n=257,base=1.01" + s,
                     ProxBackend::kSparse});
    cases.push_back({"metric=ring,n=257" + s, ProxBackend::kSparse});
    cases.push_back({"metric=clustered,n=95,per_cluster=19" + s,
                     ProxBackend::kSparse});
    cases.push_back({"metric=geograph,n=131" + s, ProxBackend::kDense});
  }
  cases.push_back({"metric=geoline,n=5,base=1.3,seed=2",
                   ProxBackend::kSparse});
  return cases;
}

TEST(ParallelRings, EveryThreadCountAndStorageMatchesSerialThenSeal) {
  for (const ParallelCase& c : parallel_cases()) {
    SCOPED_TRACE(c.spec);
    const ScenarioSpec spec = ScenarioSpec::parse(c.spec);
    ScenarioBuilder serial_builder(spec, 1, c.backend);
    const MeasureView& mu = serial_builder.overlay().measure();
    const ProximityIndex& prox = serial_builder.prox();
    const RingsSmallWorld serial(prox, mu, spec.ring_params(),
                                 spec.overlay_seed, 1, RingStorage::kMutable);
    RingsOfNeighbors serial_sealed = serial.rings();
    serial_sealed.seal();
    const std::vector<char> want_rings =
        rings_bytes(serial_sealed, "par_want");
    const std::vector<char> want_dir = directory_bytes(
        spec, serial_builder.make_directory(16, 2), "par_want_dir");
    for (const unsigned threads : kThreadCounts) {
      for (const RingStorage storage : kStorages) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads << " "
                                          << storage_name(storage));
        const RingsSmallWorld model(prox, mu, spec.ring_params(),
                                    spec.overlay_seed, threads, storage);
        const RingsOfNeighbors& got = model.rings();
        ASSERT_EQ(got.sealed(), storage == RingStorage::kSealed);
        ASSERT_NO_FATAL_FAILURE(expect_same_rings(
            got, serial_sealed, storage == RingStorage::kMutable));
        EXPECT_EQ(rings_bytes(got, "par_got"), want_rings);
        if (storage == RingStorage::kMutable) {
          ASSERT_NO_FATAL_FAILURE(
              expect_same_mutable_views(got, serial.rings()));
          EXPECT_EQ(got.memory_bytes(), serial.rings().memory_bytes());
          RingsOfNeighbors sealed = got;
          sealed.seal();
          EXPECT_EQ(sealed.memory_bytes(), serial_sealed.memory_bytes());
        } else {
          EXPECT_EQ(got.memory_bytes(), serial_sealed.memory_bytes());
        }
      }
      // The builder picks the storage (sealed iff sparse) and passes its
      // thread count through to the overlay.
      ScenarioBuilder builder(spec, threads, c.backend);
      EXPECT_EQ(builder.rings().sealed(), builder.sparse_backend());
      EXPECT_EQ(rings_bytes(builder.rings(), "par_builder"), want_rings);
      EXPECT_EQ(
          directory_bytes(spec, builder.make_directory(16, 2), "par_dir"),
          want_dir);
    }
  }
}

TEST(ParallelRings, BulkBuildEqualsAddRingPerRing) {
  // Unsorted members with repeats and a ring count that varies per node:
  // build() must canonicalize and account exactly like add_ring.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{257}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const Rng root(42);
    const RingSampler sample = [&](NodeId u, std::vector<Ring>& out) {
      Rng rng = root.fork(u);
      const std::size_t count = 1 + rng.index(4);
      for (std::size_t r = 0; r < count; ++r) {
        Ring ring;
        ring.scale = static_cast<double>(r) + 0.5 * u;
        const std::size_t members = 1 + rng.index(9);
        for (std::size_t k = 0; k < members; ++k) {
          ring.members.push_back(static_cast<NodeId>(rng.index(n)));
        }
        out.push_back(std::move(ring));
      }
    };
    RingsOfNeighbors reference(n);
    for (NodeId u = 0; u < n; ++u) {
      std::vector<Ring> rings;
      sample(u, rings);
      for (Ring& ring : rings) reference.add_ring(u, std::move(ring));
    }
    RingsOfNeighbors reference_sealed = reference;
    reference_sealed.seal();
    const std::vector<char> want = rings_bytes(reference_sealed, "bulk_ref");
    for (const unsigned threads : kThreadCounts) {
      for (const RingStorage storage : kStorages) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads << " "
                                          << storage_name(storage));
        const RingsOfNeighbors got =
            RingsOfNeighbors::build(n, sample, storage, threads);
        ASSERT_NO_FATAL_FAILURE(expect_same_rings(got, reference_sealed));
        EXPECT_EQ(rings_bytes(got, "bulk_got"), want);
        if (storage == RingStorage::kMutable) {
          ASSERT_NO_FATAL_FAILURE(expect_same_mutable_views(got, reference));
          EXPECT_EQ(got.memory_bytes(), reference.memory_bytes());
        } else {
          EXPECT_EQ(got.memory_bytes(), reference_sealed.memory_bytes());
        }
      }
    }
  }
}

/// FNV-1a over every ring's count, scale bits and members — storage- and
/// wire-format-independent.
std::uint64_t overlay_digest(const RingsOfNeighbors& rings) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (NodeId u = 0; u < rings.n(); ++u) {
    mix(rings.num_rings(u));
    for (std::size_t i = 0; i < rings.num_rings(u); ++i) {
      const double scale = rings.ring_scale(u, i);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &scale, sizeof(bits));
      mix(bits);
      rings.visit_ring(u, i, [&](NodeId v) { mix(v); });
    }
  }
  return h;
}

TEST(ParallelRings, OverlaysMatchSerialAddRingFingerprints) {
  // Recorded from the serial add_ring build (kAuto: dense, mutable).
  struct Pin {
    const char* spec;
    std::uint64_t digest;
    double avg_degree;
    std::size_t max_degree;
    std::uint64_t mutable_bytes;
  };
  const Pin pins[] = {
      {"metric=geoline,n=600,base=1.005,seed=4", 12607983873056188966ULL,
       148.25333333333333, 181, 2057936},
      {"metric=ring,n=256,seed=9", 9665648246958661318ULL, 93.66796875, 108,
       654184},
      {"metric=clustered,n=96,seed=3,overlay_seed=41",
       9444772683109065754ULL, 49.3125, 62, 247652},
      {"metric=geograph,n=128,seed=2", 15648498853389599017ULL, 58.9453125,
       68, 292424},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.spec);
    const ScenarioSpec spec = ScenarioSpec::parse(pin.spec);
    ScenarioBuilder builder(spec, 1);
    const MeasureView& mu = builder.overlay().measure();
    for (const unsigned threads : {1u, 3u}) {
      for (const RingStorage storage : kStorages) {
        const RingsSmallWorld model(builder.prox(), mu, spec.ring_params(),
                                    spec.overlay_seed, threads, storage);
        EXPECT_EQ(overlay_digest(model.rings()), pin.digest);
        EXPECT_EQ(model.rings().avg_out_degree(), pin.avg_degree);
        EXPECT_EQ(model.rings().max_out_degree(), pin.max_degree);
        if (storage == RingStorage::kMutable) {
          EXPECT_EQ(model.rings().memory_bytes(), pin.mutable_bytes);
        }
      }
    }
  }
}

TEST(ParallelRings, WorkerFailureSurfacesAsRonError) {
  const std::size_t n = 300;
  // add_ring's member range check, tripped by the last node (last worker).
  const RingSampler bad_member = [&](NodeId u, std::vector<Ring>& out) {
    out.push_back(Ring{1.0, {u, u == n - 1 ? static_cast<NodeId>(n) : u}});
  };
  // The sampler's own check, failing in a middle worker.
  const RingSampler refusing = [&](NodeId u, std::vector<Ring>& out) {
    RON_CHECK(u != n / 2, "sampler refused node " << u);
    out.push_back(Ring{1.0, {u}});
  };
  for (const unsigned threads : kThreadCounts) {
    for (const RingStorage storage : kStorages) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " "
                                        << storage_name(storage));
      try {
        RingsOfNeighbors::build(n, bad_member, storage, threads);
        ADD_FAILURE() << "out-of-range member accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("ring member out of range"),
                  std::string::npos)
            << e.what();
      }
      try {
        RingsOfNeighbors::build(n, refusing, storage, threads);
        ADD_FAILURE() << "sampler failure swallowed";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("sampler refused node 150"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MeasureDraw, BatchedPicksMatchSingleDrawRecording) {
  // Picks and the next engine output recorded from the one-draw-per-call
  // sample_in_ball that the batched draw replaced: runs-backed balls
  // (geoline) and id-backed balls (euclid on either backend, a graph
  // family on the dense one).
  struct Pin {
    const char* spec;
    ProxBackend backend;
    NodeId u;
    int j;  // radius dmin * 2^j
    std::uint64_t seed;
    bool runs_backed;
    std::vector<NodeId> picks;
    std::uint64_t next;
  };
  const Pin pins[] = {
      {"metric=geoline,n=300,base=1.01,seed=5", ProxBackend::kSparse, 17, 4,
       5, true, {21, 7, 16, 6, 7, 5, 24, 11, 6, 7, 3, 11},
       14020140076994159260ULL},
      {"metric=geoline,n=300,base=1.01,seed=5", ProxBackend::kSparse, 250, 6,
       6, true, {253, 254, 245, 245, 254, 252, 252, 253, 255, 255, 248, 245},
       12108924429184830602ULL},
      {"metric=euclid,n=200,dim=3,seed=9", ProxBackend::kDense, 5, 8, 7,
       false, {181, 134, 16, 176, 26, 85, 136, 176, 111, 7, 102, 136},
       898881130512272997ULL},
      {"metric=euclid,n=200,dim=3,seed=9", ProxBackend::kSparse, 5, 8, 7,
       false, {181, 134, 16, 176, 26, 85, 136, 176, 111, 7, 102, 136},
       898881130512272997ULL},
      {"metric=geograph,n=128,seed=2", ProxBackend::kDense, 40, 6, 8, false,
       {48, 104, 56, 21, 104, 56, 21, 112, 21, 112, 3, 106},
       13952508559781710859ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << pin.spec << " u=" << pin.u);
    ScenarioBuilder builder(ScenarioSpec::parse(pin.spec), 1, pin.backend);
    const MeasureView& mu = builder.overlay().measure();
    const Dist r = builder.prox().dmin() * std::ldexp(1.0, pin.j);
    ASSERT_EQ(builder.prox().ball_ids(pin.u, r).runs_backed(),
              pin.runs_backed);
    Rng batched(pin.seed);
    EXPECT_EQ(mu.sample_in_ball(pin.u, r, pin.picks.size(), batched),
              pin.picks);
    EXPECT_EQ(batched.engine()(), pin.next);
    // Splitting the batch changes nothing: the stream advances one
    // uniform per draw either way.
    Rng split(pin.seed);
    std::vector<NodeId> picks = mu.sample_in_ball(pin.u, r, 5, split);
    for (NodeId v : mu.sample_in_ball(pin.u, r, 7, split)) picks.push_back(v);
    EXPECT_EQ(picks, pin.picks);
    EXPECT_EQ(split.engine()(), pin.next);
  }
}

// --- Banded sealed rings and the pruned walk ---------------------------------
//
// A RingsSmallWorld seals each node's neighbor union grouped by distance
// band (core/rings.h), and LocationService's greedy step scans only the
// bands that can hold the step's winner. The layout test pins the bands;
// the walk differential checks that the pruned walk over sealed rings and
// the full scan over mutable rings of the same overlay agree on every
// result and trace. The colinear geolines make every triangle inequality
// tight (base 1.2 spans ~80 bands, more than a directory keeps on the
// stack); on ring and uniline many contacts tie on d(c,t).

std::vector<std::string> banded_specs() {
  std::vector<std::string> specs;
  for (const char* seed : {"1", "2", "3"}) {
    const std::string s = std::string(",seed=") + seed;
    specs.push_back("metric=geoline,n=1200,base=1.0000001" + s);
    specs.push_back("metric=geoline,n=1200,base=1.005" + s);
    specs.push_back("metric=geoline,n=300,base=1.2" + s);
    specs.push_back("metric=uniline,n=700" + s);
    specs.push_back("metric=ring,n=700" + s);
    specs.push_back("metric=euclid,n=600,dim=2" + s);
    specs.push_back("metric=clustered,n=600,per_cluster=30" + s);
  }
  return specs;
}

TEST(BandedRings, SealedUnionsFollowTheDistanceLadder) {
  for (const std::string& text : banded_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
    const ProximityIndex& prox = builder.prox();
    const RingsOfNeighbors& banded = builder.rings();
    ASSERT_TRUE(banded.sealed());
    const RingsSmallWorld full(prox, builder.overlay().measure(),
                               spec.ring_params(), spec.overlay_seed, 0,
                               RingStorage::kMutable);
    for (NodeId u = 0; u < prox.n(); ++u) {
      std::vector<NodeId> listed;
      int bands = 0;
      int last_k = -1;
      banded.visit_bands(u, [&](int k, Dist lo, Dist hi,
                                std::span<const NodeId> ids) {
        ++bands;
        ASSERT_GT(k, last_k) << "bands ascend";
        last_k = k;
        ASSERT_EQ(hi, std::ldexp(prox.dmin(), k));
        ASSERT_EQ(lo, k == 0 ? 0.0 : std::ldexp(prox.dmin(), k - 1));
        ASSERT_FALSE(ids.empty()) << "only non-empty bands are stored";
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (i > 0) {
            ASSERT_LT(ids[i - 1], ids[i]) << "ids ascend in a band";
          }
          const Dist d = prox.dist(u, ids[i]);
          ASSERT_LE(d, hi) << "c=" << ids[i];
          if (k > 0) {
            ASSERT_GT(d, lo) << "c=" << ids[i];
          }
        }
        listed.insert(listed.end(), ids.begin(), ids.end());
      });
      ASSERT_FALSE(HasFailure()) << "u=" << u;
      ASSERT_LE(bands, prox.num_scales() + 1) << "u=" << u;
      // visit_neighbors yields the bands in order, each contact once, and
      // the union is the mutable overlay's.
      std::vector<NodeId> visited;
      banded.visit_neighbors(u, [&](NodeId v) { visited.push_back(v); });
      ASSERT_EQ(visited, listed) << "u=" << u;
      std::sort(listed.begin(), listed.end());
      ASSERT_EQ(std::adjacent_find(listed.begin(), listed.end()),
                listed.end())
          << "u=" << u;
      ASSERT_EQ(listed, full.rings().all_neighbors(u)) << "u=" << u;
    }
  }
  // Without an index (hand-built or loaded rings) a node seals as one
  // unbounded band, in id order.
  RingsOfNeighbors hand = sample_rings(40);
  hand.seal();
  for (NodeId u = 0; u < hand.n(); ++u) {
    int bands = 0;
    hand.visit_bands(u, [&](int k, Dist lo, Dist hi,
                            std::span<const NodeId> ids) {
      ++bands;
      EXPECT_EQ(k, 0);
      EXPECT_EQ(lo, 0.0);
      EXPECT_EQ(hi, kInfDist);
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    });
    EXPECT_EQ(bands, 1) << "u=" << u;
  }
}

TEST(BandedRings, PrunedWalkEqualsFullWalk) {
  constexpr std::size_t kObjects = 24;
  constexpr int kQueries = 400;
  LocateOptions any_holder;
  any_holder.stop_at_any_holder = true;
  LocateOptions cut_off;
  cut_off.max_hops = 1;
  for (const std::string& text : banded_specs()) {
    SCOPED_TRACE(text);
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
    const ProximityIndex& prox = builder.prox();
    const RingsSmallWorld full(prox, builder.overlay().measure(),
                               spec.ring_params(), spec.overlay_seed, 0,
                               RingStorage::kMutable);
    const ObjectDirectory dir = builder.make_directory(kObjects, 3);
    const LocationService pruned(prox, builder.rings(), dir);
    const LocationService scanned(prox, full.rings(), dir);
    std::uint64_t pruned_probes = 0;
    std::uint64_t scanned_probes = 0;
    Rng rng(11);
    for (int q = 0; q < kQueries; ++q) {
      const auto querier = static_cast<NodeId>(rng.index(prox.n()));
      const auto obj = static_cast<ObjectId>(rng.index(kObjects));
      for (const LocateOptions& opts : {LocateOptions{}, any_holder, cut_off}) {
        LocateTrace got_trace;
        LocateTrace want_trace;
        const LocateResult got =
            pruned.locate(querier, obj, opts, &got_trace, &pruned_probes);
        const LocateResult want =
            scanned.locate(querier, obj, opts, &want_trace, &scanned_probes);
        ASSERT_EQ(got, want) << "querier=" << querier << " obj=" << obj
                             << " any=" << opts.stop_at_any_holder
                             << " max_hops=" << opts.max_hops;
        ASSERT_EQ(got_trace, want_trace)
            << "querier=" << querier << " obj=" << obj;
      }
    }
    // The walks agree while the sealed one probes strictly less.
    EXPECT_LT(pruned_probes, scanned_probes);
  }
}

// --- Serving the sparse backend ---------------------------------------------

TEST(SparseServed, DirectoryServesStaticallyWithoutChurn) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=600,base=1.005,seed=4");
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  TempFile snap("served_dir");
  save_directory(spec, builder.make_directory(16, 2), snap.path());

  ServedStateOptions opts;
  opts.backend = ProxBackend::kSparse;
  const ServedState state = load_served_state(snap.path(), opts);
  EXPECT_TRUE(state.can_locate());
  EXPECT_FALSE(state.can_churn());
  EXPECT_FALSE(state.can_estimate());
  EXPECT_EQ(state.engine->n(), 600u);
}

}  // namespace
}  // namespace ron
