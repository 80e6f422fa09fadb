// Tests for the oracle serving subsystem: snapshot round trips must be
// lossless for every section kind, arbitrary corruption (a seeded
// random-mutation fuzzer: byte flips, truncations, extensions, scrambled
// windows) must throw ron::Error instead of crashing or corrupting the
// process, committed golden fixtures pin the on-disk format bit-for-bit,
// and the batched engine must answer bit-identically to the serial decoder
// for every thread count and cache configuration.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "common/check.h"
#include "common/rng.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/object_directory.h"
#include "metric/clustered.h"
#include "metric/euclidean.h"
#include "metric/proximity.h"
#include "oracle/engine.h"
#include "oracle/lru.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"

#include "fuzz_mutate.h"

// --- allocation probe ------------------------------------------------------
//
// A loader must not allocate more than the payload that could back it,
// whatever bytes it is handed. Outside sanitizer builds, whose runtimes
// provide operator new themselves, this binary's operator new records the
// largest single request made while largest_allocation() runs.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RON_TEST_ALLOCATION_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RON_TEST_ALLOCATION_PROBE 0
#endif
#endif
#ifndef RON_TEST_ALLOCATION_PROBE
#define RON_TEST_ALLOCATION_PROBE 1
#endif

namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<std::size_t> g_probe_largest{0};
}  // namespace

#if RON_TEST_ALLOCATION_PROBE
void* operator new(std::size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_probe_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_probe_largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  // The library's operator delete releases with std::free.
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
#endif

namespace ron {
namespace {

/// The largest single operator new request `fn` makes; 0 in sanitizer
/// builds, where nothing records it.
std::size_t largest_allocation(const std::function<void()>& fn) {
  g_probe_largest.store(0);
  g_probe_armed.store(true);
  fn();
  g_probe_armed.store(false);
  return g_probe_largest.load();
}

/// An opened std::ifstream allocates its own buffer of this size, whatever
/// the file's, so no allocation bound is below it.
constexpr std::size_t kIoBufferBytes = 8192;

/// Unique-ish temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_oracle_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- wire primitives -------------------------------------------------------

TEST(Wire, RoundTripsScalars) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.1);
  w.str("rings");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -0.1);  // bit-exact
  EXPECT_EQ(r.str(), "rings");
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u32(), Error);
}

TEST(Wire, ImplausibleCountThrows) {
  WireWriter w;
  w.u64(1u << 20);  // promises a million elements, provides none
  WireReader r(w.bytes());
  EXPECT_THROW(r.read_count(4, "test element"), Error);
}

constexpr std::uint64_t kVarintEdges[] = {
    0, 127, 128, 0xffffffffULL, 0xffffffffffffffffULL};
constexpr std::size_t kVarintEdgeBytes[] = {1, 1, 2, 5, 10};

TEST(Wire, VarintRoundTrips) {
  WireWriter w;
  for (std::size_t i = 0; i < std::size(kVarintEdges); ++i) {
    const std::uint64_t before = w.size();
    w.varint(kVarintEdges[i]);
    EXPECT_EQ(w.size() - before, kVarintEdgeBytes[i]) << kVarintEdges[i];
  }
  WireReader r(w.bytes());
  for (std::uint64_t v : kVarintEdges) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());

  // Through a snapshot file, with the 10-byte varint straddling the end of
  // the reader's first window, so its tail arrives by a refill.
  TempFile file("varint_stream");
  const std::size_t filler = kStreamChunkBytes - 3;
  {
    WireStreamWriter out(file.path(), 1);
    for (std::size_t i = 0; i < filler; ++i) out.u8(0xa5);
    for (std::size_t i = std::size(kVarintEdges); i-- > 0;) {
      out.varint(kVarintEdges[i]);
    }
    out.finish();
  }
  WireStreamReader in(file.path());
  for (std::size_t i = 0; i < filler; ++i) ASSERT_EQ(in.u8(), 0xa5);
  for (std::size_t i = std::size(kVarintEdges); i-- > 0;) {
    EXPECT_EQ(in.varint(), kVarintEdges[i]);
  }
  EXPECT_NO_THROW(in.expect_done());  // the checksum agrees too
}

/// Reads one varint from `bytes` and expects a ron::Error naming `want`.
void expect_varint_rejected(const std::vector<std::uint8_t>& bytes,
                            const std::string& want) {
  WireReader r(bytes);
  try {
    r.varint();
    ADD_FAILURE() << "malformed varint read (wanted '" << want << "')";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(Wire, VarintRejectsMalformed) {
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x01);
  expect_varint_rejected(eleven, "varint longer than 10 bytes");
  std::vector<std::uint8_t> past_64(9, 0xff);
  past_64.push_back(0x02);  // the 10th byte may carry bit 63 alone
  expect_varint_rejected(past_64, "varint past 64 bits");
  expect_varint_rejected({0x80, 0x80}, "truncated reading varint");
  // One encoding per value: 0 and 127 padded with a zero byte.
  expect_varint_rejected({0x80, 0x00}, "ends in a zero byte");
  expect_varint_rejected({0xff, 0x80, 0x00}, "ends in a zero byte");
}

TEST(Wire, StreamPrefixShortAtEofIsNotAnError) {
  // Sniffing a short (possibly foreign) file: the prefix read reports how
  // much was there and must NOT throw — short-at-EOF is an answer.
  std::istringstream in(std::string("abc"), std::ios::binary);
  std::array<std::uint8_t, 16> buf{};
  EXPECT_EQ(read_stream_prefix(in, buf), 3u);
  EXPECT_TRUE(in.eof());
  EXPECT_FALSE(in.bad());
}

/// Streambuf that yields a fixed prefix, then fails hard (underflow
/// throws): basic_istream::read converts that into badbit — the signature
/// of a failing device, as opposed to a clean EOF.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string prefix)
      : prefix_(std::move(prefix)) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }

 private:
  int_type underflow() override { throw std::runtime_error("disk error"); }
  std::string prefix_;
};

TEST(Wire, StreamPrefixStreamErrorThrows) {
  // A mid-read stream FAILURE must surface as ron::Error: returning the
  // partial count would make kind-sniffing mistake a broken disk for a
  // short foreign file.
  FailingStreambuf sb("ab");
  std::istream in(&sb);
  std::array<std::uint8_t, 16> buf{};
  EXPECT_THROW(read_stream_prefix(in, buf), Error);
  EXPECT_TRUE(in.bad());
}

TEST(Wire, StreamPrefixImmediateErrorThrows) {
  FailingStreambuf sb("");
  std::istream in(&sb);
  std::array<std::uint8_t, 8> buf{};
  EXPECT_THROW(read_stream_prefix(in, buf), Error);
}

// --- fixtures --------------------------------------------------------------

RingsOfNeighbors make_rings(std::size_t n) {
  RingsOfNeighbors rings(n);
  Rng rng(17);
  for (NodeId u = 0; u < n; ++u) {
    for (int i = 0; i < 3; ++i) {
      Ring ring;
      ring.scale = std::pow(2.0, i) * 1.5;
      for (int k = 0; k < 4; ++k) {
        ring.members.push_back(static_cast<NodeId>(rng.index(n)));
      }
      rings.add_ring(u, std::move(ring));
    }
  }
  return rings;
}

struct LabelingFixture {
  explicit LabelingFixture(std::size_t n = 48)
      : metric(random_cube_metric(n, 2, 23)),
        prox(metric),
        sys(prox, 0.25),
        dls(sys) {}
  EuclideanMetric metric;
  DenseProximityIndex prox;
  NeighborSystem sys;
  DistanceLabeling dls;
};

/// Every ordered pair, self-pairs included, decodes to the same upper
/// bound and candidate count from `got` as from `want`.
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

ObjectDirectory make_directory(std::size_t n) {
  ObjectDirectory dir(n);
  Rng rng(29);
  for (std::size_t k = 0; k < 6; ++k) {
    dir.publish_random("obj" + std::to_string(k), 1 + k % 3, rng);
  }
  dir.declare("unpublished");
  return dir;
}

ChurnTrace make_trace() {
  ChurnTrace trace;
  trace.objects = {"obj0", "obj1"};
  trace.ops = {{ChurnOpKind::kLeave, 3, kInvalidObject},
               {ChurnOpKind::kPublish, 5, 0},
               {ChurnOpKind::kJoin, 3, kInvalidObject},
               {ChurnOpKind::kUnpublish, 5, 0},
               {ChurnOpKind::kPublish, 9, 1}};
  return trace;
}

// --- LruShard: the per-worker result cache ----------------------------------
//
// Serving correctness, tested directly: a duplicate-key put must OVERWRITE
// the cached value (a kept-stale value would pin a pre-mutation result
// forever once epochs swap), and eviction must discard the least recently
// USED entry, counting gets as use.

TEST(LruShard, DuplicatePutOverwritesValue) {
  LruShard<int> cache(4);
  cache.put(7, 100);
  cache.put(8, 200);
  int out = 0;
  ASSERT_TRUE(cache.get(7, out));
  EXPECT_EQ(out, 100);
  cache.put(7, 111);  // same key, new value: must replace, not refresh-only
  ASSERT_TRUE(cache.get(7, out));
  EXPECT_EQ(out, 111);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruShard, EvictsLeastRecentlyUsed) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  int out = 0;
  ASSERT_TRUE(cache.get(1, out));  // 1 becomes most recent; 2 is now LRU
  cache.put(4, 40);                // evicts 2
  EXPECT_FALSE(cache.get(2, out));
  ASSERT_TRUE(cache.get(1, out));
  ASSERT_TRUE(cache.get(3, out));
  ASSERT_TRUE(cache.get(4, out));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruShard, DuplicatePutRefreshesRecency) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  cache.put(1, 11);  // refresh: 2 is now the LRU entry
  cache.put(4, 40);  // evicts 2, not 1
  int out = 0;
  EXPECT_FALSE(cache.get(2, out));
  ASSERT_TRUE(cache.get(1, out));
  EXPECT_EQ(out, 11);
  EXPECT_EQ(cache.keys_by_recency().back(), 1u);  // most recent last
}

TEST(LruShard, ClearDropsEntries) {
  LruShard<int> cache(3);
  cache.put(1, 10);
  int out = 0;
  ASSERT_TRUE(cache.get(1, out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1, out));
  // A cleared shard is reusable: entries go back in as usual.
  cache.put(1, 11);
  ASSERT_TRUE(cache.get(1, out));
  EXPECT_EQ(out, 11);
}

TEST(LruShard, ZeroCapacityIsDisabledNoOp) {
  LruShard<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, 10);
  int out = 0;
  EXPECT_FALSE(cache.get(1, out));
  EXPECT_EQ(cache.size(), 0u);
}

// --- round trips -----------------------------------------------------------

TEST(SnapshotRings, RoundTripIsLossless) {
  const RingsOfNeighbors rings = make_rings(40);
  TempFile file("rings");
  save_rings(rings, file.path());
  const RingsOfNeighbors loaded = load_rings(file.path());
  ASSERT_EQ(loaded.n(), rings.n());
  EXPECT_EQ(loaded.max_out_degree(), rings.max_out_degree());
  EXPECT_EQ(loaded.avg_out_degree(), rings.avg_out_degree());
  for (NodeId u = 0; u < rings.n(); ++u) {
    auto a = rings.rings(u);
    auto b = loaded.rings(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(rings.all_neighbors(u), loaded.all_neighbors(u));
    EXPECT_EQ(rings.pointer_bits(u), loaded.pointer_bits(u));
  }
}

/// Every accessor of a loaded NeighborSystemSnapshot against the live
/// system it was saved from.
void expect_same_neighbor_system(const NeighborSystemSnapshot& s,
                                 const NeighborSystem& sys) {
  ASSERT_EQ(s.n(), sys.prox().n());
  EXPECT_EQ(s.delta(), sys.delta());
  EXPECT_EQ(s.profile().y_ball_factor, sys.profile().y_ball_factor);
  EXPECT_EQ(s.profile().y_net_divisor, sys.profile().y_net_divisor);
  EXPECT_EQ(s.profile().z_net_divisor, sys.profile().z_net_divisor);
  ASSERT_EQ(s.num_levels(), sys.num_levels());
  ASSERT_EQ(s.num_z_scales(), sys.num_z_scales());
  auto eq_span = [](std::span<const NodeId> a, std::span<const NodeId> b) {
    return std::vector<NodeId>(a.begin(), a.end()) ==
           std::vector<NodeId>(b.begin(), b.end());
  };
  for (NodeId u = 0; u < s.n(); ++u) {
    for (int i = 0; i < s.num_levels(); ++i) {
      EXPECT_EQ(s.r(u, i), sys.r(u, i));
      EXPECT_EQ(s.nearest_x(u, i), sys.nearest_x(u, i));
      EXPECT_EQ(s.f(u, i), sys.f(u, i));
      EXPECT_EQ(s.y_level(u, i), sys.y_level(u, i));
      EXPECT_TRUE(eq_span(s.X(u, i), sys.X(u, i)));
      EXPECT_TRUE(eq_span(s.Y(u, i), sys.Y(u, i)));
    }
    for (int j = 1; j <= s.num_z_scales(); ++j) {
      EXPECT_TRUE(eq_span(s.Z(u, j), sys.Z(u, j)));
    }
    EXPECT_TRUE(eq_span(s.Z_all(u), sys.Z_all(u)));
    EXPECT_TRUE(eq_span(s.X_all(u), sys.X_all(u)));
    EXPECT_TRUE(eq_span(s.host_set(u), sys.host_set(u)));
    EXPECT_TRUE(eq_span(s.virtual_set(u), sys.virtual_set(u)));
  }
}

TEST(SnapshotNeighborSystem, RoundTripIsLossless) {
  LabelingFixture fx;
  TempFile file("nsys");
  save_neighbor_system(fx.sys, file.path());
  expect_same_neighbor_system(load_neighbor_system(file.path()), fx.sys);
}

TEST(SnapshotLabeling, RoundTripEstimatesAreBitIdentical) {
  LabelingFixture fx;
  TempFile file("labeling");
  save_labeling(fx.dls, file.path());
  const DistanceLabeling loaded = load_labeling(file.path());
  ASSERT_EQ(loaded.n(), fx.dls.n());
  EXPECT_EQ(loaded.psi_bits(), fx.dls.psi_bits());
  EXPECT_EQ(loaded.id_bits(), fx.dls.id_bits());
  EXPECT_EQ(loaded.codec().bits(), fx.dls.codec().bits());
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    EXPECT_EQ(loaded.label(u), fx.dls.label(u));
    EXPECT_EQ(loaded.label_bits(u), fx.dls.label_bits(u));
  }
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    for (NodeId v = 0; v < fx.dls.n(); ++v) {
      const Dist a =
          DistanceLabeling::estimate(fx.dls.label(u), fx.dls.label(v)).upper;
      const Dist b =
          DistanceLabeling::estimate(loaded.label(u), loaded.label(v)).upper;
      EXPECT_EQ(a, b) << "estimate differs for (" << u << "," << v << ")";
    }
  }
}

/// The spec the LabelingFixture's metric corresponds to (n = 48, seed 23).
ScenarioSpec fixture_spec() {
  return ScenarioSpec::parse("metric=euclid,n=48,seed=23");
}

TEST(SnapshotOracle, BundleRoundTripsSpecAndLabels) {
  LabelingFixture fx;
  TempFile file("oracle");
  const ScenarioSpec spec = fixture_spec();
  save_oracle(spec, "euclid-48", fx.dls, file.path());
  const SnapshotInfo info = inspect_snapshot(file.path());
  EXPECT_EQ(info.kind, SnapshotKind::kOracle);
  EXPECT_EQ(info.version, kSnapshotVersion);
  const LoadedOracle loaded = load_oracle(file.path());
  EXPECT_EQ(loaded.spec, spec);
  EXPECT_EQ(loaded.metric_name, "euclid-48");
  // The bundle stores the labels pruned to what some decode reads, and
  // they answer every pair as the construction does.
  const DistanceLabeling pruned = fx.dls.pruned();
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    EXPECT_EQ(loaded.labeling.label(u), pruned.label(u));
  }
  expect_same_answers(loaded.labeling, fx.dls);
}

TEST(SnapshotChurnBundle, RoundTripsSpecDirectoryAndTrace) {
  TempFile file("churn_bundle");
  ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3,overlay_seed=7");
  spec.churn_ops = 5;
  spec.churn_seed = 99;
  const ObjectDirectory dir = make_directory(32);
  const ChurnTrace trace = make_trace();
  save_churn_bundle(spec, dir, trace, file.path());
  const SnapshotInfo info = inspect_snapshot(file.path());
  EXPECT_EQ(info.kind, SnapshotKind::kChurnBundle);
  EXPECT_EQ(info.version, kSnapshotVersion);
  const LoadedChurnBundle loaded = load_churn_bundle(file.path());
  EXPECT_EQ(loaded.spec, spec);
  EXPECT_EQ(loaded.trace, trace);
  ASSERT_EQ(loaded.initial.num_objects(), dir.num_objects());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    EXPECT_EQ(loaded.initial.name(obj), dir.name(obj));
    const auto a = loaded.initial.holders(obj);
    const auto b = dir.holders(obj);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  // Resaving the loaded bundle must reproduce the bytes (canonical form).
  TempFile resaved("churn_bundle_resave");
  save_churn_bundle(loaded.spec, loaded.initial, loaded.trace,
                    resaved.path());
  EXPECT_EQ(slurp(file.path()), slurp(resaved.path()));
}

/// Recomputes a snapshot file's header checksum (over the header's
/// version and kind fields, then the payload), so a test can hand the
/// parser a crafted header or payload that the checksum does not catch.
void restamp_checksum(std::vector<char>& bytes) {
  const std::span<const std::uint8_t> file(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  const std::uint64_t sum =
      fnv1a64_continue(fnv1a64(file.subspan(sizeof(kSnapshotMagic), 8)),
                       file.subspan(kSnapshotHeaderBytes));
  for (std::size_t i = 0; i < 8; ++i) {  // the header's last field
    bytes[kSnapshotHeaderBytes - 8 + i] = static_cast<char>(sum >> (8 * i));
  }
}

/// Replaces the `len` bytes at `at` of a snapshot file with `with`, then
/// patches the header's payload length and checksum to match.
void splice_payload(std::vector<char>& bytes, std::size_t at, std::size_t len,
                    const std::vector<std::uint8_t>& with) {
  bytes.erase(bytes.begin() + at, bytes.begin() + at + len);
  bytes.insert(bytes.begin() + at, with.begin(), with.end());
  const std::uint64_t payload = bytes.size() - kSnapshotHeaderBytes;
  for (std::size_t i = 0; i < 8; ++i) {  // the header's payload length
    bytes[16 + i] = static_cast<char>(payload >> (8 * i));
  }
  restamp_checksum(bytes);
}

TEST(SnapshotChurnBundle, RefusesRecipeFreeSaves) {
  // A family-less spec cannot rebuild anything: it is refused on save,
  // and a bundle whose stored recipe lost its family is refused on load.
  TempFile file("churn_bundle_bad");
  EXPECT_THROW(save_churn_bundle(ScenarioSpec{}, make_directory(32),
                                 make_trace(), file.path()),
               Error);
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3");
  save_churn_bundle(spec, make_directory(32), make_trace(), file.path());
  std::vector<char> bytes = slurp(file.path());
  WireWriter named;
  write_spec(named, spec);
  ScenarioSpec unnamed = spec;
  unnamed.family.clear();
  WireWriter recipe_free;
  write_spec(recipe_free, unnamed);
  splice_payload(bytes, kSnapshotHeaderBytes, named.bytes().size(),
                 recipe_free.bytes());
  dump(file.path(), bytes);
  EXPECT_EQ(inspect_snapshot(file.path()).kind, SnapshotKind::kChurnBundle);
  try {
    load_churn_bundle(file.path());
    ADD_FAILURE() << "a recipe-free bundle loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing its metric family"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotChurnBundle, InvalidTraceRejectedOnSaveAndLoad) {
  TempFile file("churn_trace_bad");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3");
  ChurnTrace bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kLeave, 32, kInvalidObject});  // node >= n
  EXPECT_THROW(save_churn_bundle(spec, make_directory(32), bad, file.path()),
               Error);
  bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kPublish, 1, 2});  // object index >= 2
  EXPECT_THROW(bad.validate(32), Error);
  bad = make_trace();
  bad.ops.push_back({ChurnOpKind::kJoin, 1, 0});  // join with object index
  EXPECT_THROW(bad.validate(32), Error);
  bad = make_trace();
  bad.objects.push_back(bad.objects[0]);  // duplicate name
  EXPECT_THROW(bad.validate(32), Error);
}

TEST(SnapshotDirectory, ZeroHolderObjectsRoundTripBitIdentically) {
  // The zero-holder contract's snapshot half: a live name with an empty
  // holder set must survive save -> load -> save with identical bytes (the
  // payload declares the name, then lists zero holders).
  TempFile file("zero_holder");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=16,seed=3,overlay_seed=7");
  ObjectDirectory dir(16);
  dir.publish("kept", std::vector<NodeId>{2, 5});
  dir.publish("drained", std::vector<NodeId>{1, 9});
  EXPECT_EQ(dir.unpublish_all("drained"), 2u);
  dir.declare("never_published");
  save_directory(spec, dir, file.path());
  const LoadedDirectory loaded = load_directory(file.path());
  ASSERT_EQ(loaded.directory.num_objects(), 3u);
  EXPECT_TRUE(loaded.directory.holders(dir.find("drained")).empty());
  EXPECT_TRUE(loaded.directory.holders(dir.find("never_published")).empty());
  EXPECT_EQ(loaded.directory.total_replicas(), 2u);
  TempFile resaved("zero_holder_resave");
  save_directory(loaded.spec, loaded.directory, resaved.path());
  EXPECT_EQ(slurp(file.path()), slurp(resaved.path()));
}

TEST(SnapshotSpec, EmbeddedSpecComesBackFromEveryKind) {
  // The tentpole invariant: all snapshot kinds carry the scenario. (The
  // oracle/directory kinds are covered by their bundle tests above/below.)
  LabelingFixture fx;
  const ScenarioSpec spec = fixture_spec();
  TempFile rings_file("spec_rings");
  save_rings(make_rings(48), rings_file.path(), spec);
  ScenarioSpec got;
  load_rings(rings_file.path(), &got);
  EXPECT_EQ(got, spec);
  TempFile nsys_file("spec_nsys");
  save_neighbor_system(fx.sys, nsys_file.path(), spec);
  got = ScenarioSpec{};
  load_neighbor_system(nsys_file.path(), &got);
  EXPECT_EQ(got, spec);
  TempFile lab_file("spec_labeling");
  save_labeling(fx.dls, lab_file.path(), spec);
  got = ScenarioSpec{};
  SnapshotInfo info;
  load_labeling(lab_file.path(), &got, &info);
  EXPECT_EQ(got, spec);
  EXPECT_EQ(info.version, kSnapshotVersion);
}

TEST(SnapshotSpec, MismatchedSpecNRejectedOnSave) {
  // A named family makes the spec a real recipe; its n must match the
  // artifact (empty-family specs are provenance-free and exempt).
  const RingsOfNeighbors rings = make_rings(8);
  TempFile file("spec_mismatch");
  EXPECT_THROW(
      save_rings(rings, file.path(),
                 ScenarioSpec::parse("metric=geoline,n=9,seed=1")),
      Error);
  save_rings(rings, file.path());  // empty family, default n: fine
}

// --- corruption robustness: the random-mutation fuzzer ---------------------
//
// Replaces the old hand-picked corruption matrix: instead of enumerating the
// failure modes we can think of, a seeded fuzzer applies random mutations
// (multi-byte flips — which also hit the magic/version/kind/length/checksum
// header fields, truncations, extensions, scrambled windows) to a valid
// snapshot of EVERY section kind. Each mutated file must throw ron::Error —
// never crash, hang or load garbage. The suite runs under ASan/UBSan in CI,
// so out-of-bounds parses surface even when they would not misbehave here.

/// One fuzz target: a valid snapshot file of one kind plus the loader the
/// serving path would use for it.
struct FuzzTarget {
  const char* name;
  std::function<void(const std::string&)> save;
  std::function<void(const std::string&)> load;
};

std::vector<FuzzTarget> fuzz_targets(const LabelingFixture& fx) {
  // Every target saves with a non-empty embedded spec, so the fuzzer
  // also mutates the spec prefix and its parser's validation paths.
  const ScenarioSpec spec24 =
      ScenarioSpec::parse("metric=geoline,n=24,seed=3,base=1.25");
  const ScenarioSpec spec32 =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3,overlay_seed=7");
  return {
      {"rings",
       [spec24](const std::string& p) {
         save_rings(make_rings(24), p, spec24);
       },
       [](const std::string& p) { load_rings(p); }},
      {"neighbor_system",
       [&fx](const std::string& p) {
         save_neighbor_system(fx.sys, p, fixture_spec());
       },
       [](const std::string& p) { load_neighbor_system(p); }},
      {"labeling",
       [&fx](const std::string& p) {
         save_labeling(fx.dls, p, fixture_spec());
       },
       [](const std::string& p) { load_labeling(p); }},
      {"oracle",
       [&fx](const std::string& p) {
         save_oracle(fixture_spec(), "euclid-48", fx.dls, p);
       },
       [](const std::string& p) { load_oracle(p); }},
      {"directory",
       [spec32](const std::string& p) {
         save_directory(spec32, make_directory(32), p);
       },
       [](const std::string& p) { load_directory(p); }},
      {"churn_bundle",
       [spec32](const std::string& p) {
         save_churn_bundle(spec32, make_directory(32), make_trace(), p);
       },
       [](const std::string& p) { load_churn_bundle(p); }},
  };
}

/// Saves the target, checks it loads, then loads 1000 mutations of it:
/// each must throw ron::Error.
void expect_mutations_throw_ron_error(const FuzzTarget& target) {
  constexpr std::size_t kMutationsPerKind = 1000;
  TempFile file(std::string("fuzz_") + target.name);
  target.save(file.path());
  const std::vector<char> original = slurp(file.path());
  ASSERT_GT(original.size(), 32u) << target.name;
  // Sanity: the unmutated snapshot loads.
  ASSERT_NO_THROW(target.load(file.path())) << target.name;

  Rng rng(20260726);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kMutationsPerKind; ++i) {
    dump(file.path(), mutate(original, rng));
    try {
      target.load(file.path());
      ++failures;
      ADD_FAILURE() << target.name << " mutation " << i
                    << " loaded successfully";
    } catch (const Error&) {
      // expected: every mutation must surface as ron::Error
    } catch (const std::exception& e) {
      ++failures;
      ADD_FAILURE() << target.name << " mutation " << i
                    << " threw non-ron::Error: " << e.what();
    }
    if (failures > 5) break;  // corrupt format: stop the flood
  }
}

TEST(SnapshotFuzz, RandomMutationsAlwaysThrowRonError) {
  LabelingFixture fx;
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    expect_mutations_throw_ron_error(target);
  }
}

// Deterministic cases the fuzzer covers only probabilistically: each header
// gate (magic, version, exact length) hit by name, mislabeled sections (a
// VALID file of another kind) and missing files. These pin the individual
// checks, so one cannot be dropped while the others keep the fuzzer green.
TEST(SnapshotCorruption, WrongMagicRejected) {
  LabelingFixture fx;
  TempFile file("magic");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[0] = 'X';
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

/// Overwrites the header version of a snapshot saved by `target` with
/// `version` and expects the load to throw ron::Error naming it.
void expect_version_rejected(const FuzzTarget& target,
                             std::uint32_t version) {
  TempFile file("version_" + std::to_string(version) + "_" + target.name);
  target.save(file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[8] = static_cast<char>(version);  // follows the 8-byte magic
  dump(file.path(), bytes);
  try {
    target.load(file.path());
    ADD_FAILURE() << target.name << " labeled v" << version << " loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version " + std::to_string(version) + ","),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rebuild the file from its recipe"),
              std::string::npos)
        << what;
  }
}

TEST(SnapshotCorruption, UnsupportedVersionRejected) {
  LabelingFixture fx;
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    expect_version_rejected(target, 99);
  }
}

TEST(SnapshotCorruption, VersionDowngradeFlipRejected) {
  // A current file whose version field is flipped to an older one must
  // not load: this build reads only kSnapshotVersion, so the header gate
  // refuses it, naming the version, before any payload parser runs. One
  // target per kind.
  LabelingFixture fx;
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    for (std::uint32_t version = 1; version < kSnapshotVersion; ++version) {
      expect_version_rejected(target, version);
    }
  }
}

TEST(SnapshotCorruption, KindRelabelFlipRejected) {
  // Same idea for the kind field: relabeling a rings file as a labeling
  // section fails the checksum even before the kind gate (which catches a
  // valid file of another kind, see WrongKindRejected).
  TempFile file("kindflip");
  save_rings(make_rings(8), file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[12] = 3;  // kind field: kRings -> kDistanceLabeling
  dump(file.path(), bytes);
  EXPECT_THROW(inspect_snapshot(file.path()), Error);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, TrailingGarbageRejected) {
  LabelingFixture fx;
  TempFile file("trailing");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes.push_back('\0');
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, WrongKindRejected) {
  TempFile rings_file("wrongkind");
  save_rings(make_rings(8), rings_file.path());
  EXPECT_THROW(load_labeling(rings_file.path()), Error);
  EXPECT_THROW(load_directory(rings_file.path()), Error);
  // ...but the generic inspector still reads its header.
  EXPECT_EQ(inspect_snapshot(rings_file.path()).kind, SnapshotKind::kRings);
}

TEST(SnapshotCorruption, RaisedNeighborSystemCountsRejectedBeforeReserve) {
  // The neighbor-system parser reserves n x levels entries before reading
  // them, and the checksum is only verified after the last byte. A header
  // whose node and level counts were raised (checksum recomputed, so only
  // the parser stands in the way) must fail naming the count, not reserve
  // hundreds of times the payload.
  LabelingFixture fx;
  TempFile file("nsys_counts");
  save_neighbor_system(fx.sys, file.path());
  std::vector<char> bytes = slurp(file.path());
  WireWriter spec_prefix;
  write_spec(spec_prefix, ScenarioSpec{});
  const std::size_t n_at = kSnapshotHeaderBytes + spec_prefix.size();
  const std::size_t levels_at = n_at + 8 + 8 + 3 * 8;  // n, delta, profile
  // The largest n the plain node-count check still accepts.
  const std::uint64_t n = (bytes.size() - n_at - 8) / 8;
  ASSERT_GT(n, fx.sys.prox().n());
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[n_at + i] = static_cast<char>(n >> (8 * i));
  }
  bytes[levels_at] = 64;
  restamp_checksum(bytes);
  dump(file.path(), bytes);
  const std::size_t payload = bytes.size() - kSnapshotHeaderBytes;
  const std::size_t largest = largest_allocation([&] {
    try {
      load_neighbor_system(file.path());
      ADD_FAILURE() << "raised counts loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("node count " + std::to_string(n)),
                std::string::npos)
          << e.what();
    }
  });
  EXPECT_LE(largest, std::max(payload, kIoBufferBytes));
  if (RON_TEST_ALLOCATION_PROBE) {
    EXPECT_GT(largest, 0u);
  }
}

TEST(SnapshotCorruption, MissingFileRejected) {
  EXPECT_THROW(load_labeling("/nonexistent/ron.snapshot"), Error);
}

TEST(Wire, ReaderCopiedOffAStreamThrowsAtItsWindowEnd) {
  // A WireStreamReader is a WireReader, so it can be copied into one by
  // value; the copy keeps the window and the unfetched count but not the
  // file, and must throw rather than read past the window.
  TempFile file("sliced");
  save_rings(make_rings(8), file.path());
  WireStreamReader stream(file.path());
  WireReader copy = stream;
  EXPECT_THROW(copy.u64(), Error);
  EXPECT_NO_THROW(stream.u64());
}

// --- golden snapshot fixtures ----------------------------------------------
//
// Committed files under tests/data/ pin the on-disk format: the reader
// must load them with their content intact, and they must resave to the
// committed bytes exactly, so any format change (or serialization that
// stops being canonical) fails here before it ships. The rings, directory
// and churn-bundle fixtures are built from literals (no RNG); the
// labeling and neighbor-system fixtures hold LabelingFixture(
// kGoldenLabelingN), and the oracle fixture holds its labeling pruned
// (save_oracle). A build reads only the format it
// writes, so a format bump regenerates all six with
//   RON_REGEN_GOLDEN=1 ./test_oracle --gtest_filter='Golden*'
// and EveryCommittedFixtureIsCurrent fails until that is done and the
// older files are deleted.

RingsOfNeighbors golden_rings() {
  RingsOfNeighbors rings(6);
  rings.add_ring(0, Ring{1.0, {1, 2}});
  rings.add_ring(0, Ring{2.5, {3, 4, 5}});
  rings.add_ring(1, Ring{0.5, {}});          // empty ring survives
  rings.add_ring(2, Ring{8.0, {5, 5, 0}});   // dedups to {0, 5}
  rings.add_ring(5, Ring{0.125, {0}});
  return rings;
}

/// The fixture specs exercise every spec wire field:
/// non-default delta, ring factors, the Y-only flag and a family parameter
/// (exact binary doubles, so the fixtures are platform-independent).
ScenarioSpec golden_rings_spec() {
  return ScenarioSpec::parse("metric=geoline,n=6,seed=3,base=1.25");
}

ScenarioSpec golden_directory_spec() {
  return ScenarioSpec::parse(
      "metric=geoline,n=10,seed=3,delta=0.375,overlay_seed=7,c_x=3,c_y=1.5,"
      "with_x=0,base=1.25");
}

ObjectDirectory golden_directory() {
  ObjectDirectory dir(10);
  dir.publish("alpha", std::vector<NodeId>{9, 1, 5});  // stored sorted
  dir.publish("beta", 0);
  dir.declare("empty");
  return dir;
}

std::string golden_path(const std::string& file) {
  return std::string(RON_TEST_DATA_DIR) + "/" + file;
}

void check_golden_rings(const RingsOfNeighbors& loaded) {
  const RingsOfNeighbors want = golden_rings();
  ASSERT_EQ(loaded.n(), want.n());
  for (NodeId u = 0; u < want.n(); ++u) {
    auto a = want.rings(u);
    auto b = loaded.rings(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

void check_golden_directory(const ObjectDirectory& loaded) {
  const ObjectDirectory want = golden_directory();
  ASSERT_EQ(loaded.n(), want.n());
  ASSERT_EQ(loaded.num_objects(), want.num_objects());
  for (ObjectId obj = 0; obj < want.num_objects(); ++obj) {
    EXPECT_EQ(loaded.name(obj), want.name(obj));
    const auto a = want.holders(obj);
    const auto b = loaded.holders(obj);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "object " << want.name(obj);
  }
}

constexpr std::size_t kGoldenLabelingN = 8;

void check_golden_labels(const DistanceLabeling& loaded,
                         const DistanceLabeling& want) {
  ASSERT_EQ(loaded.n(), want.n());
  EXPECT_EQ(loaded.psi_bits(), want.psi_bits());
  EXPECT_EQ(loaded.id_bits(), want.id_bits());
  EXPECT_EQ(loaded.codec().bits(), want.codec().bits());
  for (NodeId u = 0; u < want.n(); ++u) {
    EXPECT_EQ(loaded.label(u), want.label(u)) << "node " << u;
  }
}

/// The recipe embedded in the labeling, neighbor-system and oracle
/// fixtures (all hold LabelingFixture(kGoldenLabelingN)).
ScenarioSpec golden_labeling_spec() {
  return ScenarioSpec::parse("metric=euclid,n=8,seed=23");
}

/// The churn-bundle fixtures' recipe: the directory spec plus a churn
/// clause, so the reserved churn keys of the spec encoding are pinned too.
ScenarioSpec golden_churn_spec() {
  ScenarioSpec spec = golden_directory_spec();
  spec.churn_ops = 5;
  spec.churn_seed = 11;
  return spec;
}

/// A literal trace over golden_directory() (n = 10): every op kind, and a
/// name the initial directory does not hold.
ChurnTrace golden_trace() {
  ChurnTrace trace;
  trace.objects = {"alpha", "gamma"};
  trace.ops = {{ChurnOpKind::kLeave, 5, kInvalidObject},
               {ChurnOpKind::kPublish, 3, 0},
               {ChurnOpKind::kJoin, 5, kInvalidObject},
               {ChurnOpKind::kUnpublish, 3, 0},
               {ChurnOpKind::kPublish, 2, 1}};
  return trace;
}

/// Writes the fixture files when RON_REGEN_GOLDEN is set (a maintenance
/// mode, skipped in normal runs).
bool maybe_regen_golden() {
  if (std::getenv("RON_REGEN_GOLDEN") == nullptr) return false;
  save_rings(golden_rings(), golden_path("golden_rings_v3.snapshot"),
             golden_rings_spec());
  save_directory(golden_directory_spec(), golden_directory(),
                 golden_path("golden_directory_v3.snapshot"));
  const LabelingFixture fx(kGoldenLabelingN);
  save_labeling(fx.dls, golden_path("golden_labeling_v3.snapshot"),
                golden_labeling_spec());
  save_neighbor_system(fx.sys,
                       golden_path("golden_neighbor_system_v3.snapshot"),
                       golden_labeling_spec());
  save_oracle(golden_labeling_spec(), "random-cube", fx.dls,
              golden_path("golden_oracle_v3.snapshot"));
  save_churn_bundle(golden_churn_spec(), golden_directory(), golden_trace(),
                    golden_path("golden_churn_bundle_v3.snapshot"));
  return true;
}

/// Loads golden fixture `file`, which must carry the current version and
/// the golden content; the loaders below do the same for the other kinds.
RingsOfNeighbors load_golden_rings(const std::string& file) {
  ScenarioSpec spec;
  SnapshotInfo info;
  RingsOfNeighbors loaded = load_rings(golden_path(file), &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_rings_spec());
  check_golden_rings(loaded);
  return loaded;
}

LoadedDirectory load_golden_directory(const std::string& file) {
  SnapshotInfo info;
  LoadedDirectory loaded = load_directory(golden_path(file), &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_directory_spec());
  check_golden_directory(loaded.directory);
  return loaded;
}

DistanceLabeling load_golden_labeling(const std::string& file) {
  const LabelingFixture fx(kGoldenLabelingN);
  ScenarioSpec spec;
  SnapshotInfo info;
  DistanceLabeling loaded = load_labeling(golden_path(file), &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_labeling_spec());
  check_golden_labels(loaded, fx.dls);
  return loaded;
}

void check_golden_neighbor_system(const std::string& file,
                                  const NeighborSystem& want) {
  ScenarioSpec spec;
  SnapshotInfo info;
  const NeighborSystemSnapshot loaded =
      load_neighbor_system(golden_path(file), &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_labeling_spec());
  expect_same_neighbor_system(loaded, want);
}

LoadedOracle load_golden_oracle(const std::string& file) {
  const LabelingFixture fx(kGoldenLabelingN);
  SnapshotInfo info;
  LoadedOracle loaded = load_oracle(golden_path(file), &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_labeling_spec());
  EXPECT_EQ(loaded.metric_name, "random-cube");
  // save_oracle stores the labels pruned to what some decode reads.
  check_golden_labels(loaded.labeling, fx.dls.pruned());
  expect_same_answers(loaded.labeling, fx.dls);
  return loaded;
}

LoadedChurnBundle load_golden_churn_bundle(const std::string& file) {
  SnapshotInfo info;
  LoadedChurnBundle loaded = load_churn_bundle(golden_path(file), &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_churn_spec());
  check_golden_directory(loaded.initial);
  EXPECT_EQ(loaded.trace, golden_trace());
  return loaded;
}

/// Saves through `save` and expects the committed bytes of fixture `file`.
void expect_resaves_to(const std::string& file,
                       const std::function<void(const std::string&)>& save) {
  TempFile resaved("resave_" + file);
  save(resaved.path());
  EXPECT_EQ(slurp(resaved.path()), slurp(golden_path(file)))
      << "serialization is no longer canonical for " << file;
}

TEST(GoldenSnapshot, RingsV3LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const RingsOfNeighbors loaded =
      load_golden_rings("golden_rings_v3.snapshot");
  expect_resaves_to("golden_rings_v3.snapshot", [&](const std::string& p) {
    save_rings(loaded, p, golden_rings_spec());
  });
}

TEST(GoldenSnapshot, DirectoryV3LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LoadedDirectory loaded =
      load_golden_directory("golden_directory_v3.snapshot");
  expect_resaves_to("golden_directory_v3.snapshot", [&](const std::string& p) {
    save_directory(loaded.spec, loaded.directory, p);
  });
}

TEST(GoldenSnapshot, LabelingV3LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const DistanceLabeling loaded =
      load_golden_labeling("golden_labeling_v3.snapshot");
  expect_resaves_to("golden_labeling_v3.snapshot", [&](const std::string& p) {
    save_labeling(loaded, p, golden_labeling_spec());
  });
}

TEST(GoldenSnapshot, NeighborSystemV3LoadsAndResavesBitIdentically) {
  // Only a NeighborSystem can be saved, not the NeighborSystemSnapshot a
  // load returns, so the resave comes from the fixture the file was
  // written from.
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LabelingFixture fx(kGoldenLabelingN);
  check_golden_neighbor_system("golden_neighbor_system_v3.snapshot", fx.sys);
  expect_resaves_to("golden_neighbor_system_v3.snapshot",
                    [&](const std::string& p) {
                      save_neighbor_system(fx.sys, p, golden_labeling_spec());
                    });
}

TEST(GoldenSnapshot, OracleV3LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LoadedOracle loaded =
      load_golden_oracle("golden_oracle_v3.snapshot");
  expect_resaves_to("golden_oracle_v3.snapshot", [&](const std::string& p) {
    save_oracle(loaded.spec, loaded.metric_name, loaded.labeling, p);
  });
}

TEST(GoldenSnapshot, ChurnBundleV3LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LoadedChurnBundle loaded =
      load_golden_churn_bundle("golden_churn_bundle_v3.snapshot");
  expect_resaves_to("golden_churn_bundle_v3.snapshot",
                    [&](const std::string& p) {
                      save_churn_bundle(loaded.spec, loaded.initial,
                                        loaded.trace, p);
                    });
}

TEST(GoldenSnapshot, EveryCommittedFixtureIsCurrent) {
  // A build reads only the format it writes, so every committed fixture
  // must carry kSnapshotVersion and say so in its name, and every section
  // kind must have one. A format bump fails here until the fixtures are
  // regenerated (see maybe_regen_golden) and the older files deleted.
  const std::string suffix =
      "_v" + std::to_string(kSnapshotVersion) + ".snapshot";
  std::set<SnapshotKind> kinds;
  for (const auto& entry :
       std::filesystem::directory_iterator(RON_TEST_DATA_DIR)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.ends_with(suffix)) << name << " is not named *" << suffix;
    try {
      const SnapshotInfo info = inspect_snapshot(entry.path().string());
      EXPECT_EQ(info.version, kSnapshotVersion) << name;
      kinds.insert(info.kind);
    } catch (const Error& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  }
  EXPECT_EQ(kinds.size(), 6u) << "a section kind has no committed fixture";
}

// --- the label reader --------------------------------------------------------
//
// A labeling's zeta levels load as varint rows (write_label). Each case
// below patches a valid file and restamps the checksum, so only the reader
// stands in the way, and expects the load to fail naming the fault. Every
// case writes its own temp file: ctest runs the cases as concurrent
// processes.

/// Offsets in a labeling snapshot saved with `spec` whose label 0 has
/// `hosts` hosts: label 0's u64 level count and its first level's varint
/// entry count.
struct Label0Offsets {
  std::size_t levels_at;
  std::size_t level_at;
};

Label0Offsets label0_offsets(const ScenarioSpec& spec, std::size_t hosts) {
  WireWriter prefix;
  write_spec(prefix, spec);
  // codec (4 x u32 + f64), psi_bits, id_bits, n, then label 0's id, host
  // count and host distances.
  const std::size_t levels_at = kSnapshotHeaderBytes + prefix.size() + 24 +
                                3 * 8 + 4 + 8 + 8 * hosts;
  return {levels_at, levels_at + 8};
}

/// Writes `bytes` to `path` and expects load_labeling to throw ron::Error
/// naming `want`.
void expect_labeling_rejected(const std::string& path,
                              const std::vector<char>& bytes,
                              const std::string& want) {
  dump(path, bytes);
  try {
    load_labeling(path);
    ADD_FAILURE() << "patched labeling loaded (wanted '" << want << "')";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

/// A two-label labeling over three hosts each, whose label 0 carries one
/// zeta level of three entries, (x, y, z) = (0,1,2) (1,0,1) (1,2,0).
DistanceLabeling tiny_labeling() {
  const std::vector<DlsTriple> level = {{0, 1, 2}, {1, 0, 1}, {1, 2, 0}};
  std::vector<DlsLabel> labels(2);
  for (std::uint32_t u = 0; u < 2; ++u) {
    labels[u].id = u;
    labels[u].host_dist = {1.0, 2.0, 3.0};
    labels[u].zoom0 = 0;
  }
  labels[0].zeta = {DlsZeta::from_triples(level, 3)};
  return DistanceLabeling::from_parts(DistanceCodec(1.0, 10.0, 0.1), 2, 1,
                                      std::move(labels));
}

/// tiny_labeling()'s level as write_label writes it: the entry count 3;
/// row 0 of length 1 (y gap 1, z 2); row 1 of length 2 (gaps 0 and 2, z 1
/// and 0); row 2 of length 0.
const std::vector<std::uint8_t> kTinyLevel = {3, 1, 1, 2, 2, 0, 1, 2, 0, 0};

/// tiny_labeling() saved with its level's bytes replaced by `level` (the
/// header's payload length and checksum follow).
std::vector<char> tiny_labeling_with_level(
    const std::string& path, const std::vector<std::uint8_t>& level) {
  save_labeling(tiny_labeling(), path);
  std::vector<char> bytes = slurp(path);
  const std::size_t at = label0_offsets(ScenarioSpec{}, 3).level_at;
  const std::vector<char> saved(bytes.begin() + at,
                                bytes.begin() + at + kTinyLevel.size());
  EXPECT_EQ(saved, std::vector<char>(kTinyLevel.begin(), kTinyLevel.end()))
      << "the level encoding changed";
  splice_payload(bytes, at, kTinyLevel.size(), level);
  return bytes;
}

void expect_level_rejected(const std::string& tag,
                           const std::vector<std::uint8_t>& level,
                           const std::string& want) {
  TempFile file("zeta_" + tag);
  expect_labeling_rejected(file.path(),
                           tiny_labeling_with_level(file.path(), level), want);
}

TEST(SnapshotCorruption, ZetaRowsTinyLabelingLoadsUnpatched) {
  // The control for the cases below: the level spliced back in as it was
  // loads and decodes.
  TempFile file("zeta_control");
  dump(file.path(), tiny_labeling_with_level(file.path(), kTinyLevel));
  SnapshotInfo info;
  const DistanceLabeling dls = load_labeling(file.path(), nullptr, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(dls.label(0), tiny_labeling().label(0));
  EXPECT_EQ(DistanceLabeling::estimate(dls.label(0), dls.label(1)).upper,
            2.0);
}

TEST(SnapshotCorruption, ZetaRowsZAtOrAboveHostsRejected) {
  expect_level_rejected("z", {3, 1, 1, 3, 2, 0, 1, 2, 0, 0},
                        "zeta z=3 in row 0 at or above 3 hosts");
}

TEST(SnapshotCorruption, ZetaRowsPastTheEntryCountRejected) {
  // Row 1 claims three of the two entries left; then rows that sum to
  // fewer entries than the count promises.
  expect_level_rejected("rows_over", {3, 1, 1, 2, 3, 0, 1, 2, 0, 0},
                        "zeta rows run past the level's 3 entries");
  expect_level_rejected("rows_under", {4, 1, 1, 2, 2, 0, 1, 2, 0, 0},
                        "zeta rows hold 3 of the level's 4 entries");
}

TEST(SnapshotCorruption, ZetaRowsImplausibleEntryCountRejected) {
  // An entry count of 2^40, which the bytes left cannot back, is refused
  // before anything is sized from it.
  std::vector<std::uint8_t> level = {0x80, 0x80, 0x80, 0x80, 0x80, 0x20};
  level.insert(level.end(), kTinyLevel.begin() + 1, kTinyLevel.end());
  expect_level_rejected("count", level, "implausible zeta entry count");
}

TEST(SnapshotCorruption, ZetaRowsYPastU32Rejected) {
  // A first gap of 2^32, then a row whose gaps 1 and 2^32 - 1 sum past u32.
  expect_level_rejected(
      "y_first", {3, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 2, 2, 0, 1, 2, 0, 0},
      "zeta y past u32 in row 0");
  expect_level_rejected(
      "y_sum", {3, 1, 1, 2, 2, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0},
      "zeta y past u32 in row 1");
}

TEST(SnapshotCorruption, ZetaRowsLevelCountCapped) {
  // Every level holds one row offset per host however few entries it has,
  // so a raised level count is refused by structure (fewer than 32 levels
  // for u32 node ids), not only by the bytes left to back it. The
  // committed labeling has enough bytes left to back 32 level counts.
  TempFile file("zeta_levels");
  std::vector<char> bytes = slurp(golden_path("golden_labeling_v3.snapshot"));
  const LabelingFixture fx(kGoldenLabelingN);
  const DlsLabel& label = fx.dls.label(0);
  const std::size_t levels_at =
      label0_offsets(golden_labeling_spec(), label.host_dist.size())
          .levels_at;
  ASSERT_EQ(static_cast<std::size_t>(bytes[levels_at]), label.zeta.size());
  bytes[levels_at] = 32;
  restamp_checksum(bytes);
  expect_labeling_rejected(file.path(), bytes, "32 zeta levels");
}

TEST(SnapshotCorruption, ZetaRowsOverlongVarintRejected) {
  // The entry count 3 in eleven bytes, then in two.
  std::vector<std::uint8_t> eleven = {0x83};
  eleven.insert(eleven.end(), 9, 0x80);
  eleven.push_back(0x00);
  eleven.insert(eleven.end(), kTinyLevel.begin() + 1, kTinyLevel.end());
  expect_level_rejected("varint_11", eleven, "varint longer than 10 bytes");
  std::vector<std::uint8_t> padded = {0x83, 0x00};
  padded.insert(padded.end(), kTinyLevel.begin() + 1, kTinyLevel.end());
  expect_level_rejected("varint_padded", padded, "ends in a zero byte");
}

// --- engine ----------------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  static std::vector<QueryPair> random_pairs(std::size_t count, std::size_t n,
                                             std::uint64_t seed) {
    Rng rng(seed);
    return random_query_pairs(count, n, rng);
  }

  LabelingFixture fx_;
};

TEST_F(EngineTest, BatchMatchesSerialForEveryThreadCount) {
  const std::vector<QueryPair> pairs = random_pairs(500, fx_.dls.n(), 3);
  std::vector<Dist> expected;
  expected.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    expected.push_back(
        DistanceLabeling::estimate(fx_.dls.label(u), fx_.dls.label(v)).upper);
  }
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
      OracleEngine engine(fx_.dls, OracleOptions{threads, cache});
      EXPECT_EQ(engine.num_workers(), threads);
      const std::vector<Dist> got = engine.estimate_batch(pairs);
      EXPECT_EQ(got, expected) << threads << " threads, cache " << cache;
    }
  }
}

TEST_F(EngineTest, SingleQueryMatchesBatch) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = {{0, 5}, {7, 7}, {40, 3}};
  const std::vector<Dist> batch = engine.estimate_batch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(engine.estimate(pairs[i].first, pairs[i].second), batch[i]);
  }
  EXPECT_EQ(batch[1], 0.0);  // self pair
}

TEST_F(EngineTest, OutOfRangeIdsRejected) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = {
      {0, static_cast<NodeId>(fx_.dls.n())}};
  EXPECT_THROW(engine.estimate_batch(pairs), Error);
  EXPECT_THROW(engine.estimate(static_cast<NodeId>(fx_.dls.n()), 0), Error);
}

TEST_F(EngineTest, CacheHitsOnRepeatedQueries) {
  OracleEngine engine(fx_.dls, OracleOptions{4, 1024});
  const std::vector<QueryPair> pairs = random_pairs(200, fx_.dls.n(), 9);
  engine.estimate_batch(pairs);
  const EngineTotals first = engine.totals();
  const std::size_t first_hits = first.cache_hits;
  const std::vector<Dist> again = engine.estimate_batch(pairs);
  // Replay: every query hits (same shard, same key, capacity not exceeded).
  EXPECT_EQ((engine.totals() - first).cache_hits, pairs.size());
  std::vector<Dist> expected;
  for (const auto& [u, v] : pairs) {
    expected.push_back(
        DistanceLabeling::estimate(fx_.dls.label(u), fx_.dls.label(v)).upper);
  }
  EXPECT_EQ(again, expected);
  EXPECT_LT(first_hits, pairs.size());
}

TEST_F(EngineTest, SymmetricPairsShareCacheEntries) {
  // (u,v) and (v,u) have the same source shard only when u%W == v%W; use
  // one worker so the normalized key always lands in the same shard.
  OracleEngine engine(fx_.dls, OracleOptions{1, 64});
  const std::vector<QueryPair> forward = {{1, 2}, {3, 4}};
  const std::vector<QueryPair> reversed = {{2, 1}, {4, 3}};
  const std::vector<Dist> a = engine.estimate_batch(forward);
  const EngineTotals before = engine.totals();
  const std::vector<Dist> b = engine.estimate_batch(reversed);
  EXPECT_EQ((engine.totals() - before).cache_hits, reversed.size());
  EXPECT_EQ(a, b);
}

TEST_F(EngineTest, LruEvictsLeastRecentlyUsed) {
  // Capacity 2 on one worker: querying a third distinct pair evicts the
  // oldest; re-querying it then misses (no hit counted).
  OracleEngine engine(fx_.dls, OracleOptions{1, 2});
  auto run_one = [&](NodeId u, NodeId v) {
    const std::vector<QueryPair> one = {{u, v}};
    const EngineTotals before = engine.totals();
    engine.estimate_batch(one);
    return (engine.totals() - before).cache_hits;
  };
  EXPECT_EQ(run_one(0, 1), 0u);
  EXPECT_EQ(run_one(0, 2), 0u);
  EXPECT_EQ(run_one(0, 1), 1u);  // still cached, refreshes recency
  EXPECT_EQ(run_one(0, 3), 0u);  // evicts (0,2), the least recently used
  EXPECT_EQ(run_one(0, 2), 0u);  // miss: was evicted (this evicts (0,1))
  EXPECT_EQ(run_one(0, 3), 1u);  // survived both evictions
}

TEST_F(EngineTest, StatsAccumulate) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = random_pairs(100, fx_.dls.n(), 5);
  engine.estimate_batch(pairs);
  const EngineTotals first = engine.totals();
  engine.estimate_batch(pairs);
  const EngineTotals second = engine.totals() - first;
  EXPECT_EQ(second.queries, pairs.size());
  EXPECT_GT(second.qps(), 0.0);
  EXPECT_EQ(engine.totals().batches, 2u);
  EXPECT_EQ(engine.totals().queries, 2 * pairs.size());
  EXPECT_GT(engine.totals().seconds, 0.0);
}

TEST_F(EngineTest, SubTickBatchReportsPositiveQps) {
  // Regression: a batch that completes within one clock tick (elapsed 0ns
  // on a frozen FakeClock) used to report qps = 0.0 — a *fast* tiny batch
  // masquerading as zero throughput in bench JSON. Elapsed is clamped to
  // the clock's own 1ns resolution instead.
  FakeClock clock;
  OracleOptions opts;
  opts.num_threads = 1;
  opts.clock = &clock;
  OracleEngine engine(fx_.dls, opts);
  const std::vector<QueryPair> pairs = {{0, 1}, {2, 3}};
  engine.estimate_batch(pairs);
  const EngineTotals stats = engine.totals();
  EXPECT_EQ(stats.queries, pairs.size());
  EXPECT_DOUBLE_EQ(stats.seconds, 1e-9);
  EXPECT_DOUBLE_EQ(stats.qps(), static_cast<double>(pairs.size()) / 1e-9);
  // An honestly-empty batch still reports zero qps: 0 queries / clamped
  // time, not a fabricated throughput.
  const std::vector<QueryPair> none;
  engine.estimate_batch(none);
  EXPECT_DOUBLE_EQ((engine.totals() - stats).qps(), 0.0);
}

TEST_F(EngineTest, EmptyBatchIsFine) {
  OracleEngine engine(fx_.dls, OracleOptions{2, 0});
  const std::vector<QueryPair> none;
  EXPECT_TRUE(engine.estimate_batch(none).empty());
  EXPECT_EQ(engine.totals().queries, 0u);
}

TEST_F(EngineTest, AutoWorkerCountFollowsTheAffinityMask) {
  // num_threads = 0 sizes the pool from the CPUs this thread may run on,
  // like every other automatic count (common/parallel.h), not from the
  // host's core count: pinned to one CPU, the engine runs one worker.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &saved)) ++first_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first_cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  unsigned workers = 0;
  std::vector<Dist> got;
  {
    OracleEngine engine(fx_.dls, OracleOptions{0, 0});
    workers = engine.num_workers();
    const std::vector<QueryPair> pairs = {{0, 5}, {3, 9}};
    got = engine.estimate_batch(pairs);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(got.size(), 2u);
}

TEST(DistanceLabelingParts, UnsortedZetaRejected) {
  // The decoder finds a row by its offsets and a chain entry by binary
  // search on y; the level factory must reject triples out of (x, y) order
  // instead of letting estimates go silently wrong, and from_parts must
  // reject a level whose rows do not match its label's hosts.
  const std::vector<DlsTriple> unsorted = {DlsTriple{1, 0, 0},
                                           DlsTriple{0, 0, 1}};
  EXPECT_THROW(DlsZeta::from_triples(unsorted, 2), Error);

  DistanceCodec codec(1.0, 10.0, 0.1);
  std::vector<DlsLabel> labels(2);
  for (std::uint32_t u = 0; u < 2; ++u) {
    labels[u].id = u;
    labels[u].host_dist = {1.0, 2.0};
    labels[u].zoom0 = 0;
  }
  const std::vector<DlsTriple> sorted = {DlsTriple{0, 0, 1},
                                         DlsTriple{1, 0, 0}};
  labels[0].zeta = {DlsZeta::from_triples(sorted, 3)};  // 3 rows, 2 hosts
  EXPECT_THROW(
      DistanceLabeling::from_parts(codec, 1, 1, std::move(labels)), Error);
}

TEST(EngineErrors, WorkerExceptionSurfacesAsError) {
  // A label pair that passes per-label validation but trips walk_chain's
  // cross-label RON_CHECK (b's zoom0 exceeds a's host array): the throw
  // happens on a pool worker and must reach the dispatcher as ron::Error —
  // not std::terminate — leaving the engine usable.
  DistanceCodec codec(1.0, 10.0, 0.1);
  std::vector<DlsLabel> labels(2);
  labels[0].id = 0;
  labels[0].host_dist = {1.0};
  labels[0].zoom0 = 0;
  labels[1].id = 1;
  labels[1].host_dist = {1.0, 2.0, 3.0};
  labels[1].zoom0 = 2;  // valid for label 1, out of range for label 0
  OracleEngine engine(
      DistanceLabeling::from_parts(codec, 1, 1, std::move(labels)),
      OracleOptions{2, 0});
  const std::vector<QueryPair> bad = {{0, 1}};
  EXPECT_THROW(engine.estimate_batch(bad), Error);
  const std::vector<QueryPair> self = {{1, 1}};  // equal ids short-circuit
  EXPECT_EQ(engine.estimate_batch(self), std::vector<Dist>{0.0});
}

TEST_F(EngineTest, ServesLoadedSnapshotIdenticallyToBuilder) {
  TempFile file("engine");
  save_oracle(fixture_spec(), "euclid-48", fx_.dls, file.path());
  LoadedOracle loaded = load_oracle(file.path());
  OracleEngine built(fx_.dls, OracleOptions{2, 0});
  OracleEngine served(std::move(loaded.labeling), OracleOptions{2, 0});
  const std::vector<QueryPair> pairs = random_pairs(300, fx_.dls.n(), 11);
  EXPECT_EQ(built.estimate_batch(pairs), served.estimate_batch(pairs));
}

}  // namespace
}  // namespace ron
