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
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
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

namespace ron {
namespace {

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
  for (NodeId u = 0; u < fx.dls.n(); ++u) {
    EXPECT_EQ(loaded.labeling.label(u), fx.dls.label(u));
  }
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

/// Recomputes a snapshot file's header checksum in the domain of the
/// version its header names, so a test can hand the parser a crafted
/// header or payload that the checksum does not catch.
void restamp_checksum(std::vector<char>& bytes) {
  const std::span<const std::uint8_t> file(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  const std::span<const std::uint8_t> payload =
      file.subspan(kSnapshotHeaderBytes);
  WireReader header(file.subspan(sizeof(kSnapshotMagic), 8));
  const std::uint32_t version = header.u32();
  std::uint64_t sum = fnv1a64(payload);  // the v1 domain
  if (version != kSnapshotVersionV1) {
    WireWriter prefix;
    prefix.u32(version);
    prefix.u32(header.u32());  // kind
    sum = fnv1a64_continue(fnv1a64(prefix.bytes()), payload);
  }
  for (std::size_t i = 0; i < 8; ++i) {  // the header's last field
    bytes[kSnapshotHeaderBytes - 8 + i] = static_cast<char>(sum >> (8 * i));
  }
}

TEST(SnapshotChurnBundle, RefusesV1AndRecipeFreeSaves) {
  TempFile file("churn_bundle_bad");
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=32,seed=3");
  // v1 has no spec, hence no replayable recipe: a bundle labeled v1 is
  // refused even when its header is otherwise valid (v1 checksum domain).
  save_churn_bundle(spec, make_directory(32), make_trace(), file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[8] = static_cast<char>(kSnapshotVersionV1);
  restamp_checksum(bytes);
  dump(file.path(), bytes);
  EXPECT_EQ(inspect_snapshot(file.path()).version, kSnapshotVersionV1);
  EXPECT_THROW(load_churn_bundle(file.path()), Error);
  // And a family-less spec cannot rebuild anything either.
  EXPECT_THROW(save_churn_bundle(ScenarioSpec{}, make_directory(32),
                                 make_trace(), file.path()),
               Error);
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
  // Every target saves with a non-empty embedded spec (v2), so the fuzzer
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

TEST(SnapshotCorruption, UnsupportedVersionRejected) {
  LabelingFixture fx;
  TempFile file("version");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  bytes[8] = 99;  // version field follows the 8-byte magic
  dump(file.path(), bytes);
  EXPECT_THROW(load_labeling(file.path()), Error);
}

TEST(SnapshotCorruption, VersionDowngradeFlipRejected) {
  // A v2 file whose version field is flipped to 1 must NOT load as a v1
  // payload. The v1 parser may run over the v2 bytes, but the stored
  // checksum was computed in the v2 domain, which includes the version
  // field, so the load fails at the latest when the checksum is verified
  // after the last byte. One target per kind.
  LabelingFixture fx;
  const auto flip_version_to_v1 = [](const std::string& path) {
    std::vector<char> bytes = slurp(path);
    bytes[8] = 1;  // version field follows the 8-byte magic
    dump(path, bytes);
  };
  for (const FuzzTarget& target : fuzz_targets(fx)) {
    TempFile file(std::string("downgrade_") + target.name);
    target.save(file.path());
    flip_version_to_v1(file.path());
    EXPECT_THROW(target.load(file.path()), Error) << target.name;
  }
}

TEST(SnapshotCorruption, KindRelabelFlipRejected) {
  // Same idea for the kind field: relabeling a v2 rings file as a labeling
  // section fails the checksum even before the kind gate (in v1 the gate
  // alone had to catch it — and still does, see WrongKindRejected).
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
  try {
    load_neighbor_system(file.path());
    ADD_FAILURE() << "raised counts loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("node count " + std::to_string(n)),
              std::string::npos)
        << e.what();
  }
}

/// A two-label labeling saved to `path` whose label 0 carries one zeta
/// level of three triples over three hosts, (0,1,2) (1,0,1) (1,2,0).
/// Returns the file's bytes and the offset of that level's first triple.
std::pair<std::vector<char>, std::size_t> save_tiny_labeling(
    const std::string& path) {
  const std::vector<DlsTriple> level = {{0, 1, 2}, {1, 0, 1}, {1, 2, 0}};
  std::vector<DlsLabel> labels(2);
  for (std::uint32_t u = 0; u < 2; ++u) {
    labels[u].id = u;
    labels[u].host_dist = {1.0, 2.0, 3.0};
    labels[u].zoom0 = 0;
  }
  labels[0].zeta = {DlsZeta::from_triples(level, 3)};
  save_labeling(DistanceLabeling::from_parts(DistanceCodec(1.0, 10.0, 0.1),
                                             2, 1, std::move(labels)),
                path);
  std::vector<char> bytes = slurp(path);
  WireWriter pattern;  // the level as the wire carries it
  pattern.u64(level.size());
  for (const DlsTriple& t : level) {
    pattern.u32(t.x);
    pattern.u32(t.y);
    pattern.u32(t.z);
  }
  const auto at = std::search(bytes.begin(), bytes.end(),
                              pattern.bytes().begin(), pattern.bytes().end());
  EXPECT_NE(at, bytes.end());
  if (at == bytes.end()) return {bytes, bytes.size()};
  return {bytes, static_cast<std::size_t>(at - bytes.begin()) + 8};
}

/// Overwrites field `field` (0 x, 1 y, 2 z) of triple `k` with `value`,
/// restamps the checksum so only the parser stands in the way, and expects
/// the load to fail in the zeta level factory.
void expect_patched_zeta_rejected(std::size_t k, std::size_t field,
                                  std::uint32_t value) {
  // One file per case: ctest runs the cases as concurrent processes.
  TempFile file("zeta_patch_" + std::to_string(k) + "_" +
                std::to_string(field) + "_" + std::to_string(value));
  auto [bytes, triples_at] = save_tiny_labeling(file.path());
  const std::size_t at = triples_at + 12 * k + 4 * field;
  ASSERT_LE(at + 4, bytes.size());
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * i));
  }
  restamp_checksum(bytes);
  dump(file.path(), bytes);
  try {
    load_labeling(file.path());
    ADD_FAILURE() << "patched zeta loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("zeta: triple "), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCorruption, ZetaTinyLabelingLoadsUnpatched) {
  // The control for the three cases below: the same file, checksum
  // restamped but bytes untouched, loads and decodes.
  TempFile file("zeta_control");
  auto [bytes, triples_at] = save_tiny_labeling(file.path());
  restamp_checksum(bytes);
  dump(file.path(), bytes);
  const DistanceLabeling dls = load_labeling(file.path());
  EXPECT_EQ(dls.label(0).zeta.at(0).row(1).size(), 2u);
  EXPECT_EQ(DistanceLabeling::estimate(dls.label(0), dls.label(1)).upper,
            2.0);
}

TEST(SnapshotCorruption, ZetaDecreasingXRejected) {
  expect_patched_zeta_rejected(2, 0, 0);  // x: 0, 1, 0
}

TEST(SnapshotCorruption, ZetaDecreasingYWithinARowRejected) {
  expect_patched_zeta_rejected(1, 1, 3);  // row 1: y 3, then 2
}

TEST(SnapshotCorruption, ZetaIndexAtOrAboveHostsRejected) {
  expect_patched_zeta_rejected(2, 0, 3);  // x = hosts
  expect_patched_zeta_rejected(0, 2, 3);  // z = hosts
}

TEST(SnapshotCorruption, ZetaLevelCountCapped) {
  // Every level holds one row offset per host however few triples it has,
  // so a raised level count is refused by structure (fewer than 32 levels
  // for u32 node ids), not only by the bytes left to back it.
  LabelingFixture fx;
  TempFile file("zeta_levels");
  save_labeling(fx.dls, file.path());
  std::vector<char> bytes = slurp(file.path());
  WireWriter spec_prefix;
  write_spec(spec_prefix, ScenarioSpec{});
  // codec (4 x u32 + f64), psi_bits, id_bits, n, then label 0's id.
  const std::size_t hosts_at =
      kSnapshotHeaderBytes + spec_prefix.size() + 24 + 3 * 8 + 4;
  const std::size_t hosts = fx.dls.label(0).host_dist.size();
  ASSERT_EQ(static_cast<unsigned char>(bytes[hosts_at]), hosts);
  const std::size_t levels_at = hosts_at + 8 + 8 * hosts;
  ASSERT_EQ(static_cast<unsigned char>(bytes[levels_at]),
            fx.dls.label(0).zeta.size());
  bytes[levels_at] = 32;
  restamp_checksum(bytes);
  dump(file.path(), bytes);
  try {
    load_labeling(file.path());
    ADD_FAILURE() << "32 zeta levels loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("32 zeta levels"), std::string::npos)
        << e.what();
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
// Committed files under tests/data/ pin the on-disk format: today's reader
// must load them with their content intact. The v2 files must also resave
// to the committed bytes exactly, so any format change that breaks old
// snapshots (or makes serialization non-canonical) fails here before it
// ships. The v2 rings, directory and churn-bundle fixtures are built from
// literals (no RNG); the v2 labeling, neighbor-system and oracle fixtures
// hold LabelingFixture(kGoldenLabelingN), like their v1 counterparts. All
// six are regenerated by
//   RON_REGEN_GOLDEN=1 ./test_oracle --gtest_filter='Golden*'
// The v1 files are frozen: nothing writes v1 any more. The v1 labeling,
// neighbor-system and oracle fixtures hold LabelingFixture(kGoldenLabelingN),
// and the oracle's v1 meta names it "random-cube", n = 8, seed 23, delta 0.25.

RingsOfNeighbors golden_rings() {
  RingsOfNeighbors rings(6);
  rings.add_ring(0, Ring{1.0, {1, 2}});
  rings.add_ring(0, Ring{2.5, {3, 4, 5}});
  rings.add_ring(1, Ring{0.5, {}});          // empty ring survives
  rings.add_ring(2, Ring{8.0, {5, 5, 0}});   // dedups to {0, 5}
  rings.add_ring(5, Ring{0.125, {0}});
  return rings;
}

/// The spec a loaded v1 directory fixture must synthesize (the old
/// LocationMeta {"geoline", 10, 3, 7} translated field by field).
ScenarioSpec golden_directory_spec_v1() {
  return ScenarioSpec::parse("metric=geoline,n=10,seed=3,overlay_seed=7");
}

/// v2 fixture specs exercise every spec wire field: non-default delta,
/// ring factors, the Y-only flag and a family parameter (exact binary
/// doubles, so the fixtures are platform-independent).
ScenarioSpec golden_rings_spec_v2() {
  return ScenarioSpec::parse("metric=geoline,n=6,seed=3,base=1.25");
}

ScenarioSpec golden_directory_spec_v2() {
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

/// The recipe embedded in the v2 labeling, neighbor-system and oracle
/// fixtures (all hold LabelingFixture(kGoldenLabelingN)).
ScenarioSpec golden_labeling_spec_v2() {
  return ScenarioSpec::parse("metric=euclid,n=8,seed=23");
}

/// The churn-bundle fixture's recipe: the v2 directory spec plus a churn
/// clause, so the reserved churn keys of the spec encoding are pinned too.
ScenarioSpec golden_churn_spec_v2() {
  ScenarioSpec spec = golden_directory_spec_v2();
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

/// Writes the v2 fixture files when RON_REGEN_GOLDEN is set (a maintenance
/// mode, skipped in normal runs). The v1 files are never rewritten.
bool maybe_regen_golden() {
  if (std::getenv("RON_REGEN_GOLDEN") == nullptr) return false;
  save_rings(golden_rings(), golden_path("golden_rings_v2.snapshot"),
             golden_rings_spec_v2());
  save_directory(golden_directory_spec_v2(), golden_directory(),
                 golden_path("golden_directory_v2.snapshot"));
  const LabelingFixture fx(kGoldenLabelingN);
  save_labeling(fx.dls, golden_path("golden_labeling_v2.snapshot"),
                golden_labeling_spec_v2());
  save_neighbor_system(fx.sys,
                       golden_path("golden_neighbor_system_v2.snapshot"),
                       golden_labeling_spec_v2());
  save_oracle(golden_labeling_spec_v2(), "random-cube", fx.dls,
              golden_path("golden_oracle_v2.snapshot"));
  save_churn_bundle(golden_churn_spec_v2(), golden_directory(),
                    golden_trace(),
                    golden_path("golden_churn_bundle_v2.snapshot"));
  return true;
}

TEST(GoldenSnapshot, RingsV1Loads) {
  const std::string path = golden_path("golden_rings_v1.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const RingsOfNeighbors loaded = load_rings(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_TRUE(spec.family.empty()) << "v1 rings carry no recipe";
  check_golden_rings(loaded);
}

TEST(GoldenSnapshot, DirectoryV1Loads) {
  SnapshotInfo info;
  const LoadedDirectory loaded =
      load_directory(golden_path("golden_directory_v1.snapshot"), &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_EQ(loaded.spec, golden_directory_spec_v1());
  check_golden_directory(loaded.directory);
}

TEST(GoldenSnapshot, OracleV1Loads) {
  // The v1 oracle meta cannot carry a family: the loaded spec keeps only
  // n/seed/delta, next to the display name.
  const LabelingFixture fx(kGoldenLabelingN);
  SnapshotInfo info;
  const LoadedOracle loaded =
      load_oracle(golden_path("golden_oracle_v1.snapshot"), &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_EQ(info.kind, SnapshotKind::kOracle);
  EXPECT_TRUE(loaded.spec.family.empty());
  EXPECT_EQ(loaded.spec.n, kGoldenLabelingN);
  EXPECT_EQ(loaded.spec.seed, 23u);
  EXPECT_EQ(loaded.spec.delta, 0.25);
  EXPECT_EQ(loaded.metric_name, "random-cube");
  check_golden_labels(loaded.labeling, fx.dls);
}

TEST(GoldenSnapshot, LabelingV1Loads) {
  const LabelingFixture fx(kGoldenLabelingN);
  ScenarioSpec spec;
  SnapshotInfo info;
  const DistanceLabeling loaded =
      load_labeling(golden_path("golden_labeling_v1.snapshot"), &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_TRUE(spec.family.empty()) << "v1 labelings carry no recipe";
  check_golden_labels(loaded, fx.dls);
}

TEST(GoldenSnapshot, NeighborSystemV1Loads) {
  const LabelingFixture fx(kGoldenLabelingN);
  ScenarioSpec spec;
  SnapshotInfo info;
  const NeighborSystemSnapshot loaded = load_neighbor_system(
      golden_path("golden_neighbor_system_v1.snapshot"), &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersionV1);
  EXPECT_TRUE(spec.family.empty()) << "v1 neighbor systems carry no recipe";
  expect_same_neighbor_system(loaded, fx.sys);
}

TEST(SnapshotFuzz, V1FixtureMutationsAlwaysThrowRonError) {
  // The v1 parsers read bytes before the checksum has checked them, like
  // the v2 ones; the committed fixtures are their only inputs.
  const auto fixture = [](const char* name, const char* file,
                          std::function<void(const std::string&)> load) {
    return FuzzTarget{name,
                      [file](const std::string& p) {
                        dump(p, slurp(golden_path(file)));
                      },
                      std::move(load)};
  };
  const FuzzTarget targets[] = {
      fixture("rings_v1", "golden_rings_v1.snapshot",
              [](const std::string& p) { load_rings(p); }),
      fixture("directory_v1", "golden_directory_v1.snapshot",
              [](const std::string& p) { load_directory(p); }),
      fixture("oracle_v1", "golden_oracle_v1.snapshot",
              [](const std::string& p) { load_oracle(p); }),
      fixture("labeling_v1", "golden_labeling_v1.snapshot",
              [](const std::string& p) { load_labeling(p); }),
      fixture("neighbor_system_v1", "golden_neighbor_system_v1.snapshot",
              [](const std::string& p) { load_neighbor_system(p); }),
  };
  for (const FuzzTarget& target : targets) {
    expect_mutations_throw_ron_error(target);
  }
}

TEST(GoldenSnapshot, RingsV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_rings_v2.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const RingsOfNeighbors loaded = load_rings(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_rings_spec_v2());
  check_golden_rings(loaded);
  TempFile resaved("golden_rings_v2");
  save_rings(loaded, resaved.path(), spec);
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 rings fixture";
}

TEST(GoldenSnapshot, DirectoryV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_directory_v2.snapshot");
  SnapshotInfo info;
  const LoadedDirectory loaded = load_directory(path, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_directory_spec_v2());
  check_golden_directory(loaded.directory);
  TempFile resaved("golden_dir_v2");
  save_directory(loaded.spec, loaded.directory, resaved.path());
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 directory fixture";
}

TEST(GoldenSnapshot, LabelingV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LabelingFixture fx(kGoldenLabelingN);
  const std::string path = golden_path("golden_labeling_v2.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const DistanceLabeling loaded = load_labeling(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_labeling_spec_v2());
  check_golden_labels(loaded, fx.dls);
  TempFile resaved("golden_labeling_v2");
  save_labeling(loaded, resaved.path(), spec);
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 labeling fixture";
}

TEST(GoldenSnapshot, NeighborSystemV2LoadsAndResavesBitIdentically) {
  // Only a NeighborSystem can be saved, not the NeighborSystemSnapshot a
  // load returns, so the resave comes from the fixture the file was
  // written from.
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LabelingFixture fx(kGoldenLabelingN);
  const std::string path = golden_path("golden_neighbor_system_v2.snapshot");
  ScenarioSpec spec;
  SnapshotInfo info;
  const NeighborSystemSnapshot loaded =
      load_neighbor_system(path, &spec, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(spec, golden_labeling_spec_v2());
  expect_same_neighbor_system(loaded, fx.sys);
  TempFile resaved("golden_nsys_v2");
  save_neighbor_system(fx.sys, resaved.path(), spec);
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 neighbor system "
         "fixture";
}

TEST(GoldenSnapshot, OracleV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const LabelingFixture fx(kGoldenLabelingN);
  const std::string path = golden_path("golden_oracle_v2.snapshot");
  SnapshotInfo info;
  const LoadedOracle loaded = load_oracle(path, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_labeling_spec_v2());
  EXPECT_EQ(loaded.metric_name, "random-cube");
  check_golden_labels(loaded.labeling, fx.dls);
  TempFile resaved("golden_oracle_v2");
  save_oracle(loaded.spec, loaded.metric_name, loaded.labeling,
              resaved.path());
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 oracle fixture";
}

TEST(GoldenSnapshot, ChurnBundleV2LoadsAndResavesBitIdentically) {
  if (maybe_regen_golden()) GTEST_SKIP() << "regenerated fixtures";
  const std::string path = golden_path("golden_churn_bundle_v2.snapshot");
  SnapshotInfo info;
  const LoadedChurnBundle loaded = load_churn_bundle(path, &info);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(loaded.spec, golden_churn_spec_v2());
  check_golden_directory(loaded.initial);
  EXPECT_EQ(loaded.trace, golden_trace());
  TempFile resaved("golden_churn_v2");
  save_churn_bundle(loaded.spec, loaded.initial, loaded.trace,
                    resaved.path());
  EXPECT_EQ(slurp(resaved.path()), slurp(path))
      << "serialization is no longer canonical for the v2 churn bundle "
         "fixture";
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
