// Tests for the object-location subsystem: ObjectDirectory semantics,
// LocationService walk invariants (nearest-copy delivery, the Theorem
// 5.2(a) hop bound and the a-priori route-stretch bound) across all three
// bundled metric families and multiple seeds, the Y-only degradation
// regression, the directory snapshot round trip, and the engine's batched
// locate path (bit-identical to serial, cached, validated).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/location_service.h"
#include "location/object_directory.h"
#include "metric/clustered.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"
#include "oracle/engine.h"
#include "oracle/snapshot.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_location_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- ObjectDirectory -------------------------------------------------------

TEST(ObjectDirectory, PublishDedupsAndSortsHolders) {
  ObjectDirectory dir(16);
  const ObjectId obj = dir.publish("alpha", 9);
  EXPECT_EQ(dir.publish("alpha", 2), obj);
  EXPECT_EQ(dir.publish("alpha", 9), obj);  // duplicate: no-op
  EXPECT_EQ(dir.publish("alpha", 5), obj);
  ASSERT_EQ(dir.num_objects(), 1u);
  EXPECT_EQ(dir.total_replicas(), 3u);
  const std::vector<NodeId> want = {2, 5, 9};
  EXPECT_TRUE(std::equal(want.begin(), want.end(),
                         dir.holders(obj).begin(), dir.holders(obj).end()));
  EXPECT_TRUE(dir.is_holder(obj, 5));
  EXPECT_FALSE(dir.is_holder(obj, 3));
}

TEST(ObjectDirectory, IdsAreDenseInInsertionOrder) {
  ObjectDirectory dir(8);
  EXPECT_EQ(dir.publish("a", 0), 0u);
  EXPECT_EQ(dir.publish("b", 1), 1u);
  EXPECT_EQ(dir.declare("c"), 2u);
  EXPECT_EQ(dir.find("b"), 1u);
  EXPECT_EQ(dir.find("nope"), kInvalidObject);
  EXPECT_EQ(dir.name(2), "c");
  EXPECT_TRUE(dir.holders(2).empty());
}

TEST(ObjectDirectory, PublishRandomDrawsDistinctHolders) {
  ObjectDirectory dir(32);
  Rng rng(5);
  const ObjectId obj = dir.publish_random("blob", 10, rng);
  const auto hs = dir.holders(obj);
  EXPECT_EQ(hs.size(), 10u);  // distinct by construction
  EXPECT_TRUE(std::is_sorted(hs.begin(), hs.end()));
  EXPECT_THROW(dir.publish_random("huge", 33, rng), Error);
}

TEST(ObjectDirectory, UnpublishRemovesCopiesButKeepsTheObject) {
  ObjectDirectory dir(8);
  dir.publish("a", std::vector<NodeId>{1, 3, 5});
  EXPECT_TRUE(dir.unpublish("a", 3));
  EXPECT_FALSE(dir.unpublish("a", 3));  // already gone
  EXPECT_FALSE(dir.unpublish("ghost", 1));
  EXPECT_EQ(dir.total_replicas(), 2u);
  EXPECT_EQ(dir.unpublish_all("a"), 2u);
  EXPECT_EQ(dir.total_replicas(), 0u);
  EXPECT_NE(dir.find("a"), kInvalidObject);  // still resolvable
  EXPECT_TRUE(dir.holders(dir.find("a")).empty());
}

TEST(ObjectDirectory, UnpublishHolderStripsEveryObjectAtTheNode) {
  // The churn layer's leave(node) hook: all copies at one node vanish in a
  // single call, other holders are untouched, and accounting stays exact.
  ObjectDirectory dir(8);
  dir.publish("a", std::vector<NodeId>{1, 3, 5});
  dir.publish("b", std::vector<NodeId>{3});
  dir.publish("c", std::vector<NodeId>{2, 4});
  EXPECT_EQ(dir.unpublish_holder(3), 2u);
  EXPECT_EQ(dir.total_replicas(), 4u);
  EXPECT_FALSE(dir.is_holder(dir.find("a"), 3));
  EXPECT_TRUE(dir.holders(dir.find("b")).empty());  // zero-holder: defined
  EXPECT_EQ(dir.holders(dir.find("c")).size(), 2u);
  EXPECT_EQ(dir.unpublish_holder(3), 0u);  // idempotent
  EXPECT_THROW(dir.unpublish_holder(8), Error);
}

TEST(ObjectDirectory, RejectsBadArguments) {
  ObjectDirectory dir(4);
  EXPECT_THROW(dir.publish("", 0), Error);       // empty name
  EXPECT_THROW(dir.publish("x", 4), Error);      // holder out of range
  EXPECT_THROW(dir.holders(0), Error);           // no objects yet
  dir.publish("x", 0);
  EXPECT_THROW(dir.holders(1), Error);           // object id out of range
}

// --- LocationService invariants across metrics and seeds -------------------

std::unique_ptr<MetricSpace> make_test_metric(const std::string& kind,
                                              std::uint64_t seed) {
  if (kind == "geoline") {
    return std::make_unique<GeometricLineMetric>(96, 1.4);
  }
  if (kind == "clustered") {
    ClusteredParams p;
    p.clusters = 6;
    p.per_cluster = 16;
    return std::make_unique<EuclideanMetric>(clustered_metric(p, seed));
  }
  return std::make_unique<EuclideanMetric>(random_cube_metric(96, 2, seed));
}

/// The paper-bound invariants asserted for one (metric, seed) universe:
/// every locate must deliver the true nearest copy within the Theorem
/// 5.2(a) hop bound, with route stretch within the greedy a-priori bound.
void check_invariants(const std::string& kind, std::uint64_t seed) {
  SCOPED_TRACE(kind + " seed " + std::to_string(seed));
  auto metric = make_test_metric(kind, seed);
  DenseProximityIndex prox(*metric);
  LocationOverlay overlay(prox, RingsModelParams{}, seed + 100);
  ObjectDirectory dir(prox.n());
  Rng rng(seed);
  for (std::size_t k = 0; k < 12; ++k) {
    dir.publish_random("obj" + std::to_string(k), 1 + k % 3, rng);
  }
  LocationService svc(prox, overlay.rings(), dir);
  const std::size_t hop_bound = location_hop_bound(prox.n());

  for (std::size_t q = 0; q < 200; ++q) {
    const NodeId querier = static_cast<NodeId>(rng.index(prox.n()));
    const ObjectId obj =
        static_cast<ObjectId>(rng.index(dir.num_objects()));
    const LocateResult r = svc.locate(querier, obj);
    ASSERT_TRUE(r.found) << "querier " << querier << " object " << obj;
    // True nearest copy: same distance as the exact nearest holder (ids may
    // tie, distances may not differ).
    EXPECT_EQ(r.holder_dist, r.nearest_dist);
    EXPECT_EQ(r.distance_stretch, 1.0);
    EXPECT_TRUE(dir.is_holder(obj, r.holder));
    EXPECT_LE(r.hops, hop_bound);
    EXPECT_LE(r.route_stretch,
              location_stretch_bound(r.hops) * (1.0 + 1e-12));
    if (dir.is_holder(obj, querier)) {
      EXPECT_EQ(r.hops, 0u);
      EXPECT_EQ(r.route_stretch, 1.0);
    }
  }
}

TEST(LocationInvariants, GeolineAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) check_invariants("geoline", seed);
}

TEST(LocationInvariants, ClusteredAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) check_invariants("clustered", seed);
}

TEST(LocationInvariants, EuclidAcrossSeeds) {
  for (std::uint64_t seed : {1, 2, 3}) check_invariants("euclid", seed);
}

TEST(LocationService, QuerierHoldingACopyIsZeroHops) {
  GeometricLineMetric metric(32, 1.5);
  DenseProximityIndex prox(metric);
  LocationOverlay overlay(prox, RingsModelParams{}, 9);
  ObjectDirectory dir(32);
  dir.publish("x", 7);
  LocationService svc(prox, overlay.rings(), dir);
  const LocateResult r = svc.locate(7, dir.find("x"));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.holder, 7u);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.nearest_dist, 0.0);
  EXPECT_EQ(r.route_stretch, 1.0);
}

TEST(LocationService, ZeroHolderObjectThrowsNamingIt) {
  // The zero-holder contract (object_directory.h): a live name whose every
  // copy is unpublished stays resolvable, but locate throws ron::Error
  // naming the object — churn makes this state routine, and a silent
  // found=false would masquerade as a routing failure.
  GeometricLineMetric metric(32, 1.5);
  DenseProximityIndex prox(metric);
  LocationOverlay overlay(prox, RingsModelParams{}, 9);
  ObjectDirectory dir(32);
  dir.declare("ghost");
  dir.publish("drained", std::vector<NodeId>{4, 7});
  dir.unpublish_all("drained");
  LocationService svc(prox, overlay.rings(), dir);
  for (const char* name : {"ghost", "drained"}) {
    try {
      svc.locate(0, dir.find(name));
      FAIL() << name << " should have thrown";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << "error must name the object: " << e.what();
    }
  }
  EXPECT_THROW(svc.locate(0, "never-published"), Error);
  EXPECT_THROW(svc.locate(32, dir.find("ghost")), Error);  // bad querier
}

TEST(EngineLocate, ZeroHolderObjectThrowsThroughTheBatchPath) {
  // The engine's worker pool must surface the zero-holder error as
  // ron::Error on the dispatcher thread, for any worker count.
  GeometricLineMetric metric(32, 1.5);
  DenseProximityIndex prox(metric);
  LocationOverlay overlay(prox, RingsModelParams{}, 9);
  ObjectDirectory dir(32);
  dir.publish("ok", 5);
  dir.publish("drained", 9);
  dir.unpublish_all("drained");
  auto epoch = std::make_shared<LocationEpoch>();
  epoch->service =
      std::make_shared<const LocationService>(prox, overlay.rings(), dir);
  for (unsigned threads : {1u, 4u}) {
    OracleEngine engine(epoch, OracleOptions{threads, 0});
    const std::vector<LocateQuery> good = {{0, dir.find("ok")}};
    EXPECT_TRUE(engine.locate_batch(good)[0].found);
    const std::vector<LocateQuery> bad = {{0, dir.find("ok")},
                                          {1, dir.find("drained")}};
    EXPECT_THROW(engine.locate_batch(bad), Error);
    EXPECT_THROW(engine.locate(0, dir.find("drained")), Error);
  }
}

TEST(LocationService, StopAtAnyHolderReportsTheFartherReplica) {
  // Crafted geometry where the greedy path to the nearest copy passes
  // through a holder that is FARTHER from the querier than the target:
  //   querier Q=(0,0), nearest holder T=(10,0), holder H=(9.8,5)
  //   d(Q,T)=10 < d(Q,H)~=11.00, but d(H,T)~=5.00 < 10, so Q -> H is a
  //   valid strict-progress greedy step toward T.
  EuclideanMetric metric({0.0, 0.0, 10.0, 0.0, 9.8, 5.0}, 2);
  DenseProximityIndex prox(metric);
  RingsOfNeighbors rings(3);
  rings.add_ring(0, Ring{1.0, {2}});  // Q's only contact is H
  rings.add_ring(2, Ring{1.0, {1}});  // H's only contact is T
  ObjectDirectory dir(3);
  dir.publish("x", std::vector<NodeId>{1, 2});
  LocationService svc(prox, rings, dir);

  const LocateResult exact = svc.locate(0, dir.find("x"));
  EXPECT_TRUE(exact.found);
  EXPECT_EQ(exact.holder, 1u);  // walks through H to the true nearest copy
  EXPECT_EQ(exact.hops, 2u);
  EXPECT_EQ(exact.distance_stretch, 1.0);

  LocateOptions opts;
  opts.stop_at_any_holder = true;
  const LocateResult early = svc.locate(0, dir.find("x"), opts);
  EXPECT_TRUE(early.found);
  EXPECT_EQ(early.holder, 2u);  // stops at the replica it brushes past
  EXPECT_EQ(early.hops, 1u);
  EXPECT_GT(early.distance_stretch, 1.0);  // farther than the nearest copy
  EXPECT_EQ(early.nearest_dist, exact.nearest_dist);
  EXPECT_LE(early.route_stretch,
            location_stretch_bound(early.hops) * (1.0 + 1e-12));
}

TEST(LocationService, MaxHopsCutsTheWalkOff) {
  GeometricLineMetric metric(64, 1.5);
  DenseProximityIndex prox(metric);
  LocationOverlay overlay(prox, RingsModelParams{}, 9);
  ObjectDirectory dir(64);
  dir.publish("far", 63);
  LocationService svc(prox, overlay.rings(), dir);
  LocateOptions opts;
  opts.max_hops = 0;
  const LocateResult r = svc.locate(0, dir.find("far"), opts);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.hops, 0u);
}

// The example's claim as a regression test: on the geometric line the
// Y-only foil needs strictly more hops than X+Y rings to reach far-away
// single copies (Θ(log Δ) vs O(log n)).
TEST(LocationFoil, YOnlyDegradesOnTheGeometricLine) {
  const std::size_t n = 256;
  GeometricLineMetric metric(n, 1.5);
  DenseProximityIndex prox(metric);
  RingsModelParams y_only;
  y_only.with_x = false;
  LocationOverlay xy(prox, RingsModelParams{}, 11);
  LocationOverlay yo(xy.measure(), y_only, 11);  // shares the nets+measure
  ObjectDirectory dir(n);
  // Single copies at far-away peers, looked up from peer 0 (the example's
  // scenario — the walk has to cross the super-polynomial aspect ratio).
  const std::vector<NodeId> holders = {
      static_cast<NodeId>(n - 1), static_cast<NodeId>(n / 2),
      static_cast<NodeId>(n / 3), static_cast<NodeId>(7 * n / 8)};
  for (std::size_t k = 0; k < holders.size(); ++k) {
    dir.publish("far" + std::to_string(k), holders[k]);
  }
  LocationService svc_xy(prox, xy.rings(), dir);
  LocationService svc_yo(prox, yo.rings(), dir);
  // Random queriers, like the example's 500-lookup aggregate (lookups from
  // one fixed peer can be trivially short for both overlays).
  Rng rng(3);
  std::size_t hops_xy = 0;
  std::size_t hops_yo = 0;
  for (std::size_t q = 0; q < 200; ++q) {
    const NodeId querier = static_cast<NodeId>(rng.index(n));
    const ObjectId obj =
        static_cast<ObjectId>(rng.index(dir.num_objects()));
    const LocateResult fast = svc_xy.locate(querier, obj);
    const LocateResult slow = svc_yo.locate(querier, obj);
    ASSERT_TRUE(fast.found);
    ASSERT_TRUE(slow.found);
    EXPECT_LE(fast.hops, location_hop_bound(n));
    hops_xy += fast.hops;
    hops_yo += slow.hops;
  }
  // Strict separation, with headroom so seed drift cannot flake the suite:
  // at n=256 / base 1.5 the measured gap is ~2.9x (example's aggregate).
  EXPECT_GT(static_cast<double>(hops_yo),
            1.5 * static_cast<double>(hops_xy))
      << "Y-only " << hops_yo << " hops vs X+Y " << hops_xy;
}

// --- directory snapshots ---------------------------------------------------

TEST(SnapshotDirectory, RoundTripIsLossless) {
  ObjectDirectory dir(20);
  dir.publish("alpha", std::vector<NodeId>{3, 1, 19});
  dir.publish("beta", 0);
  dir.declare("empty");  // zero holders must survive the round trip
  Rng rng(13);
  dir.publish_random("gamma", 5, rng);
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=20,seed=3,overlay_seed=7");
  TempFile file("dir");
  save_directory(spec, dir, file.path());

  const SnapshotInfo info = inspect_snapshot(file.path());
  EXPECT_EQ(info.kind, SnapshotKind::kObjectDirectory);
  const LoadedDirectory loaded = load_directory(file.path());
  EXPECT_EQ(loaded.spec, spec);
  ASSERT_EQ(loaded.directory.n(), dir.n());
  ASSERT_EQ(loaded.directory.num_objects(), dir.num_objects());
  EXPECT_EQ(loaded.directory.total_replicas(), dir.total_replicas());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    EXPECT_EQ(loaded.directory.name(obj), dir.name(obj));
    const auto a = dir.holders(obj);
    const auto b = loaded.directory.holders(obj);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(SnapshotDirectory, MismatchedSpecRejectedOnSave) {
  ObjectDirectory dir(10);
  dir.publish("a", 0);
  TempFile file("dirbad");
  EXPECT_THROW(
      save_directory(ScenarioSpec::parse("metric=geoline,n=11,seed=0"), dir,
                     file.path()),
      Error);
}

TEST(SnapshotDirectory, WrongKindRejected) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=geoline,n=4,seed=0");
  ObjectDirectory dir(4);
  dir.publish("a", 2);
  TempFile file("dirkind");
  save_directory(spec, dir, file.path());
  EXPECT_THROW(load_labeling(file.path()), Error);
  EXPECT_THROW(load_oracle(file.path()), Error);
}

// --- engine locate path ----------------------------------------------------

struct LocateEngineFixture {
  LocateEngineFixture()
      : metric(random_cube_metric(64, 2, 31)),
        prox(metric),
        overlay(prox, RingsModelParams{}, 17),
        dir(prox.n()) {
    Rng rng(23);
    for (std::size_t k = 0; k < 8; ++k) {
      dir.publish_random("obj" + std::to_string(k), 2, rng);
    }
    svc = std::make_shared<const LocationService>(prox, overlay.rings(), dir);
    auto e = std::make_shared<LocationEpoch>();
    e->service = svc;
    epoch = std::move(e);
  }

  std::vector<LocateQuery> random_queries(std::size_t count,
                                          std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<LocateQuery> qs(count);
    for (auto& q : qs) {
      q = {static_cast<NodeId>(rng.index(prox.n())),
           static_cast<ObjectId>(rng.index(dir.num_objects()))};
    }
    return qs;
  }

  EuclideanMetric metric;
  DenseProximityIndex prox;
  LocationOverlay overlay;
  ObjectDirectory dir;
  std::shared_ptr<const LocationService> svc;
  // Serves `svc`; the fixture owns the index, rings and directory.
  std::shared_ptr<const LocationEpoch> epoch;
};

TEST(EngineLocate, BatchMatchesSerialForEveryThreadCount) {
  LocateEngineFixture fx;
  const std::vector<LocateQuery> queries = fx.random_queries(300, 3);
  std::vector<LocateResult> expected;
  expected.reserve(queries.size());
  for (const auto& [querier, obj] : queries) {
    expected.push_back(fx.svc->locate(querier, obj));
  }
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
      OracleEngine engine(fx.epoch, OracleOptions{threads, cache});
      EXPECT_FALSE(engine.has_labeling());
      EXPECT_TRUE(engine.has_location());
      EXPECT_EQ(engine.n(), fx.prox.n());
      const std::vector<LocateResult> got = engine.locate_batch(queries);
      EXPECT_EQ(got, expected) << threads << " threads, cache " << cache;
    }
  }
}

TEST(EngineLocate, SingleQueryMatchesBatchAndCachesReplay) {
  LocateEngineFixture fx;
  OracleEngine engine(fx.epoch, OracleOptions{4, 1024});
  const std::vector<LocateQuery> queries = fx.random_queries(200, 9);
  const std::vector<LocateResult> batch = engine.locate_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(engine.locate(queries[i].first, queries[i].second), batch[i]);
  }
  const EngineTotals first = engine.totals();
  const std::size_t first_hits = first.cache_hits;
  const std::vector<LocateResult> again = engine.locate_batch(queries);
  EXPECT_EQ((engine.totals() - first).cache_hits, queries.size());
  EXPECT_EQ(again, batch);
  EXPECT_LT(first_hits, queries.size());
}

TEST(EngineLocate, ValidatesQueries) {
  LocateEngineFixture fx;
  OracleEngine engine(fx.epoch, OracleOptions{2, 0});
  const std::vector<LocateQuery> bad_node = {
      {static_cast<NodeId>(fx.prox.n()), 0}};
  EXPECT_THROW(engine.locate_batch(bad_node), Error);
  const std::vector<LocateQuery> bad_obj = {
      {0, static_cast<ObjectId>(fx.dir.num_objects())}};
  EXPECT_THROW(engine.locate_batch(bad_obj), Error);
  // A locate-only engine serves no estimates.
  EXPECT_THROW(engine.estimate(0, 1), Error);
  const std::vector<QueryPair> pairs = {{0, 1}};
  EXPECT_THROW(engine.estimate_batch(pairs), Error);
}

TEST(EngineLocate, StatsAccumulateAcrossLocateBatches) {
  LocateEngineFixture fx;
  OracleEngine engine(fx.epoch, OracleOptions{2, 0});
  const std::vector<LocateQuery> queries = fx.random_queries(100, 5);
  engine.locate_batch(queries);
  const EngineTotals first = engine.totals();
  engine.locate_batch(queries);
  const EngineTotals second = engine.totals() - first;
  EXPECT_EQ(second.queries, queries.size());
  EXPECT_GT(second.qps(), 0.0);
  EXPECT_EQ(engine.totals().batches, 2u);
  EXPECT_EQ(engine.totals().queries, 2 * queries.size());
}

TEST(EngineLocate, FixedMaxHopsAppliesToEveryBatch) {
  LocateEngineFixture fx;
  LocateOptions opts;
  opts.max_hops = 0;
  OracleEngine engine(fx.epoch, OracleOptions{2, 0}, opts);
  // Pick a (querier, object) pair where the querier holds no copy, so a
  // 0-hop budget cannot deliver.
  for (const auto& [querier, obj] : fx.random_queries(50, 21)) {
    if (fx.dir.is_holder(obj, querier)) continue;
    const std::vector<LocateQuery> one = {{querier, obj}};
    EXPECT_FALSE(engine.locate_batch(one)[0].found);
    return;
  }
  FAIL() << "no non-holder query pair found";
}

TEST(EngineLocate, ApplyToEstimateEngineChecksNodeCount) {
  LocateEngineFixture fx;
  // An epoch over a different node count than the labeling is rejected.
  EuclideanMetric other(random_cube_metric(48, 2, 23));
  DenseProximityIndex other_prox(other);
  NeighborSystem other_sys(other_prox, 0.25);
  OracleEngine engine(DistanceLabeling(other_sys), OracleOptions{2, 0});
  EXPECT_THROW(engine.apply(fx.epoch), Error);
  EXPECT_THROW(engine.location(), Error);
  const std::vector<LocateQuery> one = {{0, 0}};
  EXPECT_THROW(engine.locate_batch(one), Error);
}

TEST(EngineLocate, EstimateAndLocateServeSideBySide) {
  // One engine, both snapshot kinds: estimates from the labeling, locates
  // from the applied epoch, over the same universe.
  LocateEngineFixture fx;
  NeighborSystem sys(fx.prox, 0.25);
  OracleEngine engine(DistanceLabeling(sys), OracleOptions{2, 128});
  engine.apply(fx.epoch);
  EXPECT_TRUE(engine.has_labeling());
  EXPECT_TRUE(engine.has_location());
  const std::vector<QueryPair> pairs = {{0, 5}, {9, 2}};
  const std::vector<Dist> est = engine.estimate_batch(pairs);
  EXPECT_EQ(est.size(), pairs.size());
  const std::vector<LocateQuery> queries = fx.random_queries(50, 13);
  const std::vector<LocateResult> located = engine.locate_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(located[i], fx.svc->locate(queries[i].first,
                                         queries[i].second));
  }
  EXPECT_THROW(engine.apply(fx.epoch), Error);  // epoch ids must increase
}

}  // namespace
}  // namespace ron
