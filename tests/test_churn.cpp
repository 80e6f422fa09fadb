// Tests for the dynamic-overlay subsystem (src/churn/): trace generation
// and replay determinism, strict mutation semantics, local net/measure
// maintenance, epoch serving through the engine, and the acceptance soak —
// after a seeded 1k-op trace at n=512 the incrementally maintained overlay
// must still deliver every sampled locate within location_hop_bound(n) at
// route stretch below the a-priori 2*hops bound, with degrees within a
// constant factor of the fresh static build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "churn/overlay_mutator.h"
#include "churn/trace_generator.h"
#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "oracle/engine.h"
#include "oracle/snapshot.h"
#include "scenario/scenario_builder.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_churn_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool rings_equal(const RingsOfNeighbors& a, const RingsOfNeighbors& b) {
  if (a.n() != b.n()) return false;
  for (NodeId u = 0; u < a.n(); ++u) {
    const auto ra = a.rings(u);
    const auto rb = b.rings(u);
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (!(ra[i] == rb[i])) return false;
    }
  }
  return true;
}

/// Shared small fixture: clustered metric, 8 objects x 2 replicas.
struct ChurnFixture {
  explicit ChurnFixture(const std::string& spec_text =
                            "metric=clustered,n=96,seed=3,overlay_seed=41",
                        std::size_t objects = 8, std::size_t replicas = 2)
      : builder(ScenarioSpec::parse(spec_text), 0),
        directory(builder.make_directory(objects, replicas)),
        mutator(builder.prox(), builder.spec(), directory) {}

  ScenarioBuilder builder;
  ObjectDirectory directory;
  OverlayMutator mutator;
};

// --- trace generation -------------------------------------------------------

TEST(ChurnTrace, GeneratorIsDeterministicAndSeedSensitive) {
  ChurnFixture fx;
  ChurnTraceParams params;
  params.ops = 300;
  const ChurnTrace a = generate_churn_trace(fx.mutator, params, 7);
  const ChurnTrace b = generate_churn_trace(fx.mutator, params, 7);
  const ChurnTrace c = generate_churn_trace(fx.mutator, params, 8);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ops.size(), params.ops);
  // All four op kinds appear in a 300-op trace with the default mix.
  EXPECT_GT(a.count(ChurnOpKind::kJoin), 0u);
  EXPECT_GT(a.count(ChurnOpKind::kLeave), 0u);
  EXPECT_GT(a.count(ChurnOpKind::kPublish), 0u);
  EXPECT_GT(a.count(ChurnOpKind::kUnpublish), 0u);
  a.validate(fx.mutator.n());
}

TEST(ChurnTrace, GeneratorRespectsTheActiveFloor) {
  ChurnFixture fx;
  ChurnTraceParams params;
  params.ops = 400;
  params.p_join = 0.0;  // leave-heavy: the floor must hold anyway
  params.p_publish = 0.05;
  params.p_unpublish = 0.05;
  params.min_active_fraction = 0.75;
  const ChurnTrace trace = generate_churn_trace(fx.mutator, params, 11);
  fx.mutator.apply(trace);
  EXPECT_GE(static_cast<double>(fx.mutator.active_count()),
            0.75 * static_cast<double>(fx.mutator.n()));
  fx.mutator.check_invariants();
}

// --- mutation semantics -----------------------------------------------------

TEST(OverlayMutatorTest, ZeroOpStateMatchesTheStaticBuildBitForBit) {
  ChurnFixture fx;
  EXPECT_TRUE(rings_equal(fx.mutator.rings(), fx.builder.rings()));
  EXPECT_EQ(fx.mutator.active_count(), fx.mutator.n());
  fx.mutator.check_invariants();
}

TEST(OverlayMutatorTest, LeaveRemovesTheNodeEverywhere) {
  ChurnFixture fx;
  const NodeId victim = fx.directory.holders(0).front();
  ASSERT_TRUE(fx.mutator.is_active(victim));
  fx.mutator.leave(victim);
  EXPECT_FALSE(fx.mutator.is_active(victim));
  EXPECT_EQ(fx.mutator.weight(victim), 0.0);
  const RingsOfNeighbors& rings = fx.mutator.rings();
  EXPECT_EQ(rings.out_degree(victim), 0u);
  for (NodeId u = 0; u < rings.n(); ++u) {
    const auto& nbrs = rings.all_neighbors(u);
    EXPECT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(), victim))
        << "node " << u << " still points at the departed node";
  }
  // Copies at the departed node are auto-unpublished...
  for (ObjectId obj = 0; obj < fx.mutator.directory().num_objects(); ++obj) {
    EXPECT_FALSE(fx.mutator.directory().is_holder(obj, victim));
  }
  // ...and its net memberships are gone.
  for (int l = 0; l < fx.mutator.net_levels(); ++l) {
    const auto ms = fx.mutator.net_members(l);
    EXPECT_FALSE(std::binary_search(ms.begin(), ms.end(), victim));
  }
  fx.mutator.check_invariants();
}

TEST(OverlayMutatorTest, JoinRestoresServingStateForTheNode) {
  ChurnFixture fx;
  const NodeId node = 17;
  fx.mutator.leave(node);
  fx.mutator.join(node);
  EXPECT_TRUE(fx.mutator.is_active(node));
  EXPECT_GT(fx.mutator.weight(node), 0.0);
  const RingsOfNeighbors& rings = fx.mutator.rings();
  EXPECT_GT(rings.out_degree(node), 0u);
  // Someone must know about the rejoined node (final-hop reachability).
  std::size_t in_links = 0;
  for (NodeId u = 0; u < rings.n(); ++u) {
    if (u == node) continue;
    const auto& nbrs = rings.all_neighbors(u);
    if (std::binary_search(nbrs.begin(), nbrs.end(), node)) ++in_links;
  }
  EXPECT_GT(in_links, 0u);
  fx.mutator.check_invariants();
  // And the node is locatable again as a holder.
  fx.mutator.publish("rejoined_obj", node);
  const auto epoch = fx.mutator.commit();
  const LocateResult r = epoch->service->locate(
      (node + 1) % static_cast<NodeId>(fx.mutator.n()),
      epoch->directory->find("rejoined_obj"));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.holder, node);
}

TEST(OverlayMutatorTest, StrictOpSemanticsThrowOnInvalidOps) {
  ChurnFixture fx;
  EXPECT_THROW(fx.mutator.join(3), Error);  // already active
  fx.mutator.leave(3);
  EXPECT_THROW(fx.mutator.leave(3), Error);  // already gone
  EXPECT_THROW(fx.mutator.publish("x", 3), Error);  // inactive holder
  fx.mutator.publish("x", 5);
  EXPECT_THROW(fx.mutator.publish("x", 5), Error);  // duplicate copy
  fx.mutator.unpublish("x", 5);
  EXPECT_THROW(fx.mutator.unpublish("x", 5), Error);  // not a holder
  EXPECT_THROW(fx.mutator.leave(96), Error);          // out of range
  fx.mutator.check_invariants();
}

TEST(OverlayMutatorTest, ReplayIsDeterministic) {
  ChurnFixture a;
  ChurnFixture b;
  ChurnTraceParams params;
  params.ops = 250;
  const ChurnTrace trace = generate_churn_trace(a.mutator, params, 19);
  a.mutator.apply(trace);
  b.mutator.apply(trace);
  EXPECT_TRUE(rings_equal(a.mutator.rings(), b.mutator.rings()));
  EXPECT_EQ(a.mutator.active_count(), b.mutator.active_count());
  EXPECT_EQ(a.mutator.directory().total_replicas(),
            b.mutator.directory().total_replicas());
  for (NodeId u = 0; u < a.mutator.n(); ++u) {
    EXPECT_EQ(a.mutator.weight(u), b.mutator.weight(u));
  }
}

TEST(OverlayMutatorTest, NetAndMeasureMaintenanceIsLocalButExact) {
  ChurnFixture fx;
  ChurnTraceParams params;
  params.ops = 300;
  fx.mutator.apply(generate_churn_trace(fx.mutator, params, 23));
  // check_invariants already asserts per-level covering + packing over the
  // active set and exact measure conservation; this test pins the API-level
  // views on top.
  fx.mutator.check_invariants();
  double mass = 0.0;
  for (NodeId u = 0; u < fx.mutator.n(); ++u) {
    mass += fx.mutator.weight(u);
    EXPECT_EQ(fx.mutator.weight(u) > 0.0, fx.mutator.is_active(u));
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
  ASSERT_GT(fx.mutator.net_levels(), 1);
  // Level 0 of the maintained hierarchy is exactly the active set.
  EXPECT_EQ(fx.mutator.net_members(0).size(), fx.mutator.active_count());
  EXPECT_GT(fx.mutator.counters().net_promotions, 0u);
}

// --- snapshot travel --------------------------------------------------------

TEST(ChurnSnapshot, BundleReplayReproducesTheMutatedOverlay) {
  ChurnFixture fx;
  ChurnTraceParams params;
  params.ops = 200;
  const ChurnTrace trace = generate_churn_trace(fx.mutator, params, 31);
  ScenarioSpec spec = fx.builder.spec();
  spec.churn_ops = trace.ops.size();
  TempFile file("bundle");
  save_churn_bundle(spec, fx.directory, trace, file.path());

  fx.mutator.apply(trace);

  const LoadedChurnBundle loaded = load_churn_bundle(file.path());
  OverlayMutator replayed(fx.builder.prox(), loaded.spec, loaded.initial);
  replayed.apply(loaded.trace);
  EXPECT_TRUE(rings_equal(replayed.rings(), fx.mutator.rings()));
  EXPECT_EQ(replayed.active_count(), fx.mutator.active_count());
  EXPECT_EQ(replayed.directory().total_replicas(),
            fx.mutator.directory().total_replicas());
}

// --- epoch serving ----------------------------------------------------------

TEST(EpochServing, ApplySwapsStateAndInvalidatesTheLocateCache) {
  ChurnFixture fx;
  fx.mutator.publish("moving", 10);
  const auto epoch1 = fx.mutator.commit();
  OracleOptions opts;
  opts.num_threads = 2;
  opts.cache_capacity = 1024;  // the stale-cache trap
  OracleEngine engine(epoch1, opts);
  const ObjectId obj = epoch1->directory->find("moving");
  ASSERT_NE(obj, kInvalidObject);
  const std::vector<LocateQuery> q = {{11, obj}};
  const LocateResult before = engine.locate_batch(q)[0];
  ASSERT_TRUE(before.found);
  EXPECT_EQ(before.holder, 10u);
  // Cache it hot.
  const EngineTotals cold = engine.totals();
  EXPECT_EQ(engine.locate_batch(q)[0], before);
  EXPECT_GT((engine.totals() - cold).cache_hits, 0u);

  // Mutate: the copy moves to another node; commit + apply a new epoch.
  fx.mutator.unpublish("moving", 10);
  fx.mutator.publish("moving", 37);
  const auto epoch2 = fx.mutator.commit();
  EXPECT_NE(epoch1->id, epoch2->id);
  engine.apply(epoch2);
  const LocateResult after = engine.locate_batch(q)[0];
  ASSERT_TRUE(after.found);
  EXPECT_EQ(after.holder, 37u)
      << "stale cached pre-mutation result served across the epoch swap";
  // The first post-swap batch cleared the shard: no phantom hits.
  const LocateResult again = engine.locate_batch(q)[0];
  EXPECT_EQ(again.holder, 37u);

  // Non-increasing ids are rejected (worker cache tags hold previously
  // served ids, so a reused or rolled-back id could match a stale tag).
  EXPECT_THROW(engine.apply(epoch2), Error);  // same id
  EXPECT_THROW(engine.apply(epoch1), Error);  // older id
  // Epoch node counts are pinned.
  EXPECT_EQ(engine.n(), fx.mutator.n());
}

TEST(EpochServing, InFlightSemanticsKeepTheOldEpochConsistent) {
  // The engine pins the epoch per batch; results from a batch are entirely
  // from ONE epoch even if apply() lands between batches. (True mid-batch
  // concurrency is covered by the design — shared_ptr pinning — this test
  // asserts the visible contract across many small batches + swaps.)
  ChurnFixture fx;
  auto epoch = fx.mutator.commit();
  OracleEngine engine(epoch, OracleOptions{4, 64});
  Rng rng(5);
  for (int round = 0; round < 6; ++round) {
    std::vector<NodeId> actives;
    for (NodeId u = 0; u < fx.mutator.n(); ++u) {
      if (fx.mutator.is_active(u)) actives.push_back(u);
    }
    std::vector<ObjectId> stocked;
    const ObjectDirectory& dir = *epoch->directory;
    for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
      if (!dir.holders(obj).empty()) stocked.push_back(obj);
    }
    ASSERT_FALSE(stocked.empty());
    std::vector<LocateQuery> queries;
    for (int i = 0; i < 64; ++i) {
      queries.emplace_back(actives[rng.index(actives.size())],
                           stocked[rng.index(stocked.size())]);
    }
    const std::size_t bound = location_hop_bound(fx.mutator.n());
    for (const LocateResult& r : engine.locate_batch(queries)) {
      EXPECT_TRUE(r.found);
      EXPECT_LE(r.hops, bound);
    }
    // Churn a little and swap.
    ChurnTraceParams params;
    params.ops = 40;
    fx.mutator.apply(
        generate_churn_trace(fx.mutator, params, 100 + round));
    epoch = fx.mutator.commit();
    engine.apply(epoch);
  }
  fx.mutator.check_invariants();
}

// --- the acceptance soak ----------------------------------------------------

/// 1k-op seeded soak at n=512: every stocked object is located from a
/// rotating sample of active queriers; every locate must deliver within
/// location_hop_bound(n) at route stretch under the a-priori 2*hops bound,
/// and degrees must stay within a constant factor of the fresh build.
void run_soak(const std::string& spec_text) {
  ScenarioBuilder builder(ScenarioSpec::parse(spec_text), 0);
  ASSERT_GE(builder.n(), 512u);
  ObjectDirectory dir = builder.make_directory(16, 3);
  OverlayMutator mutator(builder.prox(), builder.spec(), std::move(dir));
  ChurnTraceParams params;
  params.ops = 1000;
  const ChurnTrace trace =
      generate_churn_trace(mutator, params, builder.spec().churn_seed);
  EXPECT_GE(trace.ops.size(), 1000u);
  mutator.apply(trace);
  mutator.check_invariants();

  const std::size_t bound = location_hop_bound(mutator.n());
  const auto epoch = mutator.commit();
  const ObjectDirectory& post = *epoch->directory;
  std::vector<NodeId> actives;
  for (NodeId u = 0; u < mutator.n(); ++u) {
    if (mutator.is_active(u)) actives.push_back(u);
  }
  std::size_t locates = 0;
  for (ObjectId obj = 0; obj < post.num_objects(); ++obj) {
    if (post.holders(obj).empty()) continue;  // defined: locate would throw
    // Rotate through the active set so every object is queried from many
    // vantage points without an O(n * objects) full sweep.
    for (std::size_t s = 0; s < actives.size(); s += 7) {
      const NodeId querier = actives[(s + obj) % actives.size()];
      const LocateResult r = epoch->service->locate(querier, obj);
      ++locates;
      ASSERT_TRUE(r.found) << "undelivered locate of '" << post.name(obj)
                           << "' from " << querier;
      ASSERT_LE(r.hops, bound) << "hop bound violated";
      ASSERT_LE(r.route_stretch,
                location_stretch_bound(r.hops) * (1.0 + 1e-12))
          << "route stretch above the a-priori greedy bound";
      ASSERT_EQ(r.distance_stretch, 1.0) << "not the nearest copy";
    }
  }
  EXPECT_GT(locates, 1000u);

  // Degrees within a constant factor of the fresh static build.
  const RingsOfNeighbors& fresh = builder.rings();
  EXPECT_LE(mutator.rings().max_out_degree(), 3 * fresh.max_out_degree());
  EXPECT_LE(mutator.rings().avg_out_degree(), 3.0 * fresh.avg_out_degree());
}

TEST(ChurnSoak, GeolineThousandOpsKeepsTheGuarantees) {
  run_soak("metric=geoline,n=512,seed=3,overlay_seed=41,base=1.3");
}

TEST(ChurnSoak, ClusteredThousandOpsKeepsTheGuarantees) {
  run_soak("metric=clustered,n=512,seed=3,overlay_seed=41,per_cluster=16");
}

TEST(ChurnSoak, EuclidThousandOpsKeepsTheGuarantees) {
  run_soak("metric=euclid,n=512,seed=3,overlay_seed=41");
}

}  // namespace
}  // namespace ron
