// Concurrency correctness shard (ctest prefix "tsan.").
//
// These tests exist to give ThreadSanitizer real interleavings to bite on:
// the CI tsan job builds with RON_SANITIZE=thread and runs exactly this
// shard, halting on the first report. Every test is a deterministic
// workload (fixed seeds, fixed query sets) and green in the ordinary
// Release/ASan suites too — under TSan they simply run fewer iterations so
// the job stays inside its time budget.
//
// Covered surfaces, matching the annotated contracts:
//   - OracleEngine::apply() epoch swaps racing estimate_batch/locate_batch
//     (epoch_mu_ handoff + batch epoch pinning),
//   - per-worker LRU shard invalidation while batches are in flight (the
//     single-owner lazy-clear discipline the annotations cannot express),
//   - multi-threaded DenseProximityIndex construction (disjoint-slice handoff,
//     results bit-identical to a serial build),
//   - multi-threaded ring overlay construction, mutable and sealed
//     (RingsOfNeighbors::build: per-slice rings or sealed parts handed to
//     the spawning thread at join, results bit-identical to a serial build),
//   - multi-threaded label pruning (DistanceLabeling::pruned: workers flag
//     entries of every label through relaxed atomic_ref flags, read after
//     the join; the result is bit-identical to a serial prune),
//   - concurrent const readers (estimate/locate/current_epoch) against a
//     dispatching thread and a maintenance thread.
// The deterministic single-thread tests at the bottom pin the LruShard
// epoch-tag invalidation semantics the stress tests rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "churn/overlay_mutator.h"
#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "metric/proximity.h"
#include "oracle/engine.h"
#include "scenario/scenario_builder.h"
#include "smallworld/rings_model.h"

// Detect instrumented builds (gcc defines __SANITIZE_*, clang speaks
// __has_feature) so stress iteration counts shrink under sanitizers.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RON_UNDER_SANITIZER 1
#endif
#if !defined(RON_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RON_UNDER_SANITIZER 1
#endif
#endif

namespace ron {
namespace {

#if defined(RON_UNDER_SANITIZER)
constexpr std::size_t kEpochSwaps = 8;
constexpr std::size_t kBatchesPerTest = 24;
constexpr std::size_t kProxBuilds = 2;
#else
constexpr std::size_t kEpochSwaps = 16;
constexpr std::size_t kBatchesPerTest = 48;
constexpr std::size_t kProxBuilds = 4;
#endif

/// Shared topology for the serving stress tests: a clustered metric with a
/// directory, a labeling for the estimate path, and a partition of nodes
/// into churn victims (never queried, never holders) and safe queriers —
/// so every locate stays servable in every epoch the maintenance thread
/// publishes, keeping the tests deterministic-green while the interleavings
/// stay real.
struct StressFixture {
  StressFixture()
      : builder(ScenarioSpec::parse(
                    "metric=clustered,n=96,seed=3,overlay_seed=41"),
                /*num_threads=*/1),
        directory(builder.make_directory(/*objects=*/8, /*replicas=*/3)),
        mutator(builder.prox(), builder.spec(), directory) {
    std::vector<char> is_holder(builder.n(), 0);
    for (ObjectId obj = 0; obj < directory.num_objects(); ++obj) {
      for (NodeId h : directory.holders(obj)) is_holder[h] = 1;
    }
    for (NodeId u = 0; u < builder.n(); ++u) {
      if (!is_holder[u] && victims.size() < 12) {
        victims.push_back(u);
      } else {
        queriers.push_back(u);
      }
    }
    // Fixed query workloads, chosen from nodes that stay active forever.
    // Locate queries are DISTINCT (querier, object) pairs so the cache-hit
    // assertions below can count exact hits per batch.
    Rng rng(2026);
    while (locates.size() < 64) {
      const LocateQuery q{queriers[rng.index(queriers.size())],
                          static_cast<ObjectId>(rng.index(8))};
      if (std::find(locates.begin(), locates.end(), q) == locates.end()) {
        locates.push_back(q);
      }
    }
    for (std::size_t i = 0; i < 64; ++i) {
      estimates.emplace_back(queriers[rng.index(queriers.size())],
                             queriers[rng.index(queriers.size())]);
    }
  }

  /// Leave/join one victim per swap, commit, and push the epoch into the
  /// engine — the canonical maintenance-thread loop. Returns violations
  /// (gtest assertions are not thread-safe off the main thread).
  std::size_t churn_loop(OracleEngine& engine) {
    std::size_t violations = 0;
    for (std::size_t s = 0; s < kEpochSwaps; ++s) {
      const NodeId victim = victims[s % victims.size()];
      mutator.leave(victim);
      mutator.join(victim);
      auto epoch = mutator.commit();
      if (epoch->id == 0) ++violations;
      engine.apply(std::move(epoch));
    }
    return violations;
  }

  ScenarioBuilder builder;
  ObjectDirectory directory;
  OverlayMutator mutator;
  std::vector<NodeId> victims;
  std::vector<NodeId> queriers;
  std::vector<LocateQuery> locates;
  std::vector<QueryPair> estimates;
};

void expect_locates_valid(std::span<const LocateResult> results,
                          std::size_t n) {
  const std::size_t bound = location_hop_bound(n);
  for (const LocateResult& r : results) {
    ASSERT_TRUE(r.found);
    EXPECT_LE(r.hops, bound);
    // The a-priori guarantee: route_stretch < 2*hops for a real walk; a
    // zero-hop locate (the querier holds a copy) has stretch exactly 1.
    if (r.hops > 0) {
      EXPECT_LT(r.route_stretch, 2.0 * static_cast<double>(r.hops));
    } else {
      EXPECT_EQ(r.route_stretch, 1.0);
    }
  }
}

// --- epoch swaps racing batches ---------------------------------------------

TEST(ConcurrencyStress, EpochSwapsRacingLocateAndEstimateBatches) {
  StressFixture fx;
  OracleEngine engine(fx.builder.take_labeling(), OracleOptions{4, 0});
  engine.apply(fx.mutator.commit());

  // Expected estimates never change: the labeling is immutable state.
  const std::vector<Dist> expected = engine.estimate_batch(fx.estimates);

  std::atomic<std::size_t> maintenance_violations{0};
  std::thread maintenance([&] {
    maintenance_violations += fx.churn_loop(engine);
  });
  for (std::size_t b = 0; b < kBatchesPerTest; ++b) {
    if (b % 2 == 0) {
      const auto results = engine.locate_batch(fx.locates);
      expect_locates_valid(results, fx.builder.n());
    } else {
      EXPECT_EQ(engine.estimate_batch(fx.estimates), expected);
    }
  }
  maintenance.join();
  EXPECT_EQ(maintenance_violations.load(), 0u);
  // The final epoch serves a full leave/join history; it must still be
  // coherent enough to answer everything.
  expect_locates_valid(engine.locate_batch(fx.locates), fx.builder.n());
}

// --- LRU shard invalidation in flight ---------------------------------------

TEST(ConcurrencyStress, LruInvalidationDuringInFlightCachedBatches) {
  StressFixture fx;
  // Cache larger than the workload: after the first batch every query is a
  // hit until an epoch swap forces the worker-local lazy clear — which here
  // races real in-flight batches.
  OracleEngine engine(fx.mutator.commit(), OracleOptions{4, 1024});

  std::atomic<std::size_t> maintenance_violations{0};
  std::thread maintenance([&] {
    maintenance_violations += fx.churn_loop(engine);
  });
  for (std::size_t b = 0; b < kBatchesPerTest; ++b) {
    const auto results = engine.locate_batch(fx.locates);
    expect_locates_valid(results, fx.builder.n());
  }
  maintenance.join();
  EXPECT_EQ(maintenance_violations.load(), 0u);

  // Once the epochs stop moving, the cache must converge back to serving
  // hits — and those hits must match a cold engine over the same epoch.
  const auto warm = engine.locate_batch(fx.locates);
  const EngineTotals before = engine.totals();
  const auto warm2 = engine.locate_batch(fx.locates);
  EXPECT_EQ(warm, warm2);
  EXPECT_EQ((engine.totals() - before).cache_hits, fx.locates.size());
  OracleEngine cold(engine.current_epoch(), OracleOptions{1, 0});
  EXPECT_EQ(cold.locate_batch(fx.locates), warm);
}

// --- parallel proximity construction ----------------------------------------

TEST(ConcurrencyStress, ParallelProximityBuildsAreBitIdenticalToSerial) {
  ScenarioBuilder builder(ScenarioSpec::parse("metric=euclid,n=256,seed=9"),
                          /*num_threads=*/1);
  const MetricSpace& metric = builder.metric();
  const DenseProximityIndex serial(metric, 1);
  for (std::size_t round = 0; round < kProxBuilds; ++round) {
    const DenseProximityIndex parallel(metric, 4);
    ASSERT_EQ(parallel.n(), serial.n());
    EXPECT_EQ(parallel.dmin(), serial.dmin());
    EXPECT_EQ(parallel.dmax(), serial.dmax());
    for (NodeId u = 0; u < serial.n(); ++u) {
      const auto a = serial.row(u);
      const auto b = parallel.row(u);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].d, b[i].d);
        ASSERT_EQ(a[i].v, b[i].v);
      }
    }
  }
}

// --- parallel ring overlay construction -------------------------------------

TEST(ConcurrencyStress, ParallelRingBuildsAreBitIdenticalToSerial) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=300,base=1.01,seed=3");
  ScenarioBuilder builder(spec, /*num_threads=*/1, ProxBackend::kSparse);
  const MeasureView& mu = builder.overlay().measure();
  const RingsSmallWorld serial(builder.prox(), mu, spec.ring_params(),
                               spec.overlay_seed, 1, RingStorage::kMutable);
  RingsOfNeighbors want = serial.rings();
  want.seal();
  for (std::size_t round = 0; round < kProxBuilds; ++round) {
    for (const RingStorage storage :
         {RingStorage::kMutable, RingStorage::kSealed}) {
      const RingsSmallWorld parallel(builder.prox(), mu, spec.ring_params(),
                                     spec.overlay_seed, 4, storage);
      RingsOfNeighbors got = parallel.rings();
      got.seal();  // no-op for kSealed
      EXPECT_EQ(got.avg_out_degree(), want.avg_out_degree());
      EXPECT_EQ(got.max_out_degree(), want.max_out_degree());
      EXPECT_EQ(got.memory_bytes(), want.memory_bytes());
      for (NodeId u = 0; u < want.n(); ++u) {
        ASSERT_EQ(got.num_rings(u), want.num_rings(u));
        for (std::size_t i = 0; i < want.num_rings(u); ++i) {
          ASSERT_EQ(got.ring_scale(u, i), want.ring_scale(u, i));
          std::vector<NodeId> a, b;
          got.visit_ring(u, i, [&](NodeId v) { a.push_back(v); });
          want.visit_ring(u, i, [&](NodeId v) { b.push_back(v); });
          ASSERT_EQ(a, b) << "u=" << u << " ring=" << i;
        }
        std::vector<NodeId> a, b;
        got.visit_neighbors(u, [&](NodeId v) { a.push_back(v); });
        want.visit_neighbors(u, [&](NodeId v) { b.push_back(v); });
        ASSERT_EQ(a, b) << "u=" << u;
      }
    }
  }
}

// --- parallel label pruning -------------------------------------------------

TEST(ConcurrencyStress, ParallelLabelPruneIsBitIdenticalToSerial) {
  // Every worker flags entries of labels outside its slice (relaxed
  // atomic_ref flags, read only after the join), so the flag set, and with
  // it the pruned labeling, must not depend on the worker count.
  ScenarioBuilder builder(
      ScenarioSpec::parse("metric=clustered,n=96,seed=3,per_cluster=16"),
      /*num_threads=*/1);
  const DistanceLabeling& built = builder.labeling();
  const DistanceLabeling serial = built.pruned(1);
  for (std::size_t round = 0; round < kProxBuilds; ++round) {
    const DistanceLabeling parallel = built.pruned(4);
    ASSERT_EQ(parallel.n(), serial.n());
    EXPECT_EQ(parallel.psi_bits(), serial.psi_bits());
    EXPECT_EQ(parallel.id_bits(), serial.id_bits());
    for (NodeId u = 0; u < serial.n(); ++u) {
      ASSERT_EQ(parallel.label(u), serial.label(u)) << "label " << u;
    }
  }
}

// --- concurrent const readers -----------------------------------------------

TEST(ConcurrencyStress, ConstReadersRacingBatchesAndEpochSwaps) {
  StressFixture fx;
  OracleEngine engine(fx.builder.take_labeling(), OracleOptions{2, 64});
  engine.apply(fx.mutator.commit());
  const Dist expected0 = engine.estimate(fx.estimates[0].first,
                                         fx.estimates[0].second);
  const std::size_t bound = location_hop_bound(fx.builder.n());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reader_violations{0};
  auto reader = [&] {
    std::size_t bad = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (engine.estimate(fx.estimates[0].first, fx.estimates[0].second) !=
          expected0) {
        ++bad;
      }
      const LocateResult r =
          engine.locate(fx.locates[0].first, fx.locates[0].second);
      if (!r.found || r.hops > bound) ++bad;
      if (engine.current_epoch() == nullptr) ++bad;
    }
    reader_violations += bad;
  };
  std::thread r1(reader), r2(reader);
  std::atomic<std::size_t> maintenance_violations{0};
  std::thread maintenance([&] {
    maintenance_violations += fx.churn_loop(engine);
  });
  for (std::size_t b = 0; b < kBatchesPerTest; ++b) {
    const auto results = engine.locate_batch(fx.locates);
    expect_locates_valid(results, fx.builder.n());
  }
  maintenance.join();
  stop.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(reader_violations.load(), 0u);
  EXPECT_EQ(maintenance_violations.load(), 0u);
}

// --- telemetry scrapes and totals racing the serving path -------------------

TEST(ConcurrencyStress, TotalsAndMetricScrapesRacingBatchesAndEpochSwaps) {
  StressFixture fx;
  OracleEngine engine(fx.builder.take_labeling(), OracleOptions{2, 64});
  engine.apply(fx.mutator.commit());

  // Two scraper threads hammer totals() and the registry while the
  // dispatcher serves batches, worker shards record latencies, and a
  // maintenance thread swaps epochs (recording swap/hold histograms from
  // its own thread). This is the monitoring topology the telemetry layer
  // promises is safe: scrapes never lock the hot path, and the relaxed
  // totals are monotone under any interleaving.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> scrape_violations{0};
  auto scraper = [&] {
    std::size_t bad = 0;
    EngineTotals prev;
    while (!stop.load(std::memory_order_relaxed)) {
      const EngineTotals t = engine.totals();
      if (t.batches < prev.batches || t.queries < prev.queries ||
          t.cache_hits < prev.cache_hits || t.seconds < prev.seconds) {
        ++bad;  // a lifetime counter ran backwards
      }
      prev = t;
      const std::string json = engine.metrics().to_json();
      if (json.empty() || json.front() != '{') ++bad;
    }
    scrape_violations += bad;
  };
  std::thread s1(scraper), s2(scraper);
  std::atomic<std::size_t> maintenance_violations{0};
  std::thread maintenance([&] {
    maintenance_violations += fx.churn_loop(engine);
  });
  std::size_t queries = 0;
  for (std::size_t b = 0; b < kBatchesPerTest; ++b) {
    if (b % 2 == 0) {
      const auto results = engine.locate_batch(fx.locates);
      expect_locates_valid(results, fx.builder.n());
      queries += fx.locates.size();
    } else {
      engine.estimate_batch(fx.estimates);
      queries += fx.estimates.size();
    }
  }
  maintenance.join();
  stop.store(true);
  s1.join();
  s2.join();
  EXPECT_EQ(scrape_violations.load(), 0u);
  EXPECT_EQ(maintenance_violations.load(), 0u);

  // Quiescent totals are exact, not merely monotone.
  const EngineTotals total = engine.totals();
  EXPECT_EQ(total.batches, kBatchesPerTest);
  EXPECT_EQ(total.queries, queries);
}

// --- deterministic epoch-tag invalidation semantics -------------------------

TEST(EpochTagInvalidation, ApplyInvalidatesTheLocateCacheExactlyOnce) {
  StressFixture fx;
  OracleEngine engine(fx.mutator.commit(), OracleOptions{1, 1024});

  // Warm: second identical batch is served entirely from the shard.
  const auto first = engine.locate_batch(fx.locates);
  const EngineTotals before_warm = engine.totals();
  const auto warm = engine.locate_batch(fx.locates);
  EXPECT_EQ(warm, first);
  EXPECT_EQ((engine.totals() - before_warm).cache_hits, fx.locates.size());

  // A new epoch (even one with identical contents) must clear the shard on
  // its first serve: the tag compares ids, not state.
  engine.apply(fx.mutator.commit());
  const EngineTotals before_swap = engine.totals();
  const auto after_swap = engine.locate_batch(fx.locates);
  EXPECT_EQ((engine.totals() - before_swap).cache_hits, 0u);
  EXPECT_EQ(after_swap, first);  // no mutation happened between commits

  // ...and exactly once: the next batch is hits again.
  const EngineTotals before_again = engine.totals();
  engine.locate_batch(fx.locates);
  EXPECT_EQ((engine.totals() - before_again).cache_hits, fx.locates.size());
}

TEST(EpochTagInvalidation, StaleResultsNeverSurviveAMutatedEpoch) {
  StressFixture fx;
  OracleEngine engine(fx.mutator.commit(), OracleOptions{1, 1024});

  // Pick an object and a querier, and warm the cache with its answer.
  const ObjectId obj = 0;
  const NodeId querier = fx.queriers[0];
  const std::vector<LocateQuery> one{{querier, obj}};
  const LocateResult before = engine.locate_batch(one)[0];
  ASSERT_TRUE(before.found);

  // Remove the returned holder from the overlay; the directory drops its
  // copy, so the cached answer is now a lie the engine must not repeat.
  fx.mutator.leave(before.holder);
  engine.apply(fx.mutator.commit());
  const EngineTotals before_swap = engine.totals();
  const LocateResult after = engine.locate_batch(one)[0];
  EXPECT_EQ((engine.totals() - before_swap).cache_hits, 0u);
  ASSERT_TRUE(after.found);
  EXPECT_NE(after.holder, before.holder);
  const auto holders = fx.mutator.directory().holders(obj);
  EXPECT_TRUE(std::find(holders.begin(), holders.end(), after.holder) !=
              holders.end());
}

TEST(EpochTagInvalidation, EstimateCacheIsUntouchedByEpochSwaps) {
  StressFixture fx;
  OracleEngine engine(fx.builder.take_labeling(), OracleOptions{1, 1024});
  engine.apply(fx.mutator.commit());

  // Cache hits of one estimate batch, as a difference of two totals()
  // reads.
  const auto batch_hits = [&] {
    const EngineTotals before = engine.totals();
    engine.estimate_batch(fx.estimates);
    return (engine.totals() - before).cache_hits;
  };
  engine.estimate_batch(fx.estimates);
  EXPECT_EQ(batch_hits(), fx.estimates.size());

  // Epoch swaps invalidate LOCATE shards only; estimates are a pure
  // function of the immutable labeling and keep their cache across swaps.
  engine.apply(fx.mutator.commit());
  EXPECT_EQ(batch_hits(), fx.estimates.size());
}

}  // namespace
}  // namespace ron
