// Unit tests for the telemetry subsystem (telemetry/{clock,metrics,trace}):
// primitive semantics (shard summing, exact power-of-two bucket boundaries,
// conservative quantiles, snapshot merge algebra), the registry contract
// (idempotent handles, kind and name validation), both scrape
// serializations, the sampled locate-trace sink, and the engine/service
// integration with an injected FakeClock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "location/object_directory.h"
#include "oracle/engine.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ron {
namespace {

/// Looks a metric up through the const scrape interface (the only read
/// path a monitoring consumer has) and downcasts to its concrete type.
template <typename T>
const T* find_metric(const MetricsRegistry& r, std::string_view name) {
  for (const Metric* m : r.metrics()) {
    if (m->name() == name) return dynamic_cast<const T*>(m);
  }
  return nullptr;
}

/// Hand-built snapshot (plain data, independent of any recording path).
HistogramSnapshot make_snapshot(const std::vector<double>& values) {
  HistogramSnapshot s;
  for (double v : values) {
    ++s.buckets[Histogram::bucket_index(v)];
    s.min = s.count == 0 ? v : std::min(s.min, v);
    s.max = s.count == 0 ? v : std::max(s.max, v);
    ++s.count;
    s.sum += v;
  }
  return s;
}

TEST(TelemetryPrimitives, CounterSumsItsShards) {
  Counter c("ron_test_events_total", 4);
  c.add(0);
  c.add(1, 5);
  c.add_single_owner(3, 2);  // fast path is observationally identical
  EXPECT_EQ(c.value(), 8u);
  EXPECT_EQ(c.name(), "ron_test_events_total");
  EXPECT_EQ(c.kind(), MetricKind::kCounter);
}

TEST(TelemetryPrimitives, GaugeIsLastWriteWins) {
  Gauge g("ron_test_level");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
}

TEST(TelemetryPrimitives, BucketBoundariesAreExactPowersOfTwo) {
  // Underflow slot: zero, negatives and NaN all land in bucket 0.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);

  // The bottom edge 2^kHistMinExp is closed on the left: the edge itself is
  // in bucket 1, the representable double just below it underflows.
  const double lo = std::ldexp(1.0, kHistMinExp);
  EXPECT_EQ(Histogram::bucket_index(lo), 1u);
  EXPECT_EQ(Histogram::bucket_index(std::nextafter(lo, 0.0)), 0u);

  // 1.0 = 2^0 sits exactly on an edge: bucket 1 + (0 - kHistMinExp), with
  // the double just below it one bucket earlier and 2.0 one later.
  const std::size_t one = 1 + static_cast<std::size_t>(-kHistMinExp);
  EXPECT_EQ(Histogram::bucket_index(1.0), one);
  EXPECT_EQ(Histogram::bucket_index(std::nextafter(1.0, 0.0)), one - 1);
  EXPECT_EQ(Histogram::bucket_index(1.999999), one);
  EXPECT_EQ(Histogram::bucket_index(2.0), one + 1);

  // Overflow: 2^kHistMaxExp and everything above (infinity included) share
  // the last bucket; just below it is the last finite bucket.
  const double hi = std::ldexp(1.0, kHistMaxExp);
  EXPECT_EQ(Histogram::bucket_index(hi), kHistNumBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::nextafter(hi, 0.0)),
            kHistNumBuckets - 2);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            kHistNumBuckets - 1);

  // Upper edges mirror the same layout: bucket i's edge is double bucket
  // i-1's, the underflow edge is the bottom of the range, the overflow
  // bucket has none.
  EXPECT_EQ(Histogram::bucket_upper(0), lo);
  EXPECT_EQ(Histogram::bucket_upper(one), 2.0);
  EXPECT_EQ(Histogram::bucket_upper(one - 1), 1.0);
  EXPECT_EQ(Histogram::bucket_upper(kHistNumBuckets - 1),
            std::numeric_limits<double>::infinity());
}

TEST(TelemetryPrimitives, HistogramRecordsExactStatsAcrossShards) {
  Histogram h("ron_test_seconds", 2);
  h.record(0, 4.0);
  h.record(0, 4.0);
  h.record(0, 4.0);
  // The single-owner fast path must be observationally identical to the
  // RMW path — same buckets, same stats.
  h.record_single_owner(1, 4.0);
  h.record_single_owner(1, 4.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 20.0);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(4.0)], 5u);

  // Conservative quantile: the bucket's upper edge (8.0) clamped to the
  // largest sample seen — exact for a point mass, never an underestimate.
  EXPECT_EQ(s.quantile(0.0), 4.0);
  EXPECT_EQ(s.quantile(0.5), 4.0);
  EXPECT_EQ(s.quantile(0.999), 4.0);

  // NaN counts (underflow bucket) but never poisons min/max — both paths.
  h.record(0, std::nan(""));
  h.record_single_owner(1, std::nan(""));
  const HistogramSnapshot s2 = h.snapshot();
  EXPECT_EQ(s2.count, 7u);
  EXPECT_EQ(s2.buckets[0], 2u);
  EXPECT_EQ(s2.min, 4.0);
  EXPECT_EQ(s2.max, 4.0);
}

TEST(TelemetryPrimitives, HistogramBatchMergeMatchesDirectRecords) {
  // The batch-local path the engine uses: accumulate into a plain
  // HistogramSnapshot, fold it in with one merge_single_owner call. Must
  // be observationally identical to per-sample record().
  const std::vector<double> samples{0.5, 1.0, 1.0, 4.0, 65536.0};
  Histogram direct("ron_test_direct_seconds", 2);
  for (double v : samples) direct.record(0, v);

  Histogram merged("ron_test_merged_seconds", 2);
  HistogramSnapshot local;
  local.min = std::numeric_limits<double>::infinity();
  local.max = -std::numeric_limits<double>::infinity();
  for (double v : samples) {
    ++local.buckets[Histogram::bucket_index(v)];
    ++local.count;
    local.sum += v;
    if (v < local.min) local.min = v;
    if (v > local.max) local.max = v;
  }
  merged.merge_single_owner(0, local);
  EXPECT_EQ(merged.snapshot(), direct.snapshot());

  // Empty local batches are a no-op, and an all-NaN batch (min/max still
  // at the infinities) counts without poisoning min/max.
  merged.merge_single_owner(1, HistogramSnapshot{});
  EXPECT_EQ(merged.snapshot(), direct.snapshot());
  HistogramSnapshot nan_batch;
  nan_batch.min = std::numeric_limits<double>::infinity();
  nan_batch.max = -std::numeric_limits<double>::infinity();
  ++nan_batch.buckets[Histogram::bucket_index(std::nan(""))];
  ++nan_batch.count;
  merged.merge_single_owner(1, nan_batch);
  const HistogramSnapshot s = merged.snapshot();
  EXPECT_EQ(s.count, samples.size() + 1);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.min, 0.5);
  EXPECT_EQ(s.max, 65536.0);
}

TEST(TelemetryPrimitives, QuantileContractOnEmptyAndOverflow) {
  // Honest-empty: no samples, no quantiles (same contract as
  // common/stats.h percentile()).
  Histogram h("ron_test_empty_seconds", 1);
  EXPECT_THROW(h.snapshot().quantile(0.5), Error);
  EXPECT_THROW(make_snapshot({1.0}).quantile(1.5), Error);
  EXPECT_THROW(make_snapshot({1.0}).quantile(-0.1), Error);

  // The overflow bucket has no finite edge; max is the tightest true
  // answer for ranks that land there. Mid ranks report their bucket's
  // upper edge (1.0 lives in [1, 2)).
  const auto s = make_snapshot({1.0, 1e9});
  EXPECT_EQ(s.quantile(1.0), 1e9);
  EXPECT_EQ(s.quantile(0.5), 2.0);
}

TEST(TelemetryPrimitives, SnapshotMergeIsCommutativeAndAssociative) {
  // Power-of-two values keep every double addition exact, so equality is
  // legitimate (not a tolerance hiding reordering error).
  const auto a = make_snapshot({0.25, 2.0, 2.0});
  const auto b = make_snapshot({1024.0, std::ldexp(1.0, -30)});
  const auto c = make_snapshot({65536.0, 8.0});
  const auto empty = make_snapshot({});

  EXPECT_EQ(HistogramSnapshot::merge(a, b), HistogramSnapshot::merge(b, a));
  EXPECT_EQ(HistogramSnapshot::merge(HistogramSnapshot::merge(a, b), c),
            HistogramSnapshot::merge(a, HistogramSnapshot::merge(b, c)));

  // Identity: merging with an empty snapshot changes nothing (min/max must
  // not be polluted by the empty side's defaults).
  EXPECT_EQ(HistogramSnapshot::merge(a, empty), a);
  EXPECT_EQ(HistogramSnapshot::merge(empty, a), a);

  const auto ab = HistogramSnapshot::merge(a, b);
  EXPECT_EQ(ab.count, 5u);
  EXPECT_EQ(ab.min, std::ldexp(1.0, -30));
  EXPECT_EQ(ab.max, 1024.0);
}

TEST(TelemetryPrimitives, FakeClockAndStopwatchAreDeterministic) {
  FakeClock fc(100);
  Stopwatch w(fc);
  EXPECT_EQ(w.elapsed_ns(), 0u);
  fc.advance_ns(250);
  EXPECT_EQ(w.elapsed_ns(), 250u);
  EXPECT_DOUBLE_EQ(w.elapsed_seconds(), 250e-9);
  w.restart();
  EXPECT_EQ(w.elapsed_ns(), 0u);
  fc.set_ns(1350);
  EXPECT_EQ(w.elapsed_ns(), 1000u);

  // The real clock only needs to be monotonic; two reads never go back.
  const Clock& real = Clock::real();
  const std::uint64_t t0 = real.now_ns();
  EXPECT_GE(real.now_ns(), t0);
}

TEST(TelemetryRegistry, HandlesAreIdempotentKindAndNameChecked) {
  MetricsRegistry r(2);
  EXPECT_EQ(r.num_shards(), 2u);

  Counter& c1 = r.counter("ron_test_total");
  Counter& c2 = r.counter("ron_test_total");
  EXPECT_EQ(&c1, &c2);  // same name + same kind = the same metric

  // Same name + different kind is a programming error, not a new metric.
  EXPECT_THROW(r.gauge("ron_test_total"), Error);
  EXPECT_THROW(r.histogram("ron_test_total"), Error);

  // Names must match [a-z_][a-z0-9_]*.
  EXPECT_THROW(r.counter(""), Error);
  EXPECT_THROW(r.counter("9starts_with_digit"), Error);
  EXPECT_THROW(r.counter("has-dash"), Error);
  EXPECT_THROW(r.counter("CamelCase"), Error);
  EXPECT_NO_THROW(r.counter("_ok_name_2"));

  // Enumeration is name-sorted, so every scrape is deterministic.
  r.gauge("a_first");
  r.histogram("z_last");
  const auto metrics = r.metrics();
  std::vector<std::string> names;
  for (const Metric* m : metrics) names.push_back(m->name());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.front(), "_ok_name_2");  // '_' sorts before the letters
  EXPECT_EQ(names.back(), "z_last");
}

TEST(TelemetryRegistry, JsonSnapshotShape) {
  MetricsRegistry r(1);
  r.counter("ron_test_hits_total").add(0, 7);
  r.gauge("ron_test_n").set(64.0);
  Histogram& h = r.histogram("ron_test_lat_seconds");
  h.record(0, 0.5);
  h.record(0, 65536.0);  // overflow sample => "+Inf" bucket in the output

  const std::string json = r.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // embeds in bench lines
  EXPECT_NE(json.find("\"ron_test_hits_total\":{\"type\":\"counter\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ron_test_n\":{\"type\":\"gauge\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ron_test_lat_seconds\":{\"type\":\"histogram\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("[\"+Inf\",1]"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(TelemetryRegistry, UnrecordedRegistryScrapesAllZeroWithoutQuantiles) {
  // Metrics registered but never recorded into still scrape a well-formed
  // (all-zero, quantile-free) snapshot: an empty histogram has no
  // quantiles to report.
  MetricsRegistry r(2);
  r.counter("ron_test_hits_total");
  r.gauge("ron_test_n");
  r.histogram("ron_test_lat_seconds");
  const std::string json = r.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"value\":0"), std::string::npos);
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"p999\":"), std::string::npos);
}

TEST(TelemetryRegistry, PrometheusExpositionShape) {
  MetricsRegistry r(1);
  r.counter("ron_test_hits_total").add(0, 3);
  r.gauge("ron_test_n").set(8.0);
  Histogram& h = r.histogram("ron_test_lat_seconds");
  h.record(0, 0.5);
  h.record(0, 65536.0);  // overflow sample keeps the +Inf edge non-empty

  std::ostringstream os;
  r.to_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE ron_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ron_test_n gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ron_test_lat_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ron_test_lat_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("ron_test_lat_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("ron_test_lat_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ron_test_hits_total 3"), std::string::npos);
  EXPECT_NE(text.find("ron_test_lat_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
}

TEST(TelemetryRegistry, MergedDumpRejectsDuplicateNames) {
  MetricsRegistry a(1), b(1);
  a.counter("ron_a_total");
  b.counter("ron_b_total");
  const std::vector<const MetricsRegistry*> ok = {&a, &b};
  std::ostringstream os;
  dump_metrics_json(os, ok);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ron_a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"ron_b_total\""), std::string::npos);

  b.counter("ron_a_total");  // now collides with registry a
  std::ostringstream os2;
  EXPECT_THROW(dump_metrics_json(os2, ok), Error);
}

TEST(TelemetryTrace, SinkSamplesEveryNthAndKeepsTheNewest) {
  TraceSink sink(3, 2);
  std::vector<bool> sampled;
  for (int i = 0; i < 9; ++i) sampled.push_back(sink.should_sample());
  // Counter starts at 0, so walk 0 is always sampled, then every 3rd.
  EXPECT_EQ(sampled, (std::vector<bool>{true, false, false, true, false,
                                        false, true, false, false}));
  EXPECT_EQ(sink.seen(), 9u);

  for (NodeId q = 0; q < 5; ++q) {
    LocateTrace t;
    t.querier = q;
    sink.record(std::move(t));
  }
  EXPECT_EQ(sink.recorded(), 5u);
  const auto kept = sink.snapshot();
  ASSERT_EQ(kept.size(), 2u);  // capacity bounds retention...
  EXPECT_EQ(kept[0].querier, 3u);  // ...and the oldest are overwritten
  EXPECT_EQ(kept[1].querier, 4u);

  // sample_every = 0 disables the gate entirely (no counter churn either).
  TraceSink off(0, 4);
  EXPECT_FALSE(off.should_sample());
  EXPECT_EQ(off.seen(), 0u);
}

TEST(TelemetryTrace, SinkJsonIsAnArrayOfTraceObjects) {
  TraceSink sink(1, 4);
  std::ostringstream empty;
  sink.to_json(empty);
  EXPECT_EQ(empty.str(), "[]");

  LocateTrace t;
  t.querier = 1;
  t.object = 2;
  t.target = 3;
  t.found = true;
  t.nearest_dist = 0.5;
  t.hops.push_back({3, 0, 0.0});
  sink.record(std::move(t));
  std::ostringstream os;
  sink.to_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  for (const char* key : {"\"querier\":", "\"object\":", "\"target\":",
                          "\"found\":", "\"nearest_dist\":", "\"hops\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(TelemetryTrace, LocationServiceTraceMirrorsTheWalk) {
  ScenarioBuilder builder(ScenarioSpec::parse("metric=euclid,n=64"));
  const ObjectDirectory dir = builder.make_directory(8, 2);
  const LocationService svc(builder.prox(), builder.rings(), dir);

  std::size_t multi_hop_walks = 0;
  for (NodeId q = 0; q < svc.n(); ++q) {
    const ObjectId obj = static_cast<ObjectId>(q % dir.num_objects());
    LocateTrace trace;
    const LocateResult r = svc.locate(q, obj, {}, &trace);
    ASSERT_TRUE(r.found);

    // Endpoint fields mirror the result exactly.
    EXPECT_EQ(trace.querier, q);
    EXPECT_EQ(trace.object, obj);
    EXPECT_EQ(trace.found, r.found);
    EXPECT_EQ(trace.nearest_dist, r.nearest_dist);
    ASSERT_EQ(trace.hops.size(), r.hops);

    if (r.hops == 0) continue;
    ++multi_hop_walks;
    // Greedy invariant, per hop: strictly closer to the target copy, each
    // step found through a real ring level of the previous node.
    Dist prev = trace.nearest_dist;
    for (const TraceHop& hop : trace.hops) {
      EXPECT_LT(hop.dist_to_target, prev);
      EXPECT_GE(hop.ring_level, 0);
      EXPECT_LT(hop.node, svc.n());
      prev = hop.dist_to_target;
    }
    EXPECT_EQ(trace.hops.back().node, r.holder);
    EXPECT_EQ(trace.hops.back().dist_to_target, 0.0);
  }
  // The fixture must actually exercise walking (most queriers hold no
  // copy), otherwise the loop above proved nothing.
  EXPECT_GT(multi_hop_walks, 0u);
}

TEST(TelemetryEngine, EstimateServingRecordsExactCountsUnderFakeClock) {
  ScenarioBuilder builder(ScenarioSpec::parse("metric=euclid,n=48"));
  FakeClock clock;
  OracleOptions opts;
  opts.num_threads = 1;
  opts.cache_capacity = 256;
  opts.clock = &clock;
  OracleEngine engine(builder.take_labeling(), opts);

  // 48 distinct unordered pairs: batch 1 is all misses, the identical
  // batch 2 is all hits.
  std::vector<QueryPair> pairs;
  for (NodeId i = 0; i < 48; ++i) {
    pairs.emplace_back(i, static_cast<NodeId>((i + 7) % 48));
  }
  const auto r1 = engine.estimate_batch(pairs);
  const EngineTotals first = engine.totals();
  const auto r2 = engine.estimate_batch(pairs);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ((engine.totals() - first).cache_hits, 48u);

  // Lifetime totals, read from the registry. With a frozen clock each
  // batch's elapsed time clamps to the 1ns clock resolution (sub-tick
  // batches must never report qps = 0), so the busy time is exactly one
  // tick per batch.
  const EngineTotals totals = engine.totals();
  EXPECT_EQ(totals.batches, 2u);
  EXPECT_EQ(totals.queries, 96u);
  EXPECT_EQ(totals.cache_hits, 48u);
  EXPECT_EQ(totals.seconds, 2e-9);

  const auto* lat = find_metric<Histogram>(
      engine.metrics(), "ron_engine_estimate_latency_seconds");
  ASSERT_NE(lat, nullptr);
  const HistogramSnapshot s = lat->snapshot();
  // Latency covers hits and misses (one sample per served query); the
  // frozen clock puts every zero-duration sample in the underflow bucket.
  EXPECT_EQ(s.count, 96u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.buckets[0], 96u);

  const auto* hits = find_metric<Counter>(
      engine.metrics(), "ron_engine_estimate_cache_hits_total");
  const auto* misses = find_metric<Counter>(
      engine.metrics(), "ron_engine_estimate_cache_misses_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->value(), 48u);
  EXPECT_EQ(misses->value(), 48u);

  const auto* batch = find_metric<Histogram>(
      engine.metrics(), "ron_engine_estimate_batch_seconds");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->snapshot().count, 2u);
}

TEST(TelemetryEngine, LocateServingFeedsHopMetricsAndTraceSink) {
  ScenarioBuilder builder(ScenarioSpec::parse("metric=euclid,n=64"));
  const ObjectDirectory dir = builder.make_directory(16, 3);
  auto epoch = std::make_shared<LocationEpoch>();
  epoch->service = std::make_shared<const LocationService>(
      builder.prox(), builder.rings(), dir);
  const LocationService& svc = *epoch->service;

  FakeClock clock;
  TraceSink sink(1, 64);  // sample every cache-miss walk
  OracleOptions opts;
  opts.num_threads = 1;
  opts.cache_capacity = 128;
  opts.clock = &clock;
  opts.trace_sink = &sink;
  OracleEngine engine(epoch, opts);

  Rng rng(7);
  std::vector<LocateQuery> queries;
  for (int i = 0; i < 100; ++i) {
    queries.emplace_back(static_cast<NodeId>(rng.index(svc.n())),
                         static_cast<ObjectId>(rng.index(dir.num_objects())));
  }
  const auto results = engine.locate_batch(queries);
  ASSERT_EQ(results.size(), queries.size());

  const auto* hits = find_metric<Counter>(
      engine.metrics(), "ron_engine_locate_cache_hits_total");
  const auto* misses = find_metric<Counter>(
      engine.metrics(), "ron_engine_locate_cache_misses_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->value() + misses->value(), queries.size());

  // Hop counts are a distribution over real ring walks (cache hits repeat
  // no hops), so the histogram lines up with the miss counter.
  const auto* hops = find_metric<Histogram>(engine.metrics(),
                                            "ron_engine_locate_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->snapshot().count, misses->value());
  EXPECT_GT(hops->snapshot().count, 0u);

  // Every ring-walk bundled with this repo honors the Theorem 5.2(a)
  // engineering bound; the gauge publishes the bound itself.
  const auto* violations = find_metric<Counter>(
      engine.metrics(), "ron_engine_locate_hop_bound_violations_total");
  const auto* bound = find_metric<Gauge>(engine.metrics(),
                                         "ron_engine_locate_hop_bound");
  ASSERT_NE(violations, nullptr);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(violations->value(), 0u);
  EXPECT_EQ(bound->value(),
            static_cast<double>(location_hop_bound(svc.n())));

  // With sample_every=1, exactly the cache-miss walks were traced; a
  // repeat batch is all hits and deposits nothing new.
  EXPECT_EQ(sink.recorded(), misses->value());
  const std::uint64_t before = sink.recorded();
  engine.locate_batch(queries);
  EXPECT_EQ(sink.recorded(), before);

  const std::string json = engine.metrics().to_json();
  EXPECT_NE(json.find("\"ron_engine_locate_hops\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace ron
