// Telemetry primitives: Counter, Gauge, log-bucketed Histogram, and the
// string-keyed MetricsRegistry that owns them.
//
// Recording is lock-free on the hot path. Counters and histograms are
// sharded per worker (same single-owner discipline as oracle/lru.h: shard w
// belongs to worker w), each shard a cache-line-aligned block of relaxed
// atomics — a record never takes a shared lock and never contends with
// another worker's shard. Shards are summed only at scrape time, so a
// snapshot taken while workers record is approximate across cells (each
// cell individually exact) — the normal monitoring contract.
//
// The registry's mutex guards registration and enumeration only; handles
// returned by counter()/gauge()/histogram() are stable for the registry's
// lifetime and are what hot paths hold.
//
// Naming scheme (see README "Observability"): prometheus-style
// `ron_<subsystem>_<what>_<unit-or-total>`, lowercase snake_case —
// e.g. ron_engine_locate_latency_seconds, ron_churn_joins_total.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ron {

/// Histogram bucket layout: powers of two, closed-left. Bucket 1+k covers
/// [2^(kMinExp+k), 2^(kMinExp+k+1)); bucket 0 is the underflow slot
/// (v < 2^kHistMinExp, including zero, negatives and NaN) and the last
/// bucket is overflow (v >= 2^kHistMaxExp). 2^-31 s ~ 0.47ns resolves
/// single-digit-nanosecond latencies; 2^16 = 65536 covers multi-hour
/// durations and every count-valued sample (hops, stretch) this repo
/// records.
inline constexpr int kHistMinExp = -31;
inline constexpr int kHistMaxExp = 16;
inline constexpr std::size_t kHistNumBuckets =
    static_cast<std::size_t>(kHistMaxExp - kHistMinExp) + 2;

/// Point-in-time copy of a histogram (all shards summed). Plain data:
/// merge/compare freely in tests.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;  // meaningful only when count > 0
  std::array<std::uint64_t, kHistNumBuckets> buckets{};

  double mean() const { return count == 0 ? 0.0 : sum / double(count); }

  /// Conservative quantile: the UPPER edge of the bucket holding rank
  /// ceil(q*count), clamped to max so it never exceeds the largest sample
  /// seen (the overflow bucket reports max directly). Always an upper
  /// bound on the true quantile, never an underestimate. Throws ron::Error
  /// on count==0 — same honest-empty contract as common/stats.h
  /// percentile().
  double quantile(double q) const;

  /// Bucket-wise sum; exact and commutative (counts are integers and
  /// IEEE addition of two doubles is commutative).
  static HistogramSnapshot merge(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b);

  bool operator==(const HistogramSnapshot&) const = default;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Base for registry-owned metrics: a name, a kind, and the two scrape
/// serializations.
class Metric {
 public:
  Metric(std::string name, MetricKind kind)
      : name_(std::move(name)), kind_(kind) {}
  Metric(const Metric&) = delete;
  Metric& operator=(const Metric&) = delete;
  virtual ~Metric() = default;

  const std::string& name() const { return name_; }
  MetricKind kind() const { return kind_; }

  /// The value object after `"name":` in the JSON snapshot (no newlines —
  /// snapshots embed into single-line bench summaries).
  virtual void json_value(std::ostream& os) const = 0;
  /// Prometheus text-exposition block (# TYPE line plus samples). Note the
  /// histogram `le` edges here are exclusive (closed-left buckets), a
  /// documented deviation from prometheus's inclusive `le`.
  virtual void exposition(std::ostream& os) const = 0;

 private:
  std::string name_;
  MetricKind kind_;
};

/// Monotonic counter, one cache line per shard.
class Counter final : public Metric {
 public:
  Counter(std::string name, unsigned num_shards);

  void add(unsigned shard, std::uint64_t delta = 1) {
    cells_[shard].v.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Single-owner fast path (relaxed load+store, no RMW): ONLY valid while
  /// the caller is the shard's sole writer — see
  /// Histogram::record_single_owner for the contract.
  void add_single_owner(unsigned shard, std::uint64_t delta = 1) {
    auto& c = cells_[shard].v;
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  std::uint64_t value() const;

  void json_value(std::ostream& os) const override;
  void exposition(std::ostream& os) const override;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Cell> cells_;
};

/// Last-write-wins instantaneous value (not sharded: gauges record settings
/// and sizes, not per-query events).
class Gauge final : public Metric {
 public:
  explicit Gauge(std::string name) : Metric(std::move(name), MetricKind::kGauge) {}

  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

  void json_value(std::ostream& os) const override;
  void exposition(std::ostream& os) const override;

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram (layout above), sharded per worker.
class Histogram final : public Metric {
 public:
  Histogram(std::string name, unsigned num_shards);

  void record(unsigned shard, double v);

  /// Single-owner fast path: relaxed load+store instead of atomic RMW on
  /// every cell (~3x cheaper per sample on the serving hot path). ONLY
  /// valid while the caller is the shard's sole writer — the engine's
  /// per-worker shards under the batch protocol qualify, the shared
  /// dispatcher/maintenance shard does NOT (concurrent single-owner writes
  /// would lose updates; use record() there). Concurrent scrapes stay
  /// safe: readers see each relaxed-atomic cell individually intact.
  void record_single_owner(unsigned shard, double v) {
    Shard& s = shards_[shard];
    auto& bucket = s.buckets[bucket_index(v)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    s.count.store(s.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    s.sum.store(s.sum.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
    // Same NaN semantics as record(): a NaN sample still counts (in the
    // underflow bucket) but never becomes min/max.
    if (v < s.min.load(std::memory_order_relaxed)) {
      s.min.store(v, std::memory_order_relaxed);
    }
    if (v > s.max.load(std::memory_order_relaxed)) {
      s.max.store(v, std::memory_order_relaxed);
    }
  }

  /// Bulk single-owner merge: fold a batch-local plain-counter
  /// accumulation (e.g. a shard loop's stack scratch) into shard `shard`
  /// in one pass — the serving path records into L1-hot plain arrays per
  /// query and pays the shared-shard cache lines once per batch instead
  /// of once per query. Same single-owner contract as
  /// record_single_owner. `local.min`/`local.max` are consulted only when
  /// local.count > 0 and must follow the NaN rule (a NaN sample counts
  /// but never becomes min/max). No-op when local.count == 0.
  void merge_single_owner(unsigned shard, const HistogramSnapshot& local);

  /// Bucket index for a sample (exact power-of-two boundaries, closed
  /// left); exposed for the boundary-exactness tests.
  static std::size_t bucket_index(double v);
  /// Exclusive upper edge of bucket i (+inf for the overflow bucket).
  static double bucket_upper(std::size_t i);

  HistogramSnapshot snapshot() const;

  void json_value(std::ostream& os) const override;
  void exposition(std::ostream& os) const override;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistNumBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::vector<Shard> shards_;
};

/// Owns metrics by name. Registration is idempotent (same name + same kind
/// returns the existing handle; same name + different kind throws
/// ron::Error) and mutex-guarded; returned references stay valid for the
/// registry's lifetime. Names must match [a-z_][a-z0-9_]*.
class MetricsRegistry {
 public:
  /// `num_shards` is the worker count every sharded metric is created
  /// with; single-threaded recorders use registries of one shard.
  explicit MetricsRegistry(unsigned num_shards = 1);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  unsigned num_shards() const { return num_shards_; }

  Counter& counter(std::string_view name) RON_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) RON_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) RON_EXCLUDES(mu_);

  /// All metrics sorted by name; pointers stay valid for the registry's
  /// lifetime (metrics are never removed).
  std::vector<const Metric*> metrics() const RON_EXCLUDES(mu_);

  /// `{"metric_name":{...},...}` — single line, keys sorted.
  void to_json(std::ostream& os) const RON_EXCLUDES(mu_);
  std::string to_json() const RON_EXCLUDES(mu_);
  /// Prometheus text exposition of every metric, name-sorted.
  void to_prometheus(std::ostream& os) const RON_EXCLUDES(mu_);

 private:
  template <typename T, MetricKind Kind, typename... Args>
  T& get_or_create(std::string_view name, Args&&... args) RON_EXCLUDES(mu_);

  unsigned num_shards_;
  mutable Mutex mu_;
  // std::map: stable iteration order makes every scrape deterministic, and
  // node stability keeps handed-out metric pointers valid across inserts.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> metrics_
      RON_GUARDED_BY(mu_);
};

/// Merged `{"name":value,...}` snapshot across several registries (names
/// must be globally unique — registries namespace by prefix; a duplicate
/// throws ron::Error). Used by ron_oracle --metrics-out, where engine,
/// mutator and builder registries land in one file.
void dump_metrics_json(std::ostream& os,
                       std::span<const MetricsRegistry* const> registries);

/// Merged prometheus exposition across several registries.
void dump_metrics_prometheus(
    std::ostream& os, std::span<const MetricsRegistry* const> registries);

}  // namespace ron
