// OracleEngine: the query-serving half of the oracle subsystem.
//
// The engine owns immutable snapshot state plus a fixed pool of worker
// threads and answers *batched* queries of two kinds:
//
//   - estimate_batch: distance estimates from a loaded DistanceLabeling.
//     DistanceLabeling::estimate is a pure function of two labels, so
//     serving parallelizes embarrassingly.
//   - locate_batch: nearest-copy object location through the current
//     LocationEpoch's LocationService (greedy ring-walks; LocationService is
//     immutable and safe to share across threads).
//
// Both paths share the same machinery: a batch is sharded by source/querier
// node across the workers (query i goes to worker source % W), each worker
// writes its answers into disjoint slots of the shared result vector, and
// an optional bounded-LRU result cache is split into per-worker shards so
// cache lookups never take a lock (sharding by source keeps a hot source
// cache-local). Results are bit-identical to running the queries serially,
// for any thread count and any cache size.
//
// Threading contract: batches are submitted from one dispatcher thread at a
// time (the engine is the concurrency). Workers park on a condition variable
// between batches and run whatever shard function the dispatcher published;
// the pool is joined on destruction. The two locking domains are annotated
// for clang's -Wthread-safety (see common/thread_annotations.h): pool state
// under mu_, the live epoch pointer under epoch_mu_, and the two are never
// held together. Per-worker state (cache shards, epoch tags, shard_index_)
// is single-owner by the batch protocol — outside the annotations' reach,
// covered by the tsan.* stress shard instead.
//
// Epochs: location state enters an engine only as a LocationEpoch, through
// the epoch constructor or apply(). apply() swaps the current epoch
// atomically (it may be called from a maintenance thread while a batch is
// in flight): every batch pins the epoch pointer it started with, so
// in-flight locate queries keep answering from the old epoch, and each
// worker's locate LRU shard is cleared the first time that worker serves
// the new epoch — a cached pre-mutation result is never served across an
// epoch boundary.
//
// Telemetry: every serving event is recorded into a sharded
// MetricsRegistry (telemetry/metrics.h; ron_engine_* names) — per-query
// latency histograms, per-shard LRU hit/miss counters, epoch-swap events
// with swap-duration and lock hold-time histograms, and hop/stretch
// distributions checked against location_hop_bound. Recording is lock-free
// (worker w writes only shard w). The registry is the only accounting;
// totals() reads it.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "labeling/distance_labels.h"
#include "location/location_service.h"
#include "oracle/lru.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ron {

/// One distance query: (source, target) node ids.
using QueryPair = std::pair<NodeId, NodeId>;

/// One location query: (querier node, published object id).
using LocateQuery = std::pair<NodeId, ObjectId>;

/// `count` uniform random query pairs over [0, n) — the shared synthetic
/// workload generator of the QPS bench, the CLI's bench subcommand and the
/// engine tests.
std::vector<QueryPair> random_query_pairs(std::size_t count, std::size_t n,
                                          Rng& rng);

struct OracleOptions {
  /// Worker threads; 0 = one per available CPU (the affinity mask, see
  /// common/parallel.h), at most 256.
  unsigned num_threads = 1;
  /// LRU result-cache entries across all worker shards, per query kind
  /// (estimate and locate caches are separate); 0 disables caching.
  std::size_t cache_capacity = 0;
  /// Timing source for batch stats and latency histograms (borrowed, must
  /// outlive the engine); null = Clock::real(). Tests inject a FakeClock
  /// for deterministic timings.
  const Clock* clock = nullptr;
  /// Sampled locate ring-walk traces land here when non-null (borrowed,
  /// must outlive the engine). Only cache-miss walks are offered to the
  /// sink; its sample_every does the thinning.
  TraceSink* trace_sink = nullptr;
};

/// Running totals across the engine's lifetime (both query kinds), read
/// from the metrics registry by totals(). A read taken while batches run is
/// a monitoring read: every field is monotone, never a data race. The
/// difference of two reads accounts the batches in between.
struct EngineTotals {
  std::size_t batches = 0;
  std::size_t queries = 0;
  double seconds = 0.0;  // summed batch wall time ("busy seconds")
  std::size_t cache_hits = 0;

  /// queries / seconds; 0 before any batch ran.
  double qps() const {
    return seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  }

  friend EngineTotals operator-(const EngineTotals& a, const EngineTotals& b) {
    return {a.batches - b.batches, a.queries - b.queries,
            a.seconds - b.seconds, a.cache_hits - b.cache_hits};
  }
};

/// One immutable generation of location-serving state, and the only way
/// location state enters an engine. The shared_ptrs keep the
/// rings/directory alive exactly as long as any batch (or the engine) still
/// points at this epoch; `service` must be built over those same objects
/// (and over a ProximityIndex that outlives every epoch — epochs share the
/// metric, churn only rewrites overlay and directory state). `rings` and
/// `directory` are null when their owner outlives the epoch (e.g. a
/// ScenarioBuilder the caller keeps alive), and the service borrows them.
/// The churn subsystem's OverlayMutator::commit() is the canonical factory.
struct LocationEpoch {
  /// Monotonically increasing generation tag; apply() requires each
  /// applied id to exceed the previous one so per-worker cache
  /// invalidation can key off it.
  std::uint64_t id = 0;
  std::shared_ptr<const RingsOfNeighbors> rings;      // null: owner outlives
  std::shared_ptr<const ObjectDirectory> directory;   // null: owner outlives
  std::shared_ptr<const LocationService> service;     // required
};

class OracleEngine {
 public:
  /// Distance-estimate serving from a loaded labeling; apply() adds
  /// location state later (with default LocateOptions).
  explicit OracleEngine(DistanceLabeling labeling, OracleOptions opts = {});

  /// Locate-only serving from an epoch (the dynamic-overlay entry point:
  /// OverlayMutator::commit() -> this -> apply() for later epochs).
  /// `locate_opts` is fixed per engine so cached results can never reflect
  /// a different walk configuration.
  OracleEngine(std::shared_ptr<const LocationEpoch> epoch, OracleOptions opts,
               LocateOptions locate_opts = {});

  ~OracleEngine() RON_EXCLUDES(mu_, epoch_mu_);

  OracleEngine(const OracleEngine&) = delete;
  OracleEngine& operator=(const OracleEngine&) = delete;

  /// Node count of whichever snapshot state is present (labeling wins when
  /// both are present; apply() enforces they agree).
  std::size_t n() const;
  unsigned num_workers() const { return workers_; }

  bool has_labeling() const { return labeling_.has_value(); }
  const DistanceLabeling& labeling() const;

  /// Swaps the serving epoch (on an estimate engine, the first call
  /// attaches location state). Requires a complete epoch (non-null service)
  /// over the same node count as the labeling and the current epoch, with
  /// an id STRICTLY GREATER than the current epoch's (worker cache tags
  /// hold previously served ids, so a reused id — e.g. from a second
  /// mutator numbering its own commits from 1 — could match a stale tag).
  /// Safe to call from a maintenance thread while batches run:
  /// in-flight batches finish against the epoch they pinned at submission,
  /// and each worker's locate cache shard is invalidated lazily when it
  /// first serves the new epoch. The fixed locate_opts are kept.
  void apply(std::shared_ptr<const LocationEpoch> epoch)
      RON_EXCLUDES(epoch_mu_);

  bool has_location() const { return current_epoch() != nullptr; }
  const LocationService& location() const;

  /// The live epoch (null when no location state is attached). Batches pin
  /// their own copy, so this is a peek, not a serving handle.
  std::shared_ptr<const LocationEpoch> current_epoch() const
      RON_EXCLUDES(epoch_mu_);

  /// Single query (validated); computed inline, bypassing pool and cache.
  Dist estimate(NodeId u, NodeId v) const;
  LocateResult locate(NodeId querier, ObjectId obj) const;

  /// Answers every pair; results[i] corresponds to pairs[i]. Node ids are
  /// validated up front (throws ron::Error).
  std::vector<Dist> estimate_batch(std::span<const QueryPair> pairs);

  /// Answers every locate query; results[i] corresponds to queries[i].
  /// Querier/object ids are validated up front (throws ron::Error).
  std::vector<LocateResult> locate_batch(std::span<const LocateQuery> queries);

  /// Lifetime totals, read from the registry; safe to read from any thread
  /// at any time. `batches` and `seconds` are the count and sum of
  /// ron_engine_{estimate,locate}_batch_seconds, `queries` the count of
  /// ron_engine_{estimate,locate}_latency_seconds, `cache_hits` the sum of
  /// ron_engine_{estimate,locate}_cache_hits_total.
  EngineTotals totals() const;

  /// The engine's metric registry (telemetry/metrics.h): per-query latency
  /// and lock hold-time histograms, cache hit/miss and epoch-swap
  /// counters, hop/stretch distributions — all ron_engine_*-prefixed.
  /// Scraping (to_json / to_prometheus) is safe while batches run.
  const MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Estimates are symmetric, so their key is the unordered pair.
  static std::uint64_t pair_key(NodeId u, NodeId v) {
    const NodeId lo = u < v ? u : v;
    const NodeId hi = u < v ? v : u;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  /// Locates are not symmetric: (querier, object id), distinct key spaces
  /// because the caches are separate shards.
  static std::uint64_t locate_key(NodeId querier, ObjectId obj) {
    return (static_cast<std::uint64_t>(querier) << 32) | obj;
  }

  /// Pool/cache/shard setup shared by the public constructors; snapshot
  /// state (labeling_ / epoch_) is set afterwards by each of them.
  explicit OracleEngine(OracleOptions opts);

  void start_pool();
  void worker_main(unsigned w) RON_EXCLUDES(mu_);
  /// Shards `count` queries by `source_of(i) % workers`, publishes
  /// `shard_fn` to the pool (or runs it inline for one worker), rethrows
  /// the first worker error, and records the batch's wall time into
  /// `batch_seconds`.
  template <typename SourceOf>
  void run_batch(std::size_t count, SourceOf&& source_of,
                 const std::function<void(unsigned)>& shard_fn,
                 Histogram& batch_seconds) RON_EXCLUDES(mu_);
  void process_estimate_shard(unsigned w, std::span<const QueryPair> pairs,
                              std::vector<Dist>& results);
  void process_locate_shard(unsigned w, const LocationEpoch& epoch,
                            std::span<const LocateQuery> queries,
                            std::vector<LocateResult>& results);
  /// Per-query timestamp for the shard loops: the inline steady_clock read
  /// when the engine runs on the real clock (the common case), virtual
  /// dispatch for injected test clocks.
  std::uint64_t query_now_ns() const {
    return clock_is_real_ ? real_now_ns() : clock_->now_ns();
  }
  /// Registers every ron_engine_* metric and caches the handles below.
  void init_metrics();

  std::optional<DistanceLabeling> labeling_;
  LocateOptions locate_opts_;
  unsigned workers_ = 1;
  std::size_t cache_capacity_per_shard_ = 0;
  // Per-worker single-owner state: shard w is touched only by worker w
  // while a batch runs, and only by the dispatcher between batches (the
  // batch mutex+condvar protocol orders the handoff). That ownership
  // discipline cannot be spelled as a RON_GUARDED_BY — it is exercised
  // under TSan by the tsan.* stress shard instead.
  std::vector<LruShard<Dist>> estimate_cache_;        // one shard per worker
  std::vector<LruShard<LocateResult>> locate_cache_;  // one shard per worker
  // Epoch id each locate shard last served; a worker clears its shard when
  // the pinned batch epoch differs (only that worker touches the shard, so
  // the lazy clear is race-free).
  std::vector<std::uint64_t> locate_cache_epoch_;
  // The live epoch; guarded by its own mutex so apply() from a maintenance
  // thread never contends with the worker pool's batch mutex. Never hold
  // both: every epoch_mu_ critical section is a leaf.
  mutable Mutex epoch_mu_;
  std::shared_ptr<const LocationEpoch> epoch_ RON_GUARDED_BY(epoch_mu_);

  // Pool state (guarded by mu_). Batches publish the shard function, bump
  // generation_ and wait for remaining_ to hit zero.
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  std::vector<std::thread> pool_;  // written before the pool runs, then const
  bool stop_ RON_GUARDED_BY(mu_) = false;
  std::uint64_t generation_ RON_GUARDED_BY(mu_) = 0;
  unsigned remaining_ RON_GUARDED_BY(mu_) = 0;
  // First exception a worker hit this batch; rethrown to the dispatcher so
  // a malformed query/snapshot surfaces as ron::Error, never std::terminate.
  std::exception_ptr batch_error_ RON_GUARDED_BY(mu_);
  std::function<void(unsigned)> batch_fn_ RON_GUARDED_BY(mu_);
  // Built by the dispatcher before a batch is published, read by workers
  // during it (ordered by the mu_/cv protocol, like the shards above).
  std::vector<std::vector<std::uint32_t>> shard_index_;  // per worker

  // Telemetry. The registry has workers_+1 shards: shard w belongs to
  // worker w during a batch; shard workers_ is shared by the dispatcher
  // and any maintenance thread (cells are atomics, so sharing a shard is
  // slower under contention, never incorrect). Metric handles are cached
  // raw pointers into the registry (stable for its lifetime) so the hot
  // path never does a name lookup.
  const Clock* clock_ = nullptr;  // never null after construction
  // True when clock_ is Clock::real(): the per-query stamps in the shard
  // loops then take the inline real_now_ns() path instead of a virtual
  // call (one perfectly-predicted branch).
  bool clock_is_real_ = false;
  TraceSink* trace_sink_ = nullptr;
  std::unique_ptr<MetricsRegistry> metrics_;
  Histogram* m_estimate_latency_ = nullptr;
  Histogram* m_estimate_candidates_ = nullptr;
  Histogram* m_locate_latency_ = nullptr;
  Histogram* m_estimate_batch_seconds_ = nullptr;
  Histogram* m_locate_batch_seconds_ = nullptr;
  Counter* m_estimate_cache_hits_ = nullptr;
  Counter* m_estimate_cache_misses_ = nullptr;
  Counter* m_locate_cache_hits_ = nullptr;
  Counter* m_locate_cache_misses_ = nullptr;
  Counter* m_epoch_swaps_ = nullptr;
  Histogram* m_epoch_swap_seconds_ = nullptr;
  Histogram* m_epoch_mu_hold_seconds_ = nullptr;
  Histogram* m_mu_hold_seconds_ = nullptr;
  Histogram* m_locate_hops_ = nullptr;
  Histogram* m_locate_probes_ = nullptr;
  Histogram* m_locate_route_stretch_ = nullptr;
  Counter* m_hop_bound_violations_ = nullptr;
  Counter* m_locate_not_found_ = nullptr;
  Counter* m_cache_invalidations_ = nullptr;
  Gauge* m_hop_bound_ = nullptr;
};

}  // namespace ron
