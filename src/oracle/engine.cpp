#include "oracle/engine.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"

namespace ron {
namespace {

// Batch-local histogram scratch: a shard loop records every sample here
// with plain arithmetic (stack-hot cache lines, no atomics) and folds the
// whole batch into the shared shard once via Histogram::merge_single_owner.
// min/max start at the infinities so the NaN rule matches record(): a NaN
// sample lands in the underflow bucket but never becomes min/max.
struct LocalHistogram {
  HistogramSnapshot h{.count = 0,
                      .sum = 0.0,
                      .min = std::numeric_limits<double>::infinity(),
                      .max = -std::numeric_limits<double>::infinity(),
                      .buckets = {}};

  void record(double v) {
    ++h.buckets[Histogram::bucket_index(v)];
    ++h.count;
    h.sum += v;
    if (v < h.min) h.min = v;
    if (v > h.max) h.max = v;
  }
};

}  // namespace

std::vector<QueryPair> random_query_pairs(std::size_t count, std::size_t n,
                                          Rng& rng) {
  std::vector<QueryPair> pairs(count);
  for (auto& p : pairs) {
    p = {static_cast<NodeId>(rng.index(n)), static_cast<NodeId>(rng.index(n))};
  }
  return pairs;
}

OracleEngine::OracleEngine(OracleOptions opts)
    : clock_(opts.clock != nullptr ? opts.clock : &Clock::real()),
      clock_is_real_(clock_ == &Clock::real()),
      trace_sink_(opts.trace_sink) {
  if (opts.num_threads != 0) {
    RON_CHECK(opts.num_threads <= 256,
              "OracleEngine: " << opts.num_threads << " threads");
    workers_ = opts.num_threads;
  } else {
    // Auto mode: one per available CPU, clamped (not rejected) on very
    // large hosts.
    workers_ = std::min(256u, available_cpus());
  }
  // Per-worker cache shards; at least one entry each when caching is on.
  cache_capacity_per_shard_ =
      opts.cache_capacity == 0
          ? 0
          : std::max<std::size_t>(1, opts.cache_capacity / workers_);
  estimate_cache_.reserve(workers_);
  locate_cache_.reserve(workers_);
  for (unsigned w = 0; w < workers_; ++w) {
    estimate_cache_.emplace_back(cache_capacity_per_shard_);
    locate_cache_.emplace_back(cache_capacity_per_shard_);
  }
  locate_cache_epoch_.assign(workers_, 0);
  shard_index_.resize(workers_);
  init_metrics();
  start_pool();
}

void OracleEngine::init_metrics() {
  // workers_+1 shards: one per worker plus the shared dispatcher/
  // maintenance shard (index workers_) — see the member comment.
  metrics_ = std::make_unique<MetricsRegistry>(workers_ + 1);
  MetricsRegistry& r = *metrics_;
  m_estimate_latency_ = &r.histogram("ron_engine_estimate_latency_seconds");
  m_estimate_candidates_ = &r.histogram("ron_engine_estimate_candidates");
  m_locate_latency_ = &r.histogram("ron_engine_locate_latency_seconds");
  m_estimate_batch_seconds_ =
      &r.histogram("ron_engine_estimate_batch_seconds");
  m_locate_batch_seconds_ = &r.histogram("ron_engine_locate_batch_seconds");
  m_estimate_cache_hits_ = &r.counter("ron_engine_estimate_cache_hits_total");
  m_estimate_cache_misses_ =
      &r.counter("ron_engine_estimate_cache_misses_total");
  m_locate_cache_hits_ = &r.counter("ron_engine_locate_cache_hits_total");
  m_locate_cache_misses_ = &r.counter("ron_engine_locate_cache_misses_total");
  m_epoch_swaps_ = &r.counter("ron_engine_epoch_swaps_total");
  m_epoch_swap_seconds_ = &r.histogram("ron_engine_epoch_swap_seconds");
  m_epoch_mu_hold_seconds_ =
      &r.histogram("ron_engine_epoch_mu_hold_seconds");
  m_mu_hold_seconds_ = &r.histogram("ron_engine_mu_hold_seconds");
  m_locate_hops_ = &r.histogram("ron_engine_locate_hops");
  m_locate_probes_ = &r.histogram("ron_engine_locate_probes");
  m_locate_route_stretch_ = &r.histogram("ron_engine_locate_route_stretch");
  m_hop_bound_violations_ =
      &r.counter("ron_engine_locate_hop_bound_violations_total");
  m_locate_not_found_ = &r.counter("ron_engine_locate_not_found_total");
  m_cache_invalidations_ =
      &r.counter("ron_engine_locate_cache_invalidations_total");
  m_hop_bound_ = &r.gauge("ron_engine_locate_hop_bound");
}

OracleEngine::OracleEngine(DistanceLabeling labeling, OracleOptions opts)
    : OracleEngine(opts) {
  labeling_ = std::move(labeling);
}

OracleEngine::OracleEngine(std::shared_ptr<const LocationEpoch> epoch,
                           OracleOptions opts, LocateOptions locate_opts)
    : OracleEngine(opts) {
  locate_opts_ = locate_opts;
  apply(std::move(epoch));
}

OracleEngine::~OracleEngine() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : pool_) t.join();
}

std::size_t OracleEngine::n() const {
  if (labeling_.has_value()) return labeling_->n();
  const auto epoch = current_epoch();
  RON_CHECK(epoch != nullptr, "OracleEngine: no snapshot state");
  return epoch->service->n();
}

const DistanceLabeling& OracleEngine::labeling() const {
  RON_CHECK(labeling_.has_value(), "OracleEngine: no labeling attached");
  return *labeling_;
}

std::shared_ptr<const LocationEpoch> OracleEngine::current_epoch() const {
  // Hold time is clocked from acquisition to just before release (the
  // Stopwatch lives inside the critical section); recording happens after
  // the unlock so the histogram update is never under the lock. The
  // dispatcher/maintenance shard is shared — its cells are atomics.
  std::uint64_t hold_ns = 0;
  std::shared_ptr<const LocationEpoch> epoch;
  {
    MutexLock lk(epoch_mu_);
    const Stopwatch hold(*clock_);
    epoch = epoch_;
    hold_ns = hold.elapsed_ns();
  }
  m_epoch_mu_hold_seconds_->record(workers_,
                                   static_cast<double>(hold_ns) * 1e-9);
  return epoch;
}

void OracleEngine::apply(std::shared_ptr<const LocationEpoch> epoch) {
  // Swap duration covers validation + the guarded swap; the epoch_mu_ hold
  // time covers only the critical section. Both recorded after the unlock.
  const Stopwatch swap_watch(*clock_);
  RON_CHECK(epoch != nullptr && epoch->service != nullptr,
            "OracleEngine: epoch must carry a location service");
  RON_CHECK(!labeling_.has_value() || labeling_->n() == epoch->service->n(),
            "OracleEngine: labeling over " << labeling_->n()
                                           << " nodes, location over "
                                           << epoch->service->n());
  const std::size_t hop_bound = location_hop_bound(epoch->service->n());
  std::uint64_t hold_ns = 0;
  {
    MutexLock lk(epoch_mu_);
    const Stopwatch hold_watch(*clock_);
    if (epoch_ != nullptr) {
      RON_CHECK(epoch_->service->n() == epoch->service->n(),
                "OracleEngine: epoch over " << epoch->service->n()
                                            << " nodes, serving "
                                            << epoch_->service->n());
      // Cache shards are invalidated by id comparison, and a worker's tag
      // can hold ANY previously served id — so applied ids must strictly
      // increase (not merely differ), or an id reused across sources (e.g.
      // epochs from two different mutators, both of which number from 1)
      // could silently serve the old epoch's cached results.
      RON_CHECK(epoch->id > epoch_->id,
                "OracleEngine: epoch id " << epoch->id
                                          << " must exceed the current epoch's "
                                          << epoch_->id);
    }
    epoch_ = std::move(epoch);
    hold_ns = hold_watch.elapsed_ns();
  }
  m_epoch_mu_hold_seconds_->record(workers_,
                                   static_cast<double>(hold_ns) * 1e-9);
  m_epoch_swaps_->add(workers_);
  m_epoch_swap_seconds_->record(workers_, swap_watch.elapsed_seconds());
  // Visible yardstick for the violation counter (Theorem 5.2(a)'s
  // 4*ceil(log2 n)+8 for the current epoch's node count).
  m_hop_bound_->set(static_cast<double>(hop_bound));
}

const LocationService& OracleEngine::location() const {
  const auto epoch = current_epoch();
  RON_CHECK(epoch != nullptr, "OracleEngine: no location service");
  return *epoch->service;
}

void OracleEngine::start_pool() {
  if (workers_ > 1) {
    pool_.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w) {
      pool_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

Dist OracleEngine::estimate(NodeId u, NodeId v) const {
  const DistanceLabeling& dls = labeling();
  RON_CHECK(u < dls.n() && v < dls.n(), "estimate: node id out of range");
  return DistanceLabeling::estimate(dls.label(u), dls.label(v)).upper;
}

LocateResult OracleEngine::locate(NodeId querier, ObjectId obj) const {
  const auto epoch = current_epoch();
  RON_CHECK(epoch != nullptr, "OracleEngine: no location service");
  return epoch->service->locate(querier, obj, locate_opts_);
}

void OracleEngine::worker_main(unsigned w) {
  std::uint64_t seen = 0;
  // Explicit lock/unlock rather than a scoped guard: the protocol holds
  // mu_ across the park/claim edge and releases it around the shard work.
  // The predicate is an inline loop (not a wait(lk, pred) lambda) so the
  // thread-safety analysis can see the guarded reads under the lock.
  mu_.lock();
  while (true) {
    while (!stop_ && generation_ == seen) cv_start_.wait(mu_);
    if (stop_) {
      mu_.unlock();
      return;
    }
    seen = generation_;
    // Copy the shard function so it survives the unlocked region even if
    // the dispatcher publishes the next batch before this worker reawakens.
    auto fn = batch_fn_;
    mu_.unlock();
    std::exception_ptr err;
    try {
      fn(w);
    } catch (...) {
      err = std::current_exception();
    }
    mu_.lock();
    if (err != nullptr && batch_error_ == nullptr) batch_error_ = err;
    if (--remaining_ == 0) cv_done_.notify_one();
  }
}

void OracleEngine::process_estimate_shard(unsigned w,
                                          std::span<const QueryPair> pairs,
                                          std::vector<Dist>& results) {
  const DistanceLabeling& dls = *labeling_;
  LruShard<Dist>& cache = estimate_cache_[w];
  // Per-query telemetry goes into batch-local plain scratch (one clock
  // read per query via chained stamps: each query's end stamp is the next
  // one's start, and the telescoped sum equals the shard's true wall
  // time). The shared atomic shards are touched once per batch, below —
  // shard w is single-owner here (batch protocol), so the single-owner
  // merge/add fast paths apply.
  LocalHistogram latency;
  // Common-neighbor candidates per real decode: like the locate probes,
  // a cache hit decodes nothing, so only misses are recorded.
  LocalHistogram candidates;
  std::uint64_t hits_n = 0;
  std::uint64_t misses_n = 0;
  std::uint64_t t0 = query_now_ns();
  for (std::uint32_t i : shard_index_[w]) {
    const auto [u, v] = pairs[i];
    const std::uint64_t key = pair_key(u, v);
    Dist d;
    const bool hit = cache.enabled() && cache.get(key, d);
    if (!hit) {
      const DlsEstimate est =
          DistanceLabeling::estimate(dls.label(u), dls.label(v));
      d = est.upper;
      candidates.record(static_cast<double>(est.candidates));
      if (cache.enabled()) cache.put(key, d);
    }
    results[i] = d;
    // Latency covers cache hits too — a hit's latency is the latency the
    // caller saw. Hit/miss counters split the population.
    const std::uint64_t t1 = query_now_ns();
    latency.record(static_cast<double>(t1 - t0) * 1e-9);
    ++(hit ? hits_n : misses_n);
    t0 = t1;
  }
  m_estimate_latency_->merge_single_owner(w, latency.h);
  m_estimate_candidates_->merge_single_owner(w, candidates.h);
  m_estimate_cache_hits_->add_single_owner(w, hits_n);
  m_estimate_cache_misses_->add_single_owner(w, misses_n);
}

void OracleEngine::process_locate_shard(unsigned w,
                                        const LocationEpoch& epoch,
                                        std::span<const LocateQuery> queries,
                                        std::vector<LocateResult>& results) {
  const LocationService& svc = *epoch.service;
  LruShard<LocateResult>& cache = locate_cache_[w];
  // Epoch boundary: this shard is only ever touched by worker w during a
  // batch, so the lazy clear is race-free even when apply() swapped the
  // epoch while a previous batch was in flight.
  if (locate_cache_epoch_[w] != epoch.id) {
    cache.clear();
    locate_cache_epoch_[w] = epoch.id;
    m_cache_invalidations_->add(w);
  }
  const std::size_t hop_bound = location_hop_bound(svc.n());
  // Batch-local scratch + chained clock reads, exactly as in
  // process_estimate_shard (shard w is this worker's alone for the whole
  // batch).
  LocalHistogram latency;
  LocalHistogram hops;
  LocalHistogram probes;
  LocalHistogram stretch;
  std::uint64_t hits_n = 0;
  std::uint64_t misses_n = 0;
  std::uint64_t not_found_n = 0;
  std::uint64_t violations_n = 0;
  std::uint64_t t0 = query_now_ns();
  for (std::uint32_t i : shard_index_[w]) {
    const auto [querier, obj] = queries[i];
    const std::uint64_t key = locate_key(querier, obj);
    LocateResult r;
    std::uint64_t walk_probes = 0;
    const bool hit = cache.enabled() && cache.get(key, r);
    if (!hit) {
      // Trace only real walks (a cache hit repeats no hops), sampled by
      // the sink so the per-hop ring-level scan stays off the common path.
      if (trace_sink_ != nullptr && trace_sink_->should_sample()) {
        LocateTrace trace;
        r = svc.locate(querier, obj, locate_opts_, &trace, &walk_probes);
        trace_sink_->record(std::move(trace));
      } else {
        r = svc.locate(querier, obj, locate_opts_, nullptr, &walk_probes);
      }
      if (cache.enabled()) cache.put(key, r);
    }
    results[i] = r;
    const std::uint64_t t1 = query_now_ns();
    latency.record(static_cast<double>(t1 - t0) * 1e-9);
    t0 = t1;
    ++(hit ? hits_n : misses_n);
    // Hop/probe/stretch distributions (and the bound-violation counter)
    // cover real ring walks only: a cache hit repeats no hops, and counting
    // cached copies would skew the overlay's routing distribution toward
    // hot keys (and double-count a violating walk). Histogram counts
    // therefore line up with the miss counter, not the query count.
    if (!hit) {
      hops.record(static_cast<double>(r.hops));
      probes.record(static_cast<double>(walk_probes));
      if (r.found) {
        stretch.record(r.route_stretch);
      } else {
        ++not_found_n;
      }
      if (r.hops > hop_bound) ++violations_n;
    }
  }
  m_locate_latency_->merge_single_owner(w, latency.h);
  m_locate_hops_->merge_single_owner(w, hops.h);
  m_locate_probes_->merge_single_owner(w, probes.h);
  m_locate_route_stretch_->merge_single_owner(w, stretch.h);
  m_locate_cache_hits_->add_single_owner(w, hits_n);
  m_locate_cache_misses_->add_single_owner(w, misses_n);
  m_locate_not_found_->add_single_owner(w, not_found_n);
  m_hop_bound_violations_->add_single_owner(w, violations_n);
}

template <typename SourceOf>
void OracleEngine::run_batch(std::size_t count, SourceOf&& source_of,
                             const std::function<void(unsigned)>& shard_fn,
                             Histogram& batch_seconds) {
  const Stopwatch batch_watch(*clock_);

  // Shard by source node: all queries from one source land on one worker
  // (and one cache shard), so a hot source stays cache-local.
  for (auto& idx : shard_index_) idx.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    shard_index_[source_of(i) % workers_].push_back(i);
  }

  if (workers_ == 1) {
    shard_fn(0);
  } else {
    std::uint64_t publish_hold_ns = 0;
    {
      MutexLock lk(mu_);
      const Stopwatch hold_watch(*clock_);
      batch_fn_ = shard_fn;
      batch_error_ = nullptr;
      remaining_ = workers_;
      ++generation_;
      publish_hold_ns = hold_watch.elapsed_ns();
    }
    // Only the publish section is hold-timed: the wait section below
    // releases mu_ inside cv_done_.wait, so "time in the block" there
    // would mostly be time the lock was NOT held.
    m_mu_hold_seconds_->record(workers_,
                               static_cast<double>(publish_hold_ns) * 1e-9);
    cv_start_.notify_all();
    std::exception_ptr err;
    {
      MutexLock lk(mu_);
      while (remaining_ != 0) cv_done_.wait(mu_);
      batch_fn_ = nullptr;
      err = batch_error_;
      batch_error_ = nullptr;
    }
    if (err != nullptr) std::rethrow_exception(err);
  }

  // Clamp to >= 1ns: a tiny batch can finish inside one clock tick, and a
  // 0-second batch would report qps = 0 — a *fast* batch masquerading as
  // zero throughput in bench JSON and the loadgen. One nanosecond is the
  // clock's own resolution, so the clamp never understates a real duration.
  const std::uint64_t elapsed_ns =
      std::max<std::uint64_t>(batch_watch.elapsed_ns(), 1);
  batch_seconds.record(workers_, static_cast<double>(elapsed_ns) * 1e-9);
}

EngineTotals OracleEngine::totals() const {
  const HistogramSnapshot estimate = m_estimate_batch_seconds_->snapshot();
  const HistogramSnapshot locate = m_locate_batch_seconds_->snapshot();
  EngineTotals t;
  t.batches = estimate.count + locate.count;
  t.seconds = estimate.sum + locate.sum;
  t.queries = m_estimate_latency_->snapshot().count +
              m_locate_latency_->snapshot().count;
  t.cache_hits =
      m_estimate_cache_hits_->value() + m_locate_cache_hits_->value();
  return t;
}

std::vector<Dist> OracleEngine::estimate_batch(
    std::span<const QueryPair> pairs) {
  const DistanceLabeling& dls = labeling();
  RON_CHECK(pairs.size() < (1ull << 32), "estimate_batch: batch too large");
  for (const auto& [u, v] : pairs) {
    RON_CHECK(u < dls.n() && v < dls.n(),
              "estimate_batch: node id out of range (" << u << "," << v
                                                       << "), n=" << dls.n());
  }
  std::vector<Dist> results(pairs.size(), kInfDist);
  run_batch(
      pairs.size(), [&](std::uint32_t i) { return pairs[i].first; },
      [this, pairs, &results](unsigned w) {
        process_estimate_shard(w, pairs, results);
      },
      *m_estimate_batch_seconds_);
  return results;
}

std::vector<LocateResult> OracleEngine::locate_batch(
    std::span<const LocateQuery> queries) {
  // Pin the epoch for the whole batch: validation and serving must see the
  // same directory even if apply() swaps the epoch mid-batch.
  const std::shared_ptr<const LocationEpoch> epoch = current_epoch();
  RON_CHECK(epoch != nullptr, "OracleEngine: no location service");
  const LocationService& svc = *epoch->service;
  RON_CHECK(queries.size() < (1ull << 32), "locate_batch: batch too large");
  const std::size_t objects = svc.directory().num_objects();
  for (const auto& [querier, obj] : queries) {
    RON_CHECK(querier < svc.n(), "locate_batch: querier " << querier
                                     << " out of range, n=" << svc.n());
    RON_CHECK(obj < objects, "locate_batch: object id "
                                 << obj << " out of range ("
                                 << objects << " objects)");
  }
  std::vector<LocateResult> results(queries.size());
  run_batch(
      queries.size(), [&](std::uint32_t i) { return queries[i].first; },
      [this, &epoch, queries, &results](unsigned w) {
        process_locate_shard(w, *epoch, queries, results);
      },
      *m_locate_batch_seconds_);
  return results;
}

}  // namespace ron
