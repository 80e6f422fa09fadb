#include "replay.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>

#include "common/check.h"
#include "metric/sparse_proximity.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "served/protocol.h"
#include "util.h"

namespace ronbench {

using ron::LocateQuery;
using ron::QueryPair;
using ron::ServedLocate;

namespace {

// ron_served's default ServerOptions::max_batch.
constexpr std::size_t kMaxBatch = 1u << 16;
// Traced runs time every per-query call on this many open-loop frames.
constexpr std::size_t kPerQueryFrames = 400;
// Probe pairs logged for the distance-cost measurement.
constexpr std::size_t kLoggedProbes = 1u << 20;
// Frames replayed bare and spanned to measure the cost of recording.
constexpr std::size_t kOverheadFrames = 300;

// Ring members visited in a timed scan land here, so the scan cannot be
// optimized into a degree lookup.
volatile ron::NodeId visit_sink = 0;

constexpr const char* kSpanNames[] = {
    "setup",           "oracle.snapshot_load", "metric.prox_build",
    "net.nets_build",  "net.measure_build",    "smallworld.rings_build",
    "core.seal",       "churn.mutator_build",  "served.frame",
    "served.decode",   "oracle.batch",         "served.encode",
    "location.locate", "metric.nearest_in",    "core.visit",
    "labeling.estimate", "served.admin",       "churn.apply",
    "churn.commit",    "oracle.epoch_swap",
};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanName::kCount));

/// Runs `fn`, inside a span when `spans` is non-null.
template <typename Fn>
auto maybe_timed(Spans* spans, SpanName name, std::uint32_t parent,
                 std::uint64_t request_id, Fn&& fn) {
  if (spans != nullptr) {
    return spans->timed(name, parent, request_id, std::forward<Fn>(fn));
  }
  return fn();
}

std::string flag_value(const WorkloadConfig& cfg, const std::string& flag,
                       const std::string& dflt) {
  for (std::size_t i = 0; i + 1 < cfg.daemon_flags.size(); ++i) {
    if (cfg.daemon_flags[i] == flag) return cfg.daemon_flags[i + 1];
  }
  return dflt;
}

/// The engine options ron_served derives from the workload's flags (its
/// defaults: one worker, no cache, dense backend).
ron::OracleOptions engine_options(const WorkloadConfig& cfg) {
  ron::OracleOptions opts;
  opts.num_threads = 1;
  opts.cache_capacity = std::stoull(flag_value(cfg, "--cache", "0"));
  return opts;
}

/// Server::serve_locate's batch: zero-holder objects are answered per
/// query, every other query goes through one engine batch.
std::vector<ServedLocate> serve_locate(ron::OracleEngine& engine,
                                       std::span<const LocateQuery> queries) {
  const auto epoch = engine.current_epoch();
  std::vector<ServedLocate> out(queries.size());
  std::vector<LocateQuery> servable;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (epoch->directory->holders(queries[i].second).empty()) {
      out[i].status = ron::LocateStatus::kZeroHolders;
      continue;
    }
    servable.push_back(queries[i]);
    slot.push_back(i);
  }
  if (!servable.empty()) {
    const std::vector<ron::LocateResult> results =
        engine.locate_batch(servable);
    for (std::size_t j = 0; j < results.size(); ++j) {
      out[slot[j]] = ServedLocate{ron::LocateStatus::kOk, results[j]};
    }
  }
  return out;
}

/// decode -> batch -> encode of one query frame, as the poll loop runs it.
/// Returns the answers so sampled frames can be compared.
struct FrameAnswers {
  std::vector<ServedLocate> locates;
  std::vector<ron::Dist> estimates;
};

FrameAnswers serve_frame(ron::OracleEngine& engine, bool locate,
                         const std::vector<std::uint8_t>& payload,
                         std::uint64_t id, Spans* spans,
                         std::uint32_t parent) {
  FrameAnswers a;
  std::size_t bytes = 0;
  if (locate) {
    const std::vector<LocateQuery> queries =
        maybe_timed(spans, SpanName::kDecode, parent, id, [&] {
          ron::FrameView f = ron::parse_frame(payload);
          return ron::decode_locate_request(f.body, kMaxBatch);
        });
    a.locates = maybe_timed(spans, SpanName::kBatch, parent, id,
                            [&] { return serve_locate(engine, queries); });
    bytes = maybe_timed(spans, SpanName::kEncode, parent, id, [&] {
              return ron::encode_locate_result(id, a.locates);
            }).size();
  } else {
    const std::vector<QueryPair> pairs =
        maybe_timed(spans, SpanName::kDecode, parent, id, [&] {
          ron::FrameView f = ron::parse_frame(payload);
          return ron::decode_estimate_request(f.body, kMaxBatch);
        });
    a.estimates = maybe_timed(spans, SpanName::kBatch, parent, id,
                              [&] { return engine.estimate_batch(pairs); });
    bytes = maybe_timed(spans, SpanName::kEncode, parent, id, [&] {
              return ron::encode_estimate_result(id, a.estimates);
            }).size();
  }
  RON_CHECK(bytes > 0, "empty encoded response");
  return a;
}

}  // namespace

const char* span_name(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

std::uint32_t Spans::open(SpanName name, std::uint32_t parent,
                          std::uint64_t request_id) {
  spans_.push_back(Span{name, parent, request_id, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Spans::close(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

double Spans::total_s(SpanName name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Spans::count(SpanName name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

void Spans::write_tsv(const std::string& path) const {
  std::ofstream os(path);
  RON_CHECK(os.good(), "cannot write spans to '" << path << "'");
  os << "id\tparent\tname\trequest_id\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t'
       << (s.parent == kNoParent ? std::string("-")
                                 : std::to_string(s.parent))
       << '\t' << span_name(s.name) << '\t' << s.request_id << '\t'
       << s.start_ns << '\t' << s.end_ns << '\n';
  }
  RON_CHECK(os.good(), "failed writing spans to '" << path << "'");
}

ron::Dist CountingMetric::distance(ron::NodeId u, ron::NodeId v) const {
  ++probes_;
  if (pairs_.size() < log_cap_) pairs_.emplace_back(u, v);
  return inner_.distance(u, v);
}

ServingState build_state(const Inputs& in, Spans* spans) {
  ServingState st;
  const WorkloadConfig& cfg = *in.cfg;
  const std::uint32_t root =
      spans != nullptr ? spans->open(SpanName::kSetup, Spans::kNoParent, 0)
                       : Spans::kNoParent;
  auto stage = [&](SpanName name, auto&& fn) {
    maybe_timed(spans, name, root, 0, fn);
  };
  const ron::OracleOptions opts = engine_options(cfg);
  if (cfg.kind == QueryKind::kEstimate) {
    std::optional<ron::LoadedOracle> loaded;
    stage(SpanName::kSnapshotLoad,
          [&] { loaded.emplace(ron::load_oracle(in.snapshot_path)); });
    st.spec = loaded->spec;
    st.metric = ron::MetricRegistry::global().make(st.spec);
    st.engine = std::make_unique<ron::OracleEngine>(
        std::move(loaded->labeling), opts);
  } else {
    // ron_served's overlay path (served_state.cpp): ScenarioBuilder's
    // metric and index, then either the sparse static epoch (nets,
    // measure, rings, seal) or the dense OverlayMutator.
    std::optional<ron::LoadedDirectory> loaded;
    stage(SpanName::kSnapshotLoad,
          [&] { loaded.emplace(ron::load_directory(in.snapshot_path)); });
    st.spec = loaded->spec;
    st.backend = ron::parse_prox_backend(flag_value(cfg, "--backend", "dense"));
    st.metric = ron::MetricRegistry::global().make(st.spec);
    stage(SpanName::kProxBuild, [&] {
      st.prox = ron::make_proximity_index(*st.metric, st.backend, 1);
    });
    if (!st.prox->has_full_rows()) {
      const int l_max =
          static_cast<int>(std::ceil(std::log2(st.prox->aspect_ratio()))) + 1;
      stage(SpanName::kNetsBuild, [&] {
        st.nets = std::make_unique<ron::NetHierarchy>(*st.prox, l_max);
      });
      stage(SpanName::kMeasureBuild, [&] {
        st.measure = std::make_unique<ron::MeasureView>(
            *st.prox, ron::doubling_measure(*st.nets));
      });
      stage(SpanName::kRingsBuild, [&] {
        st.model = std::make_unique<ron::RingsSmallWorld>(
            *st.prox, *st.measure, st.spec.ring_params(),
            st.spec.overlay_seed);
      });
      stage(SpanName::kSeal, [&] { st.model->seal_rings(); });
      auto epoch = std::make_shared<ron::LocationEpoch>();
      epoch->id = 1;
      auto directory = std::make_shared<const ron::ObjectDirectory>(
          std::move(loaded->directory));
      epoch->service = std::make_shared<const ron::LocationService>(
          *st.prox, st.model->rings(), *directory);
      epoch->directory = std::move(directory);
      st.engine = std::make_unique<ron::OracleEngine>(std::move(epoch), opts,
                                                      ron::LocateOptions{});
    } else {
      stage(SpanName::kMutatorBuild, [&] {
        st.mutator = std::make_unique<ron::OverlayMutator>(
            *st.prox, st.spec, std::move(loaded->directory));
      });
      st.engine = std::make_unique<ron::OracleEngine>(
          st.mutator->commit(), opts, ron::LocateOptions{});
    }
    st.ring_bytes = st.engine->location().rings().memory_bytes();
  }
  if (spans != nullptr) spans->close(root);
  return st;
}

ReplayOutcome replay(ServingState& st, const Inputs& in,
                     const LoadRecord& rec, Spans* spans) {
  ReplayOutcome out;
  const WorkloadConfig& cfg = *in.cfg;
  const bool locate = cfg.kind == QueryKind::kLocate;

  // A frame's epoch is pinned when as many chunks were acknowledged before
  // it was sent as had been sent before its answer arrived.
  std::vector<std::uint64_t> chunk_sent, chunk_acked;
  for (const ChurnRecord& c : rec.churn) {
    chunk_sent.push_back(c.send_ns);
    if (c.recv_ns != 0 && c.failed == 0) chunk_acked.push_back(c.recv_ns);
  }
  std::sort(chunk_sent.begin(), chunk_sent.end());
  std::sort(chunk_acked.begin(), chunk_acked.end());
  auto pinned = [&](const FrameRecord& r) {
    const auto acked = std::lower_bound(chunk_acked.begin(),
                                        chunk_acked.end(), r.send_ns) -
                       chunk_acked.begin();
    const auto sent = std::lower_bound(chunk_sent.begin(), chunk_sent.end(),
                                       r.recv_ns) -
                      chunk_sent.begin();
    return acked == sent;
  };

  // Sent order: sampled frames always, every open-loop frame when traced,
  // and every acknowledged churn chunk.
  struct Event {
    std::uint64_t t;
    bool chunk;
    std::size_t index;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < rec.frames.size(); ++i) {
    const FrameRecord& r = rec.frames[i];
    if (r.recv_ns == 0) continue;
    const bool open = r.phase == Phase::kOpenWarm || r.phase == Phase::kOpen;
    if (r.sampled || (spans != nullptr && open)) {
      events.push_back({r.send_ns, false, i});
    }
  }
  for (std::size_t i = 0; i < rec.churn.size(); ++i) {
    const ChurnRecord& c = rec.churn[i];
    if (c.recv_ns != 0 && c.failed == 0) events.push_back({c.send_ns, true, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });

  // Traced locate workloads count probes through a second index over a
  // counting wrapper of the same metric.
  std::unique_ptr<CountingMetric> counting;
  std::unique_ptr<ron::ProximityIndex> counting_prox;
  if (spans != nullptr && locate) {
    counting = std::make_unique<CountingMetric>(*st.metric);
    counting_prox = ron::make_proximity_index(*counting, st.backend, 1);
    counting->log_pairs(kLoggedProbes);
  }

  WorkCounts& work = out.work;
  std::size_t per_query_frames = 0;
  std::optional<ron::EngineTotals> open_totals;
  std::vector<std::size_t> overhead_frames;
  for (const Event& e : events) {
    if (e.chunk) {
      const ChurnRecord& c = rec.churn[e.index];
      const ron::ChurnTrace& chunk = in.chunks[c.index];
      const std::uint64_t id = kChurnIdBase + c.index;
      const std::uint32_t parent =
          spans != nullptr ? spans->open(SpanName::kAdmin, Spans::kNoParent, id)
                           : Spans::kNoParent;
      const std::size_t repairs0 = st.mutator->counters().ring_repairs;
      maybe_timed(spans, SpanName::kChurnApply, parent, id,
                  [&] { st.mutator->apply(chunk); });
      auto epoch = maybe_timed(spans, SpanName::kChurnCommit, parent, id,
                               [&] { return st.mutator->commit(); });
      maybe_timed(spans, SpanName::kEpochSwap, parent, id,
                  [&] { st.engine->apply(std::move(epoch)); });
      work.churn_ops += chunk.ops.size();
      work.ring_repairs += st.mutator->counters().ring_repairs - repairs0;
      if (spans != nullptr) spans->close(parent);
      continue;
    }
    const FrameRecord& r = rec.frames[e.index];
    Spans* fs = spans != nullptr && r.phase == Phase::kOpen ? spans : nullptr;
    if (fs != nullptr && !open_totals) open_totals = st.engine->totals();
    if (fs != nullptr && overhead_frames.size() < kOverheadFrames) {
      overhead_frames.push_back(e.index);
    }
    const std::uint64_t id = r.frame + 1;
    const std::uint32_t parent =
        fs != nullptr ? fs->open(SpanName::kFrame, Spans::kNoParent, id)
                      : Spans::kNoParent;
    const FrameAnswers answers =
        serve_frame(*st.engine, locate, in.payloads[r.frame], id, fs, parent);

    if (r.sampled) {
      const std::size_t q = kBatch;
      bool have = false;
      bool same = false;
      if (locate) {
        const auto it = rec.sampled_locates.find(e.index);
        have = it != rec.sampled_locates.end();
        same = have && it->second == answers.locates;
      } else {
        const auto it = rec.sampled_estimates.find(e.index);
        have = it != rec.sampled_estimates.end();
        same = have && it->second == answers.estimates;
      }
      if (have && pinned(r)) {
        out.compared += q;
        if (!same) out.fails.add("reference_mismatch", q);
      } else if (have) {
        out.ambiguous += q;
      }
    }

    if (fs != nullptr && per_query_frames < kPerQueryFrames) {
      ++per_query_frames;
      if (locate) {
        const auto epoch = st.engine->current_epoch();
        const ron::LocationService& svc = *epoch->service;
        const ron::LocationService counted(*counting_prox, svc.rings(),
                                           svc.directory());
        for (const auto& [q, obj] : in.locate_frames[r.frame]) {
          const auto holders = svc.directory().holders(obj);
          if (holders.empty()) continue;
          const ron::LocateResult res = fs->timed(
              SpanName::kLocate, parent, id, [&] { return svc.locate(q, obj); });
          ++work.locates;
          work.hops += res.hops;
          fs->timed(SpanName::kNearestIn, parent, id,
                    [&] { return svc.prox().nearest_in(q, holders); });
          const std::uint64_t p0 = counting->probes();
          counted.locate(q, obj);
          work.probes += counting->probes() - p0;
          // The walk's path, to time the ring scan at every node it left.
          ron::LocateTrace walk;
          svc.locate(q, obj, ron::LocateOptions{}, &walk);
          ron::NodeId cur = q;
          for (const ron::TraceHop& hop : walk.hops) {
            std::size_t contacts = 0;
            ron::NodeId acc = 0;
            fs->timed(SpanName::kVisit, parent, id, [&] {
              svc.rings().visit_neighbors(cur, [&](ron::NodeId c) {
                ++contacts;
                acc ^= c;
              });
            });
            visit_sink = acc;
            ++work.visits;
            work.contacts += contacts;
            cur = hop.node;
          }
        }
      } else {
        const ron::DistanceLabeling& lab = st.engine->labeling();
        for (const auto& [u, v] : in.estimate_frames[r.frame]) {
          const ron::DlsEstimate est =
              fs->timed(SpanName::kEstimate, parent, id, [&] {
                return ron::DistanceLabeling::estimate(lab.label(u),
                                                       lab.label(v));
              });
          ++work.estimates;
          work.candidates += est.candidates;
        }
      }
    }
    if (fs != nullptr) fs->close(parent);
  }
  if (spans == nullptr) return out;

  if (open_totals) {
    const ron::EngineTotals end = st.engine->totals();
    const std::size_t queries = end.queries - open_totals->queries;
    work.cache_hit_ratio =
        queries == 0 ? 0.0
                     : static_cast<double>(end.cache_hits -
                                           open_totals->cache_hits) /
                           static_cast<double>(queries);
  }
  if (counting != nullptr && !counting->pairs().empty()) {
    // Cost per probe, timed over the exact probes the walks made.
    const auto& pairs = counting->pairs();
    double acc = 0.0;
    const std::uint64_t t0 = now_ns();
    for (const auto& [u, v] : pairs) acc += st.metric->distance(u, v);
    work.distance_ns = static_cast<double>(now_ns() - t0) /
                       static_cast<double>(pairs.size());
    RON_CHECK(acc >= 0.0, "negative distance sum");
  }
  if (!overhead_frames.empty()) {
    // The cost of recording spans: the same frames served bare and
    // spanned after one warm pass, the order alternating between rounds;
    // the median round.
    Spans scratch;
    auto pass = [&](Spans* s) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t index : overhead_frames) {
        const FrameRecord& r = rec.frames[index];
        const std::uint64_t id = r.frame + 1;
        const std::uint32_t parent =
            s != nullptr ? s->open(SpanName::kFrame, Spans::kNoParent, id)
                         : Spans::kNoParent;
        serve_frame(*st.engine, locate, in.payloads[r.frame], id, s, parent);
        if (s != nullptr) s->close(parent);
      }
      return static_cast<double>(now_ns() - t0);
    };
    pass(nullptr);
    std::vector<double> rounds;
    for (int round = 0; round < 8; ++round) {
      const bool bare_first = round % 2 == 0;
      const double first = pass(bare_first ? nullptr : &scratch);
      const double second = pass(bare_first ? &scratch : nullptr);
      const double bare = bare_first ? first : second;
      const double traced = bare_first ? second : first;
      rounds.push_back(100.0 * (traced - bare) / bare);
    }
    work.overhead_pct = median(rounds);
  }
  return out;
}

}  // namespace ronbench
