#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace ron {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 2^e as a double, exact for the whole bucket exponent range.
double pow2(int e) { return std::ldexp(1.0, e); }

/// Lock-free accumulate/min/max on atomic<double> (x86 has no native
/// fetch_add for doubles; the relaxed CAS loop is the standard idiom).
void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}
void atomic_min(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (d < cur &&
         !a.compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (d > cur &&
         !a.compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
  }
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) { return (c >= 'a' && c <= 'z') || c == '_'; };
  auto tail = [&](char c) { return head(c) || (c >= '0' && c <= '9'); };
  if (!head(name.front())) return false;
  return std::all_of(name.begin() + 1, name.end(), tail);
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

/// Quantiles a scrape consumer nearly always wants, precomputed into the
/// JSON value so bench artifacts stay self-describing.
constexpr std::pair<const char*, double> kJsonQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot

double HistogramSnapshot::quantile(double q) const {
  RON_CHECK(q >= 0.0 && q <= 1.0, "quantile: q in [0,1], got " << q);
  // Honest-empty: an empty histogram has no quantiles (see
  // common/stats.h percentile() for the same contract).
  RON_CHECK(count > 0, "quantile of an empty histogram");
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // The overflow bucket has no finite upper edge, and a finite edge
      // can overshoot the largest sample actually seen — max caps both
      // while keeping the estimate an upper bound on the true quantile.
      return i + 1 == buckets.size()
                 ? max
                 : std::min(Histogram::bucket_upper(i), max);
    }
  }
  return max;  // unreachable when bucket counts sum to count
}

HistogramSnapshot HistogramSnapshot::merge(const HistogramSnapshot& a,
                                           const HistogramSnapshot& b) {
  HistogramSnapshot m;
  m.count = a.count + b.count;
  m.sum = a.sum + b.sum;
  if (a.count == 0) {
    m.min = b.min;
    m.max = b.max;
  } else if (b.count == 0) {
    m.min = a.min;
    m.max = a.max;
  } else {
    m.min = std::min(a.min, b.min);
    m.max = std::max(a.max, b.max);
  }
  for (std::size_t i = 0; i < m.buckets.size(); ++i) {
    m.buckets[i] = a.buckets[i] + b.buckets[i];
  }
  return m;
}

// ---------------------------------------------------------------------------
// Counter

Counter::Counter(std::string name, unsigned num_shards)
    : Metric(std::move(name), MetricKind::kCounter), cells_(num_shards) {
  RON_CHECK(num_shards >= 1, "Counter '" << this->name() << "': zero shards");
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::json_value(std::ostream& os) const {
  os << "{\"type\":\"counter\",\"value\":" << value() << "}";
}

void Counter::exposition(std::ostream& os) const {
  os << "# TYPE " << name() << " counter\n" << name() << " " << value()
     << "\n";
}

// ---------------------------------------------------------------------------
// Gauge

void Gauge::json_value(std::ostream& os) const {
  os << "{\"type\":\"gauge\",\"value\":";
  write_json_double(os, value());
  os << "}";
}

void Gauge::exposition(std::ostream& os) const {
  os << "# TYPE " << name() << " gauge\n" << name() << " ";
  write_json_double(os, value());
  os << "\n";
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::string name, unsigned num_shards)
    : Metric(std::move(name), MetricKind::kHistogram), shards_(num_shards) {
  RON_CHECK(num_shards >= 1,
            "Histogram '" << this->name() << "': zero shards");
}

std::size_t Histogram::bucket_index(double v) {
  // NaN, zero, negatives and true underflow all land in slot 0 (the
  // negated comparison is NaN-safe); recording them must stay lock-free,
  // so they are bucketed, not rejected.
  if (!(v >= pow2(kHistMinExp))) return 0;
  if (v >= pow2(kHistMaxExp)) return kHistNumBuckets - 1;
  // In-range v is a positive normal (kHistMinExp is far above the
  // subnormal threshold), so its IEEE-754 biased exponent field gives
  // floor(log2 v) directly: v in [2^e, 2^(e+1)) <=> field == e + 1023.
  // A couple of ns per sample vs an out-of-line std::frexp call — this
  // runs several times per served query on the hot path.
  const int e =
      static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff) - 1023;
  return 1 + static_cast<std::size_t>(e - kHistMinExp);
}

double Histogram::bucket_upper(std::size_t i) {
  RON_CHECK(i < kHistNumBuckets, "bucket_upper: index " << i);
  if (i + 1 == kHistNumBuckets) return kInf;
  return pow2(kHistMinExp + static_cast<int>(i));
}

void Histogram::record(unsigned shard, double v) {
  Shard& s = shards_[shard];
  s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(s.sum, v);
  atomic_min(s.min, v);
  atomic_max(s.max, v);
}

void Histogram::merge_single_owner(unsigned shard,
                                   const HistogramSnapshot& local) {
  if (local.count == 0) return;
  Shard& s = shards_[shard];
  for (std::size_t i = 0; i < kHistNumBuckets; ++i) {
    if (local.buckets[i] == 0) continue;
    auto& b = s.buckets[i];
    b.store(b.load(std::memory_order_relaxed) + local.buckets[i],
            std::memory_order_relaxed);
  }
  s.count.store(s.count.load(std::memory_order_relaxed) + local.count,
                std::memory_order_relaxed);
  s.sum.store(s.sum.load(std::memory_order_relaxed) + local.sum,
              std::memory_order_relaxed);
  // An all-NaN local batch carries min=+inf / max=-inf; both comparisons
  // are then false, so the sentinel never poisons the shard.
  if (local.min < s.min.load(std::memory_order_relaxed)) {
    s.min.store(local.min, std::memory_order_relaxed);
  }
  if (local.max > s.max.load(std::memory_order_relaxed)) {
    s.max.store(local.max, std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.min = kInf;
  snap.max = -kInf;
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.min = std::min(snap.min, s.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kHistNumBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  if (snap.count == 0) {
    // Keep the empty snapshot all-zero (infinities are unrepresentable in
    // JSON and would leak the sentinel into artifacts).
    snap.min = 0.0;
    snap.max = 0.0;
  }
  return snap;
}

void Histogram::json_value(std::ostream& os) const {
  const HistogramSnapshot s = snapshot();
  os << "{\"type\":\"histogram\",\"count\":" << s.count << ",\"sum\":";
  write_json_double(os, s.sum);
  os << ",\"min\":";
  write_json_double(os, s.min);
  os << ",\"max\":";
  write_json_double(os, s.max);
  os << ",\"mean\":";
  write_json_double(os, s.mean());
  if (s.count > 0) {
    for (const auto& [label, q] : kJsonQuantiles) {
      os << ",\"" << label << "\":";
      write_json_double(os, s.quantile(q));
    }
  }
  // Sparse buckets: [exclusive upper edge, count] for non-empty buckets
  // only (most of the 49 slots are empty for any one metric).
  os << ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    if (s.buckets[i] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "[";
    if (i + 1 == s.buckets.size()) {
      os << "\"+Inf\"";
    } else {
      write_json_double(os, bucket_upper(i));
    }
    os << "," << s.buckets[i] << "]";
  }
  os << "]}";
}

void Histogram::exposition(std::ostream& os) const {
  const HistogramSnapshot s = snapshot();
  os << "# TYPE " << name() << " histogram\n";
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    if (s.buckets[i] == 0) continue;  // emit only edges where counts change
    cum += s.buckets[i];
    os << name() << "_bucket{le=\"";
    if (i + 1 == s.buckets.size()) {
      os << "+Inf";
    } else {
      write_json_double(os, bucket_upper(i));
    }
    os << "\"} " << cum << "\n";
  }
  if (cum != s.count || s.count == 0) {
    os << name() << "_bucket{le=\"+Inf\"} " << s.count << "\n";
  }
  os << name() << "_sum ";
  write_json_double(os, s.sum);
  os << "\n" << name() << "_count " << s.count << "\n";
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(unsigned num_shards)
    : num_shards_(num_shards) {
  RON_CHECK(num_shards >= 1 && num_shards <= 1024,
            "MetricsRegistry: " << num_shards << " shards");
}

template <typename T, MetricKind Kind, typename... Args>
T& MetricsRegistry::get_or_create(std::string_view name, Args&&... args) {
  RON_CHECK(valid_metric_name(name),
            "metric name '" << name << "' must match [a-z_][a-z0-9_]*");
  MutexLock lk(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_
             .emplace(std::string(name),
                      std::make_unique<T>(std::string(name),
                                          std::forward<Args>(args)...))
             .first;
  }
  RON_CHECK(it->second->kind() == Kind,
            "metric '" << name << "' already registered as "
                       << kind_name(it->second->kind()) << ", requested "
                       << kind_name(Kind));
  return static_cast<T&>(*it->second);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return get_or_create<Counter, MetricKind::kCounter>(name, num_shards_);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return get_or_create<Gauge, MetricKind::kGauge>(name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return get_or_create<Histogram, MetricKind::kHistogram>(name, num_shards_);
}

std::vector<const Metric*> MetricsRegistry::metrics() const {
  std::vector<const Metric*> out;
  MutexLock lk(mu_);
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) out.push_back(m.get());
  return out;  // map order == sorted by name
}

void MetricsRegistry::to_json(std::ostream& os) const {
  const MetricsRegistry* regs[] = {this};
  dump_metrics_json(os, regs);
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  to_json(os);
  return os.str();
}

void MetricsRegistry::to_prometheus(std::ostream& os) const {
  const MetricsRegistry* regs[] = {this};
  dump_metrics_prometheus(os, regs);
}

namespace {

/// Registries merge by name into one sorted stream; a name collision means
/// two registries violated the prefix namespacing and the merged snapshot
/// would silently drop one of them — refuse instead.
std::vector<const Metric*> merged_metrics(
    std::span<const MetricsRegistry* const> registries) {
  std::vector<const Metric*> all;
  for (const MetricsRegistry* reg : registries) {
    RON_CHECK(reg != nullptr, "dump_metrics: null registry");
    const auto ms = reg->metrics();
    all.insert(all.end(), ms.begin(), ms.end());
  }
  std::sort(all.begin(), all.end(), [](const Metric* a, const Metric* b) {
    return a->name() < b->name();
  });
  for (std::size_t i = 1; i < all.size(); ++i) {
    RON_CHECK(all[i - 1]->name() != all[i]->name(),
              "dump_metrics: metric '" << all[i]->name()
                                       << "' exists in two registries");
  }
  return all;
}

}  // namespace

void dump_metrics_json(std::ostream& os,
                       std::span<const MetricsRegistry* const> registries) {
  os << "{";
  bool first = true;
  for (const Metric* m : merged_metrics(registries)) {
    if (!first) os << ",";
    first = false;
    os << "\"" << m->name() << "\":";
    m->json_value(os);
  }
  os << "}";
}

void dump_metrics_prometheus(
    std::ostream& os, std::span<const MetricsRegistry* const> registries) {
  for (const Metric* m : merged_metrics(registries)) m->exposition(os);
}

}  // namespace ron
