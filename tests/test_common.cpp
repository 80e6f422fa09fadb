// Unit tests for the common utilities: bit accounting, distance codec,
// RNG determinism, stats, table/CSV formatting, slice parallelism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/distcode.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace ron {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    RON_CHECK(1 == 2, "one is not " << 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { RON_CHECK(2 + 2 == 4); }

TEST(Parallel, ResolveWorkers) {
  const unsigned cpus = available_cpus();
  EXPECT_GE(cpus, 1u);
  // Auto: serial below the threshold, one per available CPU above it.
  EXPECT_EQ(resolve_workers(kMinParallelItems - 1, 0), 1u);
  EXPECT_EQ(resolve_workers(100000, 0), cpus);
  // Explicit counts are honored, capped at the item count.
  EXPECT_EQ(resolve_workers(10, 7), 7u);
  EXPECT_EQ(resolve_workers(5, 7), 5u);
  EXPECT_EQ(resolve_workers(0, 3), 1u);
}

TEST(Parallel, SlicesCoverTheRangeInOrder) {
  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  for (const std::size_t n : {0, 1, 5, 10, 257}) {
    for (const unsigned workers : {1u, 2u, 3u, 7u}) {
      std::vector<int> hits(n, 0);
      std::vector<std::pair<std::size_t, std::size_t>> bounds(
          workers, {kUnset, kUnset});
      run_slices(n, workers, [&](unsigned t, std::size_t begin,
                                 std::size_t end) {
        bounds[t] = {begin, end};
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (const int h : hits) EXPECT_EQ(h, 1);
      EXPECT_EQ(bounds.front().first, 0u);
      EXPECT_EQ(bounds.back().second, n);
      for (unsigned t = 0; t + 1 < workers; ++t) {
        EXPECT_EQ(bounds[t].second, bounds[t + 1].first);
      }
    }
  }
}

TEST(Parallel, FirstWorkerErrorIsRethrownWithItsMessage) {
  try {
    run_slices(100, 4, [](unsigned t, std::size_t, std::size_t) {
      RON_CHECK(t < 2, "slice " << t << " failed");
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("slice 2 failed"),
              std::string::npos);
  }
}

TEST(Bits, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(Bits, BitsForIndex) {
  EXPECT_EQ(bits_for_index(1), 1u);
  EXPECT_EQ(bits_for_index(2), 1u);
  EXPECT_EQ(bits_for_index(3), 2u);
  EXPECT_EQ(bits_for_index(256), 8u);
  EXPECT_EQ(bits_for_index(257), 9u);
}

TEST(Bits, BitsForValue) {
  EXPECT_EQ(bits_for_value(0), 1u);
  EXPECT_EQ(bits_for_value(1), 1u);
  EXPECT_EQ(bits_for_value(2), 2u);
  EXPECT_EQ(bits_for_value(255), 8u);
}

TEST(Bits, RealLogs) {
  EXPECT_EQ(floor_log2_real(1.0), 0);
  EXPECT_EQ(floor_log2_real(0.49), -2);
  EXPECT_EQ(ceil_log2_real(5.0), 3);
  EXPECT_EQ(floor_log2_real(8.0), 3);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_u64(0, 1000000), b.uniform_u64(0, 1000000));
  }
}

TEST(Rng, ForkDependsOnRootSeed) {
  // Regression: forks from differently-seeded roots must diverge.
  Rng a(1), b(2);
  Rng fa = a.fork(5), fb = b.fork(5);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (fa.uniform_u64(0, 1u << 30) == fb.uniform_u64(0, 1u << 30)) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng c1 = a.fork(1);
  Rng c2 = a.fork(2);
  // Different forks should (overwhelmingly) diverge.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.uniform_u64(0, 1u << 30) == c2.uniform_u64(0, 1u << 30)) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(7);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);  // ~3x more likely
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.8);
}

TEST(Rng, WeightedIndexAllZeroThrows) {
  Rng rng(7);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), Error);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(9);
  auto s = rng.sample_without_replacement(5, 10);
  EXPECT_EQ(s.size(), 5u);
  std::sort(s.begin(), s.end());
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
  for (auto x : s) EXPECT_LT(x, 10u);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), Error);
}

TEST(DistanceCodec, RoundUpIsNonContracting) {
  DistanceCodec codec(1.0, 1e6, 0.05);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double d = std::exp(rng.uniform(0.0, std::log(1e6)));
    const double q = codec.round_up(d);
    EXPECT_GE(q, d);
    EXPECT_LE(q, d * (1.0 + 0.05) + 1e-12) << "d=" << d;
  }
}

TEST(DistanceCodec, ZeroIsExact) {
  DistanceCodec codec(1.0, 100.0, 0.1);
  EXPECT_EQ(codec.round_up(0.0), 0.0);
  EXPECT_EQ(codec.round_nearest(0.0), 0.0);
}

TEST(DistanceCodec, BitsMatchTheory) {
  // mantissa ~ log2(1/eps), exponent ~ log2(log2(dmax/dmin)).
  DistanceCodec codec(1.0, 1e9, 0.25);
  EXPECT_EQ(codec.mantissa_bits(), 2);
  EXPECT_LE(codec.bits(), 2u + 6u + 1u);
}

TEST(DistanceCodec, RoundNearestCloser) {
  DistanceCodec codec(1.0, 1000.0, 0.1);
  const double d = 137.7;
  EXPECT_LE(std::abs(codec.round_nearest(d) - d),
            std::abs(codec.round_up(d) - d) + 1e-12);
}

TEST(Stats, Summary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.p50, 50.5, 1.0);
  EXPECT_NEAR(s.p90, 90.1, 1.0);
}

TEST(Stats, SummaryP999OrderedInTheTail) {
  // 10k samples with a thin far tail: p999 must sit between p99 and max,
  // and actually resolve the tail (for this workload p999 > p99).
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(1.0);
  for (int i = 0; i < 90; ++i) v.push_back(100.0);
  for (int i = 0; i < 10; ++i) v.push_back(1000.0);
  const auto s = summarize(v);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
  EXPECT_GT(s.p999, s.p99);
  // Interpolation position 0.999*(10100-1) = 10088.901 lands inside the
  // run of 100.0s (indices 10000..10089), so p999 is exactly 100.
  EXPECT_NEAR(s.p999, 100.0, 1e-9);
  // The printed line carries the new percentile too.
  EXPECT_NE(s.to_string().find("p999="), std::string::npos);
}

TEST(Stats, SummaryToJson) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"count\":4"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":4"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Stats, SummaryToJsonEmptyIsHonestZero) {
  // count=0 stays the marker consumers key off: all-zero fields, no
  // fabricated percentiles.
  const std::string json = summarize({}).to_json();
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":0"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":0"), std::string::npos);
}

TEST(Stats, EmptyIsZero) {
  // summarize({}) stays a zero Summary — count=0 is the honest marker a
  // JSON consumer must key off.
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Stats, PercentileOfEmptySampleThrows) {
  // Silently returning 0.0 would let a bench with zero samples report a
  // fabricated p99=0 in its artifact; the contract is to throw.
  EXPECT_THROW(percentile({}, 0.99), Error);
  EXPECT_THROW(percentile({}, 0.0), Error);
  EXPECT_EQ(percentile({42.0}, 0.99), 42.0);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);  // q outside [0,1]
}

TEST(Table, PrintsAllCells) {
  ConsoleTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_int(1234567), "1,234,567");
  EXPECT_EQ(fmt_int(12), "12");
  EXPECT_EQ(fmt_bits(500), "500 b");
  EXPECT_EQ(fmt_bits(1500), "1.5 Kb");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "/tmp/ron_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.add_row({"1", "he,llo"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1,\"he,llo\"");
}

}  // namespace
}  // namespace ron
