// Experiment E-ORACLE — serving throughput of the oracle subsystem.
//
// Claims checked (this is a systems bench, not a paper artifact — the paper
// only argues the structures are small; here we measure that they are also
// fast to serve):
//   (1) round-trip fidelity: save -> load -> estimate is bit-identical to
//       the in-memory labeling on EVERY pair of a full n^2 sweep;
//   (2) batched QPS scales with the engine's worker threads (the headline
//       figure is qps at the top worker count vs 1; the sweep doubles from
//       1 and stops at one worker per available CPU, never oversubscribing,
//       and stamps the CPU count into the output);
//   (3) a bounded LRU cache turns repeated traffic into hits.
//
// RON_BENCH_QUICK=1 (or --quick) shrinks the workload to CI-smoke size.
#include <cmath>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "oracle/engine.h"
#include "oracle/snapshot.h"
#include "scenario/scenario_builder.h"

namespace ron {
namespace {

double run_qps(const DistanceLabeling& labeling, unsigned threads,
               std::size_t cache, std::span<const QueryPair> pairs,
               std::size_t batch, std::size_t* hits = nullptr,
               std::string* telemetry = nullptr) {
  OracleOptions opts;
  opts.num_threads = threads;
  opts.cache_capacity = cache;
  OracleEngine engine(labeling, opts);
  for (std::size_t off = 0; off < pairs.size(); off += batch) {
    const std::size_t count = std::min(batch, pairs.size() - off);
    engine.estimate_batch(pairs.subspan(off, count));
  }
  const EngineTotals totals = engine.totals();
  if (hits != nullptr) *hits = totals.cache_hits;
  // ron_engine_* registry JSON of this run, for the artifact line.
  if (telemetry != nullptr) *telemetry = engine.metrics().to_json();
  return totals.qps();
}

}  // namespace
}  // namespace ron

int main(int argc, char** argv) {
  using namespace ron;
  const bool quick = bench_quick(argc, argv);
  print_banner(std::cout, "E-ORACLE",
               "oracle serving layer — snapshot fidelity and batched QPS",
               quick ? "clustered metric n=96 (quick mode)"
                     : "clustered metric n=480, 200k random queries");

  ScenarioBuilder builder(ScenarioSpec::parse(
      "metric=clustered,seed=2025,per_cluster=16,n=" +
      std::to_string(16 * (quick ? 6 : 30))));
  const DistanceLabeling& built = builder.labeling();
  const std::size_t n = built.n();

  // (1) Round-trip fidelity through the snapshot, full n^2 sweep.
  const std::string snapshot = "bench_oracle_qps.snapshot.ron";
  save_oracle(builder.spec(), builder.metric().name(), built, snapshot);
  LoadedOracle loaded = load_oracle(snapshot);
  std::size_t mismatches = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const Dist a =
          DistanceLabeling::estimate(built.label(u), built.label(v)).upper;
      const Dist b = DistanceLabeling::estimate(loaded.labeling.label(u),
                                                loaded.labeling.label(v))
                         .upper;
      if (a != b) ++mismatches;  // bit-identical, no tolerance
    }
  }
  std::cout << "round trip: " << n * n << " pairs, " << mismatches
            << " mismatches (save -> load -> estimate must be "
               "bit-identical)\n\n";

  // (2) Thread sweep on one shared random workload: 1, 2, 4, ... workers,
  // ending at exactly one per available CPU.
  const unsigned cpus = available_cpus();
  std::vector<unsigned> sweep;
  for (unsigned w = 1; w < cpus; w *= 2) sweep.push_back(w);
  sweep.push_back(cpus);
  const unsigned top = sweep.back();
  const std::size_t queries = quick ? 20000 : 200000;
  const std::size_t batch = 8192;
  Rng rng(99);
  const std::vector<QueryPair> pairs = random_query_pairs(queries, n, rng);

  CsvWriter csv("bench_oracle_qps.csv",
                {"threads", "cache", "qps", "speedup", "cache_hits"});
  ConsoleTable table({"workers", "qps", "speedup vs 1"});
  double qps1 = 0.0;
  double qps_top = 0.0;
  std::string telemetry1;  // single-worker engine registry JSON
  for (unsigned threads : sweep) {
    const double qps =
        run_qps(loaded.labeling, threads, 0, pairs, batch, nullptr,
                threads == 1 ? &telemetry1 : nullptr);
    if (threads == 1) qps1 = qps;
    if (threads == top) qps_top = qps;
    table.add_row({std::to_string(threads), fmt_double(qps, 0),
                   fmt_double(qps / qps1, 2)});
    csv.add_row({std::to_string(threads), "0", std::to_string(qps),
                 std::to_string(qps / qps1), "0"});
  }
  table.print(std::cout);

  // (3) Cache effectiveness: replay the same workload twice through a cache
  // sized to hold it; the second pass should be nearly all hits.
  std::vector<QueryPair> doubled(pairs.begin(), pairs.end());
  doubled.insert(doubled.end(), pairs.begin(), pairs.end());
  std::size_t hits = 0;
  const double qps_cached =
      run_qps(loaded.labeling, top, 2 * queries, doubled, batch, &hits);
  std::cout << "\n" << top << " workers + LRU(" << 2 * queries
            << "): replayed workload, " << hits << "/" << doubled.size()
            << " cache hits, " << fmt_double(qps_cached, 0) << " qps\n";
  csv.add_row({std::to_string(top), std::to_string(2 * queries),
               std::to_string(qps_cached), std::to_string(qps_cached / qps1),
               std::to_string(hits)});

  std::cout << "\n{\"bench\":\"oracle_qps\",\"n\":" << n
            << ",\"queries\":" << queries << ",\"quick\":" << (quick ? 1 : 0)
            << ",\"roundtrip_mismatches\":" << mismatches
            << ",\"cpus\":" << cpus << ",\"top_workers\":" << top
            << ",\"qps_1\":" << qps1 << ",\"qps_top\":" << qps_top
            << ",\"speedup_top\":" << (qps1 > 0.0 ? qps_top / qps1 : 0.0)
            << ",\"cached_qps\":" << qps_cached << ",\"cache_hits\":" << hits
            << ",\"telemetry\":" << telemetry1 << "}\n";
  std::cout << "CSV written to bench_oracle_qps.csv\n";
  return mismatches == 0 ? 0 : 1;
}
