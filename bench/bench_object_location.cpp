// Experiment E-LOCATION — the object-location subsystem end to end.
//
// Claims checked (§5 / Theorem 5.2(a) operationalized as a served workload):
//   (1) nearest-copy delivery: every locate over X+Y rings reaches the true
//       nearest holder, on all three bundled metric families;
//   (2) hop bound: per-query hops stay within location_hop_bound(n) =
//       O(log n), even on the geometric line's super-polynomial aspect
//       ratio, and route stretch stays within the a-priori 2*hops bound
//       (measured stretch is far tighter in practice);
//   (3) serving throughput: batched locate QPS through the OracleEngine
//       worker pool, with and without the per-worker LRU cache;
//   (4) the Y-only foil needs measurably more hops on the geometric line
//       (the example's claim, now a tracked number).
//
// RON_BENCH_QUICK=1 (or --quick) shrinks the workload to CI-smoke size.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "location/location_service.h"
#include "location/object_directory.h"
#include "metric/proximity.h"
#include "oracle/engine.h"
#include "scenario/scenario_builder.h"

namespace ron {
namespace {

struct MetricCase {
  std::string key;
  std::string spec;  // ScenarioSpec string, overlay_seed pinned to 41
};

struct CaseResult {
  std::string key;
  std::size_t n = 0;
  Summary hops;
  double max_stretch = 0.0;
  std::size_t not_found = 0;
  std::size_t hop_bound = 0;
  std::size_t hop_bound_violations = 0;
  double qps = 0.0;
  double cached_qps = 0.0;
};

std::vector<LocateQuery> random_locates(std::size_t count, std::size_t n,
                                        std::size_t objects, Rng& rng) {
  std::vector<LocateQuery> queries(count);
  for (auto& q : queries) {
    q = {static_cast<NodeId>(rng.index(n)),
         static_cast<ObjectId>(rng.index(objects))};
  }
  return queries;
}

/// An epoch serving `svc`; the caller keeps the service's index, rings and
/// directory alive for as long as the epoch is served.
std::shared_ptr<const LocationEpoch> epoch_of(
    std::shared_ptr<const LocationService> svc) {
  auto epoch = std::make_shared<LocationEpoch>();
  epoch->service = std::move(svc);
  return epoch;
}

double run_locate_qps(const std::shared_ptr<const LocationEpoch>& epoch,
                      unsigned threads, std::size_t cache,
                      std::span<const LocateQuery> queries,
                      std::size_t batch) {
  OracleOptions opts;
  opts.num_threads = threads;
  opts.cache_capacity = cache;
  OracleEngine engine(epoch, opts);
  for (std::size_t off = 0; off < queries.size(); off += batch) {
    const std::size_t count = std::min(batch, queries.size() - off);
    engine.locate_batch(queries.subspan(off, count));
  }
  return engine.totals().qps();
}

CaseResult run_case(const std::string& key, const std::string& spec,
                    std::size_t objects, std::size_t replicas,
                    std::size_t num_queries, std::size_t batch,
                    unsigned workers) {
  // The scenario builder replaces the metric -> nets -> measure -> rings
  // assembly this bench used to repeat inline.
  ScenarioBuilder scenario(ScenarioSpec::parse(spec));
  const ProximityIndex& prox = scenario.prox();
  const LocationOverlay& overlay = scenario.overlay();
  ObjectDirectory dir(prox.n());
  Rng rng(97);
  for (std::size_t k = 0; k < objects; ++k) {
    dir.publish_random("obj" + std::to_string(k), replicas, rng);
  }
  const auto epoch = epoch_of(
      std::make_shared<const LocationService>(prox, overlay.rings(), dir));

  CaseResult res;
  res.key = key;
  res.n = prox.n();
  res.hop_bound = location_hop_bound(prox.n());

  const std::vector<LocateQuery> queries =
      random_locates(num_queries, prox.n(), objects, rng);

  // Correctness sweep through the engine (single worker = serial ground
  // truth; engine results are thread-count-invariant, so these numbers
  // also describe the QPS runs below).
  OracleEngine check(epoch, OracleOptions{1, 0});
  const std::vector<LocateResult> results = check.locate_batch(queries);
  std::vector<double> hop_samples;
  hop_samples.reserve(results.size());
  for (const LocateResult& r : results) {
    if (!r.found) {
      ++res.not_found;
      continue;
    }
    hop_samples.push_back(static_cast<double>(r.hops));
    res.max_stretch = std::max(res.max_stretch, r.route_stretch);
    if (r.hops > res.hop_bound) ++res.hop_bound_violations;
  }
  res.hops = summarize(std::move(hop_samples));

  res.qps = run_locate_qps(epoch, workers, 0, queries, batch);
  // Replay the workload through a cache sized to hold it: steady-state
  // serving of a hot object set.
  std::vector<LocateQuery> doubled(queries.begin(), queries.end());
  doubled.insert(doubled.end(), queries.begin(), queries.end());
  res.cached_qps =
      run_locate_qps(epoch, workers, 2 * num_queries, doubled, batch);
  return res;
}

}  // namespace
}  // namespace ron

int main(int argc, char** argv) {
  using namespace ron;
  const bool quick = bench_quick(argc, argv);
  print_banner(std::cout, "E-LOCATION",
               "object location via rings of neighbors (§5, Thm 5.2a)",
               quick ? "3 metrics, n<=96, 2k lookups each (quick mode)"
                     : "3 metrics, n<=512, 20k lookups each");

  const std::size_t objects = quick ? 16 : 64;
  const std::size_t replicas = 3;
  const std::size_t num_queries = quick ? 2000 : 20000;
  const std::size_t batch = 1024;
  // One engine worker per CPU this process may use, never more.
  const unsigned workers = available_cpus();

  std::vector<MetricCase> cases;
  cases.push_back({"geoline",
                   "metric=geoline,base=1.3,seed=1,overlay_seed=41,n=" +
                       std::to_string(quick ? 64 : 256)});
  cases.push_back({"clustered",
                   "metric=clustered,per_cluster=16,seed=2026,"
                   "overlay_seed=41,n=" +
                       std::to_string(16 * (quick ? 6 : 30))});
  cases.push_back({"euclid",
                   "metric=euclid,seed=2026,overlay_seed=41,n=" +
                       std::to_string(quick ? 96 : 512)});

  CsvWriter csv("bench_object_location.csv",
                {"metric", "n", "hops_mean", "hops_p99", "hops_max",
                 "hop_bound", "max_stretch", "not_found", "qps",
                 "cached_qps"});
  ConsoleTable table({"metric", "n", "hops mean/p99/max", "bound",
                      "max stretch",
                      "qps (" + std::to_string(workers) + "w)",
                      "cached qps"});
  std::vector<CaseResult> results;
  for (const MetricCase& c : cases) {
    CaseResult r = run_case(c.key, c.spec, objects, replicas, num_queries,
                            batch, workers);
    table.add_row({r.key, std::to_string(r.n), fmt_hops_cell(r.hops),
                   std::to_string(r.hop_bound), fmt_double(r.max_stretch, 3),
                   fmt_double(r.qps, 0), fmt_double(r.cached_qps, 0)});
    csv.add_row({r.key, std::to_string(r.n), fmt_double(r.hops.mean, 4),
                 fmt_double(r.hops.p99, 1), fmt_double(r.hops.max, 0),
                 std::to_string(r.hop_bound), fmt_double(r.max_stretch, 4),
                 std::to_string(r.not_found), fmt_double(r.qps, 1),
                 fmt_double(r.cached_qps, 1)});
    results.push_back(std::move(r));
  }
  table.print(std::cout);

  // (4) The Y-only foil on the geometric line: Θ(log Δ) hops vs O(log n).
  const std::size_t foil_n = quick ? 64 : 256;
  ScenarioBuilder foil_scenario(ScenarioSpec::parse(
      "metric=geoline,base=1.3,seed=1,overlay_seed=41,n=" +
      std::to_string(foil_n)));
  const ProximityIndex& foil_prox = foil_scenario.prox();
  RingsModelParams y_only;
  y_only.with_x = false;
  const LocationOverlay& xy = foil_scenario.overlay();
  LocationOverlay yo(xy.measure(), y_only, 41);  // shares the nets+measure
  // Single-replica objects: the walk must cover the full querier-to-copy
  // distance, which is where the Y-only hop count blows up with log Δ.
  ObjectDirectory foil_dir(foil_n);
  Rng foil_rng(7);
  for (std::size_t k = 0; k < objects; ++k) {
    foil_dir.publish_random("obj" + std::to_string(k), 1, foil_rng);
  }
  const auto epoch_xy = epoch_of(std::make_shared<const LocationService>(
      foil_prox, xy.rings(), foil_dir));
  const auto epoch_yo = epoch_of(std::make_shared<const LocationService>(
      foil_prox, yo.rings(), foil_dir));
  const std::vector<LocateQuery> foil_queries =
      random_locates(quick ? 500 : 4000, foil_n, objects, foil_rng);
  double hops_xy = 0.0;
  double hops_yo = 0.0;
  {
    OracleEngine exy(epoch_xy, OracleOptions{1, 0});
    OracleEngine eyo(epoch_yo, OracleOptions{1, 0});
    for (const LocateResult& r : exy.locate_batch(foil_queries)) {
      hops_xy += static_cast<double>(r.hops);
    }
    for (const LocateResult& r : eyo.locate_batch(foil_queries)) {
      hops_yo += static_cast<double>(r.hops);
    }
    hops_xy /= static_cast<double>(foil_queries.size());
    hops_yo /= static_cast<double>(foil_queries.size());
  }
  std::cout << "\nY-only foil (geoline n=" << foil_n << "): mean hops "
            << fmt_double(hops_yo, 2) << " vs X+Y " << fmt_double(hops_xy, 2)
            << " (degradation x" << fmt_double(hops_yo / hops_xy, 2)
            << ")\n";

  std::size_t total_not_found = 0;
  std::size_t total_violations = 0;
  std::cout << "\n{\"bench\":\"object_location\",\"quick\":"
            << (quick ? 1 : 0) << ",\"workers\":" << workers;
  for (const CaseResult& r : results) {
    total_not_found += r.not_found;
    total_violations += r.hop_bound_violations;
    std::cout << ",\"" << r.key << "_n\":" << r.n << ",\"" << r.key
              << "_hops_mean\":" << r.hops.mean << ",\"" << r.key
              << "_hops_max\":" << r.hops.max << ",\"" << r.key
              << "_max_stretch\":" << r.max_stretch << ",\"" << r.key
              << "_qps\":" << r.qps << ",\"" << r.key
              << "_cached_qps\":" << r.cached_qps;
  }
  std::cout << ",\"foil_hops_y_only\":" << hops_yo
            << ",\"foil_hops_xy\":" << hops_xy
            << ",\"not_found\":" << total_not_found
            << ",\"hop_bound_violations\":" << total_violations << "}\n";
  std::cout << "CSV written to bench_object_location.csv\n";
  return total_not_found == 0 && total_violations == 0 ? 0 : 1;
}
