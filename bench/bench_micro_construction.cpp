// Micro-benchmarks (google-benchmark): construction costs of the substrates
// and schemes. Not a paper artifact — engineering due diligence so
// downstream users know what building each structure costs.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_metric.h"
#include "labeling/neighbor_system.h"
#include "labeling/triangulation.h"
#include "location/location_service.h"
#include "metric/euclidean.h"
#include "metric/proximity.h"
#include "metric/sparse_proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "net/packing.h"
#include "routing/basic_scheme.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"
#include "smallworld/rings_model.h"
#include "telemetry/clock.h"

namespace ron {
namespace {

void BM_ProximityIndex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  for (auto _ : state) {
    DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
    benchmark::DoNotOptimize(prox.dmin());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProximityIndex)->Arg(128)->Arg(256)->Arg(512)->Complexity();

// Thread-count sweep for the same build: args are (n, num_threads), with
// threads = 0 meaning "one per hardware core". Compare the threads=1 rows
// against the rest to see the parallel-construction speedup on this machine.
void BM_ProximityIndexThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  auto metric = random_cube_metric(n, 2, 3);
  for (auto _ : state) {
    DenseProximityIndex prox(metric, threads);  // ron-lint: allow(dense) — small-n microbench
    benchmark::DoNotOptimize(prox.dmin());
  }
}
BENCHMARK(BM_ProximityIndexThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 0})
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->UseRealTime();

// Ring overlay build sweep: args are (n, num_threads, sealed), threads = 0
// meaning one per available CPU (the daemon's default; the `workers`
// counter stamps the resolved count). Geoline on the sparse backend, the
// serving mode; nets and measure are built once outside the loop, so each
// iteration is exactly one RingsSmallWorld construction. No explicit count
// above 2, so no row runs more workers than a 2-core runner has.
void BM_RingsSmallWorldThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const RingStorage storage =
      state.range(2) != 0 ? RingStorage::kSealed : RingStorage::kMutable;
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=geoline,n=" + std::to_string(n) + ",base=1.0001,seed=1");
  const auto metric = MetricRegistry::global().make(spec);
  const auto prox = make_proximity_index(*metric, ProxBackend::kSparse);
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox->aspect_ratio()))) + 1;
  const NetHierarchy nets(*prox, l_max);
  const MeasureView mu(*prox, doubling_measure(nets));
  for (auto _ : state) {
    const RingsSmallWorld model(*prox, mu, spec.ring_params(),
                                spec.overlay_seed, threads, storage);
    benchmark::DoNotOptimize(model.rings().avg_out_degree());
  }
  state.counters["workers"] =
      static_cast<double>(resolve_workers(n, threads));
}
BENCHMARK(BM_RingsSmallWorldThreads)
    ->ArgsProduct({{2048, 8192}, {1, 2, 0}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NetHierarchy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1;
  for (auto _ : state) {
    NetHierarchy nets(prox, l_max);
    benchmark::DoNotOptimize(nets.members(0).size());
  }
}
BENCHMARK(BM_NetHierarchy)->Arg(128)->Arg(256)->Arg(512);

void BM_DoublingMeasure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1;
  NetHierarchy nets(prox, l_max);
  for (auto _ : state) {
    auto mu = doubling_measure(nets);
    benchmark::DoNotOptimize(mu[0]);
  }
}
BENCHMARK(BM_DoublingMeasure)->Arg(128)->Arg(256)->Arg(512);

void BM_EpsMuPacking(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  MeasureView mu(prox, counting_measure(n));
  for (auto _ : state) {
    EpsMuPacking packing(mu, 0.125);
    benchmark::DoNotOptimize(packing.balls().size());
  }
}
BENCHMARK(BM_EpsMuPacking)->Arg(128)->Arg(256)->Arg(512);

void BM_NeighborSystem(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  for (auto _ : state) {
    NeighborSystem sys(prox, 0.25);
    benchmark::DoNotOptimize(sys.num_levels());
  }
}
BENCHMARK(BM_NeighborSystem)->Arg(96)->Arg(192);

void BM_Triangulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto metric = random_cube_metric(n, 2, 3);
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  NeighborSystem sys(prox, 0.25);
  for (auto _ : state) {
    Triangulation tri(sys);
    benchmark::DoNotOptimize(tri.order());
  }
}
BENCHMARK(BM_Triangulation)->Arg(96)->Arg(192);

void BM_BasicSchemeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto g = random_geometric_graph(n, 0.15, 5);
  auto apsp = std::make_shared<Apsp>(g);
  GraphMetric metric(apsp, "spm");
  DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  for (auto _ : state) {
    BasicRoutingScheme scheme(prox, g, apsp, 0.25);
    benchmark::DoNotOptimize(scheme.header_bits());
  }
}
BENCHMARK(BM_BasicSchemeBuild)->Arg(128)->Arg(256);

// --- Large-n sparse scaling (--sparse-scale=N) ------------------------------
//
// Not a google-benchmark loop: one sparse build at n=10^5..10^6 IS the
// measurement, and the point is the memory model, not amortized ns/op.
// Builds the geoline overlay through SparseProximityIndex (no n*n object
// anywhere), runs a locate sweep against the Theorem 5.2(a) hop bound, and
// prints one machine-readable {...} line that run_all.sh embeds in the
// BENCH artifact. run_all.sh passes n=10^5 in quick mode, 10^6 otherwise.

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: ru_maxrss in KB
}

void run_sparse_scale(std::size_t n) {
  // The paper's hard instance at acceptance scale: base chosen so the
  // aspect ratio stays finite at n=10^6 (base^(n-1) under the overflow
  // guard) while the doubling structure is still the geometric line's.
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=geoline,n=" + std::to_string(n) + ",base=1.0000001,seed=1");
  const Clock& clock = Clock::real();
  Stopwatch build_watch(clock);
  ScenarioBuilder builder(spec, 0, ProxBackend::kSparse);
  const RingsOfNeighbors& rings = builder.rings();
  const double build_seconds = build_watch.elapsed_seconds();
  const LocationOverlay::StageSeconds& stages =
      builder.overlay().stage_seconds();

  const auto& sparse =
      dynamic_cast<const SparseProximityIndex&>(builder.prox());
  const std::uint64_t core_bytes = rings.memory_bytes() + sparse.memory_bytes();

  const std::size_t objects = 256;
  const ObjectDirectory directory = builder.make_directory(objects, 3);
  const LocationService service(builder.prox(), rings, directory);
  const std::size_t bound = location_hop_bound(n);
  const std::size_t queries = 5000;
  Rng rng(17);
  std::size_t max_hops = 0;
  std::size_t violations = 0;
  std::size_t found = 0;
  Stopwatch locate_watch(clock);
  for (std::size_t q = 0; q < queries; ++q) {
    const NodeId querier = static_cast<NodeId>(rng.index(n));
    const LocateResult res =
        service.locate(querier, static_cast<ObjectId>(q % objects));
    if (res.found) ++found;
    if (res.hops > max_hops) max_hops = res.hops;
    if (!res.found || res.hops > bound) ++violations;
  }
  const double locate_seconds = locate_watch.elapsed_seconds();
  const double qps =
      locate_seconds > 0.0 ? static_cast<double>(queries) / locate_seconds
                           : 0.0;
  std::cout << "{\"sparse_scale\":{\"n\":" << n
            << ",\"family\":\"geoline\",\"nproc\":" << available_cpus()
            << ",\"build_threads\":" << resolve_workers(n, 0)
            << ",\"build_seconds\":" << build_seconds
            << ",\"nets_seconds\":" << stages.nets
            << ",\"measure_seconds\":" << stages.measure
            << ",\"rings_seconds\":" << stages.rings
            << ",\"peak_rss_mb\":" << peak_rss_mb()
            << ",\"core_bytes\":" << core_bytes << ",\"bytes_per_node\":"
            << static_cast<double>(core_bytes) / static_cast<double>(n)
            << ",\"avg_out_degree\":" << rings.avg_out_degree()
            << ",\"locate_queries\":" << queries << ",\"locate_found\":"
            << found << ",\"locate_max_hops\":" << max_hops
            << ",\"hop_bound\":" << bound << ",\"hop_violations\":"
            << violations << ",\"locate_qps\":" << qps << "}}" << std::endl;
}

}  // namespace
}  // namespace ron

int main(int argc, char** argv) {
  // Strip our flag before google-benchmark sees (and rejects) it.
  std::size_t sparse_scale = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--sparse-scale=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      sparse_scale = static_cast<std::size_t>(
          std::stoull(argv[i] + std::strlen(kFlag)));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sparse_scale > 0) ron::run_sparse_scale(sparse_scale);
  return 0;
}
