// Micro-benchmarks (google-benchmark): per-query costs — DLS decoding,
// triangulation estimates, routing steps, small-world hops — the load of a
// labeling snapshot, the start-up cost of a served oracle, and the save of
// an oracle snapshot, whose label prune is its build-side cost.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "graph/generators.h"
#include "graph/graph_metric.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "labeling/triangulation.h"
#include "metric/euclidean.h"
#include "metric/proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "oracle/snapshot.h"
#include "routing/basic_scheme.h"
#include "scenario/scenario_spec.h"
#include "smallworld/rings_model.h"

namespace ron {
namespace {

struct LabelFixture {
  LabelFixture()
      : metric(random_cube_metric(128, 2, 3)),
        prox(metric),
        sys(prox, 0.25),
        dls(sys),
        tri(sys) {}
  EuclideanMetric metric;
  DenseProximityIndex prox;  // ron-lint: allow(dense) — small-n microbench
  NeighborSystem sys;
  DistanceLabeling dls;
  Triangulation tri;
};

void BM_DlsEstimate(benchmark::State& state) {
  static LabelFixture fx;
  NodeId u = 1, v = 2;
  for (auto _ : state) {
    auto est = DistanceLabeling::estimate(fx.dls.label(u), fx.dls.label(v));
    benchmark::DoNotOptimize(est.upper);
    u = (u + 7) % 128;
    v = (v + 13) % 128;
    if (u == v) v = (v + 1) % 128;
  }
}
BENCHMARK(BM_DlsEstimate);

void BM_LabelingLoad(benchmark::State& state) {
  static LabelFixture fx;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ron_bm_labeling_load." + std::to_string(::getpid()) + ".snapshot"))
          .string();
  save_labeling(fx.dls, path);
  for (auto _ : state) {
    const DistanceLabeling loaded = load_labeling(path);
    benchmark::DoNotOptimize(loaded.n());
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::remove(path.c_str());
}
BENCHMARK(BM_LabelingLoad)->Unit(benchmark::kMillisecond);

// save_oracle decodes every ordered pair to prune the labels before it
// writes them: this is the build-side cost of the smaller served oracle.
void BM_OracleSave(benchmark::State& state) {
  static LabelFixture fx;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ron_bm_oracle_save." + std::to_string(::getpid()) + ".snapshot"))
          .string();
  // The recipe of the fixture's metric, random_cube_metric(128, 2, 3).
  const ScenarioSpec spec = ScenarioSpec::parse("metric=euclid,n=128,seed=3");
  for (auto _ : state) {
    save_oracle(spec, fx.metric.name(), fx.dls, path);
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::remove(path.c_str());
}
BENCHMARK(BM_OracleSave)->Unit(benchmark::kMillisecond);

void BM_TriangulationEstimate(benchmark::State& state) {
  static LabelFixture fx;
  NodeId u = 1, v = 2;
  for (auto _ : state) {
    auto b = triangulate(fx.tri.label(u), fx.tri.label(v));
    benchmark::DoNotOptimize(b.upper);
    u = (u + 7) % 128;
    v = (v + 13) % 128;
    if (u == v) v = (v + 1) % 128;
  }
}
BENCHMARK(BM_TriangulationEstimate);

void BM_BasicSchemeRoute(benchmark::State& state) {
  static auto g = random_geometric_graph(256, 0.12, 5);
  static auto apsp = std::make_shared<Apsp>(g);
  static GraphMetric metric(apsp, "spm");
  static DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  static BasicRoutingScheme scheme(prox, g, apsp, 0.25);
  NodeId s = 0, t = 128;
  for (auto _ : state) {
    auto r = scheme.route(s, t, 100000);
    benchmark::DoNotOptimize(r.hops);
    s = (s + 11) % 256;
    t = (t + 17) % 256;
    if (s == t) t = (t + 1) % 256;
  }
}
BENCHMARK(BM_BasicSchemeRoute);

void BM_SmallWorldQuery(benchmark::State& state) {
  static auto metric = random_cube_metric(256, 2, 9);
  static DenseProximityIndex prox(metric);  // ron-lint: allow(dense) — small-n microbench
  static NetHierarchy nets(
      prox, static_cast<int>(std::ceil(std::log2(prox.aspect_ratio()))) + 1);
  static MeasureView mu(prox, doubling_measure(nets));
  static RingsSmallWorld model(prox, mu, RingsModelParams{}, 7);
  NodeId s = 0, t = 128;
  for (auto _ : state) {
    auto r = route_query(model, s, t, 10000);
    benchmark::DoNotOptimize(r.hops);
    s = (s + 11) % 256;
    t = (t + 17) % 256;
    if (s == t) t = (t + 1) % 256;
  }
}
BENCHMARK(BM_SmallWorldQuery);

}  // namespace
}  // namespace ron

BENCHMARK_MAIN();
