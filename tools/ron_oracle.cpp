// ron_oracle — build, inspect and serve scenario snapshots.
//
// Every subcommand that needs a construction takes the same uniform
// `--scenario "metric=FAMILY,n=N,seed=S,..."` spec (the grammar is printed
// by --help and documented in README.md); the spec is embedded in every
// snapshot it writes, so `info` can print it back and `locate` can rebuild
// the exact metric and overlay from the file alone:
//
//   ron_oracle build --scenario "metric=clustered,n=256" --out cloud.ron
//   ron_oracle build --scenario "metric=torus,n=100" --kind rings --out r.ron
//   ron_oracle info cloud.ron
//   ron_oracle query cloud.ron --pairs "0,5;12,200;7,7"
//   ron_oracle bench cloud.ron --queries 200000 --threads 8
//   ron_oracle bench --scenario "metric=euclid,n=128" --queries 50000
//   ron_oracle publish --scenario "metric=geoline,n=256" --out dir.ron
//   ron_oracle locate dir.ron --from "0;9" --object obj3
//   ron_oracle churn dir.ron --ops 1000 --out churned.ron
//   ron_oracle locate churned.ron --queries 64
//
// `build` runs the ScenarioBuilder pipeline (metric -> proximity ->
// neighbor system -> labeling, or the Theorem 5.2(a) overlay) and snapshots
// any artifact kind; `query`/`bench FILE` never touch the metric again —
// they answer purely from the snapshot, which is the point of the paper's
// labelings. `publish` snapshots an object directory together with its
// scenario recipe; `locate` replays the recipe (builders are pure functions
// of the spec) and serves greedy ring-walk lookups through the engine's
// worker pool. `churn` applies a generated (seeded) churn trace to a
// directory snapshot through the incremental OverlayMutator and emits a
// churn bundle — recipe + initial directory + trace — which IS the patched
// snapshot: `locate` on a bundle rebuilds the static overlay and replays
// the trace (the mutator is deterministic), then serves the post-churn
// state through an epoch-swapped engine. Churning a bundle extends its
// trace.
//
// Exit codes: 0 success, 1 runtime failure (ron::Error), 2 usage error
// (unknown subcommand, unknown or malformed flag — usage is printed).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "churn/churn_trace.h"
#include "cli_util.h"
#include "churn/overlay_mutator.h"
#include "churn/trace_generator.h"
#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "location/object_directory.h"
#include "metric/sparse_proximity.h"
#include "oracle/engine.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ron {
namespace {

// The command-line plumbing (flag map, numeric parsing, exit-code
// contract) is shared with ron_served/ron_loadgen — see tools/cli_util.h.
using cli::Args;
using cli::parse_node;
using cli::parse_u64;
using cli::UsageError;

int usage(std::ostream& os) {
  os << "usage:\n"
        "  ron_oracle build --scenario SPEC --out FILE\n"
        "                   [--kind oracle|rings|labeling|neighbor-system|"
        "directory]\n"
        "                   [--objects K] [--replicas R] [--threads T]\n"
        "                   [--backend auto|dense|sparse]\n"
        "  ron_oracle info FILE\n"
        "  ron_oracle query FILE --pairs \"u,v;u,v;...\" [--threads T] "
        "[--cache C]\n"
        "  ron_oracle bench (FILE | --scenario SPEC) [--queries Q] "
        "[--batch B]\n"
        "                   [--threads T] [--cache C] [--seed S]\n"
        "  ron_oracle publish --scenario SPEC --out FILE [--objects K] "
        "[--replicas R]\n"
        "                     [--object NAME --holders \"u,v,...\"]\n"
        "  ron_oracle locate FILE (--object NAME --from \"u;u;...\" | "
        "--queries Q)\n"
        "                    [--scenario SPEC] [--threads T] [--cache C]\n"
        "                    [--max-hops H] [--seed S]\n"
        "  ron_oracle churn FILE --out FILE [--ops N] [--churn-seed S]\n"
        "                   [--threads T] [--verify Q] "
        "[--emit-directory FILE]\n"
        "  ron_oracle stats FILE [--queries Q] [--threads T] [--cache C]\n"
        "                   [--seed S] [--format json|prometheus] "
        "[--scenario SPEC]\n"
        "\n"
        "every subcommand accepts --metrics-out FILE (telemetry snapshot,\n"
        "schema ron.metrics.v1); bench/locate/stats also accept\n"
        "--trace-sample N (record every Nth locate ring-walk)\n"
        "\n"
        "--backend auto|dense|sparse picks the proximity index (bench,\n"
        "publish, locate, stats too): auto uses dense rows up to n=4096 and\n"
        "the sparse per-node index above; labeling builds and churn repair\n"
        "need --backend dense (n <= 20000)\n"
        "\n"
        "scenario spec grammar (key=value, comma separated):\n"
        "  metric=FAMILY (required), n=N, seed=S, delta=D, overlay_seed=O,\n"
        "  c_x=CX, c_y=CY, with_x=0|1, churn=OPS, churn_seed=S,\n"
        "  plus per-family parameters\n"
        "metric families:\n";
  for (const MetricFamily* fam : MetricRegistry::global().families()) {
    os << "  " << fam->key;
    if (!fam->params.empty()) {
      os << " (";
      bool first = true;
      for (const ParamSpec& p : fam->params) {
        if (!first) os << ", ";
        first = false;
        os << p.key << "=" << p.dflt;
      }
      os << ")";
    }
    os << "\n";
  }
  return 2;
}

ScenarioSpec require_scenario(const Args& args, const char* cmd) {
  if (!args.has("scenario")) {
    throw UsageError(std::string(cmd) + ": --scenario SPEC is required");
  }
  return ScenarioSpec::parse(args.get("scenario", ""));
}

unsigned thread_count(const Args& args) {
  return static_cast<unsigned>(parse_u64(args.get("threads", "1"),
                                         "--threads"));
}

/// --backend auto|dense|sparse (default auto: dense up to the cutoff in
/// metric/sparse_proximity.h, sparse above it). Subcommands whose pipeline
/// requires full proximity rows (labeling builds, churn repair) throw a
/// named error under sparse that says to pass --backend dense.
ProxBackend prox_backend(const Args& args) {
  return parse_prox_backend(args.get("backend", "auto"));
}

OracleOptions engine_options(const Args& args) {
  OracleOptions opts;
  opts.num_threads = thread_count(args);
  opts.cache_capacity = static_cast<std::size_t>(
      parse_u64(args.get("cache", "0"), "--cache"));
  return opts;
}

/// --trace-sample N -> a sink keeping the most recent sampled ring-walks
/// (null when the flag is absent; the engine treats null as "no tracing").
std::unique_ptr<TraceSink> make_trace_sink(const Args& args) {
  if (!args.has("trace-sample")) return nullptr;
  return std::make_unique<TraceSink>(
      parse_u64(args.get("trace-sample", "0"), "--trace-sample"),
      /*capacity=*/256);
}

/// Honors --metrics-out if present: writes the merged telemetry snapshot
/// of every registry the subcommand touched, as the ron.metrics.v1
/// envelope (telemetry/trace.h) ron_served also writes. No-op without the
/// flag.
void write_metrics_out(const Args& args,
                       std::vector<const MetricsRegistry*> registries,
                       const TraceSink* traces = nullptr) {
  if (!args.has("metrics-out")) return;
  const std::string path = args.get("metrics-out", "");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RON_CHECK(os, "cannot open --metrics-out '" << path << "'");
  write_metrics_envelope(os, std::move(registries), traces);
  RON_CHECK(os.good(), "failed writing --metrics-out '" << path << "'");
}

/// One line of label sizes: "  <what>: n = .., bits max/avg = ../..".
void print_label_stats(std::ostream& os, const DistanceLabeling& dls,
                       const char* what = "labels") {
  std::uint64_t max_bits = 0;
  double avg_bits = 0.0;
  for (NodeId u = 0; u < dls.n(); ++u) {
    const std::uint64_t b = dls.label_bits(u);
    max_bits = std::max(max_bits, b);
    avg_bits += static_cast<double>(b);
  }
  avg_bits /= static_cast<double>(dls.n());
  os << "  " << what << ": n = " << dls.n() << ", bits max/avg = "
     << max_bits << "/" << avg_bits << ", psi = " << dls.psi_bits()
     << " b, distance code = " << dls.codec().bits() << " b\n";
}

void print_scenario_line(std::ostream& os, const ScenarioSpec& spec) {
  if (spec.family.empty()) {
    os << "  scenario: (none — saved without a recipe)\n";
  } else {
    os << "  scenario: " << spec.to_string() << "\n";
  }
}

void print_wrote(const std::string& out) {
  const SnapshotInfo info = inspect_snapshot(out);
  std::cout << "wrote " << out << " (format v" << info.version << ", "
            << info.payload_bytes << " payload bytes, checksum " << std::hex
            << info.checksum << std::dec << ")\n";
}

/// "v;v;..." (or ','/space separated) list of node ids.
std::vector<NodeId> parse_node_list(const std::string& spec,
                                    const char* what) {
  std::vector<NodeId> values;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    if (spec[pos] == ',' || spec[pos] == ';' || spec[pos] == ' ') {
      ++pos;
      continue;
    }
    std::size_t end = spec.find_first_of(",; ", pos);
    if (end == std::string::npos) end = spec.size();
    values.push_back(parse_node(spec.substr(pos, end - pos), what));
    pos = end;
  }
  RON_CHECK(!values.empty(), "empty " << what << " list");
  return values;
}

ObjectDirectory build_directory(const ScenarioBuilder& builder,
                                const Args& args) {
  // Synthetic objects default to 16 — except when the user publishes an
  // explicit --object, where silently adding obj0..obj15 would surprise.
  const std::size_t objects = static_cast<std::size_t>(parse_u64(
      args.get("objects", args.has("object") ? "0" : "16"), "--objects"));
  const std::size_t replicas = static_cast<std::size_t>(
      parse_u64(args.get("replicas", "3"), "--replicas"));
  ObjectDirectory dir =
      objects > 0 ? builder.make_directory(objects, replicas)
                  : ObjectDirectory(builder.n());
  if (args.has("object")) {
    RON_CHECK(args.has("holders"),
              "publish: --object requires --holders \"u,v,...\"");
    const std::string name = args.get("object", "");
    RON_CHECK(dir.find(name) == kInvalidObject,
              "publish: --object '" << name << "' collides with a synthetic "
              "object name (objN); pick another name or --objects 0");
    for (NodeId v : parse_node_list(args.get("holders", ""),
                                    "--holders node")) {
      dir.publish(name, v);
    }
  }
  RON_CHECK(dir.num_objects() > 0, "publish: nothing to publish "
                                   "(--objects 0 and no --object)");
  return dir;
}

int cmd_build(const Args& args) {
  args.expect_known({"scenario", "out", "kind", "objects", "replicas",
                     "threads", "backend", "metrics-out"});
  args.expect_positionals(0, "no positional arguments for build");
  if (!args.has("out")) throw UsageError("build: --out FILE is required");
  const std::string out = args.get("out", "");
  const std::string kind = args.get("kind", "oracle");
  if (kind != "directory") {
    // The hardening contract: no flag is ever silently ignored.
    for (const char* flag : {"objects", "replicas"}) {
      if (args.has(flag)) {
        throw UsageError(std::string("build: --") + flag +
                         " only applies to --kind directory");
      }
    }
  }
  ScenarioBuilder builder(require_scenario(args, "build"),
                          thread_count(args), prox_backend(args));
  const ScenarioSpec& spec = builder.spec();
  std::cout << "building " << kind << " over " << builder.metric().name()
            << "\n  scenario: " << spec.to_string() << "\n";

  if (kind == "oracle") {
    save_oracle(spec, builder.metric().name(), builder.labeling(), out);
    print_wrote(out);
    // The file holds the labels pruned to what some decode reads: report
    // both, the stored ones read back from the file as info reads them.
    print_label_stats(std::cout, builder.labeling(), "built labels");
    print_label_stats(std::cout, load_oracle(out).labeling, "stored labels");
  } else if (kind == "labeling") {
    save_labeling(builder.labeling(), out, spec);
    print_wrote(out);
    print_label_stats(std::cout, builder.labeling());
  } else if (kind == "neighbor-system") {
    save_neighbor_system(builder.neighbor_system(), out, spec);
    print_wrote(out);
  } else if (kind == "rings") {
    save_rings(builder.rings(), out, spec);
    print_wrote(out);
    std::cout << "  rings: n = " << builder.rings().n()
              << ", max out-degree " << builder.rings().max_out_degree()
              << "\n";
  } else if (kind == "directory") {
    const ObjectDirectory dir = build_directory(builder, args);
    save_directory(spec, dir, out);
    print_wrote(out);
    std::cout << "  directory: " << dir.num_objects() << " objects, "
              << dir.total_replicas() << " replicas\n";
  } else {
    throw UsageError("build: unknown --kind '" + kind +
                     "' (want oracle|rings|labeling|neighbor-system|"
                     "directory)");
  }
  write_metrics_out(args, {&builder.metrics()});
  return 0;
}

void print_snapshot_header(const std::string& path, const SnapshotInfo& info) {
  std::cout << "snapshot " << path << "\n  format version " << info.version
            << ", section kind " << static_cast<std::uint32_t>(info.kind)
            << ", payload " << info.payload_bytes << " bytes, checksum "
            << std::hex << info.checksum << std::dec << " (verified)\n";
}

int cmd_info(const Args& args) {
  args.expect_known({"metrics-out"});
  args.expect_positionals(1, "info: exactly one snapshot file");
  // info serves no queries and builds nothing, so its snapshot is the
  // empty envelope — kept anyway so "--metrics-out on every subcommand"
  // holds without a carve-out.
  write_metrics_out(args, {});
  const std::string path = args.positional()[0];
  // Header peek picks the path so each case does ONE full read; the
  // follow-up load performs the real validation.
  const std::uint32_t kind = peek_snapshot_kind(path);
  SnapshotInfo info;
  ScenarioSpec spec;
  switch (static_cast<SnapshotKind>(kind)) {
    case SnapshotKind::kChurnBundle: {
      const LoadedChurnBundle bundle = load_churn_bundle(path, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, bundle.spec);
      std::cout << "  churn trace: " << bundle.trace.ops.size()
                << " ops (join " << bundle.trace.count(ChurnOpKind::kJoin)
                << ", leave " << bundle.trace.count(ChurnOpKind::kLeave)
                << ", publish " << bundle.trace.count(ChurnOpKind::kPublish)
                << ", unpublish "
                << bundle.trace.count(ChurnOpKind::kUnpublish) << ") over "
                << bundle.trace.objects.size() << " object names\n";
      std::cout << "  initial directory: " << bundle.initial.num_objects()
                << " objects, " << bundle.initial.total_replicas()
                << " replicas over n = " << bundle.initial.n() << "\n";
      return 0;
    }
    case SnapshotKind::kObjectDirectory: {
      const LoadedDirectory dir = load_directory(path, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, dir.spec);
      std::cout << "  object directory: " << dir.directory.num_objects()
                << " objects, " << dir.directory.total_replicas()
                << " replicas over n = " << dir.directory.n() << "\n";
      return 0;
    }
    case SnapshotKind::kOracle: {
      const LoadedOracle oracle = load_oracle(path, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, oracle.spec);
      std::cout << "  built from: " << oracle.metric_name
                << " (n = " << oracle.spec.n << ", seed = "
                << oracle.spec.seed << ", delta = " << oracle.spec.delta
                << ")\n";
      print_label_stats(std::cout, oracle.labeling);
      return 0;
    }
    case SnapshotKind::kRings: {
      const RingsOfNeighbors rings = load_rings(path, &spec, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, spec);
      std::cout << "  rings: n = " << rings.n() << ", max out-degree "
                << rings.max_out_degree() << "\n";
      return 0;
    }
    case SnapshotKind::kDistanceLabeling: {
      const DistanceLabeling dls = load_labeling(path, &spec, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, spec);
      print_label_stats(std::cout, dls);
      return 0;
    }
    case SnapshotKind::kNeighborSystem: {
      const NeighborSystemSnapshot sys =
          load_neighbor_system(path, &spec, &info);
      print_snapshot_header(path, info);
      print_scenario_line(std::cout, spec);
      std::cout << "  neighbor system: n = " << sys.n() << ", delta = "
                << sys.delta() << ", levels = " << sys.num_levels()
                << ", z-scales = " << sys.num_z_scales() << "\n";
      return 0;
    }
    default:
      // Not a known kind from the peek: run the full validation for the
      // real error message (bad magic, truncation, ...).
      print_snapshot_header(path, inspect_snapshot(path));
      return 0;
  }
}

/// "u,v;u,v" (spaces also accepted as pair separators).
std::vector<QueryPair> parse_pairs(const std::string& spec) {
  std::vector<QueryPair> pairs;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    if (spec[pos] == ';' || spec[pos] == ' ') {
      ++pos;
      continue;
    }
    std::size_t semi = spec.find_first_of("; ", pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string item = spec.substr(pos, semi - pos);
    const std::size_t comma = item.find(',');
    RON_CHECK(comma != std::string::npos,
              "--pairs item '" << item << "' is not 'u,v'");
    pairs.emplace_back(parse_node(item.substr(0, comma), "pair source"),
                       parse_node(item.substr(comma + 1), "pair target"));
    pos = semi + 1;
  }
  RON_CHECK(!pairs.empty(), "--pairs is empty");
  return pairs;
}

int cmd_query(const Args& args) {
  args.expect_known({"pairs", "threads", "cache", "metrics-out"});
  args.expect_positionals(1, "query: exactly one snapshot file");
  if (!args.has("pairs")) {
    throw UsageError("query: --pairs \"u,v;u,v\" is required");
  }
  LoadedOracle oracle = load_oracle(args.positional()[0]);
  OracleEngine engine(std::move(oracle.labeling), engine_options(args));
  const std::vector<QueryPair> pairs = parse_pairs(args.get("pairs", ""));
  const std::vector<Dist> est = engine.estimate_batch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::cout << pairs[i].first << " " << pairs[i].second << " " << est[i]
              << "\n";
  }
  const EngineTotals stats = engine.totals();
  std::cout << "# " << stats.queries << " queries in "
            << stats.seconds * 1e3 << " ms (" << stats.qps() << " qps, "
            << stats.cache_hits << " cache hits, " << engine.num_workers()
            << " workers)\n";
  write_metrics_out(args, {&engine.metrics()});
  return 0;
}

int cmd_bench(const Args& args) {
  args.expect_known({"scenario", "queries", "batch", "threads", "cache",
                     "seed", "locate-queries", "backend", "metrics-out",
                     "trace-sample"});
  const bool from_spec = args.has("scenario");
  if (from_spec) {
    args.expect_positionals(0, "bench --scenario: no snapshot file");
  } else {
    args.expect_positionals(1,
                            "bench: one snapshot file (or --scenario SPEC)");
    // The locate phase (and hence walk tracing) needs the scenario's
    // overlay; an oracle snapshot carries only the labeling.
    for (const char* flag : {"locate-queries", "trace-sample"}) {
      if (args.has(flag)) {
        throw UsageError(std::string("bench: --") + flag +
                         " only applies to bench --scenario");
      }
    }
  }
  // Either serve a snapshot from disk or build the scenario in memory —
  // the same engine path either way. The builder must outlive the engine
  // (the locate epoch below borrows its index and rings), hence the
  // function-scope declaration before its construction.
  std::unique_ptr<ScenarioBuilder> builder;
  DistanceLabeling labeling = [&] {
    if (from_spec) {
      builder = std::make_unique<ScenarioBuilder>(
          require_scenario(args, "bench"), thread_count(args),
          prox_backend(args));
      std::cout << "# built in-memory scenario: "
                << builder->spec().to_string() << "\n";
      return builder->take_labeling();
    }
    return load_oracle(args.positional()[0]).labeling;
  }();
  const std::size_t queries = static_cast<std::size_t>(
      parse_u64(args.get("queries", "100000"), "--queries"));
  const std::size_t batch = static_cast<std::size_t>(
      parse_u64(args.get("batch", "8192"), "--batch"));
  RON_CHECK(batch >= 1, "--batch must be >= 1");
  const std::size_t n = labeling.n();

  const std::unique_ptr<TraceSink> sink = make_trace_sink(args);
  OracleOptions opts = engine_options(args);
  // bench defaults to a real LRU (unlike query/locate, which default off):
  // the cache is part of the serving path being measured, and it keeps the
  // hit/miss telemetry non-degenerate. --cache 0 still disables it.
  if (!args.has("cache")) opts.cache_capacity = 8192;
  opts.trace_sink = sink.get();
  OracleEngine engine(std::move(labeling), opts);

  Rng rng(parse_u64(args.get("seed", "7"), "--seed"));
  std::size_t done = 0;
  while (done < queries) {
    const std::size_t count = std::min(batch, queries - done);
    engine.estimate_batch(random_query_pairs(count, n, rng));
    done += count;
  }
  const EngineTotals estimates = engine.totals();

  // Scenario benches also exercise the locate path: a synthetic directory
  // over the freshly built overlay, applied to the same engine as its
  // first epoch.
  EngineTotals locates;
  if (from_spec) {
    const std::size_t locate_queries = static_cast<std::size_t>(parse_u64(
        args.get("locate-queries", "10000"), "--locate-queries"));
    if (locate_queries > 0) {
      auto epoch = std::make_shared<LocationEpoch>();
      auto dir = std::make_shared<const ObjectDirectory>(
          builder->make_directory(16, 3));
      epoch->service = std::make_shared<const LocationService>(
          builder->prox(), builder->rings(), *dir);
      epoch->directory = dir;
      engine.apply(std::move(epoch));
      std::size_t locate_done = 0;
      while (locate_done < locate_queries) {
        const std::size_t count =
            std::min(batch, locate_queries - locate_done);
        std::vector<LocateQuery> lq;
        lq.reserve(count);
        for (std::size_t q = 0; q < count; ++q) {
          lq.emplace_back(static_cast<NodeId>(rng.index(n)),
                          static_cast<ObjectId>(rng.index(dir->num_objects())));
        }
        engine.locate_batch(lq);
        locate_done += count;
      }
      locates = engine.totals() - estimates;
    }
  }

  std::cout << "{\"tool\":\"ron_oracle bench\",\"n\":" << n
            << ",\"queries\":" << estimates.queries << ",\"batch\":" << batch
            << ",\"threads\":" << engine.num_workers()
            << ",\"cache_hits\":" << estimates.cache_hits
            << ",\"seconds\":" << estimates.seconds
            << ",\"qps\":" << estimates.qps();
  if (locates.queries > 0) {
    std::cout << ",\"locate_queries\":" << locates.queries
              << ",\"locate_cache_hits\":" << locates.cache_hits
              << ",\"locate_seconds\":" << locates.seconds
              << ",\"locate_qps\":" << locates.qps();
  }
  std::cout << "}\n";
  write_metrics_out(args,
                    {builder != nullptr ? &builder->metrics() : nullptr,
                     &engine.metrics()},
                    sink.get());
  return 0;
}

int cmd_publish(const Args& args) {
  args.expect_known({"scenario", "out", "objects", "replicas", "object",
                     "holders", "threads", "backend", "metrics-out"});
  args.expect_positionals(0, "no positional arguments for publish");
  if (!args.has("out")) throw UsageError("publish: --out FILE is required");
  const std::string out = args.get("out", "");
  // The builder canonicalizes n (clustered rounds up to whole clusters
  // etc.); the directory and the embedded recipe both use the effective
  // count so locate rebuilds the identical space.
  ScenarioBuilder builder(require_scenario(args, "publish"),
                          thread_count(args), prox_backend(args));
  const ObjectDirectory dir = build_directory(builder, args);
  save_directory(builder.spec(), dir, out);
  std::cout << "published " << dir.num_objects() << " objects ("
            << dir.total_replicas() << " replicas)\n  scenario: "
            << builder.spec().to_string() << "\n";
  print_wrote(out);
  write_metrics_out(args, {&builder.metrics()});
  return 0;
}

/// Serving state for locate: a builder (kept alive for the metric), an
/// epoch to serve, and the active-node view for query synthesis.
struct LocateState {
  std::unique_ptr<ScenarioBuilder> builder;
  std::unique_ptr<OverlayMutator> mutator;  // null for static directories
  std::shared_ptr<const LocationEpoch> epoch;

  const ObjectDirectory& directory() const { return *epoch->directory; }
  bool is_active(NodeId u) const {
    return mutator == nullptr || mutator->is_active(u);
  }
};

/// Loads a directory or churn-bundle snapshot into serving state: rebuild
/// the overlay from the embedded recipe, and for bundles replay the trace
/// through the incremental mutator (deterministic, so the served state is
/// exactly the one `churn` verified).
LocateState load_locate_state(const std::string& path, const Args& args) {
  LocateState state;
  SnapshotInfo info;
  LoadedChurnBundle recipe = load_overlay_recipe(path, &info);
  if (info.kind == SnapshotKind::kChurnBundle) {
    if (args.has("scenario")) {
      throw UsageError(
          "locate: --scenario cannot override a churn bundle's recipe (the "
          "trace is only valid against the embedded scenario)");
    }
    // Churn replay goes through OverlayMutator, whose incremental repair
    // walks full distance-sorted rows — dense backend by construction.
    state.builder = std::make_unique<ScenarioBuilder>(
        recipe.spec, thread_count(args), ProxBackend::kDense);
    state.mutator = std::make_unique<OverlayMutator>(
        state.builder->prox(), state.builder->spec(),
        std::move(recipe.initial));
    state.mutator->apply(recipe.trace);
    state.epoch = state.mutator->commit();
    return state;
  }
  // The embedded recipe is the default; --scenario overrides it (e.g. to
  // relocate the same directory over a different ring profile).
  const ScenarioSpec spec = args.has("scenario")
                                ? ScenarioSpec::parse(args.get("scenario", ""))
                                : recipe.spec;
  state.builder = std::make_unique<ScenarioBuilder>(spec, thread_count(args),
                                                    prox_backend(args));
  RON_CHECK(state.builder->n() == recipe.initial.n(),
            "locate: scenario rebuilds n = " << state.builder->n()
                                             << ", snapshot directory has n = "
                                             << recipe.initial.n());
  auto epoch = std::make_shared<LocationEpoch>();
  epoch->id = 1;
  auto directory =
      std::make_shared<const ObjectDirectory>(std::move(recipe.initial));
  // The builder outlives the epoch (LocateState declares it first), so the
  // service borrows its rings directly — no point deep-copying the whole
  // ring structure; epoch->rings stays null, as LocationEpoch allows when
  // the rings' owner outlives the epoch.
  epoch->service = std::make_shared<const LocationService>(
      state.builder->prox(), state.builder->rings(), *directory);
  epoch->directory = std::move(directory);
  state.epoch = std::move(epoch);
  return state;
}

/// Random (querier, object) pairs that are servable by contract: active
/// queriers, objects that still have at least one holder (zero-holder
/// objects throw by design — see object_directory.h).
std::vector<LocateQuery> random_servable_locates(const LocateState& state,
                                                 std::size_t count,
                                                 Rng& rng) {
  const ObjectDirectory& dir = state.directory();
  std::vector<NodeId> actives;
  for (NodeId u = 0; u < dir.n(); ++u) {
    if (state.is_active(u)) actives.push_back(u);
  }
  std::vector<ObjectId> stocked;
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    if (!dir.holders(obj).empty()) stocked.push_back(obj);
  }
  RON_CHECK(!actives.empty(), "locate: no active nodes");
  RON_CHECK(!stocked.empty(), "locate: every object has zero holders");
  std::vector<LocateQuery> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    queries.emplace_back(actives[rng.index(actives.size())],
                         stocked[rng.index(stocked.size())]);
  }
  return queries;
}

/// Runs the batch, prints per-query lines and the summary, and returns the
/// exit status enforcing the Theorem 5.2(a) instantiation end-to-end:
/// every walk delivered within the hop bound.
int serve_locates(OracleEngine& engine, const ObjectDirectory& dir,
                  std::span<const LocateQuery> queries) {
  const EngineTotals before = engine.totals();
  const std::vector<LocateResult> results = engine.locate_batch(queries);
  const EngineTotals stats = engine.totals() - before;
  const std::size_t hop_bound = location_hop_bound(engine.n());
  std::size_t found = 0;
  std::size_t max_hops = 0;
  double max_stretch = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LocateResult& r = results[i];
    std::cout << queries[i].first << " " << dir.name(queries[i].second)
              << " ";
    if (!r.found) {
      std::cout << "NOT-FOUND hops " << r.hops << "\n";
      continue;
    }
    ++found;
    max_hops = std::max(max_hops, r.hops);
    max_stretch = std::max(max_stretch, r.route_stretch);
    std::cout << "holder " << r.holder << " hops " << r.hops
              << " nearest " << r.nearest_dist << " stretch "
              << r.route_stretch << "\n";
  }
  std::cout << "# " << found << "/" << results.size() << " located in "
            << stats.seconds * 1e3 << " ms (" << stats.qps() << " qps, "
            << stats.cache_hits << " cache hits, " << engine.num_workers()
            << " workers); max hops " << max_hops << " (bound " << hop_bound
            << "), max stretch " << max_stretch << "\n";
  return found == results.size() && max_hops <= hop_bound ? 0 : 1;
}

int cmd_locate(const Args& args) {
  args.expect_known({"scenario", "object", "from", "queries", "threads",
                     "cache", "max-hops", "seed", "backend", "metrics-out",
                     "trace-sample"});
  args.expect_positionals(
      1, "locate: exactly one directory or churn-bundle snapshot file");
  const LocateState state = load_locate_state(args.positional()[0], args);
  const ObjectDirectory& dir = state.directory();

  LocateOptions locate_opts;
  locate_opts.max_hops = static_cast<std::size_t>(
      parse_u64(args.get("max-hops", "10000"), "--max-hops"));
  const std::unique_ptr<TraceSink> sink = make_trace_sink(args);
  OracleOptions opts = engine_options(args);
  opts.trace_sink = sink.get();
  OracleEngine engine(state.epoch, opts, locate_opts);

  std::vector<LocateQuery> queries;
  if (args.has("object")) {
    RON_CHECK(args.has("from"), "locate: --object requires --from "
                                "\"u;u;...\"");
    const ObjectId obj = dir.find(args.get("object", ""));
    RON_CHECK(obj != kInvalidObject, "locate: object '"
                                         << args.get("object", "")
                                         << "' is not in the directory");
    for (NodeId u : parse_node_list(args.get("from", ""), "--from node")) {
      RON_CHECK(state.is_active(u),
                "locate: querier " << u << " has left the overlay");
      queries.emplace_back(u, obj);
    }
  } else {
    if (!args.has("queries")) {
      throw UsageError(
          "locate: pass --object NAME --from \"u;...\" or --queries Q");
    }
    const std::size_t count = static_cast<std::size_t>(
        parse_u64(args.get("queries", "0"), "--queries"));
    RON_CHECK(count >= 1, "--queries must be >= 1");
    Rng rng(parse_u64(args.get("seed", "7"), "--seed"));
    queries = random_servable_locates(state, count, rng);
  }
  const int rc = serve_locates(engine, dir, queries);
  write_metrics_out(
      args,
      {&state.builder->metrics(),
       state.mutator != nullptr ? &state.mutator->metrics() : nullptr,
       &engine.metrics()},
      sink.get());
  return rc;
}

int cmd_churn(const Args& args) {
  args.expect_known({"out", "ops", "churn-seed", "threads", "verify",
                     "emit-directory", "metrics-out"});
  args.expect_positionals(
      1, "churn: exactly one directory or churn-bundle snapshot file");
  if (!args.has("out")) throw UsageError("churn: --out FILE is required");
  const std::string path = args.positional()[0];
  const std::string out = args.get("out", "");

  // Load the starting state: a directory snapshot starts a fresh trace, a
  // churn bundle is replayed and its trace extended.
  SnapshotInfo info;
  auto [spec, initial, prior] = load_overlay_recipe(path, &info);

  // Two distinct seeds, resolved BEFORE the mutator exists:
  //   - the MAINTENANCE seed (spec.churn_seed) drives every ring-repair /
  //     eviction / measure draw and must equal the seed recorded in the
  //     emitted bundle, or replay would serve a different overlay than the
  //     one verified below. A fresh bundle adopts --churn-seed; extending a
  //     bundle keeps its original seed (the prior trace segment must replay
  //     through the exact draws it was built with).
  //   - the GENERATOR seed (--churn-seed, default spec.churn_seed) only
  //     shapes which ops get generated — the ops themselves travel in the
  //     trace, so it needs no provenance.
  const bool extends_bundle = info.kind == SnapshotKind::kChurnBundle;
  const std::uint64_t generator_seed = parse_u64(
      args.get("churn-seed", std::to_string(spec.churn_seed)),
      "--churn-seed");
  // Incremental repair needs full distance-sorted rows (see OverlayMutator).
  ScenarioBuilder builder(spec, thread_count(args), ProxBackend::kDense);
  ScenarioSpec mut_spec = builder.spec();
  if (!extends_bundle) mut_spec.churn_seed = generator_seed;
  // The mutator gets a copy: `initial` is also what the bundle stores.
  auto mutator = std::make_unique<OverlayMutator>(builder.prox(), mut_spec,
                                                  initial);
  if (!prior.ops.empty()) mutator->apply(prior);

  ChurnTraceParams params;
  // spec.churn_ops is the requested workload for a directory's churn=
  // clause; on a bundle it is the size of the trace already applied, so
  // defaulting to it would double the trace every extension.
  params.ops = static_cast<std::size_t>(parse_u64(
      args.get("ops", !extends_bundle && spec.churn_ops > 0
                          ? std::to_string(spec.churn_ops)
                          : "256"),
      "--ops"));
  const ChurnTrace fresh =
      generate_churn_trace(*mutator, params, generator_seed);
  mutator->apply(fresh);

  // Extend the stored trace: remap the fresh ops' object indices into the
  // combined name table (the two traces number their names independently).
  ChurnTrace combined = std::move(prior);
  std::unordered_map<std::string, ObjectId> index;
  for (ObjectId i = 0; i < combined.objects.size(); ++i) {
    index.emplace(combined.objects[i], i);
  }
  for (const ChurnOp& op : fresh.ops) {
    ChurnOp remapped = op;
    if (op.kind == ChurnOpKind::kPublish ||
        op.kind == ChurnOpKind::kUnpublish) {
      const std::string& name = fresh.objects[op.object];
      const auto [it, inserted] = index.try_emplace(
          name, static_cast<ObjectId>(combined.objects.size()));
      if (inserted) combined.objects.push_back(name);
      remapped.object = it->second;
    }
    combined.ops.push_back(remapped);
  }

  ScenarioSpec out_spec = mut_spec;
  out_spec.churn_ops = combined.ops.size();
  // The bundle stores the directory BEFORE the combined trace — for a
  // directory input that is the loaded one, for a bundle input it is the
  // bundle's own initial state.
  save_churn_bundle(out_spec, initial, combined, out);

  const ChurnCounters& c = mutator->counters();
  std::cout << "churned " << fresh.ops.size() << " ops (trace total "
            << combined.ops.size() << "): join " << c.joins << ", leave "
            << c.leaves << ", publish " << c.publishes << ", unpublish "
            << c.unpublishes << "\n  active " << mutator->active_count()
            << "/" << mutator->n() << ", max out-degree "
            << mutator->rings().max_out_degree() << ", ring repairs "
            << c.ring_repairs << ", evictions " << c.evictions
            << ", net promotions " << c.net_promotions << "\n  directory: "
            << mutator->directory().num_objects() << " objects, "
            << mutator->directory().total_replicas() << " replicas\n";
  print_wrote(out);

  if (args.has("emit-directory")) {
    // Interop artifact: the patched holder sets as a plain directory
    // snapshot (locate on it walks the STATIC overlay of the recipe). The
    // churn clause is reset: it means "ops to generate and apply", and
    // this directory's workload has already been applied — carrying it
    // over would mislabel the artifact and re-run a full-size workload if
    // the file is churned again.
    ScenarioSpec dir_spec = out_spec;
    dir_spec.churn_ops = ScenarioSpec{}.churn_ops;
    dir_spec.churn_seed = ScenarioSpec{}.churn_seed;
    save_directory(dir_spec, mutator->directory(),
                   args.get("emit-directory", ""));
    print_wrote(args.get("emit-directory", ""));
  }

  // Post-churn guarantee check over the very state the bundle will replay:
  // every verification locate must deliver within the hop bound, or the
  // exit status flags the bundle as bad.
  const std::size_t verify = static_cast<std::size_t>(
      parse_u64(args.get("verify", "64"), "--verify"));
  if (verify > 0) {
    LocateState state;
    state.mutator = std::move(mutator);
    state.epoch = state.mutator->commit();
    const ObjectDirectory& dir = *state.epoch->directory;
    if (dir.total_replicas() == 0) {
      // Every object drained — a defined (if extreme) state with nothing
      // servable to verify.
      std::cout << "# verify skipped: every object has zero holders\n";
      write_metrics_out(args,
                        {&builder.metrics(), &state.mutator->metrics()});
      return 0;
    }
    OracleEngine engine(state.epoch, OracleOptions{1, 0});
    Rng rng(generator_seed ^ 0x5eedULL);
    const int rc = serve_locates(engine, dir,
                                 random_servable_locates(state, verify, rng));
    write_metrics_out(args, {&builder.metrics(), &state.mutator->metrics(),
                             &engine.metrics()});
    return rc;
  }
  write_metrics_out(args, {&builder.metrics(), &mutator->metrics()});
  return 0;
}

/// `stats`: serve a sample workload from any servable snapshot and emit
/// the telemetry it generated — JSON envelope or prometheus exposition on
/// stdout. The observability quickstart: one command from snapshot to a
/// scrapeable metrics document.
int cmd_stats(const Args& args) {
  args.expect_known({"scenario", "queries", "threads", "cache", "seed",
                     "format", "backend", "trace-sample", "metrics-out"});
  args.expect_positionals(1, "stats: exactly one snapshot file");
  const std::string path = args.positional()[0];
  const std::string format = args.get("format", "json");
  if (format != "json" && format != "prometheus") {
    throw UsageError("stats: unknown --format '" + format +
                     "' (want json|prometheus)");
  }
  const std::size_t queries = static_cast<std::size_t>(
      parse_u64(args.get("queries", "10000"), "--queries"));
  RON_CHECK(queries >= 1, "--queries must be >= 1");
  const std::unique_ptr<TraceSink> sink = make_trace_sink(args);
  Rng rng(parse_u64(args.get("seed", "7"), "--seed"));

  // Everything below prints through this, so the engine and its borrowed
  // state are still alive whichever branch built them.
  const auto finish = [&](std::vector<const MetricsRegistry*> registries) {
    std::erase(registries, nullptr);
    if (format == "prometheus") {
      dump_metrics_prometheus(std::cout, registries);
    } else {
      write_metrics_envelope(std::cout, registries, sink.get());
    }
    write_metrics_out(args, std::move(registries), sink.get());
    return 0;
  };

  const std::uint32_t kind = peek_snapshot_kind(path);
  if (kind == static_cast<std::uint32_t>(SnapshotKind::kObjectDirectory) ||
      kind == static_cast<std::uint32_t>(SnapshotKind::kChurnBundle)) {
    // Locate serving: rebuild the overlay from the embedded recipe (replay
    // the trace for bundles) and walk random servable queries through it.
    const LocateState state = load_locate_state(path, args);
    OracleOptions opts = engine_options(args);
    opts.trace_sink = sink.get();
    OracleEngine engine(state.epoch, opts);
    engine.locate_batch(random_servable_locates(state, queries, rng));
    return finish(
        {&state.builder->metrics(),
         state.mutator != nullptr ? &state.mutator->metrics() : nullptr,
         &engine.metrics()});
  }
  if (args.has("scenario")) {
    throw UsageError("stats: --scenario only applies to directory snapshots "
                     "(estimate snapshots carry their own labeling)");
  }
  if (kind == static_cast<std::uint32_t>(SnapshotKind::kOracle) ||
      kind == static_cast<std::uint32_t>(SnapshotKind::kDistanceLabeling)) {
    DistanceLabeling labeling =
        kind == static_cast<std::uint32_t>(SnapshotKind::kOracle)
            ? load_oracle(path).labeling
            : load_labeling(path);
    const std::size_t n = labeling.n();
    OracleEngine engine(std::move(labeling), engine_options(args));
    engine.estimate_batch(random_query_pairs(queries, n, rng));
    return finish({&engine.metrics()});
  }
  RON_CHECK(false, "stats: snapshot kind " << kind << " serves no queries "
            "(want oracle, labeling, directory or churn-bundle)");
  return 1;  // unreachable
}

int run(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") return usage(std::cout), 0;
  Args args(argc, argv, 2);
  if (cmd == "build") return cmd_build(args);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "bench") return cmd_bench(args);
  if (cmd == "publish") return cmd_publish(args);
  if (cmd == "locate") return cmd_locate(args);
  if (cmd == "churn") return cmd_churn(args);
  if (cmd == "stats") return cmd_stats(args);
  throw UsageError("unknown subcommand '" + cmd + "'");
}

}  // namespace
}  // namespace ron

int main(int argc, char** argv) {
  return ron::cli::tool_main(
      "ron_oracle", [&] { return ron::run(argc, argv); },
      [](std::ostream& os) { ron::usage(os); });
}
