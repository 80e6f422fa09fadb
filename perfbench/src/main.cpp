// ronbench — one run of one benchmark workload against ron_served.
//
//   ronbench --workload NAME --seed N --seconds S --trace 0|1
//            --served PATH --work DIR [--commit TEXT]
//
// Builds the workload's inputs from the seed, starts the daemon
// `setup_repeats` times (once when tracing), drives it from one generator
// thread through a closed-loop and an open-loop phase (with the churn stream
// running beside both on churn workloads, and the daemon's CPU kept out of
// its idle halt), checks every answer, then rebuilds the serving state
// in-process to compare a seeded sample of answers with the reference (and,
// when tracing, to split the run by layer). The human-readable report and
// the run's stamp go to stderr and to DIR/result.json; the last line of
// stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exit status: 0 on a completed run, 1 on any error.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "common/check.h"
#include "daemon.h"
#include "loadgen.h"
#include "location/location_service.h"
#include "replay.h"
#include "scenario/metric_registry.h"
#include "served/client.h"
#include "util.h"
#include "workload.h"

namespace ronbench {
namespace {

// One answer in this many frames is kept and compared with the reference.
constexpr std::size_t kSampleEvery = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string served;
  std::string work;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    RON_CHECK(i + 1 < argc, "missing value after " << key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      RON_CHECK(value == "0" || value == "1", "--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--served") {
      a.served = value;
    } else if (key == "--work") {
      a.work = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      RON_CHECK(false, "unknown argument " << key);
    }
  }
  RON_CHECK(!a.workload.empty() && have_seed && have_seconds && have_trace &&
                !a.served.empty() && !a.work.empty(),
            "usage: ronbench --workload NAME --seed N --seconds S --trace "
            "0|1 --served PATH --work DIR [--commit TEXT]");
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Answered queries per second in each one-second window of the measured
/// closed-loop phase, by answer time.
std::vector<double> closed_windows(const LoadRecord& rec) {
  const double span_ns = static_cast<double>(rec.closed_end - rec.closed_begin);
  const auto n = static_cast<std::size_t>(std::max(1.0, std::floor(span_ns * 1e-9)));
  std::vector<double> qps(n, 0.0);
  for (const FrameRecord& r : rec.frames) {
    if (r.phase != Phase::kClosed || r.recv_ns < rec.closed_begin ||
        r.recv_ns >= rec.closed_end) {
      continue;
    }
    const auto w = static_cast<std::size_t>(
        static_cast<double>(r.recv_ns - rec.closed_begin) / (span_ns / n));
    qps[std::min(w, n - 1)] += static_cast<double>(kBatch - r.failed);
  }
  for (double& q : qps) q /= span_ns / n * 1e-9;
  return qps;
}

/// Latencies (ms, from due time) of the answered measured open-loop
/// frames, bucketed into one-second windows by due time.
std::vector<std::vector<double>> open_windows(const LoadRecord& rec) {
  const double span_ns = static_cast<double>(rec.open_end - rec.open_begin);
  const auto n = static_cast<std::size_t>(std::max(1.0, std::floor(span_ns * 1e-9)));
  std::vector<std::vector<double>> windows(n);
  for (const FrameRecord& r : rec.frames) {
    if (r.phase != Phase::kOpen || r.recv_ns == 0) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(r.due_ns - rec.open_begin) / (span_ns / n));
    windows[std::min(w, n - 1)].push_back(r.latency_ms());
  }
  return windows;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(v[i]);
  }
  return out + "]";
}

std::string stamp_json(const Args& args, const WorkloadConfig& cfg,
                       std::size_t query_conns, const LoadPlacement& cpus) {
  const std::size_t conns = query_conns + (cfg.churn() ? 1 : 0);
  std::ostringstream os;
  os << "{\"commit\": " << json_string(args.commit)
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": " << json_string(compiler_stamp())
     << ", \"build_type\": " << json_string(build_type_stamp())
     << ", \"workload\": " << json_string(cfg.name)
     << ", \"gated\": " << (cfg.gated ? "true" : "false")
     << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"daemon_flags\": \"";
  for (std::size_t i = 0; i < cfg.daemon_flags.size(); ++i) {
    os << (i == 0 ? "" : " ") << cfg.daemon_flags[i];
  }
  os << "\", \"daemon_engine_threads\": 1, \"daemon_poll_threads\": 1"
     << ", \"generator_threads\": 1, \"generator_connections\": "
     << conns << ", \"query_connections\": " << query_conns
     << ", \"generator_cpu\": " << cpus.generator_cpu()
     << ", \"daemon_cpu\": " << cpus.daemon_cpu()
     << ", \"idle_spinner\": " << (cpus.spinning() ? "true" : "false")
     << ", \"open_loop_qps\": " << json_number(cfg.open_loop_qps)
     << ", \"churn_hz\": " << json_number(cfg.churn_hz)
     << ", \"batch\": " << kBatch << "}";
  return os.str();
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadConfig& cfg = workload(args.workload);
  const Phases phases(args.seconds);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  // Generator connections (queries + churn) stay within nproc.
  const std::size_t query_conns = static_cast<std::size_t>(
      std::clamp<long>(nproc - 1, 1, 2));

  std::cerr << "ronbench: " << cfg.name << " seed " << args.seed
            << ": building inputs\n";
  Inputs in = make_inputs(cfg, args.seed, phases, args.work);
  if (cfg.kind == QueryKind::kLocate) {
    std::cerr << "ronbench: " << in.queriers.size() << " queriers\n";
  }
  std::unique_ptr<ron::MetricSpace> check_metric;
  if (cfg.kind == QueryKind::kEstimate) {
    check_metric = ron::MetricRegistry::global().make(in.spec);
  }
  const AnswerChecker checker(CheckConfig{in.n, ron::location_hop_bound(in.n),
                                          cfg.churn(),
                                          check_metric.get()});

  // --- set-up: spawn to first answered frame, `repeats` times -------------
  std::vector<std::string> daemon_args{in.snapshot_path, "--port", "0"};
  daemon_args.insert(daemon_args.end(), cfg.daemon_flags.begin(),
                     cfg.daemon_flags.end());
  const std::string log_path = args.work + "/ron_served.log";
  const std::size_t repeats = args.trace ? 1 : cfg.setup_repeats;
  std::vector<double> setup_s, setup_rss;
  Failures fails;
  std::size_t attempted = 0;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(args.served, daemon_args, log_path);
    port = daemon->wait_port(150.0);
    ron::Client first;
    first.connect("127.0.0.1", port);
    first.send_frame(in.payloads[0]);
    const std::vector<std::uint8_t> answer = first.recv_frame();
    setup_s.push_back(static_cast<double>(now_ns() - daemon->spawn_ns()) * 1e-9);
    setup_rss.push_back(daemon->peak_rss_mb());
    attempted += kBatch;
    if (cfg.kind == QueryKind::kLocate) {
      checker.locate_frame(in.locate_frames[0], 1, answer, fails, nullptr);
    } else {
      checker.estimate_frame(in.estimate_frames[0], 1, answer, fails, nullptr);
    }
    if (r + 1 < repeats) {
      first.shutdown_server();
      if (!daemon->wait_exit(30.0)) fails.add("daemon_exit");
      ++attempted;
    }
    std::cerr << "ronbench: set-up " << r + 1 << "/" << repeats << ": "
              << setup_s.back() << " s, peak RSS " << setup_rss.back()
              << " MB\n";
  }

  // --- load -----------------------------------------------------------------
  // The daemon sleeps between open-loop frames, and waking a halted virtual
  // CPU costs whatever the host's scheduler makes it cost: its CPU is kept
  // awake for the load phases (util.h).
  auto cpus = std::make_unique<LoadPlacement>(daemon->pid());
  const std::string stamp = stamp_json(args, cfg, query_conns, *cpus);
  Generator gen(in, checker, port, query_conns, args.seed, kSampleEvery);
  std::cerr << "ronbench: closed loop " << phases.closed_s << " s\n";
  gen.closed_loop(phases.closed_warm_s, phases.closed_s);
  std::cerr << "ronbench: open loop " << phases.open_s << " s at "
            << cfg.open_loop_qps << " queries/s\n";
  gen.open_loop(phases.open_warm_s, phases.open_s);
  gen.finish();
  cpus.reset();
  {
    ron::Client admin;
    admin.connect("127.0.0.1", port);
    admin.shutdown_server();
    ++attempted;
  }
  if (!daemon->wait_exit(30.0)) fails.add("daemon_exit");
  daemon.reset();
  const LoadRecord& rec = gen.record();
  fails.merge(rec.fails);
  attempted += rec.frames.size() * kBatch;
  for (const ChurnRecord& c : rec.churn) attempted += c.ops;

  // --- reference rebuild and replay ----------------------------------------
  std::cerr << "ronbench: rebuilding the serving state in-process\n";
  Spans spans;
  Spans* sp = args.trace ? &spans : nullptr;
  ServingState st = build_state(in, sp);
  const ReplayOutcome ro = replay(st, in, rec, sp);
  fails.merge(ro.fails);

  // --- end-to-end metrics ----------------------------------------------------
  std::vector<double> lat_ms, late_ms, rtt_us, churn_ms;
  for (const FrameRecord& r : rec.frames) {
    if (r.phase != Phase::kOpen) continue;
    late_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    if (r.recv_ns == 0) continue;
    lat_ms.push_back(r.latency_ms());
    rtt_us.push_back(static_cast<double>(r.recv_ns - r.send_ns) * 1e-3);
  }
  for (const ChurnRecord& c : rec.churn) {
    if (c.recv_ns == 0 || c.due_ns < rec.open_begin ||
        c.due_ns >= rec.open_end) {
      continue;
    }
    churn_ms.push_back(static_cast<double>(c.recv_ns - c.due_ns) * 1e-6);
  }
  RON_CHECK(!lat_ms.empty(), "the open-loop phase answered nothing");
  RON_CHECK(!cfg.churn() || !churn_ms.empty(),
            "no churn chunk was answered in the open-loop phase");
  const double churn_p50 = churn_ms.empty() ? 0.0 : median(churn_ms);
  // qps, p50 and p90 are medians over the measured one-second windows, so a
  // stretch in which the host took this guest's CPUs away moves them only
  // when it covers most of the phase.
  const std::vector<double> qps_windows = closed_windows(rec);
  std::vector<double> p50_windows, p90_windows;
  for (const std::vector<double>& w : open_windows(rec)) {
    if (w.empty()) continue;
    p50_windows.push_back(quantile(w, 0.5));
    p90_windows.push_back(quantile(w, 0.9));
  }
  const double ok_ratio =
      1.0 - static_cast<double>(fails.total) / static_cast<double>(attempted);

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"setup_rss_mb", median(setup_rss), "MB", setup_rss.size()},
      {"qps", median(qps_windows), "queries/s", qps_windows.size()},
      {"p50_ms", median(p50_windows), "ms", p50_windows.size()},
      {"p90_ms", median(p90_windows), "ms", p90_windows.size()},
      {"ok_ratio", ok_ratio, "ratio", attempted},
  };

  // --- per-layer metrics (traced runs) ---------------------------------------
  std::vector<Metric> layers;
  if (args.trace) {
    const WorkCounts& w = ro.work;
    auto per = [](double num, std::size_t den) {
      return den == 0 ? 0.0 : num / static_cast<double>(den);
    };
    const double stages = spans.total_s(SpanName::kSnapshotLoad) +
                          spans.total_s(SpanName::kProxBuild) +
                          spans.total_s(SpanName::kNetsBuild) +
                          spans.total_s(SpanName::kMeasureBuild) +
                          spans.total_s(SpanName::kRingsBuild) +
                          spans.total_s(SpanName::kSeal) +
                          spans.total_s(SpanName::kMutatorBuild);
    const double rtt = mean(rtt_us);
    const double decode = spans.mean_us(SpanName::kDecode);
    const double batch = spans.mean_us(SpanName::kBatch);
    const double encode = spans.mean_us(SpanName::kEncode);
    const std::size_t frames = spans.count(SpanName::kBatch);
    layers = {
        {"oracle.snapshot_load_s", spans.total_s(SpanName::kSnapshotLoad), "s", 1},
        {"metric.prox_build_s", spans.total_s(SpanName::kProxBuild), "s", 1},
        {"net.nets_build_s", spans.total_s(SpanName::kNetsBuild), "s", 1},
        {"net.measure_build_s", spans.total_s(SpanName::kMeasureBuild), "s", 1},
        {"smallworld.rings_build_s", spans.total_s(SpanName::kRingsBuild), "s", 1},
        {"core.seal_s", spans.total_s(SpanName::kSeal), "s", 1},
        {"core.bytes_per_node", per(static_cast<double>(st.ring_bytes), st.ring_bytes == 0 ? 0 : in.n), "B", 1},
        {"churn.mutator_build_s", spans.total_s(SpanName::kMutatorBuild), "s", 1},
        {"scenario.setup_other_s", setup_s.front() - stages, "s", 1},
        {"served.rtt_us", rtt, "us", rtt_us.size()},
        {"served.decode_us", decode, "us", frames},
        {"served.encode_us", encode, "us", frames},
        {"oracle.batch_us", batch, "us", frames},
        {"served.wait_us", rtt - decode - batch - encode, "us", frames},
        {"oracle.cache_hit_ratio", w.cache_hit_ratio, "ratio", frames * kBatch},
        {"labeling.estimate_us", spans.mean_us(SpanName::kEstimate), "us", w.estimates},
        {"labeling.candidates", per(static_cast<double>(w.candidates), w.estimates), "count", w.estimates},
        {"location.locate_us", spans.mean_us(SpanName::kLocate), "us", w.locates},
        {"location.hops", per(static_cast<double>(w.hops), w.locates), "count", w.locates},
        {"metric.nearest_in_us", spans.mean_us(SpanName::kNearestIn), "us", w.locates},
        {"metric.probes_per_locate", per(static_cast<double>(w.probes), w.locates), "count", w.locates},
        {"metric.distance_ns", w.distance_ns, "ns", w.locates},
        {"core.avg_degree", per(static_cast<double>(w.contacts), w.visits), "count", w.visits},
        {"core.visit_ns_per_contact", per(spans.total_s(SpanName::kVisit) * 1e9, w.contacts), "ns", w.visits},
        {"churn.apply_us_per_op", per(spans.total_s(SpanName::kChurnApply) * 1e6, w.churn_ops), "us", w.churn_ops},
        {"churn.commit_ms", spans.mean_us(SpanName::kChurnCommit) * 1e-3, "ms", spans.count(SpanName::kChurnCommit)},
        {"churn.repairs_per_op", per(static_cast<double>(w.ring_repairs), w.churn_ops), "count", w.churn_ops},
        {"oracle.epoch_swap_us", spans.mean_us(SpanName::kEpochSwap), "us", spans.count(SpanName::kEpochSwap)},
        {"served.churn_rtt_ms", churn_p50, "ms", churn_ms.size()},
        {"loadgen.late_p99_ms", quantile(late_ms, 0.99), "ms", late_ms.size()},
        {"trace.overhead_pct", w.overhead_pct, "%", frames},
    };
    std::filesystem::create_directories(args.work);
    spans.write_tsv(args.work + "/spans.tsv");
  }

  // --- report -----------------------------------------------------------------
  const bool correct = fails.total == 0;
  auto metrics_json = [](const std::vector<Metric>& ms, bool samples) {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_string(ms[i].name)
         << ": {\"value\": " << json_number(ms[i].value)
         << ", \"unit\": " << json_string(ms[i].unit);
      if (samples) os << ", \"samples\": " << ms[i].samples;
      os << "}";
    }
    os << "}";
    return os.str();
  };
  std::ostringstream failures;
  failures << "{";
  bool first_reason = true;
  for (const auto& [reason, count] : fails.by_reason) {
    failures << (first_reason ? "" : ", ") << json_string(reason) << ": "
             << count;
    first_reason = false;
  }
  failures << "}";
  {
    std::ofstream os(args.work + "/result.json");
    os << "{\"stamp\": " << stamp << ",\n \"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << fails.total
       << ", \"failures\": " << failures.str()
       << ", \"reference_compared\": " << ro.compared
       << ", \"reference_ambiguous\": " << ro.ambiguous
       << ", \"churn_p50_ms\": " << json_number(churn_p50)
       << ", \"pooled\": {\"p50_ms\": " << json_number(quantile(lat_ms, 0.5))
       << ", \"p90_ms\": " << json_number(quantile(lat_ms, 0.9)) << "}"
       << ", \"late_ms\": [" << json_number(quantile(late_ms, 0.5)) << ", "
       << json_number(quantile(late_ms, 0.9)) << ", "
       << json_number(quantile(late_ms, 0.99)) << "]"
       << ", \"rtt_us\": [" << json_number(quantile(rtt_us, 0.5)) << ", "
       << json_number(quantile(rtt_us, 0.9)) << "]"
       << ", \"windows\": {\"qps\": " << json_list(qps_windows)
       << ", \"p50_ms\": " << json_list(p50_windows)
       << ", \"p90_ms\": " << json_list(p90_windows) << "}"
       << ",\n \"end_to_end\": " << metrics_json(e2e, true)
       << ",\n \"per_layer\": " << metrics_json(layers, true) << "}\n";
  }
  std::cerr << "ronbench: stamp " << stamp << "\n";
  std::cerr << "ronbench: " << attempted << " attempted, " << fails.total
            << " failed " << failures.str() << "; " << ro.compared
            << " answers compared with the reference (" << ro.ambiguous
            << " skipped: epoch not pinned)\n";
  std::cerr << "ronbench: end to end" << (args.trace ? " (traced run)" : "")
            << ":\n";
  for (const Metric& m : e2e) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << " ("
              << m.samples << " samples)\n";
  }
  std::cerr << "  fail_ratio = " << 1.0 - ok_ratio << " (" << fails.total
            << " of " << attempted << ")\n";
  if (cfg.churn()) {
    std::cerr << "  churn_p50_ms = " << churn_p50 << " ms (" << churn_ms.size()
              << " samples)\n";
  }
  if (args.trace) {
    std::cerr << "ronbench: per layer:\n";
    for (const Metric& m : layers) {
      std::cerr << "  " << m.name << " = " << m.value << " " << m.unit
                << " (" << m.samples << " samples)\n";
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << fails.total << ", \"metrics\": "
            << metrics_json(args.trace ? layers : e2e, false) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace ronbench

int main(int argc, char** argv) {
  try {
    return ronbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ronbench: error: " << e.what() << "\n";
    return 1;
  }
}
