// Tests of the benchmark's own logic: seeded inputs are reproducible, the
// open-loop pacer charges a late send from its due time, the output checks
// reject forged answers, and BENCHMARK.json lists exactly the gated
// workloads, each with its rate and daemon flags.
//
//   ronbench_selftest <path to BENCHMARK.json>
//
// Exit status 0 when every check passes.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "churn/trace_generator.h"
#include "loadgen.h"
#include "location/location_service.h"
#include "scenario/metric_registry.h"
#include "served/protocol.h"
#include "workload.h"

namespace ronbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++g_failures;                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expected " #cond    \
                << "\n";                                                 \
    }                                                                    \
  } while (0)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void test_streams_are_seeded() {
  const std::vector<ron::NodeId> queriers{3, 5, 8, 13, 21};
  const std::vector<ron::ObjectId> objects{0, 2, 4, 6};
  EXPECT(make_locate_frames(queriers, objects, 20, 64, 7) ==
         make_locate_frames(queriers, objects, 20, 64, 7));
  EXPECT(make_locate_frames(queriers, objects, 20, 64, 7) !=
         make_locate_frames(queriers, objects, 20, 64, 8));
  EXPECT(make_estimate_frames(480, 20, 64, 7) ==
         make_estimate_frames(480, 20, 64, 7));
  EXPECT(make_estimate_frames(480, 20, 64, 7) !=
         make_estimate_frames(480, 20, 64, 8));
}

void test_fixed_rate_schedule() {
  // 600 frames/s over 10 s: frame k due at exactly k / 600 s, none at or
  // past the end.
  const auto offsets = fixed_rate_offsets(600.0, 10.0);
  EXPECT(offsets.size() == 6000);
  for (std::size_t k = 0; k < offsets.size(); ++k) {
    const double want = static_cast<double>(k) * 1e9 / 600.0;
    EXPECT(std::abs(static_cast<double>(offsets[k]) - want) <= 1.0);
  }
  EXPECT(fixed_rate_offsets(600.0, 10.0) == offsets);
}

void test_zipf_sampler() {
  const ZipfSampler zipf(480, 1.0);
  ron::Rng a(11), b(11);
  std::vector<std::size_t> counts(480, 0);
  for (int i = 0; i < 200000; ++i) {
    const std::size_t r = zipf.draw(a);
    EXPECT(r == zipf.draw(b));
    EXPECT(r < 480);
    ++counts[r];
  }
  // Zipf(1): P(rank k) ∝ 1/(k+1), so rank 0 draws about twice rank 1 and
  // ten times rank 9.
  EXPECT(counts[0] > counts[1] && counts[1] > counts[9]);
  const double r01 = static_cast<double>(counts[0]) / counts[1];
  const double r09 = static_cast<double>(counts[0]) / counts[9];
  EXPECT(r01 > 1.8 && r01 < 2.2);
  EXPECT(r09 > 8.5 && r09 < 11.5);
}

void test_churn_chunks_are_seeded() {
  ron::ObjectDirectory dir(64);
  ron::Rng rng(3);
  for (int k = 0; k < 8; ++k) {
    dir.publish_random("obj" + std::to_string(k), 3, rng);
  }
  const std::vector<char> active(64, 1);
  ron::ChurnTraceParams params;
  params.ops = 160;
  const ron::ChurnTrace t1 = ron::generate_churn_trace(64, active, dir, params, 9);
  const ron::ChurnTrace t2 = ron::generate_churn_trace(64, active, dir, params, 9);
  const ron::ChurnTrace t3 = ron::generate_churn_trace(64, active, dir, params, 10);
  const auto c1 = split_trace(t1, 16);
  EXPECT(c1 == split_trace(t2, 16));
  EXPECT(c1 != split_trace(t3, 16));
  EXPECT(c1.size() == 10);
  // Chunks keep the ops in order and name every object they touch.
  std::size_t k = 0;
  for (const ron::ChurnTrace& chunk : c1) {
    chunk.validate(64);
    for (const ron::ChurnOp& op : chunk.ops) {
      const ron::ChurnOp& orig = t1.ops[k++];
      EXPECT(op.kind == orig.kind && op.node == orig.node);
      if (op.object != ron::kInvalidObject) {
        EXPECT(chunk.objects[op.object] == t1.objects[orig.object]);
      }
    }
  }
  const auto keep = never_removed(64, t1);
  for (const ron::ChurnOp& op : t1.ops) {
    if (op.kind == ron::ChurnOpKind::kLeave) {
      EXPECT(!std::binary_search(keep.begin(), keep.end(), op.node));
    }
  }
}

void test_inputs_are_seeded(const std::string& tmp) {
  const Phases phases(4.0);
  for (const WorkloadConfig& cfg : workloads()) {
    const Inputs a = make_inputs(cfg, 5, phases, tmp + "/a");
    const Inputs b = make_inputs(cfg, 5, phases, tmp + "/b");
    const Inputs c = make_inputs(cfg, 6, phases, tmp + "/c");
    EXPECT(a.payloads == b.payloads);
    EXPECT(a.churn_payloads == b.churn_payloads);
    EXPECT(a.open_offsets_ns == b.open_offsets_ns);
    EXPECT(a.chunks == b.chunks);
    EXPECT(slurp(a.snapshot_path) == slurp(b.snapshot_path));
    EXPECT(a.payloads != c.payloads);
    EXPECT(a.num_frames() >= a.open_offsets_ns.size());
    if (cfg.churn()) {
      EXPECT(a.chunks != c.chunks);
      EXPECT(a.churn_payloads.size() == a.chunks.size());
      // Queriers are never removed by the chunks the daemon will apply.
      for (const ron::ChurnTrace& chunk : a.chunks) {
        for (const ron::ChurnOp& op : chunk.ops) {
          if (op.kind != ron::ChurnOpKind::kLeave) continue;
          EXPECT(!std::binary_search(a.queriers.begin(), a.queriers.end(),
                                     op.node));
        }
      }
    }
  }
}

void test_late_send_is_charged_from_due() {
  const std::uint64_t ms = 1'000'000;
  Pacer pacer({0, 1 * ms, 2 * ms, 20 * ms});
  const std::uint64_t t0 = 1'000 * ms;
  pacer.start(t0);
  EXPECT(pacer.take_due(t0 - 1) == Pacer::kNone);
  // The generator stalls until t0 + 10 ms: every overdue frame is still
  // handed out, in order, with its own due time — none skipped.
  const std::uint64_t stalled = t0 + 10 * ms;
  std::vector<FrameRecord> sent;
  for (std::size_t k = pacer.take_due(stalled); k != Pacer::kNone;
       k = pacer.take_due(stalled)) {
    FrameRecord r;
    r.frame = static_cast<std::uint32_t>(k);
    r.due_ns = pacer.due_ns(k);
    r.send_ns = stalled;
    r.recv_ns = stalled + ms / 2;
    sent.push_back(r);
  }
  EXPECT(sent.size() == 3);
  for (std::size_t k = 0; k < sent.size(); ++k) {
    EXPECT(sent[k].frame == k);
    // Latency runs from the due time: the stall is charged in full.
    EXPECT(std::abs(sent[k].latency_ms() - (10.5 - static_cast<double>(k))) <
           1e-9);
  }
  // The schedule is not re-based on the stall: the next frame stays due
  // at t0 + 20 ms.
  EXPECT(pacer.next_due_ns() == t0 + 20 * ms);
  EXPECT(pacer.take_due(t0 + 19 * ms) == Pacer::kNone);
  EXPECT(pacer.take_due(t0 + 20 * ms) == 3);
  EXPECT(pacer.done());
}

void test_checks_reject_forged_answers() {
  const auto metric = ron::MetricRegistry::global().make(
      ron::ScenarioSpec::parse("metric=uniline,n=100"));
  const std::size_t bound = ron::location_hop_bound(100);
  const AnswerChecker strict(CheckConfig{100, bound, false, metric.get()});
  const AnswerChecker churny(CheckConfig{100, bound, true, metric.get()});

  ron::ServedLocate good;
  good.result.found = true;
  good.result.holder = 7;
  good.result.hops = 2;
  good.result.nearest_dist = 1.0;
  good.result.holder_dist = 1.0;
  good.result.path_length = 1.5;
  good.result.route_stretch = 1.5;
  const std::vector<ron::LocateQuery> q{{1, 0}};
  auto locate_fails = [&](const AnswerChecker& c, const ron::ServedLocate& s,
                          std::uint64_t answer_id = 9) {
    Failures f;
    const auto payload = ron::encode_locate_result(answer_id, {&s, 1});
    return c.locate_frame(q, 9, payload, f, nullptr);
  };
  EXPECT(locate_fails(strict, good) == 0);
  ron::ServedLocate lost = good;
  lost.result.found = false;
  EXPECT(locate_fails(strict, lost) == 1);
  ron::ServedLocate long_walk = good;
  long_walk.result.hops = bound + 1;
  long_walk.result.route_stretch = 1.0;
  EXPECT(locate_fails(strict, long_walk) == 1);
  ron::ServedLocate stretched = good;
  stretched.result.route_stretch = 4.5;  // > 2 * 2 hops
  EXPECT(locate_fails(strict, stretched) == 1);
  ron::ServedLocate drained;
  drained.status = ron::LocateStatus::kZeroHolders;
  EXPECT(locate_fails(strict, drained) == 1);
  EXPECT(locate_fails(churny, drained) == 0);
  EXPECT(locate_fails(strict, good, 10) == 1);  // answers another request

  Failures f;
  EXPECT(strict.locate_frame(q, 9, ron::encode_error(9, ron::ErrorCode::kServer, "x"), f, nullptr) == 1);
  const ron::ServedLocate two[] = {good, good};
  EXPECT(strict.locate_frame(q, 9, ron::encode_locate_result(9, two), f, nullptr) == 1);
  auto truncated = ron::encode_locate_result(9, {&good, 1});
  truncated.resize(truncated.size() - 3);
  EXPECT(strict.locate_frame(q, 9, truncated, f, nullptr) == 1);
  EXPECT(f.total == 3 && f.by_reason.count("error_frame") == 1 &&
         f.by_reason.count("wrong_count") == 1 &&
         f.by_reason.count("malformed") == 1);

  const std::vector<ron::QueryPair> pairs{{2, 30}, {4, 4}};
  const ron::Dist d = metric->distance(2, 30);
  auto estimate_fails = [&](ron::Dist upper) {
    Failures ef;
    const std::vector<ron::Dist> answers{upper, 0.0};
    return strict.estimate_frame(pairs, 3,
                                 ron::encode_estimate_result(3, answers), ef,
                                 nullptr);
  };
  EXPECT(estimate_fails(d) == 0);
  EXPECT(estimate_fails(d * 1.2) == 0);
  EXPECT(estimate_fails(d * 0.99) == 1);

  Failures cf;
  EXPECT(strict.churn_ack(16, 5, ron::encode_churn_result(5, {16, 4, 90}),
                          cf) == 0);
  EXPECT(strict.churn_ack(16, 5, ron::encode_churn_result(5, {15, 4, 90}),
                          cf) == 16);
  EXPECT(cf.by_reason.count("churn_partial") == 1);
}

void test_benchmark_json_records_settings(const std::string& path) {
  const std::string text = slurp(path);
  EXPECT(!text.empty());
  for (const WorkloadConfig& cfg : workloads()) {
    const std::size_t at = text.find("\"name\": \"" + cfg.name + "\"");
    EXPECT((at != std::string::npos) == cfg.gated);
    if (at == std::string::npos) continue;
    const std::size_t why = text.find("\"why\": \"", at);
    const std::string line = text.substr(why, text.find('\n', why) - why);
    std::ostringstream rate;
    rate << "open loop " << static_cast<long long>(cfg.open_loop_qps) << " q/s";
    EXPECT(line.find(rate.str()) != std::string::npos);
    std::string flags = "flags";
    for (const std::string& f : cfg.daemon_flags) flags += " " + f;
    if (cfg.daemon_flags.empty()) flags += " none";
    EXPECT(line.find(flags + ";") != std::string::npos);
  }
}

}  // namespace
}  // namespace ronbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: ronbench_selftest <BENCHMARK.json>\n";
    return 2;
  }
  // Scratch snapshots go under the working directory (the build tree when
  // run by ctest).
  const std::string tmp =
      (std::filesystem::current_path() /
       ("selftest_tmp_" + std::to_string(::getpid())))
          .string();
  try {
    ronbench::test_streams_are_seeded();
    ronbench::test_fixed_rate_schedule();
    ronbench::test_zipf_sampler();
    ronbench::test_churn_chunks_are_seeded();
    ronbench::test_inputs_are_seeded(tmp);
    ronbench::test_late_send_is_charged_from_due();
    ronbench::test_checks_reject_forged_answers();
    ronbench::test_benchmark_json_records_settings(argv[1]);
  } catch (const std::exception& e) {
    std::cerr << "selftest: error: " << e.what() << "\n";
    ++ronbench::g_failures;
  }
  std::filesystem::remove_all(tmp);
  if (ronbench::g_failures != 0) {
    std::cerr << "selftest: " << ronbench::g_failures << " failure(s)\n";
    return 1;
  }
  std::cout << "selftest: all checks passed\n";
  return 0;
}
