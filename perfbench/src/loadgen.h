// The benchmark's load generator: one busy-polling thread, a few
// connections.
//
// Two phases drive the query connections:
//   closed loop  every connection keeps exactly one frame in flight, so the
//                measured rate is what the daemon sustains without a
//                backlog (qps);
//   open loop    frames go out on a fixed-rate schedule set before timing
//                starts, whatever the daemon's state. Each frame's latency
//                runs from its DUE time, so a stall on either side is
//                charged to every frame it delayed; a late send is never
//                skipped and the schedule is never re-based. How late the
//                generator itself sent is recorded per frame.
// On churn workloads a third connection sends churn chunks through the admin
// channel at a fixed rate beside both phases, also timed from due.
//
// The thread never sleeps: it polls its sockets with a zero timeout, so a
// send leaves within microseconds of its due time and an answer is stamped
// as it arrives, without a timer or wake-up latency in either. Writes never
// block: bytes the kernel does not take wait in the connection's buffer.
//
// Every answer is checked inline (checks.h) and a seeded sample of answers
// is kept for the reference comparison in replay.h.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "checks.h"
#include "served/client.h"
#include "util.h"
#include "workload.h"

namespace ronbench {

/// Open-loop pacing over a fixed schedule: frame k is due at start +
/// offsets[k]. take_due() hands out frames strictly in order once they are
/// due, however late the caller asks; nothing is skipped or re-based.
class Pacer {
 public:
  explicit Pacer(std::vector<std::uint64_t> offsets_ns)
      : offsets_(std::move(offsets_ns)) {}

  void start(std::uint64_t t0_ns) { t0_ = t0_ns; }
  bool done() const { return next_ >= offsets_.size(); }
  std::uint64_t due_ns(std::size_t k) const { return t0_ + offsets_[k]; }
  /// Requires !done().
  std::uint64_t next_due_ns() const { return due_ns(next_); }
  /// The next frame's index when it is due at `now_ns`, else kNone.
  std::size_t take_due(std::uint64_t now_ns);

  static constexpr std::size_t kNone = ~std::size_t{0};

 private:
  std::vector<std::uint64_t> offsets_;
  std::uint64_t t0_ = 0;
  std::size_t next_ = 0;
};

enum class Phase : std::uint8_t { kClosedWarm, kClosed, kOpenWarm, kOpen };

struct FrameRecord {
  std::uint32_t frame = 0;  // index into Inputs::payloads
  Phase phase = Phase::kClosedWarm;
  bool sampled = false;
  std::uint64_t due_ns = 0;  // closed loop: equals send_ns
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;  // 0 = never answered
  std::uint32_t failed = 0;   // failed queries in this frame

  double latency_ms() const { return (recv_ns - due_ns) * 1e-6; }
};

struct ChurnRecord {
  std::uint32_t index = 0;  // chunk k
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint32_t ops = 0;
  std::uint32_t failed = 0;
};

struct LoadRecord {
  std::vector<FrameRecord> frames;
  std::vector<ChurnRecord> churn;
  /// Decoded answers of sampled frames, keyed by FrameRecord index.
  std::map<std::size_t, std::vector<ron::ServedLocate>> sampled_locates;
  std::map<std::size_t, std::vector<ron::Dist>> sampled_estimates;
  Failures fails;
  /// Measurement windows (now_ns domain).
  std::uint64_t closed_begin = 0, closed_end = 0;
  std::uint64_t open_begin = 0, open_end = 0;
};

class Generator {
 public:
  /// Connects `query_conns` query connections, plus one admin connection
  /// on churn workloads. One frame in `sample_every` (chosen by hashing
  /// `sample_seed` with the record index) keeps its decoded answers.
  Generator(const Inputs& in, const AnswerChecker& checker,
            std::uint16_t port, std::size_t query_conns,
            std::uint64_t sample_seed, std::size_t sample_every);

  void closed_loop(double warm_s, double measure_s);
  void open_loop(double warm_s, double measure_s);
  /// Stops the churn stream and waits for its last answers.
  void finish();

  const LoadRecord& record() const { return rec_; }

 private:
  struct Conn {
    ron::Client client;
    std::deque<std::size_t> inflight;  // record indices, send order
    /// Framed bytes the kernel has not taken yet; [out_pos, end) pending.
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool dead = false;
  };

  /// Runs the event loop until `done()` holds or `deadline_ns` passes.
  template <typename Done>
  void run(Done&& done, std::uint64_t deadline_ns);
  void send_query(std::size_t conn, std::uint32_t frame, Phase phase,
                  std::uint64_t due_ns);
  /// Queues a frame on the connection and writes what the kernel takes
  /// without blocking; the rest goes out when the socket turns writable.
  /// A daemon that stops reading delays the frame, never the generator.
  void queue_frame(Conn& c, const std::vector<std::uint8_t>& payload);
  void flush(Conn& c);
  void send_churn(std::uint64_t now);
  void on_query_answer(Conn& c, std::size_t ci,
                       const std::vector<std::uint8_t>& payload,
                       std::uint64_t now);
  void on_churn_answer(const std::vector<std::uint8_t>& payload,
                       std::uint64_t now);
  void fail_inflight(Conn& c);
  std::uint64_t churn_due(std::size_t k) const {
    return churn_t0_ + k * churn_period_ns_;
  }
  std::size_t inflight_queries() const;

  const Inputs& in_;
  const AnswerChecker& checker_;
  std::uint64_t sample_seed_;
  std::size_t sample_every_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<Conn> churn_conn_;  // null without a churn stream
  LoadRecord rec_;

  // Churn stream: chunk k is due at churn_due(k).
  bool churn_on_ = false;
  std::uint64_t churn_t0_ = 0;
  std::uint64_t churn_period_ns_ = 0;
  std::size_t churn_next_ = 0;

  // Closed loop state.
  bool closed_on_ = false;
  std::uint64_t closed_warm_end_ = 0;
  std::uint32_t closed_next_frame_ = 0;

  // Open loop state.
  Pacer* pacer_ = nullptr;
  std::uint64_t open_warm_end_ = 0;
};

}  // namespace ronbench
