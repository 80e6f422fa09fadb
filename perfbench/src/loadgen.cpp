#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "util.h"

namespace ronbench {

namespace {

// How long a phase may wait for its last answers before counting them lost.
constexpr std::uint64_t kDrainNs = 10'000'000'000ULL;

}  // namespace

std::size_t Pacer::take_due(std::uint64_t now_ns) {
  if (done() || due_ns(next_) > now_ns) return kNone;
  return next_++;
}

Generator::Generator(const Inputs& in, const AnswerChecker& checker,
                     std::uint16_t port, std::size_t query_conns,
                     std::uint64_t sample_seed, std::size_t sample_every)
    : in_(in),
      checker_(checker),
      sample_seed_(sample_seed),
      sample_every_(sample_every) {
  RON_CHECK(query_conns >= 1 && query_conns <= 255,
            "query connections " << query_conns);
  for (std::size_t i = 0; i < query_conns; ++i) {
    auto c = std::make_unique<Conn>();
    c->client.connect("127.0.0.1", port);
    conns_.push_back(std::move(c));
  }
  if (in.cfg->churn()) {
    churn_conn_ = std::make_unique<Conn>();
    churn_conn_->client.connect("127.0.0.1", port);
    churn_period_ns_ = static_cast<std::uint64_t>(1e9 / in.cfg->churn_hz);
  }
}

std::size_t Generator::inflight_queries() const {
  std::size_t total = 0;
  for (const auto& c : conns_) total += c->inflight.size();
  return total;
}

void Generator::send_query(std::size_t conn, std::uint32_t frame,
                           Phase phase, std::uint64_t due_ns) {
  Conn& c = *conns_[conn];
  FrameRecord r;
  r.frame = frame;
  r.phase = phase;
  r.due_ns = due_ns;
  const std::size_t index = rec_.frames.size();
  r.sampled = mix64(sample_seed_ ^ index) % sample_every_ == 0;
  if (c.dead) {
    // The connection is gone: the frame is attempted and lost.
    r.send_ns = now_ns();
    r.failed = static_cast<std::uint32_t>(kBatch);
    rec_.fails.add("disconnected", kBatch);
    rec_.frames.push_back(r);
    return;
  }
  r.send_ns = now_ns();
  if (phase == Phase::kClosedWarm || phase == Phase::kClosed) {
    r.due_ns = r.send_ns;
  }
  rec_.frames.push_back(r);
  c.inflight.push_back(index);
  queue_frame(c, in_.payloads[frame]);
}

void Generator::queue_frame(Conn& c,
                            const std::vector<std::uint8_t>& payload) {
  ron::append_frame(c.out, payload);
  flush(c);
}

void Generator::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t put =
        ::send(c.client.fd(), c.out.data() + c.out_pos,
               c.out.size() - c.out_pos, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (put > 0) {
      c.out_pos += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail_inflight(c);
    return;
  }
  c.out.clear();
  c.out_pos = 0;
}

void Generator::send_churn(std::uint64_t now) {
  ChurnRecord r;
  r.index = static_cast<std::uint32_t>(churn_next_);
  r.due_ns = churn_due(churn_next_);
  r.send_ns = now;
  r.ops = static_cast<std::uint32_t>(in_.chunks[churn_next_].ops.size());
  const std::size_t index = rec_.churn.size();
  rec_.churn.push_back(r);
  ++churn_next_;
  Conn& c = *churn_conn_;
  if (c.dead) {
    rec_.churn[index].failed = r.ops;
    rec_.fails.add("disconnected", r.ops);
    return;
  }
  c.inflight.push_back(index);
  queue_frame(c, in_.churn_payloads[r.index]);
}

void Generator::fail_inflight(Conn& c) {
  const bool churn = &c == churn_conn_.get();
  c.dead = true;
  c.client.close();
  c.out.clear();
  c.out_pos = 0;
  for (std::size_t index : c.inflight) {
    if (churn) {
      ChurnRecord& r = rec_.churn[index];
      r.failed = r.ops;
      rec_.fails.add("disconnected", r.ops);
    } else {
      FrameRecord& r = rec_.frames[index];
      r.failed = static_cast<std::uint32_t>(kBatch);
      rec_.fails.add("disconnected", kBatch);
    }
  }
  c.inflight.clear();
}

void Generator::on_query_answer(Conn& c, std::size_t ci,
                                const std::vector<std::uint8_t>& payload,
                                std::uint64_t now) {
  if (c.inflight.empty()) {
    rec_.fails.add("unsolicited");
    return;
  }
  const std::size_t index = c.inflight.front();
  c.inflight.pop_front();
  FrameRecord& r = rec_.frames[index];
  r.recv_ns = now;
  const std::uint64_t id = r.frame + 1;
  std::size_t failed = 0;
  if (in_.cfg->kind == QueryKind::kLocate) {
    std::vector<ron::ServedLocate> out;
    failed = checker_.locate_frame(in_.locate_frames[r.frame], id, payload,
                                   rec_.fails, r.sampled ? &out : nullptr);
    if (r.sampled && failed == 0) rec_.sampled_locates[index] = std::move(out);
  } else {
    std::vector<ron::Dist> out;
    failed = checker_.estimate_frame(in_.estimate_frames[r.frame], id,
                                     payload, rec_.fails,
                                     r.sampled ? &out : nullptr);
    if (r.sampled && failed == 0) {
      rec_.sampled_estimates[index] = std::move(out);
    }
  }
  r.failed = static_cast<std::uint32_t>(failed);
  if (closed_on_ && now < rec_.closed_end) {
    send_query(ci, closed_next_frame_,
               now < closed_warm_end_ ? Phase::kClosedWarm : Phase::kClosed,
               0);
    closed_next_frame_ =
        static_cast<std::uint32_t>((closed_next_frame_ + 1) %
                                   in_.num_frames());
  }
}

void Generator::on_churn_answer(const std::vector<std::uint8_t>& payload,
                                std::uint64_t now) {
  Conn& c = *churn_conn_;
  if (c.inflight.empty()) {
    rec_.fails.add("unsolicited");
    return;
  }
  ChurnRecord& r = rec_.churn[c.inflight.front()];
  c.inflight.pop_front();
  r.recv_ns = now;
  r.failed = static_cast<std::uint32_t>(checker_.churn_ack(
      r.ops, kChurnIdBase + r.index, payload, rec_.fails));
}

template <typename Done>
void Generator::run(Done&& done, std::uint64_t deadline_ns) {
  std::vector<pollfd> pfds;
  std::vector<Conn*> order;
  std::vector<std::uint8_t> payload;
  while (!done()) {
    std::uint64_t now = now_ns();
    if (now >= deadline_ns) break;

    // Sends that are due: open-loop frames round-robin over connections,
    // then churn chunks. A late loop sends every overdue frame at once,
    // each keeping its own due time.
    if (pacer_ != nullptr) {
      for (std::size_t k = pacer_->take_due(now); k != Pacer::kNone;
           k = pacer_->take_due(now)) {
        const std::uint64_t due = pacer_->due_ns(k);
        send_query(k % conns_.size(), static_cast<std::uint32_t>(k),
                   due < open_warm_end_ ? Phase::kOpenWarm : Phase::kOpen,
                   due);
      }
    }
    while (churn_on_ && churn_next_ < in_.churn_payloads.size() &&
           churn_due(churn_next_) <= now) {
      send_churn(now);
    }

    pfds.clear();
    order.clear();
    auto watch = [&](Conn& c) {
      if (c.dead) return;
      const bool pending = c.out_pos < c.out.size();
      pfds.push_back({c.client.fd(),
                      static_cast<short>(POLLIN | (pending ? POLLOUT : 0)),
                      0});
      order.push_back(&c);
    };
    for (auto& c : conns_) watch(*c);
    if (churn_conn_ != nullptr) watch(*churn_conn_);
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready < 0) {
      RON_CHECK(errno == EINTR, "poll: " << std::strerror(errno));
      continue;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = *order[i];
      const bool is_churn = &c == churn_conn_.get();
      if ((pfds[i].revents & POLLOUT) != 0) flush(c);
      if (c.dead || (pfds[i].revents & ~POLLOUT) == 0) continue;
      try {
        while (!c.dead && c.client.poll_frame(payload)) {
          const std::uint64_t t = now_ns();
          if (is_churn) {
            on_churn_answer(payload, t);
          } else {
            const auto ci = static_cast<std::size_t>(
                std::find_if(conns_.begin(), conns_.end(),
                             [&](const auto& p) { return p.get() == &c; }) -
                conns_.begin());
            on_query_answer(c, ci, payload, t);
          }
        }
      } catch (const ron::Error&) {
        fail_inflight(c);
      }
    }
  }
}

void Generator::closed_loop(double warm_s, double measure_s) {
  const std::uint64_t t0 = now_ns();
  if (!churn_on_) {
    churn_on_ = churn_conn_ != nullptr;
    churn_t0_ = t0;
  }
  closed_warm_end_ = t0 + static_cast<std::uint64_t>(warm_s * 1e9);
  rec_.closed_begin = closed_warm_end_;
  rec_.closed_end =
      closed_warm_end_ + static_cast<std::uint64_t>(measure_s * 1e9);
  closed_on_ = true;
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    send_query(ci, closed_next_frame_, Phase::kClosedWarm, 0);
    closed_next_frame_ = static_cast<std::uint32_t>(
        (closed_next_frame_ + 1) % in_.num_frames());
  }
  run([&] { return now_ns() >= rec_.closed_end; }, rec_.closed_end + 1);
  closed_on_ = false;
  run([&] { return inflight_queries() == 0; }, now_ns() + kDrainNs);
  for (auto& c : conns_) {
    if (!c->inflight.empty()) fail_inflight(*c);
  }
}

void Generator::open_loop(double warm_s, double measure_s) {
  Pacer pacer(in_.open_offsets_ns);
  // Start a little in the future so the first due time is not already
  // late when the loop first looks at it.
  const std::uint64_t t0 = now_ns() + 1'000'000;
  pacer.start(t0);
  open_warm_end_ = t0 + static_cast<std::uint64_t>(warm_s * 1e9);
  rec_.open_begin = open_warm_end_;
  rec_.open_end = open_warm_end_ + static_cast<std::uint64_t>(measure_s * 1e9);
  pacer_ = &pacer;
  run([&] { return pacer.done() && inflight_queries() == 0; },
      rec_.open_end + kDrainNs);
  pacer_ = nullptr;
  for (auto& c : conns_) {
    if (!c->inflight.empty()) fail_inflight(*c);
  }
}

void Generator::finish() {
  churn_on_ = false;
  if (churn_conn_ == nullptr) return;
  run([&] { return churn_conn_->inflight.empty(); }, now_ns() + kDrainNs);
  if (!churn_conn_->inflight.empty()) fail_inflight(*churn_conn_);
}

}  // namespace ronbench
