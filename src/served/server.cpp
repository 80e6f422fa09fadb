#include "served/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "location/object_directory.h"
#include "telemetry/trace.h"

namespace ron {

namespace {

/// A request that parsed fine but cannot be served as asked; the handler
/// answers an error frame with this code and keeps the connection.
struct Reject {
  ErrorCode code;
  std::string message;
};

/// The text an error frame may carry: a ron::Error's own message, never the
/// check expression and source location its what() adds for logs.
std::string client_message(const std::exception& e) {
  const auto* err = dynamic_cast<const Error*>(&e);
  return err != nullptr ? err->message() : std::string(e.what());
}

/// Reassembly-buffer cap: beyond roughly two maximal frames of unprocessed
/// input we stop draining the socket and let TCP flow control push back on
/// the sender (the kernel buffer, not the server heap, absorbs the burst).
std::size_t inbuf_cap(const ServerOptions& opts) {
  return 2 * (opts.max_frame_bytes + kFrameHeaderBytes);
}

}  // namespace

struct Server::Conn {
  Conn(int fd, std::size_t max_frame_bytes, std::uint64_t now)
      : fd(fd), in(max_frame_bytes), last_active_ns(now) {}

  int fd;
  FrameAssembler in;
  /// Encoded-but-unsent responses; [out_pos, out.size()) is pending.
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::uint64_t last_active_ns;
  bool paused = false;  // POLLIN withdrawn while the outbuf is over limit
  bool dead = false;    // reaped (and closed) at the end of the iteration
};

Server::Server(ServedState& state, ServerOptions opts)
    : state_(state),
      opts_(std::move(opts)),
      clock_(opts_.clock != nullptr ? opts_.clock : &Clock::real()) {
  RON_CHECK(state_.engine != nullptr, "served: state has no engine");
  RON_CHECK(opts_.max_frame_bytes >= 16,
            "served: max_frame_bytes " << opts_.max_frame_bytes
                                       << " cannot hold a payload header");
  m_connections_ = &metrics_.gauge("ron_served_connections");
  m_accepts_ = &metrics_.counter("ron_served_accepts_total");
  m_disconnects_ = &metrics_.counter("ron_served_disconnects_total");
  m_idle_closes_ = &metrics_.counter("ron_served_idle_closes_total");
  m_frames_ = &metrics_.counter("ron_served_frames_total");
  m_bytes_in_ = &metrics_.counter("ron_served_bytes_in_total");
  m_bytes_out_ = &metrics_.counter("ron_served_bytes_out_total");
  m_protocol_errors_ = &metrics_.counter("ron_served_protocol_errors_total");
  m_backpressure_pauses_ =
      &metrics_.counter("ron_served_backpressure_pauses_total");
  m_epoch_swaps_ = &metrics_.counter("ron_served_epoch_swaps_total");
  m_frame_seconds_ = &metrics_.histogram("ron_served_frame_seconds");
}

Server::~Server() {
  close_all();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

std::uint16_t Server::start() {
  RON_CHECK(listen_fd_ < 0, "served: start() called twice");
  int wake[2];
  RON_CHECK(::pipe2(wake, O_NONBLOCK | O_CLOEXEC) == 0,
            "served: pipe2: " << std::strerror(errno));
  wake_rd_ = wake[0];
  wake_wr_ = wake[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  RON_CHECK(listen_fd_ >= 0, "served: socket: " << std::strerror(errno));
  const int one = 1;
  RON_CHECK(::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one)) == 0,
            "served: setsockopt(SO_REUSEADDR): " << std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  RON_CHECK(::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) == 1,
            "served: host '" << opts_.host
                             << "' is not an IPv4 address literal");
  // The sockets API takes every address through a sockaddr pun.
  RON_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),  // ron-lint: allow(raw-bytes)
                   sizeof(addr)) == 0,
            "served: bind " << opts_.host << ":" << opts_.port << ": "
                            << std::strerror(errno));
  RON_CHECK(::listen(listen_fd_, opts_.backlog) == 0,
            "served: listen: " << std::strerror(errno));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  RON_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),  // ron-lint: allow(raw-bytes)
                          &len) == 0,
            "served: getsockname: " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);
  return port_;
}

void Server::stop() {
  // One byte down the self-pipe: async-signal-safe, idempotent (a full
  // pipe already guarantees a pending wakeup). Valid any time after
  // start(); the loop turns it into a graceful drain.
  const std::uint8_t b = 1;
  if (wake_wr_ >= 0) {
    [[maybe_unused]] const ssize_t rc = ::write(wake_wr_, &b, 1);
  }
}

void Server::run() {
  RON_CHECK(listen_fd_ >= 0, "served: run() before start()");
  std::vector<pollfd> pfds;
  std::vector<Conn*> order;
  bool pending_frames = false;
  while (true) {
    if (stopping_) {
      const bool unflushed =
          std::any_of(conns_.begin(), conns_.end(), [](const auto& c) {
            return !c->dead && c->out.size() > c->out_pos;
          });
      if (!unflushed || now_ns() >= stop_deadline_) break;
    }

    pfds.clear();
    order.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    const bool accepting =
        !stopping_ && conns_.size() < opts_.max_connections;
    pfds.push_back({listen_fd_, static_cast<short>(accepting ? POLLIN : 0),
                    0});
    for (const auto& c : conns_) {
      short events = 0;
      if (!stopping_ && !c->paused && c->in.buffered() < inbuf_cap(opts_)) {
        events |= POLLIN;
      }
      if (c->out.size() > c->out_pos) events |= POLLOUT;
      pfds.push_back({c->fd, events, 0});
      order.push_back(c.get());
    }

    int timeout_ms = -1;
    if (pending_frames) {
      timeout_ms = 0;
    } else {
      std::uint64_t deadline = std::numeric_limits<std::uint64_t>::max();
      if (opts_.idle_timeout_ns > 0) {
        for (const auto& c : conns_) {
          deadline = std::min(deadline,
                              c->last_active_ns + opts_.idle_timeout_ns);
        }
      }
      if (stopping_) deadline = std::min(deadline, stop_deadline_);
      if (deadline != std::numeric_limits<std::uint64_t>::max()) {
        const std::uint64_t now = now_ns();
        const std::uint64_t wait_ns = deadline <= now ? 0 : deadline - now;
        timeout_ms = static_cast<int>(
            std::min<std::uint64_t>(wait_ns / 1'000'000 + 1, 60'000));
      }
    }

    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0) {
      RON_CHECK(errno == EINTR, "served: poll: " << std::strerror(errno));
      continue;
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
      }
      if (!stopping_) {
        stopping_ = true;
        stop_deadline_ = now_ns() + opts_.drain_timeout_ns;
      }
    }
    if (accepting && (pfds[1].revents & POLLIN) != 0) accept_ready();

    for (std::size_t i = 0; i < order.size(); ++i) {
      Conn& c = *order[i];
      const short re = pfds[2 + i].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        c.dead = true;
        continue;
      }
      if ((re & POLLOUT) != 0 && !flush_out(c)) {
        c.dead = true;
        continue;
      }
      // POLLHUP without POLLIN means nothing is left to read; with POLLIN
      // the peer half-closed after sending — read the remainder first.
      if ((re & POLLIN) != 0) {
        if (!read_ready(c)) c.dead = true;
      } else if ((re & POLLHUP) != 0 && c.out.size() == c.out_pos) {
        c.dead = true;
      }
    }

    // Serve buffered frames for every live connection — including frames
    // deferred by a previous iteration's fairness budget, which is why
    // this runs unconditionally rather than only on POLLIN.
    pending_frames = false;
    const std::uint64_t now = now_ns();
    for (const auto& cp : conns_) {
      Conn& c = *cp;
      if (c.dead) continue;
      if (process_frames(c)) pending_frames = true;
      if (c.dead) continue;
      if (c.out.size() > c.out_pos && !flush_out(c)) {
        c.dead = true;
        continue;
      }
      const std::size_t unsent = c.out.size() - c.out_pos;
      if (unsent > opts_.drop_outbuf_bytes) {
        // The peer neither reads nor leaves; cut it loose before it pins
        // unbounded server memory.
        c.dead = true;
        continue;
      }
      const bool pause = unsent > opts_.max_outbuf_bytes;
      if (pause && !c.paused) m_backpressure_pauses_->add(0);
      c.paused = pause;
      if (opts_.idle_timeout_ns > 0 && unsent == 0 &&
          now - c.last_active_ns >= opts_.idle_timeout_ns) {
        m_idle_closes_->add(0);
        c.dead = true;
      }
    }

    std::erase_if(conns_, [&](const std::unique_ptr<Conn>& c) {
      if (!c->dead) return false;
      ::close(c->fd);
      m_disconnects_->add(0);
      return true;
    });
    m_connections_->set(static_cast<double>(conns_.size()));
  }
  close_all();
}

void Server::accept_ready() {
  while (conns_.size() < opts_.max_connections) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained. Anything else (ECONNABORTED, EMFILE, ...) is a
      // per-connection failure; the daemon keeps serving.
      return;
    }
    conns_.push_back(
        std::make_unique<Conn>(fd, opts_.max_frame_bytes, now_ns()));
    m_accepts_->add(0);
    m_connections_->set(static_cast<double>(conns_.size()));
  }
}

bool Server::read_ready(Conn& c) {
  std::uint8_t buf[64 * 1024];
  // Bounded reads per cycle: a firehose peer cannot monopolize the loop,
  // and the inbuf cap hands overflow back to TCP flow control.
  for (int round = 0; round < 4; ++round) {
    if (c.in.buffered() >= inbuf_cap(opts_)) return true;
    const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
    if (got > 0) {
      m_bytes_in_->add(0, static_cast<std::uint64_t>(got));
      c.in.append({buf, static_cast<std::size_t>(got)});
      c.last_active_ns = now_ns();
      if (got < static_cast<ssize_t>(sizeof(buf))) return true;
      continue;
    }
    if (got == 0) return false;  // orderly peer close
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // ECONNRESET and friends
  }
  return true;
}

bool Server::flush_out(Conn& c) {
  while (c.out_pos < c.out.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE on this one
    // connection, never as a process-wide SIGPIPE.
    const ssize_t sent = ::send(c.fd, c.out.data() + c.out_pos,
                                c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_pos += static_cast<std::size_t>(sent);
      m_bytes_out_->add(0, static_cast<std::uint64_t>(sent));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // EPIPE, ECONNRESET, ...
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos >= 64 * 1024) {
    c.out.erase(c.out.begin(),
                c.out.begin() + static_cast<std::ptrdiff_t>(c.out_pos));
    c.out_pos = 0;
  }
  return true;
}

bool Server::process_frames(Conn& c) {
  std::vector<std::uint8_t> payload;
  for (std::size_t served = 0; served < opts_.max_frames_per_cycle;
       ++served) {
    if (c.out.size() - c.out_pos > opts_.max_outbuf_bytes) {
      // Backpressure: don't grow an already-over-limit outbuf. Progress
      // resumes from the POLLOUT path, so this is NOT "pending work" for
      // the poll timeout — reporting it would busy-spin on a slow reader.
      return false;
    }
    bool have = false;
    try {
      have = c.in.next(payload);
    } catch (const FramingError&) {
      // The length prefix itself is unusable; there is no way to find the
      // next frame boundary, so the connection must die.
      m_protocol_errors_->add(0);
      c.dead = true;
      return false;
    }
    if (!have) return false;
    handle_payload(c, payload);
    c.last_active_ns = now_ns();
  }
  // Budget exhausted with bytes still buffered: ask the loop to come
  // straight back instead of parking in poll().
  return c.in.buffered() >= kFrameHeaderBytes;
}

void Server::queue(Conn& c, const std::vector<std::uint8_t>& payload) {
  append_frame(c.out, payload);
}

void Server::handle_payload(Conn& c,
                            const std::vector<std::uint8_t>& payload) {
  const std::uint64_t t0 = now_ns();
  m_frames_->add(0);

  FrameView f{0, MsgType::kPing, 0,
              WireReader(std::span<const std::uint8_t>())};
  try {
    f = parse_frame(payload);
  } catch (const Error& e) {
    m_protocol_errors_->add(0);
    queue(c, encode_error(0, ErrorCode::kMalformed, e.message()));
    return;
  }

  std::vector<std::uint8_t> resp;
  if (f.version != kServedProtocolVersion) {
    // The rest of the payload (including the request id) cannot be
    // trusted under an unknown layout: echo id 0, per the header contract.
    m_protocol_errors_->add(0);
    resp = encode_error(0, ErrorCode::kBadVersion,
                        "unsupported protocol version " +
                            std::to_string(f.version) + " (server speaks " +
                            std::to_string(kServedProtocolVersion) + ")");
  } else {
    try {
      switch (f.type) {
        case MsgType::kPing: {
          WireReader body = f.body;
          body.expect_done();
          resp = encode_pong(f.request_id);
          break;
        }
        case MsgType::kEstimate:
          resp = serve_estimate(f);
          break;
        case MsgType::kLocate:
          resp = serve_locate(f);
          break;
        case MsgType::kStats: {
          WireReader body = f.body;
          const bool prometheus = decode_stats_request(body);
          resp = encode_stats_result(f.request_id, metrics_text(prometheus));
          break;
        }
        case MsgType::kChurnAdmin:
          resp = serve_churn(f);
          break;
        case MsgType::kInfo:
          resp = serve_info(f);
          break;
        case MsgType::kShutdown: {
          WireReader body = f.body;
          body.expect_done();
          resp = encode_shutdown_ack(f.request_id);
          if (!stopping_) {
            stopping_ = true;
            stop_deadline_ = now_ns() + opts_.drain_timeout_ns;
          }
          break;
        }
        default:
          m_protocol_errors_->add(0);
          resp = encode_error(
              f.request_id, ErrorCode::kBadType,
              "unknown message type " +
                  std::to_string(static_cast<unsigned>(f.type)));
          break;
      }
    } catch (const BatchLimitError& e) {
      m_protocol_errors_->add(0);
      resp = encode_error(f.request_id, ErrorCode::kTooLarge, e.message());
    } catch (const Reject& r) {
      resp = encode_error(f.request_id, r.code, r.message);
    } catch (const Error& e) {
      // Body decode failure: truncated, garbled or trailing bytes.
      m_protocol_errors_->add(0);
      resp = encode_error(f.request_id, ErrorCode::kMalformed, e.message());
    } catch (const std::exception& e) {
      resp = encode_error(f.request_id, ErrorCode::kServer, e.what());
    }
  }
  queue(c, resp);
  m_frame_seconds_->record(0, static_cast<double>(now_ns() - t0) * 1e-9);
}

std::vector<std::uint8_t> Server::serve_estimate(const FrameView& f) {
  WireReader body = f.body;
  const std::vector<QueryPair> pairs =
      decode_estimate_request(body, opts_.max_batch);
  if (!state_.can_estimate()) {
    throw Reject{ErrorCode::kUnsupported,
                 "snapshot carries no distance labeling"};
  }
  const std::size_t n = state_.engine->n();
  for (const auto& [u, v] : pairs) {
    if (u >= n || v >= n) {
      throw Reject{ErrorCode::kBadRequest,
                   "estimate pair (" + std::to_string(u) + ", " +
                       std::to_string(v) + ") out of range for n = " +
                       std::to_string(n)};
    }
  }
  std::vector<Dist> dists;
  try {
    dists = state_.engine->estimate_batch(pairs);
  } catch (const std::exception& e) {
    throw Reject{ErrorCode::kServer, client_message(e)};
  }
  return encode_estimate_result(f.request_id, dists);
}

std::vector<std::uint8_t> Server::serve_locate(const FrameView& f) {
  WireReader body = f.body;
  const std::vector<LocateQuery> queries =
      decode_locate_request(body, opts_.max_batch);
  if (!state_.can_locate()) {
    throw Reject{ErrorCode::kUnsupported,
                 "snapshot carries no object-location overlay"};
  }
  const std::shared_ptr<const LocationEpoch> epoch =
      state_.engine->current_epoch();
  const ObjectDirectory& dir = epoch->service->directory();
  const std::size_t n = state_.engine->n();
  for (const auto& [querier, obj] : queries) {
    if (querier >= n || obj >= dir.num_objects()) {
      throw Reject{ErrorCode::kBadRequest,
                   "locate query (" + std::to_string(querier) + ", " +
                       std::to_string(obj) + ") out of range (n = " +
                       std::to_string(n) + ", objects = " +
                       std::to_string(dir.num_objects()) + ")"};
    }
  }

  // Zero-holder objects are a defined overlay state (churn can drain every
  // replica), not a batch poison: partition them out, walk the rest, and
  // answer per query. The pre-check and the batch see the same epoch —
  // this thread is the engine's only dispatcher AND the only admin
  // channel, so no swap can interleave.
  std::vector<ServedLocate> out(queries.size());
  std::vector<LocateQuery> servable;
  std::vector<std::size_t> slot;
  servable.reserve(queries.size());
  slot.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (dir.holders(queries[i].second).empty()) {
      out[i].status = LocateStatus::kZeroHolders;
      continue;
    }
    servable.push_back(queries[i]);
    slot.push_back(i);
  }
  if (!servable.empty()) {
    std::vector<LocateResult> results;
    try {
      results = state_.engine->locate_batch(servable);
    } catch (const std::exception& e) {
      throw Reject{ErrorCode::kServer, client_message(e)};
    }
    for (std::size_t j = 0; j < results.size(); ++j) {
      out[slot[j]] = ServedLocate{LocateStatus::kOk, results[j]};
    }
  }
  return encode_locate_result(f.request_id, out);
}

std::vector<std::uint8_t> Server::serve_churn(const FrameView& f) {
  WireReader body = f.body;
  if (!state_.can_churn()) {
    throw Reject{ErrorCode::kUnsupported,
                 "snapshot has no mutable overlay (serve a directory or "
                 "churn-bundle snapshot to enable the admin channel)"};
  }
  const ChurnTrace trace = decode_churn_request(body, state_.mutator->n());
  try {
    // A state-invalid op (join of an active node, unpublish of a copy that
    // is not there) throws mid-trace; ops before it HAVE been applied to
    // the pending overlay and will ride along with the next successful
    // commit. The serving epoch only ever advances on success.
    state_.mutator->apply(trace);
  } catch (const Error& e) {
    throw Reject{ErrorCode::kBadRequest, e.message()};
  }
  std::shared_ptr<const LocationEpoch> epoch = state_.mutator->commit();
  const std::uint64_t epoch_id = epoch->id;
  state_.engine->apply(std::move(epoch));
  m_epoch_swaps_->add(0);
  return encode_churn_result(
      f.request_id,
      ChurnResult{trace.ops.size(), epoch_id,
                  state_.mutator->active_count()});
}

std::vector<std::uint8_t> Server::serve_info(const FrameView& f) {
  WireReader body = f.body;
  body.expect_done();
  InfoResult info;
  info.n = state_.engine->n();
  info.has_labeling = state_.can_estimate();
  info.has_location = state_.can_locate();
  if (info.has_location) {
    const std::shared_ptr<const LocationEpoch> epoch =
        state_.engine->current_epoch();
    info.epoch_id = epoch->id;
    info.num_objects = epoch->service->directory().num_objects();
  }
  info.hop_bound = location_hop_bound(state_.engine->n());
  return encode_info_result(f.request_id, info);
}

std::string Server::metrics_text(bool prometheus) const {
  std::vector<const MetricsRegistry*> registries{&metrics_,
                                                 &state_.engine->metrics()};
  if (state_.mutator != nullptr) registries.push_back(&state_.mutator->metrics());
  if (state_.builder != nullptr) registries.push_back(&state_.builder->metrics());
  std::ostringstream os;
  if (prometheus) {
    dump_metrics_prometheus(os, registries);
  } else {
    write_metrics_envelope(os, std::move(registries), nullptr);
  }
  return os.str();
}

void Server::close_all() {
  for (const auto& c : conns_) ::close(c->fd);
  if (!conns_.empty()) {
    m_disconnects_->add(0, conns_.size());
    conns_.clear();
  }
  m_connections_->set(0.0);
}

}  // namespace ron
