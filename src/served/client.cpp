#include "served/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "churn/churn_trace.h"

namespace ron {

Client::~Client() { close(); }

void Client::connect(const std::string& host, std::uint16_t port) {
  RON_CHECK(fd_ < 0, "client: already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  RON_CHECK(fd >= 0, "client: socket: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    RON_CHECK(false, "client: host '" << host
                                      << "' is not an IPv4 address literal");
  }
  int rc;
  do {
    // The sockets API takes every address through a sockaddr pun.
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),  // ron-lint: allow(raw-bytes)
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    RON_CHECK(false, "client: connect " << host << ":" << port << ": "
                                        << std::strerror(err));
  }
  fd_ = fd;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> framed;
  framed.reserve(kFrameHeaderBytes + payload.size());
  append_frame(framed, payload);
  send_raw(framed);
}

void Client::send_raw(std::span<const std::uint8_t> bytes) {
  RON_CHECK(fd_ >= 0, "client: send on a closed connection");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t put = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
    if (put > 0) {
      sent += static_cast<std::size_t>(put);
      continue;
    }
    if (errno == EINTR) continue;
    RON_CHECK(false, "client: send: " << std::strerror(errno));
  }
}

std::vector<std::uint8_t> Client::recv_frame() {
  RON_CHECK(fd_ >= 0, "client: recv on a closed connection");
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[64 * 1024];
  while (true) {
    if (in_.next(payload)) return payload;
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got > 0) {
      in_.append({buf, static_cast<std::size_t>(got)});
      continue;
    }
    if (got == 0) {
      RON_CHECK(false, "client: server closed the connection ("
                           << in_.buffered() << " bytes of a partial frame "
                           << "buffered)");
    }
    if (errno == EINTR) continue;
    RON_CHECK(false, "client: recv: " << std::strerror(errno));
  }
}

bool Client::poll_frame(std::vector<std::uint8_t>& payload) {
  RON_CHECK(fd_ >= 0, "client: recv on a closed connection");
  if (in_.next(payload)) return true;
  std::uint8_t buf[64 * 1024];
  while (true) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      RON_CHECK(false, "client: poll: " << std::strerror(errno));
    }
    if (ready == 0) return false;
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got > 0) {
      in_.append({buf, static_cast<std::size_t>(got)});
      if (in_.next(payload)) return true;
      continue;
    }
    if (got == 0) {
      RON_CHECK(false, "client: server closed the connection mid-stream");
    }
    if (errno == EINTR) continue;
    RON_CHECK(false, "client: recv: " << std::strerror(errno));
  }
}

void throw_error_frame(WireReader body) {
  const auto [code, message] = decode_error(body);
  RON_CHECK(false,
            "server error [" << to_string(code) << "]: " << message);
}

FrameView Client::round_trip(const std::vector<std::uint8_t>& request,
                             std::uint64_t request_id, MsgType expect,
                             std::vector<std::uint8_t>& storage) {
  send_frame(request);
  // Responses come back in request order per connection; a mismatched id
  // means this client's bookkeeping and the server disagree — fatal.
  storage = recv_frame();
  FrameView f = parse_frame(storage);
  RON_CHECK(f.version == kServedProtocolVersion,
            "client: response speaks protocol version "
                << unsigned{f.version} << ", expected "
                << unsigned{kServedProtocolVersion});
  if (f.type == MsgType::kError) throw_error_frame(f.body);
  RON_CHECK(f.request_id == request_id,
            "client: response echoes request id "
                << f.request_id << ", expected " << request_id);
  RON_CHECK(f.type == expect, "client: response type "
                                  << to_string(f.type) << ", expected "
                                  << to_string(expect));
  return f;
}

void Client::ping() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_ping(id), id, MsgType::kPong, storage);
  f.body.expect_done();
}

std::vector<Dist> Client::estimate(std::span<const QueryPair> pairs) {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_estimate_request(id, pairs), id,
                           MsgType::kEstimateResult, storage);
  std::vector<Dist> dists = decode_estimate_result(f.body);
  RON_CHECK(dists.size() == pairs.size(),
            "client: " << dists.size() << " estimates for " << pairs.size()
                       << " queries");
  return dists;
}

std::vector<ServedLocate> Client::locate(
    std::span<const LocateQuery> queries) {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_locate_request(id, queries), id,
                           MsgType::kLocateResult, storage);
  std::vector<ServedLocate> results = decode_locate_result(f.body);
  RON_CHECK(results.size() == queries.size(),
            "client: " << results.size() << " locate results for "
                       << queries.size() << " queries");
  return results;
}

std::string Client::stats(bool prometheus) {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_stats_request(id, prometheus), id,
                           MsgType::kStatsResult, storage);
  return decode_stats_result(f.body);
}

ChurnResult Client::churn(const ChurnTrace& trace) {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_churn_request(id, trace), id,
                           MsgType::kChurnResult, storage);
  return decode_churn_result(f.body);
}

InfoResult Client::info() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_info_request(id), id,
                           MsgType::kInfoResult, storage);
  return decode_info_result(f.body);
}

void Client::shutdown_server() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> storage;
  FrameView f = round_trip(encode_shutdown_request(id), id,
                           MsgType::kShutdownAck, storage);
  f.body.expect_done();
}

}  // namespace ron
