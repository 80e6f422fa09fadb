// The ron_served wire protocol: length-prefixed frames over TCP, payloads
// parsed through oracle/wire.h's bounds-checked WireReader/WireWriter.
//
// One framing layer, not two. A frame is
//
//   [u32 payload length, little-endian] [payload bytes]
//
// and every payload starts with
//
//   [u8 protocol version] [u8 message type] [u64 request id] [body ...]
//
// The body of every message kind is encoded with WireWriter and decoded
// with WireReader: the one wire codec, which snapshot files go through too
// (their stream classes are a WireWriter and a WireReader backed by a
// file). Frames and snapshots therefore share every bounds check and count
// validation, so a truncated, garbled or malicious frame surfaces as
// ron::Error at a validated boundary, never as UB or an unbounded
// allocation. Clients are untrusted peers: the server answers a
// malformed-but-framed payload with an error frame and keeps the
// connection, and drops the connection only when framing itself is broken
// (an oversized length prefix — there is no way to find the next frame
// boundary after that).
//
// Versioning rules: the version byte travels in EVERY payload. A server
// answers a frame whose version it does not speak with kError/kErrBadVersion
// (echoing request id 0, since the rest of the payload cannot be trusted)
// and keeps the connection — a future v2 client can therefore downgrade per
// connection after one round trip. Message types, field orders and widths
// within version 1 are frozen; new fields or kinds require bumping the
// version byte. The request id is opaque to the server and echoed verbatim
// in the response, so clients may pipeline frames and match answers by id
// (the server additionally answers frames of one connection in order).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "oracle/engine.h"
#include "oracle/wire.h"

namespace ron {

struct ChurnTrace;

inline constexpr std::uint8_t kServedProtocolVersion = 1;

/// Frame length prefix width (the only bytes outside WireReader's domain).
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum class MsgType : std::uint8_t {
  // Requests.
  kPing = 1,
  kEstimate = 2,       // body: count, then (u32 source, u32 target) pairs
  kLocate = 3,         // body: count, then (u32 querier, u32 object) pairs
  kStats = 4,          // body: u8 format (0 = json envelope, 1 = prometheus)
  kChurnAdmin = 5,     // body: a ChurnTrace payload (churn_trace.h encoding)
  kInfo = 6,           // body: empty
  kShutdown = 7,       // body: empty; server acks, flushes and stops

  // Responses (request type + 64).
  kPong = 65,
  kEstimateResult = 66,  // body: count, then f64 estimates
  kLocateResult = 67,    // body: count, then ServedLocate records
  kStatsResult = 68,     // body: str (JSON envelope or prometheus text)
  kChurnResult = 69,     // body: u64 ops applied, u64 epoch id, u64 active
  kInfoResult = 70,      // body: InfoResult fields
  kShutdownAck = 71,
  kError = 72,           // body: u32 code, str message
};

enum class ErrorCode : std::uint32_t {
  kBadVersion = 1,   // unknown protocol version byte
  kBadType = 2,      // unknown message type byte
  kMalformed = 3,    // body failed to parse (truncated/garbled/trailing)
  kTooLarge = 4,     // batch count above the server's limit
  kBadRequest = 5,   // parsed fine, semantically invalid (id out of range)
  kUnsupported = 6,  // snapshot/state cannot serve this request kind
  kServer = 7,       // engine-side failure while serving
};

const char* to_string(MsgType type);
const char* to_string(ErrorCode code);

/// Framing violation: the length prefix itself is unusable (oversized), so
/// the connection cannot be resynchronized and must be dropped. Distinct
/// from ron::Error so the server can tell "drop the client" from "answer
/// an error frame and continue".
class FramingError : public Error {
 public:
  using Error::Error;
};

/// A well-formed request whose batch count exceeds the server's limit.
/// Distinct from plain ron::Error so the server can answer kTooLarge
/// (client should split the batch) instead of kMalformed (client bug).
class BatchLimitError : public Error {
 public:
  using Error::Error;
};

/// Per-query locate status: the serving layer distinguishes "the walk ran"
/// from "this query was unservable in the epoch that answered it" (a
/// zero-holder object drained by churn is a defined state, not a batch
/// poison — see object_directory.h).
enum class LocateStatus : std::uint8_t {
  kOk = 0,
  kZeroHolders = 1,
};

struct ServedLocate {
  LocateStatus status = LocateStatus::kOk;
  LocateResult result;

  friend bool operator==(const ServedLocate&, const ServedLocate&) = default;
};

struct InfoResult {
  std::uint64_t n = 0;
  bool has_labeling = false;
  bool has_location = false;
  std::uint64_t num_objects = 0;
  std::uint64_t epoch_id = 0;
  std::uint64_t hop_bound = 0;

  friend bool operator==(const InfoResult&, const InfoResult&) = default;
};

struct ChurnResult {
  std::uint64_t ops_applied = 0;
  std::uint64_t epoch_id = 0;
  std::uint64_t active_count = 0;

  friend bool operator==(const ChurnResult&, const ChurnResult&) = default;
};

/// A parsed payload header plus a cursor positioned at the body. The
/// referenced bytes must outlive the view (it is a WireReader).
struct FrameView {
  std::uint8_t version = 0;
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  WireReader body;
};

/// Parses [version][type][request id] and leaves `body` at the first body
/// byte. Throws ron::Error when the payload is shorter than the header.
/// Does NOT validate version or type — the server answers those with
/// protocol error frames rather than exceptions.
FrameView parse_frame(std::span<const std::uint8_t> payload);

/// Appends [u32 length][payload] to `out`. Throws ron::Error when the
/// payload exceeds the u32 length domain.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

// --- payload builders (request id is echoed by the server) -----------------

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id);
std::vector<std::uint8_t> encode_estimate_request(
    std::uint64_t request_id, std::span<const QueryPair> pairs);
std::vector<std::uint8_t> encode_locate_request(
    std::uint64_t request_id, std::span<const LocateQuery> queries);
std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id,
                                               bool prometheus);
std::vector<std::uint8_t> encode_churn_request(std::uint64_t request_id,
                                               const ChurnTrace& trace);
std::vector<std::uint8_t> encode_info_request(std::uint64_t request_id);
std::vector<std::uint8_t> encode_shutdown_request(std::uint64_t request_id);

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id);
std::vector<std::uint8_t> encode_estimate_result(std::uint64_t request_id,
                                                 std::span<const Dist> dists);
std::vector<std::uint8_t> encode_locate_result(
    std::uint64_t request_id, std::span<const ServedLocate> results);
std::vector<std::uint8_t> encode_stats_result(std::uint64_t request_id,
                                              const std::string& text);
std::vector<std::uint8_t> encode_churn_result(std::uint64_t request_id,
                                              const ChurnResult& result);
std::vector<std::uint8_t> encode_info_result(std::uint64_t request_id,
                                             const InfoResult& info);
std::vector<std::uint8_t> encode_shutdown_ack(std::uint64_t request_id);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       ErrorCode code,
                                       const std::string& message);

// --- body decoders (throw ron::Error on malformed bytes) -------------------
// Each consumes the body cursor exactly (expect_done), so trailing garbage
// in a request is a protocol error, mirroring the snapshot loaders.

/// `max_batch` bounds the decoded count (kTooLarge is the server's answer
/// above it; the count is additionally bounds-checked against the bytes
/// actually present, so a lying header cannot size an allocation).
std::vector<QueryPair> decode_estimate_request(WireReader& body,
                                               std::size_t max_batch);
std::vector<LocateQuery> decode_locate_request(WireReader& body,
                                               std::size_t max_batch);
bool decode_stats_request(WireReader& body);  // true = prometheus
ChurnTrace decode_churn_request(WireReader& body, std::size_t n);

std::vector<Dist> decode_estimate_result(WireReader& body);
std::vector<ServedLocate> decode_locate_result(WireReader& body);
std::string decode_stats_result(WireReader& body);
ChurnResult decode_churn_result(WireReader& body);
InfoResult decode_info_result(WireReader& body);
/// Returns (code, message).
std::pair<ErrorCode, std::string> decode_error(WireReader& body);

/// Reassembles length-prefixed frames from a nonblocking byte stream: the
/// server appends whatever recv() yielded and pulls out complete payloads.
/// Bytes are consumed lazily (one compaction per drained buffer, not one
/// memmove per frame).
class FrameAssembler {
 public:
  /// `max_frame_bytes` bounds the PAYLOAD length a peer may announce;
  /// next() throws FramingError beyond it (resynchronization is
  /// impossible, the connection must die).
  explicit FrameAssembler(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void append(std::span<const std::uint8_t> bytes);

  /// Moves the next complete payload into `payload` and returns true, or
  /// returns false when no complete frame is buffered yet.
  bool next(std::vector<std::uint8_t>& payload);

  /// Unconsumed buffered bytes (partial frame + not-yet-parsed frames).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace ron
