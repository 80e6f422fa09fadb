// The served.* shard: the wire protocol's encode/decode/reassembly layer
// plus real loopback round trips against a Server running in a background
// thread — multi-client serving, the malformed/truncated/oversized frame
// matrix and seeded frame mutations (typed reply or dropped client, never a
// dead daemon), disconnects mid-frame, and churn-admin epoch swaps under
// concurrent locate traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "churn/churn_trace.h"
#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"
#include "served/client.h"
#include "served/loadgen.h"
#include "served/protocol.h"
#include "served/served_state.h"
#include "served/server.h"

#include "fuzz_mutate.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_served_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Expects fn() to throw ron::Error whose message contains `token`.
template <typename Fn>
void expect_error_with(const std::string& token, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no ron::Error thrown (wanted one naming '" << token
                  << "')";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "error message does not name '" << token << "': " << e.what();
  }
}

constexpr const char* kSpecText = "metric=clustered,n=96,seed=3";

/// Loads a ServedState from a freshly-written snapshot and runs a Server
/// over it on an ephemeral loopback port, in a background thread. The
/// destructor stops the loop and joins.
class ServerHarness {
 public:
  explicit ServerHarness(const std::string& path, ServerOptions opts = {}) {
    ServedStateOptions state_opts;
    state_opts.engine.num_threads = 2;
    state_ = load_served_state(path, state_opts);
    server_ = std::make_unique<Server>(state_, opts);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerHarness() {
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return server_->port(); }
  Server& server() { return *server_; }
  ServedState& state() { return state_; }
  /// Joins the loop thread (for tests that stop the server themselves).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  Client connect() {
    Client cli;
    cli.connect("127.0.0.1", port());
    return cli;
  }

 private:
  ServedState state_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

/// Writes an estimate-serving (labeling) snapshot and returns its path.
void write_estimate_snapshot(const std::string& path) {
  ScenarioBuilder builder(ScenarioSpec::parse(kSpecText), 0);
  save_oracle(builder.spec(), builder.metric().name(), builder.labeling(),
              path);
}

/// Writes a locate-serving (directory) snapshot: 8 objects x 2 replicas.
void write_directory_snapshot(const std::string& path) {
  ScenarioBuilder builder(ScenarioSpec::parse(kSpecText), 0);
  save_directory(builder.spec(), builder.make_directory(8, 2), path);
}

// --- protocol layer (no sockets) --------------------------------------------

TEST(ServedProtocol, FrameAssemblerReassemblesByteByByte) {
  const std::vector<std::uint8_t> a = encode_ping(7);
  const std::vector<std::uint8_t> b = encode_info_request(8);
  std::vector<std::uint8_t> stream;
  append_frame(stream, a);
  append_frame(stream, b);

  FrameAssembler assembler(1 << 10);
  std::vector<std::uint8_t> out;
  std::size_t complete = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Never a frame before its last byte arrives.
    assembler.append({&stream[i], 1});
    while (assembler.next(out)) {
      ++complete;
      EXPECT_EQ(out, complete == 1 ? a : b);
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(assembler.buffered(), 0u);

  // Both frames in one append drain in order.
  assembler.append(stream);
  ASSERT_TRUE(assembler.next(out));
  EXPECT_EQ(out, a);
  ASSERT_TRUE(assembler.next(out));
  EXPECT_EQ(out, b);
  EXPECT_FALSE(assembler.next(out));
}

TEST(ServedProtocol, FrameAssemblerRejectsOversizedPrefix) {
  FrameAssembler assembler(64);
  // Length prefix announcing 65 bytes against a 64-byte cap.
  const std::vector<std::uint8_t> prefix = {65, 0, 0, 0};
  assembler.append(prefix);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(assembler.next(out), FramingError);
}

TEST(ServedProtocol, PayloadsRoundTrip) {
  {
    const std::vector<QueryPair> pairs = {{0, 5}, {12, 3}, {7, 7}};
    const std::vector<std::uint8_t> payload =
        encode_estimate_request(42, pairs);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(f.version, kServedProtocolVersion);
    EXPECT_EQ(f.type, MsgType::kEstimate);
    EXPECT_EQ(f.request_id, 42u);
    EXPECT_EQ(decode_estimate_request(f.body, 16), pairs);
  }
  {
    const std::vector<Dist> dists = {0.0, 1.5, 2.25};
    const std::vector<std::uint8_t> payload =
        encode_estimate_result(42, dists);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(f.type, MsgType::kEstimateResult);
    EXPECT_EQ(decode_estimate_result(f.body), dists);
  }
  {
    ServedLocate ok;
    ok.result.found = true;
    ok.result.holder = 9;
    ok.result.hops = 3;
    ServedLocate drained;
    drained.status = LocateStatus::kZeroHolders;
    const std::vector<ServedLocate> results = {ok, drained};
    const std::vector<std::uint8_t> payload = encode_locate_result(1, results);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(decode_locate_result(f.body), results);
  }
  {
    InfoResult info;
    info.n = 96;
    info.has_location = true;
    info.num_objects = 8;
    info.epoch_id = 4;
    info.hop_bound = 31;
    const std::vector<std::uint8_t> payload = encode_info_result(2, info);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(decode_info_result(f.body), info);
  }
  {
    const ChurnResult churn{10, 3, 90};
    const std::vector<std::uint8_t> payload = encode_churn_result(3, churn);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(decode_churn_result(f.body), churn);
  }
  {
    const std::vector<std::uint8_t> payload =
        encode_error(4, ErrorCode::kBadRequest, "node 97 out of range");
    FrameView f = parse_frame(payload);
    const auto [code, message] = decode_error(f.body);
    EXPECT_EQ(code, ErrorCode::kBadRequest);
    EXPECT_EQ(message, "node 97 out of range");
  }
  {
    ChurnTrace trace;
    trace.objects = {"a", "b"};
    trace.ops = {{ChurnOpKind::kPublish, 4, 0},
                 {ChurnOpKind::kPublish, 5, 1},
                 {ChurnOpKind::kUnpublish, 4, 0}};
    const std::vector<std::uint8_t> payload = encode_churn_request(5, trace);
    FrameView f = parse_frame(payload);
    EXPECT_EQ(decode_churn_request(f.body, 96), trace);
  }
}

TEST(ServedProtocol, DecodersRejectMalformedBodies) {
  // A count that promises more pairs than the body carries.
  {
    WireWriter w;
    w.u8(kServedProtocolVersion);
    w.u8(static_cast<std::uint8_t>(MsgType::kEstimate));
    w.u64(1);
    w.u64(10);  // ... but only one pair follows.
    w.u32(0);
    w.u32(1);
    FrameView f = parse_frame(w.bytes());
    EXPECT_THROW(decode_estimate_request(f.body, 1 << 10), Error);
  }
  // Trailing garbage after a well-formed body.
  {
    std::vector<std::uint8_t> payload =
        encode_estimate_request(1, std::vector<QueryPair>{{0, 1}});
    payload.push_back(0xff);
    FrameView f = parse_frame(payload);
    EXPECT_THROW(decode_estimate_request(f.body, 1 << 10), Error);
  }
  // Over-limit batches throw the distinct kTooLarge-mapped type.
  {
    const std::vector<std::uint8_t> payload = encode_estimate_request(
        1, std::vector<QueryPair>{{0, 1}, {2, 3}, {4, 5}});
    FrameView f = parse_frame(payload);
    EXPECT_THROW(decode_estimate_request(f.body, 2), BatchLimitError);
  }
  // A payload shorter than the [version][type][id] header.
  {
    const std::vector<std::uint8_t> stub = {kServedProtocolVersion, 2};
    EXPECT_THROW(parse_frame(stub), Error);
  }
}

// --- frame fuzzing ------------------------------------------------------------
//
// The snapshot fuzzer's seeded mutations (fuzz_mutate.h), applied to one
// valid payload of every frame kind: decoding a mutated frame must end in
// a value or ron::Error, and a live server must answer every mutated
// request with a typed frame (or close the connection) and keep serving.

/// One valid payload of a frame kind, plus the decoder its receiver runs.
struct FrameTarget {
  const char* name;
  std::vector<std::uint8_t> payload;
  std::function<void(WireReader&)> decode;
};

void decode_empty_body(WireReader& body) { body.expect_done(); }

/// One payload per request kind; ids and objects fit kSpecText (n = 96)
/// and write_directory_snapshot's 8 objects.
std::vector<FrameTarget> request_targets() {
  ChurnTrace trace;
  trace.objects = {"obj0", "fresh"};
  trace.ops = {{ChurnOpKind::kPublish, 4, 1},
               {ChurnOpKind::kLeave, 7, kInvalidObject},
               {ChurnOpKind::kJoin, 7, kInvalidObject},
               {ChurnOpKind::kUnpublish, 4, 1}};
  return {
      {"ping", encode_ping(1), decode_empty_body},
      {"estimate",
       encode_estimate_request(2, std::vector<QueryPair>{{0, 5}, {95, 3}}),
       [](WireReader& b) { decode_estimate_request(b, 1 << 16); }},
      {"locate",
       encode_locate_request(3, std::vector<LocateQuery>{{0, 1}, {17, 7}}),
       [](WireReader& b) { decode_locate_request(b, 1 << 16); }},
      {"stats", encode_stats_request(4, false),
       [](WireReader& b) { decode_stats_request(b); }},
      {"churn", encode_churn_request(5, trace),
       [](WireReader& b) { decode_churn_request(b, 96); }},
      {"info", encode_info_request(6), decode_empty_body},
      {"shutdown", encode_shutdown_request(7), decode_empty_body},
  };
}

std::vector<FrameTarget> response_targets() {
  ServedLocate found;
  found.result.found = true;
  found.result.holder = 9;
  found.result.hops = 3;
  found.result.nearest_dist = 1.5;
  found.result.route_stretch = 1.25;
  ServedLocate drained;
  drained.status = LocateStatus::kZeroHolders;
  const InfoResult info{96, true, true, 8, 4, 31};
  return {
      {"pong", encode_pong(1), decode_empty_body},
      {"estimate-result",
       encode_estimate_result(2, std::vector<Dist>{0.0, 1.5, 2.25}),
       [](WireReader& b) { decode_estimate_result(b); }},
      {"locate-result",
       encode_locate_result(3, std::vector<ServedLocate>{found, drained}),
       [](WireReader& b) { decode_locate_result(b); }},
      {"stats-result",
       encode_stats_result(4, "{\"schema\":\"ron.metrics.v1\"}"),
       [](WireReader& b) { decode_stats_result(b); }},
      {"churn-result", encode_churn_result(5, ChurnResult{10, 3, 90}),
       [](WireReader& b) { decode_churn_result(b); }},
      {"info-result", encode_info_result(6, info),
       [](WireReader& b) { decode_info_result(b); }},
      {"shutdown-ack", encode_shutdown_ack(7), decode_empty_body},
      {"error", encode_error(8, ErrorCode::kBadRequest, "node 97 out of range"),
       [](WireReader& b) { decode_error(b); }},
  };
}

TEST(ServedProtocol, FrameMutationsDecodeOrThrowRonError) {
  std::vector<FrameTarget> targets = request_targets();
  for (FrameTarget& t : response_targets()) targets.push_back(std::move(t));
  for (const FrameTarget& t : targets) {
    FrameView clean = parse_frame(t.payload);
    ASSERT_NO_THROW(t.decode(clean.body)) << t.name;
    Rng rng(20261018);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < 1000 && failures <= 5; ++i) {
      const std::vector<std::uint8_t> bytes = mutate(t.payload, rng);
      try {
        FrameView f = parse_frame(bytes);
        t.decode(f.body);
      } catch (const Error&) {
        // a decoded value or ron::Error: both are fine
      } catch (const std::exception& e) {
        ++failures;
        ADD_FAILURE() << t.name << " mutation " << i
                      << " threw non-ron::Error: " << e.what();
      }
    }
  }
}

// --- loopback serving -------------------------------------------------------

TEST(Server, AnswersPingInfoAndStats) {
  TempFile snap("info");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();

  cli.ping();
  const InfoResult info = cli.info();
  EXPECT_EQ(info.n, 96u);
  EXPECT_TRUE(info.has_labeling);
  EXPECT_FALSE(info.has_location);
  EXPECT_EQ(info.num_objects, 0u);

  const std::string json = cli.stats(/*prometheus=*/false);
  EXPECT_NE(json.find("\"schema\":\"ron.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("ron_served_frames_total"), std::string::npos);
  EXPECT_NE(json.find("ron_engine_"), std::string::npos);
  const std::string prom = cli.stats(/*prometheus=*/true);
  EXPECT_NE(prom.find("# TYPE ron_served_connections gauge"),
            std::string::npos);
}

TEST(Server, ServesConcurrentEstimateClientsCorrectly) {
  TempFile snap("estimate");
  write_estimate_snapshot(snap.path());

  // Reference answers from a private engine over the same snapshot.
  OracleEngine reference(load_oracle(snap.path()).labeling, {});
  std::vector<QueryPair> pairs;
  for (NodeId u = 0; u < 96; u += 5) {
    for (NodeId v = 1; v < 96; v += 17) pairs.push_back({u, v});
  }
  const std::vector<Dist> expected = reference.estimate_batch(pairs);

  ServerHarness harness(snap.path());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      try {
        Client cli = harness.connect();
        for (int round = 0; round < 4; ++round) {
          if (cli.estimate(pairs) != expected) failures.fetch_add(1);
        }
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Server, RejectsBadIdsAndUnsupportedRequests) {
  TempFile snap("reject");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();

  expect_error_with("bad-request", [&] {
    cli.estimate(std::vector<QueryPair>{{0, 96}});  // v == n is out of range
  });
  expect_error_with("unsupported", [&] {
    cli.locate(std::vector<LocateQuery>{{0, 0}});  // no overlay behind this
  });
  expect_error_with("unsupported", [&] {
    ChurnTrace trace;
    trace.objects = {"x"};
    trace.ops = {{ChurnOpKind::kPublish, 0, 0}};
    cli.churn(trace);
  });
  cli.ping();  // all three rejections left the connection serving
}

TEST(Server, MalformedFramesGetErrorFramesAndConnectionSurvives) {
  TempFile snap("malformed");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();

  struct Case {
    const char* name;
    std::vector<std::uint8_t> payload;
    ErrorCode expect;
  };
  std::vector<Case> cases;
  {
    WireWriter w;  // future protocol version
    w.u8(9);
    w.u8(static_cast<std::uint8_t>(MsgType::kPing));
    w.u64(1);
    cases.push_back({"bad version", w.bytes(), ErrorCode::kBadVersion});
  }
  {
    WireWriter w;  // unknown message type
    w.u8(kServedProtocolVersion);
    w.u8(200);
    w.u64(2);
    cases.push_back({"bad type", w.bytes(), ErrorCode::kBadType});
  }
  {
    WireWriter w;  // estimate whose count lies about the body
    w.u8(kServedProtocolVersion);
    w.u8(static_cast<std::uint8_t>(MsgType::kEstimate));
    w.u64(3);
    w.u64(1000);
    w.u32(0);
    cases.push_back({"truncated body", w.bytes(), ErrorCode::kMalformed});
  }
  {
    std::vector<std::uint8_t> p = encode_ping(4);  // trailing garbage
    p.push_back(0xaa);
    cases.push_back({"trailing garbage", p, ErrorCode::kMalformed});
  }
  cases.push_back({"empty payload", {}, ErrorCode::kMalformed});
  {
    // Well-formed batch over the server's max_batch (default 1<<16): the
    // count must also survive the decode-side byte bound, so build it for
    // real — 65537 pairs is ~512 KiB, inside the 1 MiB frame cap.
    std::vector<QueryPair> pairs((1 << 16) + 1, {0, 1});
    cases.push_back(
        {"oversized batch", encode_estimate_request(5, pairs),
         ErrorCode::kTooLarge});
  }

  for (const Case& c : cases) {
    cli.send_frame(c.payload);
    const std::vector<std::uint8_t> reply = cli.recv_frame();
    FrameView f = parse_frame(reply);
    ASSERT_EQ(f.type, MsgType::kError) << c.name;
    const auto [code, message] = decode_error(f.body);
    EXPECT_EQ(code, c.expect) << c.name << ": " << message;
    EXPECT_EQ(message.find("RON_CHECK"), std::string::npos)
        << c.name << ": " << message;
    cli.ping();  // the connection survived the insult
  }
}

TEST(Server, ErrorFramesCarryTheMessageWithoutBuildContext) {
  // A decode failure's kError frame names what was wrong with the request,
  // but not the check expression, the daemon's source paths or lines, and
  // not "snapshot": frames are wire errors.
  TempFile snap("error_text");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();

  WireWriter w;  // an estimate whose count promises 1000 pairs, carries one
  w.u8(kServedProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kEstimate));
  w.u64(7);
  w.u64(1000);
  w.u32(0);
  w.u32(1);
  cli.send_frame(w.bytes());
  const std::vector<std::uint8_t> reply = cli.recv_frame();
  FrameView f = parse_frame(reply);
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_EQ(f.request_id, 7u);
  const auto [code, message] = decode_error(f.body);
  EXPECT_EQ(code, ErrorCode::kMalformed);
  EXPECT_NE(message.find("1000"), std::string::npos) << message;
  for (const char* leak : {"RON_CHECK", ".h:", ".cpp:", "snapshot"}) {
    EXPECT_EQ(message.find(leak), std::string::npos)
        << "error frame leaks '" << leak << "': " << message;
  }
  cli.ping();
}

/// What a server must answer to a (possibly mutated) request payload:
/// kError, or the result type of the request kind it parses as, echoing
/// the request id only when the version byte is one the server speaks.
struct ExpectedReply {
  bool shutdown = false;  // a well-formed kShutdown: would stop the server
  std::optional<MsgType> result;  // unset: only kError is acceptable
  std::uint64_t request_id = 0;
};

ExpectedReply expected_reply(const std::vector<std::uint8_t>& payload) {
  ExpectedReply want;
  FrameView f{0, MsgType::kPing, 0,
              WireReader(std::span<const std::uint8_t>())};
  try {
    f = parse_frame(payload);
  } catch (const Error&) {
    return want;  // shorter than the header: kError, id 0
  }
  if (f.version != kServedProtocolVersion) return want;
  want.request_id = f.request_id;
  const auto type = static_cast<std::uint8_t>(f.type);
  if (type < static_cast<std::uint8_t>(MsgType::kPing) ||
      type > static_cast<std::uint8_t>(MsgType::kShutdown)) {
    return want;
  }
  want.shutdown = f.type == MsgType::kShutdown && f.body.done();
  want.result = static_cast<MsgType>(type + 64);
  return want;
}

/// Decodes a reply body by its type; throws ron::Error if it is malformed.
void decode_reply(FrameView& f) {
  switch (f.type) {
    case MsgType::kPong: f.body.expect_done(); break;
    case MsgType::kEstimateResult: decode_estimate_result(f.body); break;
    case MsgType::kLocateResult: decode_locate_result(f.body); break;
    case MsgType::kStatsResult: decode_stats_result(f.body); break;
    case MsgType::kChurnResult: decode_churn_result(f.body); break;
    case MsgType::kInfoResult: decode_info_result(f.body); break;
    case MsgType::kError: decode_error(f.body); break;
    default:
      throw Error("reply of unexpected type " +
                  std::to_string(static_cast<unsigned>(f.type)));
  }
}

/// Sends `payload` and waits for one reply, at most 10 s: a request the
/// server swallows fails the test instead of hanging it. nullopt means the
/// server closed the connection.
std::optional<std::vector<std::uint8_t>> round_trip(
    Client& cli, const std::vector<std::uint8_t>& payload) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::uint8_t> reply;
  try {
    cli.send_frame(payload);
    while (!cli.poll_frame(reply)) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("no reply within 10 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  } catch (const Error&) {
    return std::nullopt;
  }
  return reply;
}

TEST(Server, MutatedFramesGetTypedRepliesAndDaemonSurvives) {
  // Over an estimate snapshot and over a directory snapshot, so the
  // mutations reach the labeling engine and the locate/churn paths alike.
  constexpr std::size_t kMutationsPerKind = 200;
  TempFile oracle_snap("fuzz_oracle");
  write_estimate_snapshot(oracle_snap.path());
  TempFile directory_snap("fuzz_directory");
  write_directory_snapshot(directory_snap.path());
  for (const std::string& path : {oracle_snap.path(), directory_snap.path()}) {
    ServerHarness harness(path);
    std::optional<Client> cli(harness.connect());
    Rng rng(20261018);
    std::size_t sent = 0;
    std::size_t closed = 0;
    for (const FrameTarget& t : request_targets()) {
      for (std::size_t i = 0; i < kMutationsPerKind; ++i) {
        const std::vector<std::uint8_t> bytes = mutate(t.payload, rng);
        const ExpectedReply want = expected_reply(bytes);
        if (want.shutdown) continue;
        ++sent;
        const std::optional<std::vector<std::uint8_t>> reply =
            round_trip(*cli, bytes);
        if (!reply) {
          // A clean close is an acceptable answer; carry on over a new
          // connection.
          ++closed;
          cli.emplace(harness.connect());
          continue;
        }
        try {
          FrameView f = parse_frame(*reply);
          ASSERT_EQ(f.version, kServedProtocolVersion) << t.name << " " << i;
          EXPECT_EQ(f.request_id, want.request_id) << t.name << " " << i;
          if (f.type != MsgType::kError) {
            ASSERT_TRUE(want.result.has_value() && f.type == *want.result)
                << t.name << " mutation " << i << " got a "
                << to_string(f.type) << " reply";
          }
          decode_reply(f);
        } catch (const Error& e) {
          ADD_FAILURE() << t.name << " mutation " << i
                        << ": reply does not decode: " << e.what();
        }
      }
    }
    EXPECT_GT(sent, 0u);
    EXPECT_LT(closed, sent) << "every mutated frame closed the connection";
    Client fresh = harness.connect();
    EXPECT_NO_THROW(fresh.ping()) << "daemon died serving " << path;
  }
}

TEST(Server, BrokenFramingDropsOnlyThatClient) {
  TempFile snap("framing");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());

  Client bad = harness.connect();
  // Length prefix far beyond max_frame_bytes: unresynchronizable, the
  // server must cut this connection loose.
  const std::vector<std::uint8_t> prefix = {0xff, 0xff, 0xff, 0x7f};
  bad.send_raw(prefix);
  EXPECT_THROW(bad.recv_frame(), Error);  // EOF from the server's close

  Client good = harness.connect();  // the daemon itself kept serving
  good.ping();
}

TEST(Server, DisconnectMidFrameLeavesServerServing) {
  TempFile snap("disconnect");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());

  {
    Client cli = harness.connect();
    // A frame header promising 100 bytes, then silence and a close.
    const std::vector<std::uint8_t> partial = {100, 0, 0, 0, 1, 2, 3};
    cli.send_raw(partial);
    cli.close();
  }
  {
    // A full batch, closed before reading any response.
    Client cli = harness.connect();
    std::vector<QueryPair> pairs(512, {1, 2});
    cli.send_frame(encode_estimate_request(1, pairs));
    cli.close();
  }
  Client cli = harness.connect();
  cli.ping();
}

TEST(Server, LocateServesAndFlagsZeroHolders) {
  TempFile snap("locate");
  write_directory_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();

  const InfoResult info = cli.info();
  EXPECT_TRUE(info.has_location);
  EXPECT_EQ(info.num_objects, 8u);
  ASSERT_GT(info.hop_bound, 0u);

  std::vector<LocateQuery> queries;
  for (NodeId u = 0; u < 96; u += 13) queries.push_back({u, 2});
  for (const ServedLocate& s : cli.locate(queries)) {
    EXPECT_EQ(s.status, LocateStatus::kOk);
    EXPECT_TRUE(s.result.found);
    EXPECT_LE(s.result.hops, info.hop_bound);
  }

  // Publish a fresh object, then drain it: locate must answer per-query
  // kZeroHolders, not poison the batch or error the frame.
  ChurnTrace publish;
  publish.objects = {"drained"};
  publish.ops = {{ChurnOpKind::kPublish, 10, 0}};
  const ChurnResult r1 = cli.churn(publish);
  EXPECT_EQ(r1.ops_applied, 1u);
  const ObjectId fresh = static_cast<ObjectId>(info.num_objects);
  ASSERT_TRUE(cli.locate(std::vector<LocateQuery>{{0, fresh}})[0]
                  .result.found);

  ChurnTrace drain;
  drain.objects = {"drained"};
  drain.ops = {{ChurnOpKind::kUnpublish, 10, 0}};
  const ChurnResult r2 = cli.churn(drain);
  EXPECT_GT(r2.epoch_id, r1.epoch_id);
  const std::vector<ServedLocate> after =
      cli.locate(std::vector<LocateQuery>{{0, fresh}, {5, 2}});
  EXPECT_EQ(after[0].status, LocateStatus::kZeroHolders);
  EXPECT_FALSE(after[0].result.found);
  EXPECT_EQ(after[1].status, LocateStatus::kOk);
  EXPECT_TRUE(after[1].result.found);

  // An invalid op must not advance the serving epoch.
  ChurnTrace bad;
  bad.objects = {"drained"};
  bad.ops = {{ChurnOpKind::kUnpublish, 10, 0}};  // already drained
  expect_error_with("bad-request", [&] { cli.churn(bad); });
  EXPECT_EQ(cli.info().epoch_id, r2.epoch_id);
}

TEST(Server, ChurnSwapsEpochsUnderConcurrentClients) {
  TempFile snap("swap");
  write_directory_snapshot(snap.path());
  ServerHarness harness(snap.path());

  std::atomic<bool> done{false};
  std::atomic<int> bad_answers{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      try {
        Client cli = harness.connect();
        const std::uint64_t bound = cli.info().hop_bound;
        std::vector<LocateQuery> queries;
        for (NodeId u = 0; u < 96; u += 7) queries.push_back({u, 1});
        while (!done.load()) {
          for (const ServedLocate& s : cli.locate(queries)) {
            if (s.status != LocateStatus::kOk || !s.result.found ||
                s.result.hops > bound) {
              bad_answers.fetch_add(1);
            }
          }
        }
      } catch (const Error&) {
        bad_answers.fetch_add(1);
      }
    });
  }

  Client admin = harness.connect();
  std::uint64_t last_epoch = 0;
  std::size_t applied = 0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    ChurnTrace trace;
    for (int i = 0; i < 10; ++i) {
      trace.objects.push_back("swap" + std::to_string(chunk) + "_" +
                              std::to_string(i));
      trace.ops.push_back({ChurnOpKind::kPublish,
                           static_cast<NodeId>((chunk * 17 + i * 5) % 96),
                           static_cast<ObjectId>(i)});
    }
    const ChurnResult r = admin.churn(trace);
    applied += r.ops_applied;
    EXPECT_GT(r.epoch_id, last_epoch);
    last_epoch = r.epoch_id;
  }
  done.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(applied, 100u);
  EXPECT_EQ(bad_answers.load(), 0);
  EXPECT_EQ(admin.info().num_objects, 8u + 100u);
}

TEST(Server, ShutdownFrameDrainsAndStops) {
  TempFile snap("shutdown");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());
  Client cli = harness.connect();
  cli.ping();
  cli.shutdown_server();  // ack arrives, then the server drains and exits
  harness.join();
}

TEST(Server, IdleTimeoutReapsSilentConnections) {
  TempFile snap("idle");
  write_estimate_snapshot(snap.path());
  ServerOptions opts;
  opts.idle_timeout_ns = 50'000'000;  // 50ms
  ServerHarness harness(snap.path(), opts);
  Client cli = harness.connect();
  cli.ping();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server closed us; the next round trip fails on EOF (or EPIPE,
  // depending on which side of the send the close lands).
  EXPECT_THROW(
      {
        cli.ping();
        cli.ping();
      },
      Error);
  Client fresh = harness.connect();  // fresh connections still served
  fresh.ping();
}

// --- the loadgen library against a live server ------------------------------

TEST(Loadgen, ClosedLoopEstimateReport) {
  TempFile snap("lg_closed");
  write_estimate_snapshot(snap.path());
  ServerHarness harness(snap.path());

  LoadgenOptions opts;
  opts.port = harness.port();
  opts.connections = 2;
  opts.batch = 16;
  opts.frames = 10;
  const LoadgenReport report = run_loadgen(opts);
  EXPECT_EQ(report.frames_sent, 20u);
  EXPECT_EQ(report.frames_answered, 20u);
  EXPECT_EQ(report.queries, 320u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.frame_latency_seconds.count, 20u);
  EXPECT_GT(report.qps, 0.0);
}

TEST(Loadgen, OpenLoopLocateWithChurnAppliesEveryOp) {
  TempFile snap("lg_open");
  write_directory_snapshot(snap.path());
  ServerHarness harness(snap.path());

  LoadgenOptions opts;
  opts.port = harness.port();
  opts.connections = 2;
  opts.batch = 8;
  opts.locate = true;
  opts.target_qps = 2000.0;
  opts.duration_ns = 500'000'000;
  opts.churn_ops = 40;
  opts.churn_chunk = 8;
  const LoadgenReport report = run_loadgen(opts);
  EXPECT_GT(report.frames_answered, 0u);
  EXPECT_EQ(report.frames_answered, report.frames_sent);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.not_found, 0u);
  EXPECT_EQ(report.hop_bound_violations, 0u);
  EXPECT_EQ(report.churn_ops_applied, 40u);
  EXPECT_EQ(report.epoch_swaps, 5u);
  EXPECT_GE(report.last_epoch_id, 5u);
}

}  // namespace
}  // namespace ron
