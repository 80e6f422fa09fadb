// The deterministic discrete-event message-passing simulator.
//
// One priority queue of timestamped events (messages in flight, churn ops,
// locate/estimate issues), popped in (virtual time, sequence) order; ties
// break on the monotone sequence number, so a run is a pure function of
// (carved network, options, schedule) — bit-reproducible across machines.
// Per-link latency comes from the scenario metric (LatencyParams) plus a
// seeded jitter drawn at post time.
//
// Protocol summary (see messages.h for the message set):
//
//   locate     querier probes the object's home sequence (DIR_LOOKUP until a
//              DIR_REPLY), picks the nearest returned holder and launches a
//              chain of LOCATE_STEP messages, each delivered hop re-running
//              greedy_next_hop on the *local* contact list. Terminates in
//              LOCATE_FOUND or LOCATE_NACK at the querier; failed attempts
//              retry after a delay, a bounded number of times.
//   churn      a leave announces itself to believed-alive neighbors, hands
//              hosted directory entries to the next home candidates and
//              unpublishes its copies — all asynchronously, racing whatever
//              is in flight. A join reactivates the node's cached rings and
//              re-probes every remembered neighbor (JOIN_ANNOUNCE/ACK). A
//              node that left keeps servicing bounces of chains it
//              originated ("graceful-leave linger").
//   failure    delivery to an inactive node turns into a BOUNCE to the
//              sender, which tombstones the peer and reroutes (walks),
//              advances its probe (directory chains) or abandons (replies
//              to a dead querier). Every message is thereby accounted as
//              delivered or bounced — "zero lost messages" is checkable as
//              sent == delivered + bounced with a drained queue.
//
// Accounting lands in a telemetry::MetricsRegistry under ron_sim_* names
// (messages, bytes via wire.h encodings, hop/stretch/probe histograms,
// per-node state bytes) and in plain SimTotals/SimLocateResult values the
// tests and bench assert on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "churn/churn_trace.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/messages.h"
#include "sim/partition.h"
#include "sim/sim_clock.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ron::sim {

struct SimOptions {
  std::uint64_t seed = 42;
  LatencyParams latency;
  /// Home-sequence probe budget for every directory chain.
  std::uint32_t max_dir_probes = 32;
  /// Locate attempts (initial + retries) before giving up.
  std::uint32_t max_attempts = 3;
  /// Walk budget per attempt; mirrors LocateOptions::max_hops so the
  /// zero-churn differential against LocationService is exact.
  std::size_t max_hops = 10000;
  /// Virtual backoff before a locate retry — enough for a leaver's
  /// unpublish chain to land, so the retry sees a fresher directory.
  std::uint64_t retry_delay_ns = 100000;
};

enum class SimLocateOutcome : std::uint8_t {
  kFound = 0,
  kNoHolders,     // directory entry exists but every copy is unpublished
  kStuck,         // greedy walk had no closer live contact (all attempts)
  kStaleHolder,   // reached the target, the copy was gone (all attempts)
  kHopBudget,     // walk exceeded max_hops (all attempts)
  kDirExhausted,  // no home candidate answered within max_dir_probes
  kAbandoned,     // the querier left the overlay mid-locate
};

const char* to_string(SimLocateOutcome o);

/// One finished locate, protocol-side view (compare LocateResult).
struct SimLocateResult {
  std::uint64_t locate_id = 0;
  NodeId origin = kInvalidNode;
  ObjectId obj = kInvalidObject;
  SimLocateOutcome outcome = SimLocateOutcome::kAbandoned;
  bool found = false;
  NodeId holder = kInvalidNode;
  std::uint32_t hops = 0;
  std::uint32_t attempts = 1;
  Dist nearest_dist = 0.0;
  double path_length = 0.0;
  double route_stretch = 1.0;
  /// Messages/bytes attributable to this locate's chains (all attempts).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t issued_ns = 0;
  std::uint64_t completed_ns = 0;
  /// Hop-by-hop trace of the final attempt (the differential spine).
  LocateTrace trace;
};

/// Plain aggregate counters, read directly by the tests and the bench.
struct SimTotals {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bounced = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t retries = 0;
  std::uint64_t chain_drops = 0;  // directory chains that exhausted probes
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t publishes = 0;
  std::uint64_t unpublishes = 0;
  std::uint64_t locates_issued = 0;
  std::uint64_t locates_found = 0;
  std::uint64_t locates_failed = 0;
  std::uint64_t locates_abandoned = 0;
  std::uint64_t locates_skipped = 0;  // querier already gone at issue time
  std::uint64_t estimates_done = 0;
  std::uint64_t estimates_failed = 0;
};

class Simulator {
 public:
  Simulator(SimNetwork net, const SimOptions& opts);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Maps an object name to its sim-global id, appending churn-created
  /// names to the table (callers translate ChurnTrace object indices
  /// through this before schedule_churn).
  ObjectId register_object(const std::string& name);

  /// Issues a locate at virtual time at_ns (skipped with a counter if the
  /// querier is inactive by then).
  void schedule_locate(std::uint64_t at_ns, NodeId origin, ObjectId obj);
  /// Injects one churn op at at_ns. op.object must be a sim-global id
  /// (see register_object); strict op semantics are RON_CHECKed.
  void schedule_churn(std::uint64_t at_ns, const ChurnOp& op);
  /// Issues a label exchange a→b at at_ns (requires carved labels).
  void schedule_estimate(std::uint64_t at_ns, NodeId a, NodeId b);

  /// Runs the event loop until the queue drains, then records the end-state
  /// metrics (per-node state bytes, liveness gauges).
  void run();

  const std::vector<SimLocateResult>& results() const { return results_; }
  const SimTotals& totals() const { return totals_; }
  MetricsRegistry& metrics() { return registry_; }
  const SimNetwork& network() const { return net_; }
  std::size_t n() const { return net_.nodes.size(); }
  std::size_t hop_bound() const { return net_.hop_bound; }
  std::uint64_t now_ns() const { return clock_.now_ns(); }

  /// Deterministic event log (one line per delivery/bounce/churn op/locate
  /// completion); null disables. Two equal-seed runs emit identical logs.
  void set_event_log(std::ostream* os) { log_ = os; }
  /// Optional sink for the completed locates' traces (fed into the
  /// ron.metrics.v1 envelope by the CLI).
  void set_trace_sink(TraceSink* sink) { traces_ = sink; }

 private:
  struct SimEvent {
    std::uint64_t at_ns = 0;
    std::uint64_t seq = 0;
    enum class Kind : std::uint8_t {
      kDeliver,
      kChurn,
      kLocateIssue,
      kLocateRetry,
      kEstimateIssue,
    } kind = Kind::kDeliver;
    SimMessage msg;
    ChurnOp op;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    ObjectId obj = kInvalidObject;
    std::uint64_t locate_id = 0;
  };
  struct EventAfter {
    bool operator()(const SimEvent& x, const SimEvent& y) const {
      return x.at_ns != y.at_ns ? x.at_ns > y.at_ns : x.seq > y.seq;
    }
  };

  /// In-flight bookkeeping for one locate (all protocol state that is NOT
  /// per-node lives here, owned by the simulated querier).
  struct PendingLocate {
    NodeId origin = kInvalidNode;
    ObjectId obj = kInvalidObject;
    std::uint32_t attempt = 1;
    std::uint32_t probe = 0;
    NodeId target = kInvalidNode;
    Dist nearest_dist = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t issued_ns = 0;
    LocateTrace trace;
  };

  void push_event(SimEvent ev);
  /// Posts a message: prices it, accounts it (globally and to its locate
  /// chain), draws the link latency and enqueues the delivery.
  void post(SimMessage msg);
  std::uint64_t link_latency_ns(NodeId u, NodeId v);
  NodeId greedy_from(const SimNode& at, NodeId target);
  void log_line(const char* verb, const SimMessage& m);

  void handle_deliver(const SimMessage& m);
  void handle_bounce_notice(const SimMessage& m);
  void handle_dir_lookup(const SimMessage& m);
  void handle_dir_reply(const SimMessage& m);
  void handle_dir_miss(const SimMessage& m);
  void handle_dir_publish(const SimMessage& m);
  void handle_dir_unpublish(const SimMessage& m);
  void handle_dir_handoff(const SimMessage& m);
  void handle_locate_step(const SimMessage& m);
  void handle_locate_found(const SimMessage& m);
  void handle_locate_nack(const SimMessage& m);
  void handle_estimate_req(const SimMessage& m);
  void handle_estimate_reply(const SimMessage& m);

  /// Resumes a stateless directory chain after a DIR_MISS (alive_miss) or a
  /// bounce: advance the probe, track first_alive, re-target the next home
  /// candidate; on exhaustion either enter the publish create phase or drop
  /// the chain with a counter.
  void continue_dir_chain(const SimMessage& echo, bool alive_miss);

  void do_join(NodeId u);
  void do_leave(NodeId u);
  void do_publish(NodeId v, ObjectId obj);
  void do_unpublish(NodeId v, ObjectId obj);

  void issue_locate(NodeId origin, ObjectId obj);
  /// (Re)starts an attempt: probe 0, DIR_LOOKUP at home candidate 0.
  void start_attempt(std::uint64_t locate_id);
  void walk_or_finish(std::uint64_t locate_id, PendingLocate& p);
  /// NACKs the walk back to the querier (named so the sockets lint rule
  /// keeps matching only the raw syscall).
  void send_nack(NodeId from, const SimMessage& m, SimNackReason why);
  void maybe_retry(std::uint64_t locate_id, SimLocateOutcome would_be,
                   std::uint32_t hops);
  void complete_found(std::uint64_t locate_id, NodeId holder,
                      std::uint32_t hops, double path_length);
  void finish_failed(std::uint64_t locate_id, SimLocateOutcome outcome,
                     std::uint32_t hops);
  void abandon_locate(std::uint64_t locate_id);

  SimNetwork net_;
  SimOptions opts_;
  SimClock clock_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_locate_id_ = 1;
  std::priority_queue<SimEvent, std::vector<SimEvent>, EventAfter> queue_;
  std::map<std::uint64_t, PendingLocate> pending_;
  std::vector<SimLocateResult> results_;
  SimTotals totals_;
  MetricsRegistry registry_{1};
  std::ostream* log_ = nullptr;
  TraceSink* traces_ = nullptr;
  std::vector<NodeId> scratch_;
};

}  // namespace ron::sim
