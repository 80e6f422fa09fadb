// The simulator's typed message set.
//
// Under the protocol view a locate is not one in-process walk but a chain of
// messages: the querier probes the object's directory home sequence
// (DIR_LOOKUP → DIR_REPLY/DIR_MISS), then launches a greedy ring-walk of
// LOCATE_STEP messages that ends in a LOCATE_FOUND or LOCATE_NACK back to
// the querier. Publish/unpublish/handoff maintain the directory, the
// join/leave announcements maintain neighbor liveness beliefs, and the
// estimate pair exercises the distance-labeling exchange. BOUNCE is the
// transport's undeliverable notification (ICMP-style: it echoes the failed
// message so the sender can reroute or re-probe statelessly).
//
// Byte accounting is honest: wire_bytes() prices each message by encoding
// exactly the fields it carries through oracle/wire.h's WireWriter — the
// same little-endian encoding the snapshot layer ships — so "bytes on the
// wire" means real serialized cost, not sizeof(struct).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "labeling/distance_labels.h"

namespace ron::sim {

enum class SimMsgType : std::uint8_t {
  kDirLookup = 0,    // querier → home candidate: who holds obj?
  kDirReply,         // home → querier: the holder set
  kDirMiss,          // candidate → coordinator: no entry here, echo fields
  kDirPublish,       // holder → home candidate: add me to obj's holders
  kDirUnpublish,     // ex-holder → home candidate: remove me
  kDirAck,           // home → coordinator: directory op applied
  kDirHandoff,       // leaver → next candidate: adopt this hosted entry
  kLocateStep,       // one greedy ring-walk hop toward the target copy
  kLocateFound,      // target holder → querier: copy confirmed, walk stats
  kLocateNack,       // walker/holder → querier: walk failed (reason below)
  kJoinAnnounce,     // rejoiner → every remembered neighbor: I am back
  kJoinAck,          // neighbor → rejoiner: heard you, I am alive too
  kLeaveAnnounce,    // leaver → believed-alive neighbors: tombstone me
  kEstimateReq,      // ask a node for its distance label
  kEstimateReply,    // the label, priced at its snapshot encoding
  kBounce,           // transport: destination inactive, echo of the failure
};

const char* to_string(SimMsgType t);

/// Nack reasons (LOCATE_NACK.reason).
enum class SimNackReason : std::uint8_t {
  kStuck = 0,        // greedy walk has no contact closer to the target
  kStaleHolder,      // reached the target but the copy is gone
  kHopBudget,        // walk exceeded the configured max hops
};

/// "No candidate seen yet" sentinel for the dir-probe first_alive field.
inline constexpr std::uint32_t kNoAliveCandidate = 0xffffffffu;

/// One message in flight. A plain value: the event queue owns copies, so
/// in-flight state survives its sender leaving the overlay. Fields are a
/// union-of-needs — wire_bytes() prices only the ones the type carries.
struct SimMessage {
  SimMsgType type = SimMsgType::kLocateStep;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;

  /// Nonzero ties the message to one locate chain (lookup/reply/steps/
  /// found/nack); zero marks directory-maintenance and liveness traffic.
  std::uint64_t locate_id = 0;
  ObjectId obj = kInvalidObject;
  /// Object name: the directory key hashed into the home sequence, carried
  /// by every directory op (and needed to create entries on first publish).
  std::string name;
  /// Locate chain: the querier every reply routes back to.
  NodeId origin = kInvalidNode;
  /// Walk target copy (steps), confirmed holder (found), or the holder
  /// being (un)published / announced.
  NodeId subject = kInvalidNode;
  std::uint32_t hops = 0;
  double path_length = 0.0;
  /// Directory ops: index in the object's home sequence being probed.
  std::uint32_t probe = 0;
  /// Stateless publish probing: lowest probe index that answered DIR_MISS
  /// (alive, entry-less) so far; echoed by every miss/bounce.
  std::uint32_t first_alive = kNoAliveCandidate;
  /// Publish retry after a fully-missed probe sweep: create the entry here.
  bool create = false;
  std::uint8_t reason = 0;  // SimNackReason for kLocateNack
  /// DIR_REPLY / DIR_HANDOFF payload: the holder set.
  std::vector<NodeId> holders;
  /// kEstimateReply payload (borrowed from the owning SimNode; labels are
  /// immutable for a run).
  const DlsLabel* label = nullptr;
  /// kBounce: the type of the echoed (undeliverable) message.
  SimMsgType failed_type = SimMsgType::kLocateStep;
};

/// Serialized size of `m` in the wire.h encoding (header + the fields the
/// type actually carries; a bounce prices the echoed message too).
std::size_t wire_bytes(const SimMessage& m);

}  // namespace ron::sim
