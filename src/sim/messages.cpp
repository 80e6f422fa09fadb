#include "sim/messages.h"

#include "common/check.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"

namespace ron::sim {

const char* to_string(SimMsgType t) {
  switch (t) {
    case SimMsgType::kDirLookup: return "DIR_LOOKUP";
    case SimMsgType::kDirReply: return "DIR_REPLY";
    case SimMsgType::kDirMiss: return "DIR_MISS";
    case SimMsgType::kDirPublish: return "DIR_PUBLISH";
    case SimMsgType::kDirUnpublish: return "DIR_UNPUBLISH";
    case SimMsgType::kDirAck: return "DIR_ACK";
    case SimMsgType::kDirHandoff: return "DIR_HANDOFF";
    case SimMsgType::kLocateStep: return "LOCATE_STEP";
    case SimMsgType::kLocateFound: return "LOCATE_FOUND";
    case SimMsgType::kLocateNack: return "LOCATE_NACK";
    case SimMsgType::kJoinAnnounce: return "JOIN_ANNOUNCE";
    case SimMsgType::kJoinAck: return "JOIN_ACK";
    case SimMsgType::kLeaveAnnounce: return "LEAVE_ANNOUNCE";
    case SimMsgType::kEstimateReq: return "ESTIMATE_REQ";
    case SimMsgType::kEstimateReply: return "ESTIMATE_REPLY";
    case SimMsgType::kBounce: return "BOUNCE";
  }
  return "UNKNOWN";
}

namespace {

/// Encodes the payload fields `effective` carries (the bounce echo reuses
/// this with the failed type).
void write_payload(WireWriter& w, const SimMessage& m, SimMsgType effective) {
  switch (effective) {
    case SimMsgType::kDirLookup:
      w.u64(m.locate_id);
      w.str(m.name);
      w.u32(m.obj);
      w.u32(m.probe);
      break;
    case SimMsgType::kDirReply:
      w.u64(m.locate_id);
      w.u32(m.obj);
      w.u64(m.holders.size());
      for (const NodeId h : m.holders) w.u32(h);
      break;
    case SimMsgType::kDirMiss:
      // The echo a stateless coordinator resumes from: which op missed,
      // where in the sequence, and the probe bookkeeping.
      w.u8(static_cast<std::uint8_t>(m.failed_type));
      w.u64(m.locate_id);
      w.str(m.name);
      w.u32(m.obj);
      w.u32(m.subject);
      w.u32(m.probe);
      w.u32(m.first_alive);
      break;
    case SimMsgType::kDirPublish:
      w.str(m.name);
      w.u32(m.obj);
      w.u32(m.subject);
      w.u32(m.probe);
      w.u32(m.first_alive);
      w.u8(m.create ? 1 : 0);
      break;
    case SimMsgType::kDirUnpublish:
      w.str(m.name);
      w.u32(m.obj);
      w.u32(m.subject);
      w.u32(m.probe);
      break;
    case SimMsgType::kDirAck:
      w.u32(m.obj);
      break;
    case SimMsgType::kDirHandoff:
      w.str(m.name);
      w.u32(m.obj);
      w.u32(m.probe);
      w.u64(m.holders.size());
      for (const NodeId h : m.holders) w.u32(h);
      break;
    case SimMsgType::kLocateStep:
      w.u64(m.locate_id);
      w.u32(m.obj);
      w.u32(m.origin);
      w.u32(m.subject);
      w.u32(m.hops);
      w.f64(m.path_length);
      break;
    case SimMsgType::kLocateFound:
      w.u64(m.locate_id);
      w.u32(m.obj);
      w.u32(m.subject);
      w.u32(m.hops);
      w.f64(m.path_length);
      break;
    case SimMsgType::kLocateNack:
      w.u64(m.locate_id);
      w.u32(m.obj);
      w.u8(m.reason);
      w.u32(m.hops);
      break;
    case SimMsgType::kJoinAnnounce:
    case SimMsgType::kJoinAck:
    case SimMsgType::kLeaveAnnounce:
    case SimMsgType::kEstimateReq:
      break;  // liveness/request headers carry no payload
    case SimMsgType::kEstimateReply:
      RON_CHECK(m.label != nullptr,
                "wire_bytes: ESTIMATE_REPLY without a label payload");
      write_label(w, *m.label);
      break;
    case SimMsgType::kBounce:
      // handled by the caller (needs the echoed type)
      break;
  }
}

}  // namespace

std::size_t wire_bytes(const SimMessage& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u32(m.from);
  w.u32(m.to);
  if (m.type == SimMsgType::kBounce) {
    // ICMP-style: the notification carries the failed message's type and
    // payload so the sender can resume without per-chain state.
    w.u8(static_cast<std::uint8_t>(m.failed_type));
    write_payload(w, m, m.failed_type);
  } else {
    write_payload(w, m, m.type);
  }
  return w.size();
}

}  // namespace ron::sim
