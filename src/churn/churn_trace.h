// ChurnTrace: a replayable sequence of overlay mutations.
//
// The paper's point is that rings of neighbors are cheap enough to
// *maintain* in a dynamic P2P network (§1: "low-diameter networks that are
// easy to maintain"). A ChurnTrace is the workload half of that claim made
// first-class: an ordered list of join/leave/publish/unpublish operations
// that the OverlayMutator applies incrementally, deterministic enough to
// travel inside a snapshot (the kChurnBundle section stores the scenario
// recipe + the initial directory + the trace; replaying the trace through a
// fresh mutator reproduces the mutated overlay bit-for-bit).
//
// Wire encoding (compact, validated): a name table for the objects the
// trace touches, then 9 bytes per op (kind u8, node u32, object-index u32).
// Object references index the name table rather than repeating strings —
// a 1k-op trace over a 32-object pool stays under 10 KiB.
//
// Operation semantics (enforced strictly by OverlayMutator — a trace that
// violates them is corrupt, not "best effort"):
//   kJoin       node must be inactive; it re-enters the overlay.
//   kLeave      node must be active; its copies are auto-unpublished, its
//               rings dissolve, and its in-links are repaired.
//   kPublish    node must be active and not already a holder of object.
//   kUnpublish  (object, node) must be a published copy. Removing the last
//               copy leaves a zero-holder object (defined state — see
//               object_directory.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "location/object_directory.h"

namespace ron {

class WireReader;
class WireWriter;

enum class ChurnOpKind : std::uint8_t {
  kJoin = 0,
  kLeave = 1,
  kPublish = 2,
  kUnpublish = 3,
};

const char* to_string(ChurnOpKind kind);

struct ChurnOp {
  ChurnOpKind kind = ChurnOpKind::kJoin;
  /// join/leave: the churning node; publish/unpublish: the holder.
  NodeId node = kInvalidNode;
  /// publish/unpublish: index into ChurnTrace::objects; join/leave:
  /// kInvalidObject.
  ObjectId object = kInvalidObject;

  friend bool operator==(const ChurnOp&, const ChurnOp&) = default;
};

struct ChurnTrace {
  /// Names referenced by publish/unpublish ops (non-empty, unique).
  std::vector<std::string> objects;
  std::vector<ChurnOp> ops;

  std::size_t count(ChurnOpKind kind) const;

  /// Structural validation against a node universe of size n: node ids in
  /// range, object indices into the name table, names non-empty and
  /// unique. (State validity — "is this node really active?" — is the
  /// mutator's job at replay time.)
  void validate(std::size_t n) const;

  friend bool operator==(const ChurnTrace&, const ChurnTrace&) = default;
};

/// Wire round trip of the trace (the kChurnBundle payload suffix and the
/// churn-admin frame body: one encoding for both). The reader validates
/// everything validate() checks, so a corrupted trace throws ron::Error
/// instead of replaying garbage.
void write_trace_payload(WireWriter& w, const ChurnTrace& trace);
ChurnTrace read_trace_payload(WireReader& r, std::size_t n);

}  // namespace ron
