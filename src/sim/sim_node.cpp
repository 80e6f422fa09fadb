#include "sim/sim_node.h"

#include <algorithm>

#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "sim/messages.h"

namespace ron::sim {

namespace {

bool sorted_contains(const std::vector<NodeId>& v, NodeId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

void sorted_insert(std::vector<NodeId>& v, NodeId x) {
  const auto pos = std::lower_bound(v.begin(), v.end(), x);
  if (pos == v.end() || *pos != x) v.insert(pos, x);
}

void sorted_erase(std::vector<NodeId>& v, NodeId x) {
  const auto pos = std::lower_bound(v.begin(), v.end(), x);
  if (pos != v.end() && *pos == x) v.erase(pos);
}

}  // namespace

bool SimNode::believes_dead(NodeId w) const {
  return sorted_contains(tombstones, w);
}

void SimNode::tombstone(NodeId w) { sorted_insert(tombstones, w); }

void SimNode::revive(NodeId w) { sorted_erase(tombstones, w); }

std::span<const NodeId> SimNode::contacts(std::vector<NodeId>& scratch) const {
  if (tombstones.empty()) return neighbors;
  scratch.clear();
  scratch.reserve(neighbors.size());
  std::set_difference(neighbors.begin(), neighbors.end(), tombstones.begin(),
                      tombstones.end(), std::back_inserter(scratch));
  return scratch;
}

bool SimNode::holds(ObjectId obj) const {
  return std::binary_search(held.begin(), held.end(), obj);
}

void SimNode::add_copy(ObjectId obj) {
  const auto pos = std::lower_bound(held.begin(), held.end(), obj);
  if (pos == held.end() || *pos != obj) held.insert(pos, obj);
}

void SimNode::drop_copy(ObjectId obj) {
  const auto pos = std::lower_bound(held.begin(), held.end(), obj);
  if (pos != held.end() && *pos == obj) held.erase(pos);
}

SimNode::HostedEntry* SimNode::hosted_find(ObjectId obj) {
  const auto it = hosted.find(obj);
  return it == hosted.end() ? nullptr : &it->second;
}

std::uint64_t SimNode::state_bytes() const {
  WireWriter w;
  w.u32(id);
  w.u8(active ? 1 : 0);
  w.u64(rings.size());
  for (const Ring& r : rings) {
    w.f64(r.scale);
    w.u64(r.members.size());
    for (const NodeId v : r.members) w.u32(v);
  }
  w.u64(tombstones.size());
  for (const NodeId v : tombstones) w.u32(v);
  w.u64(held.size());
  for (const ObjectId obj : held) w.u32(obj);
  w.u64(hosted.size());
  for (const auto& [obj, e] : hosted) {
    w.u32(obj);
    w.str(e.name);
    w.u32(e.home_rank);
    w.u64(e.holders.size());
    for (const NodeId v : e.holders) w.u32(v);
  }
  w.u8(label != nullptr ? 1 : 0);
  if (label != nullptr) write_label(w, *label);
  return w.size();
}

}  // namespace ron::sim
