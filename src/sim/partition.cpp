#include "sim/partition.h"

#include <span>

#include "common/check.h"
#include "location/location_service.h"
#include "oracle/wire.h"

namespace ron::sim {

NodeId home_of(const std::string& name, std::uint32_t rank, std::size_t n) {
  RON_CHECK(n >= 1, "home_of: empty overlay for object '" << name << "'");
  // Hashes the name's bytes in place; nothing is decoded from them.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(name.data());  // ron-lint: allow(raw-bytes)
  const std::uint64_t h = fnv1a64(std::span(bytes, name.size()));
  // Golden-ratio stride: successive candidates are spread over the id
  // space; an occasional collision between ranks merely wastes one probe.
  constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;
  return static_cast<NodeId>(
      (h + static_cast<std::uint64_t>(rank) * kStride) % n);
}

SimNetwork partition_overlay(const ProximityIndex& prox,
                             const RingsOfNeighbors& rings,
                             const ObjectDirectory& dir,
                             const DistanceLabeling* labels) {
  const std::size_t n = prox.n();
  RON_CHECK(rings.n() == n, "partition_overlay: rings over " << rings.n()
                                << " nodes, metric has " << n);
  RON_CHECK(dir.n() == n, "partition_overlay: directory over " << dir.n()
                              << " nodes, metric has " << n);
  RON_CHECK(labels == nullptr || labels->n() == n,
            "partition_overlay: labeling over "
                << (labels != nullptr ? labels->n() : 0)
                << " nodes, metric has " << n);

  SimNetwork net;
  net.prox = &prox;
  net.hop_bound = location_hop_bound(n);
  net.nodes.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    SimNode& node = net.nodes[u];
    node.id = u;
    node.active = true;
    const std::span<const Ring> rs = rings.rings(u);
    node.rings.assign(rs.begin(), rs.end());
    node.neighbors = rings.all_neighbors(u);
    if (labels != nullptr) node.label = &labels->label(u);
  }

  net.object_names.reserve(dir.num_objects());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    const std::string& name = dir.name(obj);
    net.object_names.push_back(name);
    const std::span<const NodeId> holders = dir.holders(obj);
    for (const NodeId h : holders) net.nodes[h].add_copy(obj);
    // Every node is alive at partition time: the entry hosts at rank 0.
    const NodeId home = home_of(name, 0, n);
    net.nodes[home].hosted[obj] =
        SimNode::HostedEntry{name, {holders.begin(), holders.end()}, 0};
  }
  return net;
}

}  // namespace ron::sim
