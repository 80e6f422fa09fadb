#include "smallworld/model.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace ron {

bool SmallWorldModel::is_greedy_step(NodeId u, NodeId v, NodeId t) const {
  (void)u;
  (void)v;
  (void)t;
  return true;
}

std::size_t SmallWorldModel::max_out_degree() const {
  std::size_t d = 0;
  for (NodeId u = 0; u < n(); ++u) d = std::max(d, out_degree(u));
  return d;
}

double SmallWorldModel::avg_out_degree() const {
  std::size_t total = 0;
  for (NodeId u = 0; u < n(); ++u) total += out_degree(u);
  return static_cast<double>(total) / static_cast<double>(n());
}

NodeId greedy_next_hop(const MetricSpace& d, std::span<const NodeId> contacts,
                       NodeId u, NodeId t) {
  return greedy_next_hop(d, u, t,
                         [contacts](auto&& visit, Dist, const Dist&) {
                           for (NodeId c : contacts) visit(c);
                         });
}

SwRouteResult route_query(const SmallWorldModel& model, NodeId s, NodeId t,
                          std::size_t max_hops) {
  RON_CHECK(s < model.n() && t < model.n(),
            "s=" << s << ", t=" << t << ", n=" << model.n());
  SwRouteResult r;
  NodeId cur = s;
  while (cur != t) {
    if (r.hops >= max_hops) return r;  // undelivered
    const NodeId next = model.next_hop(cur, t);
    if (next == kInvalidNode || next == cur) return r;  // stuck
    if (model.is_greedy_step(cur, next, t)) {
      ++r.greedy_steps;
    } else {
      ++r.nongreedy_steps;
    }
    cur = next;
    ++r.hops;
  }
  r.delivered = true;
  return r;
}

SwStats evaluate_model(const SmallWorldModel& model, std::size_t queries,
                       std::uint64_t seed, std::size_t max_hops) {
  RON_CHECK(model.n() >= 2, "greedy routing needs n>=2, n=" << model.n());
  Rng rng(seed);
  SwStats stats;
  stats.queries = queries;
  std::vector<double> hops;
  for (std::size_t q = 0; q < queries; ++q) {
    const NodeId s = static_cast<NodeId>(rng.index(model.n()));
    NodeId t = static_cast<NodeId>(rng.index(model.n()));
    while (t == s) t = static_cast<NodeId>(rng.index(model.n()));
    const SwRouteResult r = route_query(model, s, t, max_hops);
    if (!r.delivered) {
      ++stats.failures;
      continue;
    }
    hops.push_back(static_cast<double>(r.hops));
    stats.total_nongreedy += r.nongreedy_steps;
  }
  stats.hops = summarize(std::move(hops));
  return stats;
}

}  // namespace ron
