// Searchable small-world models on metrics (paper §5, Definition 5.1).
//
// A small-world model is (i) a distribution over directed contact graphs in
// which each node's out-links are chosen independently, and (ii) a
// *strongly local* routing algorithm: the next hop is chosen among the
// current node's contacts by looking only at distances to these contacts
// and from these contacts to the target.
//
// Implementations sample their contact graph at construction (seeded) and
// expose next_hop(); route_query() drives queries and classifies steps as
// greedy / non-greedy (Theorem 5.2(b) introduces the first non-greedy
// strongly local rule).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "metric/metric_space.h"

namespace ron {

class SmallWorldModel {
 public:
  virtual ~SmallWorldModel() = default;

  virtual std::string name() const = 0;
  virtual const MetricSpace& metric() const = 0;
  std::size_t n() const { return metric().n(); }

  virtual std::span<const NodeId> contacts(NodeId u) const = 0;

  /// The strongly local routing decision. Returns kInvalidNode if stuck
  /// (no admissible contact).
  virtual NodeId next_hop(NodeId u, NodeId t) const = 0;

  /// True if the step u -> v for target t was greedy in the Kleinberg sense
  /// (v is the contact closest to t). Default: every step is greedy.
  virtual bool is_greedy_step(NodeId u, NodeId v, NodeId t) const;

  std::size_t out_degree(NodeId u) const { return contacts(u).size(); }
  std::size_t max_out_degree() const;
  double avg_out_degree() const;
};

/// The one greedy step every walk takes (the models, the sim and
/// LocationService): among the contacts `visit_contacts` yields, the one
/// strictly closer to t than u and closest to t, the lowest id on ties;
/// kInvalidNode if no contact makes progress.
///
/// `visit_contacts(f, dut, best_d)` calls f(NodeId) once per contact, in
/// any order — the tie-break makes the answer order-independent. It also
/// receives dut = d(u,t) and a live reference to the distance of the best
/// candidate so far (dut until one makes progress), and may skip a contact
/// c only when d(c,t) > best_d: such a contact can be neither the strict
/// argmin nor a tie, so pruning that keeps to this rule (the banded scan,
/// RingsOfNeighbors::visit_neighbors_near) returns exactly the hop a full
/// scan returns. `probes`, when non-null, gains the number of distances
/// the step evaluated.
template <typename VisitContacts>
NodeId greedy_next_hop(const MetricSpace& d, NodeId u, NodeId t,
                       VisitContacts&& visit_contacts,
                       std::uint64_t* probes = nullptr) {
  const Dist dut = d.distance(u, t);
  NodeId best = kInvalidNode;
  Dist best_d = dut;  // must make strict progress
  std::uint64_t evaluated = 1;
  visit_contacts(
      [&](NodeId c) {
        if (c == u) return;
        Dist dct = 0.0;
        if (c != t) {
          dct = d.distance(c, t);
          ++evaluated;
        }
        if (dct < best_d ||
            (dct == best_d && best != kInvalidNode && c < best)) {
          best = c;
          best_d = dct;
        }
      },
      dut, std::as_const(best_d));
  if (probes != nullptr) *probes += evaluated;
  return best;
}

/// The greedy step over a contact list.
NodeId greedy_next_hop(const MetricSpace& d, std::span<const NodeId> contacts,
                       NodeId u, NodeId t);

struct SwRouteResult {
  bool delivered = false;
  std::size_t hops = 0;
  std::size_t greedy_steps = 0;
  std::size_t nongreedy_steps = 0;
};

SwRouteResult route_query(const SmallWorldModel& model, NodeId s, NodeId t,
                          std::size_t max_hops);

struct SwStats {
  Summary hops;
  std::size_t failures = 0;
  std::size_t queries = 0;
  std::size_t total_nongreedy = 0;
};

/// Random (s != t) queries.
SwStats evaluate_model(const SmallWorldModel& model, std::size_t queries,
                       std::uint64_t seed, std::size_t max_hops);

}  // namespace ron
