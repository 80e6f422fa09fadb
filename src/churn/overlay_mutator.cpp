#include "churn/overlay_mutator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"
#include "net/doubling_measure.h"
#include "net/nets.h"

namespace ron {

OverlayMutator::OverlayMutator(const ProximityIndex& prox,
                               const ScenarioSpec& spec,
                               ObjectDirectory initial, const Clock* clock)
    : prox_(prox),
      params_(spec.ring_params()),
      rings_(prox.n()),
      directory_(std::move(initial)),
      rng_(spec.churn_seed),
      clock_(clock != nullptr ? clock : &Clock::real()) {
  m_join_seconds_ = &metrics_.histogram("ron_churn_join_seconds");
  m_leave_seconds_ = &metrics_.histogram("ron_churn_leave_seconds");
  m_publish_seconds_ = &metrics_.histogram("ron_churn_publish_seconds");
  m_unpublish_seconds_ = &metrics_.histogram("ron_churn_unpublish_seconds");
  m_commit_seconds_ = &metrics_.histogram("ron_churn_commit_seconds");
  RON_CHECK(directory_.n() == prox_.n(),
            "OverlayMutator: directory over " << directory_.n()
                                              << " nodes, metric has "
                                              << prox_.n());
  RON_CHECK(prox_.has_full_rows(),
            "OverlayMutator: incremental repair walks full distance-sorted "
            "rows and needs the dense proximity backend; rebuild with "
            "--backend dense (n <= " << DenseProximityIndex::kMaxDenseNodes
                                     << ")");
  const std::size_t n = prox_.n();
  RON_CHECK(spec.family.empty() || spec.n == n,
            "OverlayMutator: spec n=" << spec.n << " != metric n=" << n);

  // Static build, mirroring LocationOverlay/ScenarioBuilder exactly so a
  // zero-op mutator is bit-identical to the static pipeline.
  const int l_max =
      static_cast<int>(std::ceil(std::log2(prox_.aspect_ratio()))) + 1;
  NetHierarchy nets(prox_, l_max);
  weights0_ = doubling_measure(nets);
  weights_ = weights0_;
  MeasureView mu(prox_, weights0_);
  rings_ = RingsSmallWorld(prox_, mu, params_, spec.overlay_seed)
               .take_rings();

  l_max_ = l_max;
  net_members_.resize(static_cast<std::size_t>(l_max_) + 1);
  net_is_member_.resize(static_cast<std::size_t>(l_max_) + 1);
  for (int l = 0; l <= l_max_; ++l) {
    const auto ms = nets.members(l);
    net_members_[l].assign(ms.begin(), ms.end());
    net_is_member_[l].assign(n, 0);
    for (NodeId v : ms) net_is_member_[l][v] = 1;
  }

  const double log_n = std::log2(static_cast<double>(n));
  x_samples_ = static_cast<std::size_t>(std::ceil(params_.c_x * log_n));
  y_samples_ = static_cast<std::size_t>(std::ceil(params_.c_y * log_n));
  rings_per_node_ =
      (params_.with_x ? static_cast<std::size_t>(prox_.num_levels()) : 0) +
      static_cast<std::size_t>(prox_.num_scales()) + 1;
  for (NodeId u = 0; u < n; ++u) {
    RON_CHECK(rings_.num_rings(u) == rings_per_node_,
              "OverlayMutator: node " << u << " has " << rings_.num_rings(u)
                                      << " rings, recipe expects "
                                      << rings_per_node_);
  }

  active_.assign(n, 1);
  active_count_ = n;

  inlinks_.resize(n);
  inlinks_compact_at_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    std::uint32_t idx = 0;
    for (const Ring& ring : rings_.rings(u)) {
      for (NodeId w : ring.members) inlinks_[w].emplace_back(u, idx);
      ++idx;
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    inlinks_compact_at_[u] = 2 * inlinks_[u].size() + 64;
  }
}

bool OverlayMutator::is_active(NodeId u) const {
  RON_CHECK(u < n(), "is_active: node " << u << " out of range");
  return active_[u] != 0;
}

double OverlayMutator::weight(NodeId u) const {
  RON_CHECK(u < n(), "weight: node " << u << " out of range");
  return weights_[u];
}

std::span<const NodeId> OverlayMutator::net_members(int level) const {
  RON_CHECK(level >= 0 && level <= l_max_,
            "net_members: level " << level << " out of range");
  return net_members_[level];
}

Dist OverlayMutator::net_spacing(int level) const {
  RON_CHECK(level >= 0 && level <= l_max_,
            "net_spacing: level " << level << " out of range");
  return prox_.dmin() * std::ldexp(1.0, level);
}

// --- ring recipe ------------------------------------------------------------

bool OverlayMutator::ring_is_x(std::size_t ring_index) const {
  return params_.with_x &&
         ring_index < static_cast<std::size_t>(prox_.num_levels());
}

int OverlayMutator::x_level(std::size_t ring_index) const {
  return static_cast<int>(ring_index);
}

int OverlayMutator::y_scale(std::size_t ring_index) const {
  const std::size_t x_rings =
      params_.with_x ? static_cast<std::size_t>(prox_.num_levels()) : 0;
  return static_cast<int>(ring_index - x_rings);
}

Dist OverlayMutator::y_radius(int scale) const {
  return prox_.dmin() * std::ldexp(1.0, scale);
}

std::size_t OverlayMutator::ring_budget(std::size_t ring_index) const {
  return ring_is_x(ring_index) ? x_samples_ : y_samples_;
}

// --- active-set geometry ----------------------------------------------------

NodeId OverlayMutator::nearest_active(NodeId u) const {
  for (const auto& nb : prox_.row(u)) {
    if (nb.v != u && active_[nb.v]) return nb.v;
  }
  return kInvalidNode;
}

void OverlayMutator::active_level_ball(NodeId u, int level,
                                       std::vector<NodeId>& out) const {
  // k = ceil(m / 2^level) over the ACTIVE count m, in integer arithmetic
  // (mirrors ProximityIndex::level_radius's exactness).
  const std::size_t m = active_count_;
  std::size_t k = 1;
  if (level < 63) {
    const std::size_t step = std::size_t{1} << level;
    k = std::max<std::size_t>(1, (m + step - 1) >> level);
  }
  out.clear();
  for (const auto& nb : prox_.row(u)) {
    if (!active_[nb.v]) continue;
    out.push_back(nb.v);
    if (out.size() >= k) break;
  }
}

void OverlayMutator::active_radius_ball(NodeId u, Dist radius,
                                        std::vector<NodeId>& nodes,
                                        std::vector<double>& weights) const {
  nodes.clear();
  weights.clear();
  for (const auto& nb : prox_.ball(u, radius)) {
    if (!active_[nb.v]) continue;
    nodes.push_back(nb.v);
    weights.push_back(weights_[nb.v]);
  }
}

// --- reverse index ----------------------------------------------------------

bool OverlayMutator::ring_add(NodeId v, std::size_t ring_index, NodeId w) {
  if (!rings_.add_member(v, ring_index, w)) return false;
  inlinks_[w].emplace_back(v, static_cast<std::uint32_t>(ring_index));
  maybe_compact_inlinks(w);
  return true;
}

void OverlayMutator::maybe_compact_inlinks(NodeId w) {
  auto& links = inlinks_[w];
  if (links.size() <= inlinks_compact_at_[w]) return;
  // Drop stale entries (the ring no longer holds w) and duplicates left by
  // remove-then-readd cycles.
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  links.erase(std::remove_if(links.begin(), links.end(),
                             [&](const auto& link) {
                               return !rings_.ring_contains(
                                   link.first, link.second, w);
                             }),
              links.end());
  inlinks_compact_at_[w] = 2 * links.size() + 64;
}

// --- sampling ---------------------------------------------------------------

NodeId OverlayMutator::draw_one(NodeId u, std::size_t ring_index) {
  if (ring_is_x(ring_index)) {
    active_level_ball(u, x_level(ring_index), scratch_nodes_);
    if (scratch_nodes_.empty()) return kInvalidNode;
    return scratch_nodes_[rng_.index(scratch_nodes_.size())];
  }
  active_radius_ball(u, y_radius(y_scale(ring_index)), scratch_nodes_,
                     scratch_weights_);
  if (scratch_nodes_.empty()) return kInvalidNode;
  return scratch_nodes_[rng_.weighted_index(scratch_weights_)];
}

void OverlayMutator::repair_ring(NodeId v, std::size_t ring_index) {
  const NodeId w = draw_one(v, ring_index);
  // A draw that lands on an existing member mirrors the static sampler's
  // with-replacement-then-dedup semantics: the ring just stays smaller.
  if (w != kInvalidNode && ring_add(v, ring_index, w)) {
    ++counters_.ring_repairs;
  }
}

void OverlayMutator::resample_own_ring(NodeId u, std::size_t ring_index) {
  RON_CHECK(rings_.rings(u)[ring_index].members.empty(),
            "resample_own_ring: ring not empty");
  if (ring_is_x(ring_index)) {
    active_level_ball(u, x_level(ring_index), scratch_nodes_);
    rings_.set_ring_scale(u, ring_index,
                          static_cast<double>(scratch_nodes_.size()));
    for (std::size_t s = 0; s < x_samples_ && !scratch_nodes_.empty(); ++s) {
      ring_add(u, ring_index,
               scratch_nodes_[rng_.index(scratch_nodes_.size())]);
    }
    return;
  }
  const Dist radius = y_radius(y_scale(ring_index));
  rings_.set_ring_scale(u, ring_index, radius);
  active_radius_ball(u, radius, scratch_nodes_, scratch_weights_);
  for (std::size_t s = 0; s < y_samples_ && !scratch_nodes_.empty(); ++s) {
    ring_add(u, ring_index,
             scratch_nodes_[rng_.weighted_index(scratch_weights_)]);
  }
}

bool OverlayMutator::ring_add_with_budget(NodeId v, std::size_t ring_index,
                                          NodeId u) {
  if (rings_.ring_contains(v, ring_index, u)) return false;
  const auto& members = rings_.rings(v)[ring_index].members;
  if (members.size() >= ring_budget(ring_index)) {
    const NodeId victim = members[rng_.index(members.size())];
    rings_.remove_member(v, ring_index, victim);  // inlink entry goes stale
    ++counters_.evictions;
  }
  if (ring_add(v, ring_index, u)) {
    ++counters_.inlink_inserts;
    return true;
  }
  return false;
}

void OverlayMutator::push_inlinks(NodeId u) {
  // Mirror the static sampler's inclusion probabilities so u's in-degree
  // matches what a fresh build would give it. For an X ring at level i,
  // every node w whose smallest >=k_i-active ball contains u would sample u
  // with probability ~x_samples/k_i per slot; we approximate the candidate
  // set symmetrically by u's own level-i active ball. For a Y ring at scale
  // j the ball is symmetric exactly, and u's pick probability is its mass
  // share, summed over y_samples draws.
  const std::size_t x_rings =
      params_.with_x ? static_cast<std::size_t>(prox_.num_levels()) : 0;
  for (std::size_t idx = 0; idx < rings_per_node_; ++idx) {
    if (ring_is_x(idx)) {
      active_level_ball(u, x_level(idx), scratch_nodes_);
      if (scratch_nodes_.size() <= 1) continue;
      const double prob = std::min(
          1.0, static_cast<double>(x_samples_) /
                   static_cast<double>(scratch_nodes_.size()));
      // Iterate over a copy: ring mutations below must not invalidate it.
      scratch_push_ = scratch_nodes_;
      for (NodeId w : scratch_push_) {
        if (w != u && rng_.bernoulli(prob)) ring_add_with_budget(w, idx, u);
      }
    } else {
      active_radius_ball(u, y_radius(y_scale(idx)), scratch_nodes_,
                         scratch_weights_);
      if (scratch_nodes_.size() <= 1) continue;
      double mass = 0.0;
      for (double wgt : scratch_weights_) mass += wgt;
      if (mass <= 0.0) continue;
      const double prob = std::min(
          1.0, static_cast<double>(y_samples_) * weights_[u] / mass);
      scratch_push_ = scratch_nodes_;
      for (NodeId w : scratch_push_) {
        if (w != u && rng_.bernoulli(prob)) ring_add_with_budget(w, idx, u);
      }
    }
  }
  // Final-hop insurance: u's nearest active neighbor always learns about u
  // through its tightest Y ring that covers the distance, so a walk
  // converging on u's vicinity can take the last step.
  const NodeId v = nearest_active(u);
  if (v == kInvalidNode) return;
  const Dist d = prox_.dist(v, u);
  int scale = 0;
  while (scale < prox_.num_scales() && y_radius(scale) < d) ++scale;
  ring_add_with_budget(v, x_rings + static_cast<std::size_t>(scale), u);
}

// --- nets -------------------------------------------------------------------

bool OverlayMutator::net_covered(int level, NodeId w) const {
  const Dist spacing = prox_.dmin() * std::ldexp(1.0, level);
  for (NodeId m : net_members_[level]) {
    if (prox_.dist(w, m) <= spacing) return true;
  }
  return false;
}

void OverlayMutator::net_leave(NodeId u) {
  for (int l = 0; l <= l_max_; ++l) {
    if (!net_is_member_[l][u]) continue;
    auto& members = net_members_[l];
    members.erase(std::lower_bound(members.begin(), members.end(), u));
    net_is_member_[l][u] = 0;
    // Covering repair: any active node that only u covered is within
    // spacing(l) of u. Promote greedily, nearest to u first — each
    // promoted node is > spacing(l) from every member (old and newly
    // promoted), so per-level packing is preserved exactly.
    const Dist spacing = prox_.dmin() * std::ldexp(1.0, l);
    for (const auto& nb : prox_.ball(u, spacing)) {
      const NodeId w = nb.v;
      if (!active_[w] || net_is_member_[l][w]) continue;
      if (net_covered(l, w)) continue;
      members.insert(std::lower_bound(members.begin(), members.end(), w), w);
      net_is_member_[l][w] = 1;
      ++counters_.net_promotions;
    }
  }
}

void OverlayMutator::net_join(NodeId u) {
  for (int l = 0; l <= l_max_; ++l) {
    const Dist spacing = prox_.dmin() * std::ldexp(1.0, l);
    bool packs = true;
    for (NodeId m : net_members_[l]) {
      if (prox_.dist(u, m) < spacing) {
        packs = false;
        break;
      }
    }
    if (!packs) continue;  // u is covered by an existing member
    auto& members = net_members_[l];
    members.insert(std::lower_bound(members.begin(), members.end(), u), u);
    net_is_member_[l][u] = 1;
  }
}

// --- mutations --------------------------------------------------------------

void OverlayMutator::sync_counter_metrics() {
  // The maintenance counters are bumped at many interior sites; mirroring
  // them into the registry by delta after each public op keeps those sites
  // untouched while scrapes stay current.
  const std::pair<const char*, std::size_t ChurnCounters::*> mirror[] = {
      {"ron_churn_joins_total", &ChurnCounters::joins},
      {"ron_churn_leaves_total", &ChurnCounters::leaves},
      {"ron_churn_publishes_total", &ChurnCounters::publishes},
      {"ron_churn_unpublishes_total", &ChurnCounters::unpublishes},
      {"ron_churn_ring_repairs_total", &ChurnCounters::ring_repairs},
      {"ron_churn_inlink_inserts_total", &ChurnCounters::inlink_inserts},
      {"ron_churn_evictions_total", &ChurnCounters::evictions},
      {"ron_churn_net_promotions_total", &ChurnCounters::net_promotions}};
  for (const auto& [name, field] : mirror) {
    const std::size_t now = counters_.*field;
    const std::size_t seen = exported_.*field;
    if (now > seen) metrics_.counter(name).add(0, now - seen);
    exported_.*field = now;
  }
}

void OverlayMutator::leave(NodeId u) {
  const Stopwatch op_watch(*clock_);
  RON_CHECK(u < n(), "leave: node " << u << " out of range");
  RON_CHECK(active_[u], "leave: node " << u << " is not active");
  RON_CHECK(active_count_ > 1, "leave: node " << u
                                   << " is the last active node");
  // A departed node cannot keep serving replicas (zero-holder objects are a
  // defined state — see object_directory.h).
  directory_.unpublish_holder(u);
  active_[u] = 0;
  --active_count_;
  // Measure: bequeath u's live mass to its nearest active neighbor (local
  // transfer; total mass conserved exactly).
  const NodeId heir = nearest_active(u);
  RON_CHECK(heir != kInvalidNode, "leave: no active heir");
  weights_[heir] += weights_[u];
  weights_[u] = 0.0;
  // Pull u out of every ring that held it, redrawing one replacement per
  // repaired ring so ring populations keep their density.
  const auto links = std::exchange(
      inlinks_[u], std::vector<std::pair<NodeId, std::uint32_t>>{});
  inlinks_compact_at_[u] = 64;
  for (const auto& [v, idx] : links) {
    if (!active_[v]) continue;                      // stale entry
    if (!rings_.remove_member(v, idx, u)) continue; // stale entry
    repair_ring(v, idx);
  }
  // u's own pointers dissolve (stale reverse-index entries at the former
  // members are skipped on consumption and dropped at compaction).
  rings_.clear_members(u);
  net_leave(u);
  ++counters_.leaves;
  m_leave_seconds_->record(0, op_watch.elapsed_seconds());
  sync_counter_metrics();
}

void OverlayMutator::join(NodeId u) {
  const Stopwatch op_watch(*clock_);
  RON_CHECK(u < n(), "join: node " << u << " out of range");
  RON_CHECK(!active_[u], "join: node " << u << " is already active");
  active_[u] = 1;
  ++active_count_;
  // Measure: reclaim (up to) u's static weight from its nearest active
  // neighbor — the local inverse of leave()'s bequest.
  const NodeId donor = nearest_active(u);
  RON_CHECK(donor != kInvalidNode, "join: no active donor");
  const double take = std::min(weights0_[u], weights_[donor] * 0.5);
  RON_CHECK(take > 0.0, "join: donor " << donor << " has no mass to cede");
  weights_[donor] -= take;
  weights_[u] = take;
  net_join(u);
  for (std::size_t idx = 0; idx < rings_per_node_; ++idx) {
    resample_own_ring(u, idx);
  }
  push_inlinks(u);
  ++counters_.joins;
  m_join_seconds_->record(0, op_watch.elapsed_seconds());
  sync_counter_metrics();
}

void OverlayMutator::publish(const std::string& name, NodeId holder) {
  const Stopwatch op_watch(*clock_);
  RON_CHECK(holder < n() && active_[holder],
            "publish: holder " << holder << " is not active");
  const ObjectId existing = directory_.find(name);
  RON_CHECK(existing == kInvalidObject ||
                !directory_.is_holder(existing, holder),
            "publish: node " << holder << " already holds '" << name << "'");
  directory_.publish(name, holder);
  ++counters_.publishes;
  m_publish_seconds_->record(0, op_watch.elapsed_seconds());
  sync_counter_metrics();
}

void OverlayMutator::unpublish(const std::string& name, NodeId holder) {
  const Stopwatch op_watch(*clock_);
  RON_CHECK(directory_.unpublish(name, holder),
            "unpublish: node " << holder << " does not hold '" << name
                               << "'");
  ++counters_.unpublishes;
  m_unpublish_seconds_->record(0, op_watch.elapsed_seconds());
  sync_counter_metrics();
}

void OverlayMutator::apply(const ChurnTrace& trace) {
  trace.validate(n());
  for (const ChurnOp& op : trace.ops) {
    switch (op.kind) {
      case ChurnOpKind::kJoin:
        join(op.node);
        break;
      case ChurnOpKind::kLeave:
        leave(op.node);
        break;
      case ChurnOpKind::kPublish:
        publish(trace.objects[op.object], op.node);
        break;
      case ChurnOpKind::kUnpublish:
        unpublish(trace.objects[op.object], op.node);
        break;
    }
  }
}

std::shared_ptr<const LocationEpoch> OverlayMutator::commit() {
  const Stopwatch op_watch(*clock_);
  auto epoch = std::make_shared<LocationEpoch>();
  epoch->id = next_epoch_id_++;
  auto rings = std::make_shared<const RingsOfNeighbors>(rings_);
  auto directory = std::make_shared<const ObjectDirectory>(directory_);
  epoch->service =
      std::make_shared<const LocationService>(prox_, *rings, *directory);
  epoch->rings = std::move(rings);
  epoch->directory = std::move(directory);
  // The freeze deep-copy is the serving-path cost of churn (ROADMAP item
  // 3's question); its distribution lives here.
  m_commit_seconds_->record(0, op_watch.elapsed_seconds());
  return epoch;
}

// --- audit ------------------------------------------------------------------

void OverlayMutator::check_invariants() const {
  const std::size_t nn = n();
  // Active count and measure conservation.
  std::size_t live = 0;
  double mass = 0.0;
  for (NodeId u = 0; u < nn; ++u) {
    mass += weights_[u];
    if (active_[u]) {
      ++live;
      RON_CHECK(weights_[u] > 0.0, "audit: active node " << u
                                       << " has zero measure");
    } else {
      RON_CHECK(weights_[u] == 0.0, "audit: inactive node " << u
                                        << " holds measure");
    }
  }
  RON_CHECK(live == active_count_, "audit: active count drift");
  RON_CHECK(std::abs(mass - 1.0) < 1e-6, "audit: measure mass " << mass);

  // Rings: members sorted/unique/active, only active nodes own members,
  // every in-link present in the reverse index, degree accounting exact.
  std::vector<std::set<std::pair<NodeId, std::uint32_t>>> links(nn);
  for (NodeId u = 0; u < nn; ++u) {
    for (const auto& [v, idx] : inlinks_[u]) links[u].emplace(v, idx);
  }
  std::uint64_t total_degree = 0;
  std::size_t max_degree = 0;
  for (NodeId u = 0; u < nn; ++u) {
    std::set<NodeId> uni;
    std::uint32_t idx = 0;
    for (const Ring& ring : rings_.rings(u)) {
      RON_CHECK(active_[u] || ring.members.empty(),
                "audit: inactive node " << u << " owns ring members");
      RON_CHECK(std::is_sorted(ring.members.begin(), ring.members.end()),
                "audit: ring of " << u << " not sorted");
      for (std::size_t i = 0; i < ring.members.size(); ++i) {
        const NodeId w = ring.members[i];
        RON_CHECK(i == 0 || ring.members[i - 1] != w,
                  "audit: duplicate ring member");
        RON_CHECK(active_[w], "audit: inactive node " << w
                                  << " is a ring member of " << u);
        RON_CHECK(links[w].count({u, idx}) > 0,
                  "audit: reverse index misses in-link " << u << "->" << w);
        uni.insert(w);
      }
      ++idx;
    }
    RON_CHECK(uni.size() == rings_.out_degree(u),
              "audit: degree cache drift at node " << u);
    total_degree += uni.size();
    max_degree = std::max(max_degree, uni.size());
  }
  RON_CHECK(max_degree == rings_.max_out_degree(), "audit: max degree drift");
  const double avg =
      static_cast<double>(total_degree) / static_cast<double>(nn);
  RON_CHECK(std::abs(avg - rings_.avg_out_degree()) < 1e-9,
            "audit: avg degree drift");

  // Nets: members active, per-level packing (>= spacing) on small levels
  // and covering over the whole active set.
  for (int l = 0; l <= l_max_; ++l) {
    const Dist spacing = prox_.dmin() * std::ldexp(1.0, l);
    const auto& members = net_members_[l];
    RON_CHECK(std::is_sorted(members.begin(), members.end()),
              "audit: net level " << l << " not sorted");
    for (NodeId m : members) {
      RON_CHECK(active_[m], "audit: inactive net member " << m);
      RON_CHECK(net_is_member_[l][m], "audit: net membership flag drift");
    }
    if (members.size() <= 256) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          RON_CHECK(prox_.dist(members[i], members[j]) >= spacing,
                    "audit: net level " << l << " packing violated");
        }
      }
    }
    for (NodeId u = 0; u < nn; ++u) {
      if (!active_[u] || net_is_member_[l][u]) continue;
      RON_CHECK(net_covered(l, u), "audit: net level "
                                       << l << " leaves node " << u
                                       << " uncovered");
    }
  }

  // Directory: holders are active.
  for (ObjectId obj = 0; obj < directory_.num_objects(); ++obj) {
    for (NodeId h : directory_.holders(obj)) {
      RON_CHECK(active_[h], "audit: inactive holder " << h << " of '"
                                << directory_.name(obj) << "'");
    }
  }
}

}  // namespace ron
