#include "oracle/snapshot.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>

#include "oracle/wire.h"

namespace ron {

namespace {

bool kind_is_known(std::uint32_t k) {
  return k >= static_cast<std::uint32_t>(SnapshotKind::kRings) &&
         k <= static_cast<std::uint32_t>(SnapshotKind::kChurnBundle);
}

std::uint32_t kind_id(SnapshotKind kind) {
  return static_cast<std::uint32_t>(kind);
}

/// When the spec names a family it is a real recipe and must agree with the
/// artifact's node count; an empty family ("unknown provenance") may keep
/// its default n.
void check_spec_n(const ScenarioSpec& spec, std::size_t artifact_n,
                  const char* what) {
  RON_CHECK(spec.family.empty() || spec.n == artifact_n,
            "snapshot: scenario spec n=" << spec.n << " != " << what
                                         << " n=" << artifact_n);
}

/// Checks the section kind of a freshly opened reader (its constructor has
/// validated the magic, the version and the exact length, and seeded
/// the checksum) and returns the header fields. The checksum itself is
/// verified by expect_done() after the last payload byte, and read_count
/// bounds any allocation a corrupt prefix could request in the meantime,
/// so corruption still surfaces as ron::Error before a loaded object
/// escapes.
SnapshotInfo open_section(const WireStreamReader& r, const std::string& path) {
  const WireStreamReader::Header& h = r.header();
  RON_CHECK(kind_is_known(h.kind),
            "snapshot: " << path << " has unknown section kind " << h.kind);
  SnapshotInfo info;
  info.kind = static_cast<SnapshotKind>(h.kind);
  info.version = h.version;
  info.payload_bytes = h.payload_bytes;
  info.checksum = h.checksum;
  return info;
}

SnapshotInfo open_section_of_kind(const WireStreamReader& r,
                                  const std::string& path,
                                  SnapshotKind want) {
  SnapshotInfo info = open_section(r, path);
  RON_CHECK(info.kind == want,
            "snapshot: " << path << " holds section kind "
                         << kind_id(info.kind) << ", expected "
                         << kind_id(want));
  return info;
}

void write_node_list(WireWriter& w, std::span<const NodeId> xs) {
  w.u64(xs.size());
  for (NodeId v : xs) w.u32(v);
}

/// Node list with every id validated against n (kInvalidNode rejected).
std::vector<NodeId> read_node_list(WireReader& r, std::size_t n,
                                   const char* what) {
  const std::uint64_t count = r.read_count(sizeof(NodeId), what);
  std::vector<NodeId> xs;
  xs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const NodeId v = r.u32();
    RON_CHECK(v < n, "snapshot: " << what << " id " << v
                                  << " out of range (n=" << n << ")");
    xs.push_back(v);
  }
  return xs;
}

std::uint32_t int_to_u32(int v) {
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
}
int u32_to_int(std::uint32_t v) {
  return static_cast<int>(static_cast<std::int32_t>(v));
}

// The labeling payload is shared between the kDistanceLabeling section and
// the kOracle bundle.
void write_labeling_payload(WireWriter& w, const DistanceLabeling& dls) {
  const DistanceCodec& codec = dls.codec();
  w.u32(static_cast<std::uint32_t>(codec.mantissa_bits()));
  w.u32(static_cast<std::uint32_t>(codec.exponent_bits()));
  w.u32(int_to_u32(codec.min_exp()));
  w.u32(int_to_u32(codec.max_exp()));
  w.f64(codec.max_relative_error());
  w.u64(dls.psi_bits());
  w.u64(dls.id_bits());
  w.u64(dls.n());
  for (NodeId u = 0; u < dls.n(); ++u) write_label(w, dls.label(u));
}

// A loaded label carries fewer zeta levels than this (see
// read_labeling_payload).
constexpr std::uint64_t kMaxZetaLevels = 32;

/// One zeta level (see write_label), expanded to its (x, y, z) triples in
/// (x, y) order for DlsZeta::from_triples.
void read_zeta_rows(WireReader& r, std::size_t hosts,
                    std::vector<DlsTriple>& triples) {
  // An entry is at least a one-byte y gap and a one-byte z.
  const std::uint64_t count = r.read_varint_count(2, "zeta entry");
  triples.resize(static_cast<std::size_t>(count));
  std::size_t k = 0;
  for (std::size_t x = 0; x < hosts; ++x) {
    const std::uint64_t len = r.varint();
    RON_CHECK(len <= count - k, "snapshot: zeta rows run past the level's "
                                    << count << " entries at row " << x);
    std::uint64_t y = 0;
    for (std::uint64_t e = 0; e < len; ++e) {
      const std::uint64_t gap = r.varint();
      RON_CHECK(gap <= std::numeric_limits<std::uint32_t>::max() - y,
                "snapshot: zeta y past u32 in row " << x);
      y += gap;
      const std::uint64_t z = r.varint();
      RON_CHECK(z < hosts, "snapshot: zeta z=" << z << " in row " << x
                                               << " at or above " << hosts
                                               << " hosts");
      triples[k++] = DlsTriple{static_cast<std::uint32_t>(x),
                               static_cast<std::uint32_t>(y),
                               static_cast<std::uint32_t>(z)};
    }
  }
  RON_CHECK(k == count, "snapshot: zeta rows hold " << k << " of the level's "
                                                    << count << " entries");
}

DistanceLabeling read_labeling_payload(WireReader& r) {
  const int mantissa_bits = u32_to_int(r.u32());
  const int exponent_bits = u32_to_int(r.u32());
  const int min_exp = u32_to_int(r.u32());
  const int max_exp = u32_to_int(r.u32());
  const double rel_error = r.f64();
  DistanceCodec codec = DistanceCodec::from_parts(
      mantissa_bits, exponent_bits, min_exp, max_exp, rel_error);
  const std::uint64_t psi_bits = r.u64();
  const std::uint64_t id_bits = r.u64();
  // A label is at least id + host count + zeta count + zoom0 + zoom count.
  const std::uint64_t n = r.read_count(4 + 8 + 8 + 4 + 8, "label");
  RON_CHECK(n >= 1, "snapshot: labeling with zero nodes");
  std::vector<DlsLabel> labels(static_cast<std::size_t>(n));
  std::vector<DlsTriple> triples;  // one level's zeta as it streams in
  for (std::uint64_t u = 0; u < n; ++u) {
    DlsLabel& lab = labels[static_cast<std::size_t>(u)];
    lab.id = r.u32();
    const std::uint64_t hosts = r.read_count(sizeof(double), "host distance");
    lab.host_dist.resize(static_cast<std::size_t>(hosts));
    for (auto& d : lab.host_dist) {
      d = r.f64();
      RON_CHECK(std::isfinite(d) && d >= 0.0,
                "snapshot: host distance not finite/non-negative");
    }
    // Each level holds hosts + 1 row offsets however few triples it has,
    // so the level count is capped by structure, not only by the payload:
    // n < 2^32 nodes give ceil(log2 n) - 1 < 32 levels.
    const std::uint64_t levels = r.read_count(sizeof(std::uint64_t), "zeta");
    RON_CHECK(levels < kMaxZetaLevels,
              "snapshot: " << levels << " zeta levels in label " << u);
    lab.zeta.reserve(static_cast<std::size_t>(levels));
    for (std::uint64_t i = 0; i < levels; ++i) {
      read_zeta_rows(r, lab.host_dist.size(), triples);
      lab.zeta.push_back(DlsZeta::from_triples(triples, lab.host_dist.size()));
    }
    lab.zoom0 = r.u32();
    const std::uint64_t zooms =
        r.read_count(sizeof(std::uint32_t), "zoom entry");
    lab.zoom.resize(static_cast<std::size_t>(zooms));
    for (auto& y : lab.zoom) y = r.u32();
  }
  // from_triples has validated each level's rows; from_parts checks ids,
  // zoom0 and each level's row count against its label's host count.
  return DistanceLabeling::from_parts(codec, psi_bits, id_bits,
                                      std::move(labels));
}

void write_directory_payload(WireWriter& w, const ObjectDirectory& dir) {
  w.u64(dir.num_objects());
  for (ObjectId obj = 0; obj < dir.num_objects(); ++obj) {
    w.str(dir.name(obj));
    write_node_list(w, dir.holders(obj));
  }
}

ObjectDirectory read_directory_payload(WireReader& r, std::size_t n) {
  ObjectDirectory dir(n);
  // Every object costs at least a name length + a holder count.
  const std::uint64_t objects =
      r.read_count(2 * sizeof(std::uint64_t), "object");
  for (std::uint64_t i = 0; i < objects; ++i) {
    const std::string name = r.str();
    RON_CHECK(!name.empty(), "snapshot: empty object name");
    RON_CHECK(dir.find(name) == kInvalidObject,
              "snapshot: duplicate object name '" << name << "'");
    // declare-then-publish keeps fully-unpublished objects (zero holders)
    // loadable; publish re-sorts and dedups, so holder accounting is
    // recomputed rather than trusted.
    dir.declare(name);
    for (NodeId v : read_node_list(r, n, "holder")) {
      dir.publish(name, v);
    }
  }
  return dir;
}

/// Loads a directory (as a bundle with an empty trace) or a churn bundle,
/// refusing every other kind and, when `want` is set, the other of the
/// two. Both rebuild their overlay from the recipe, so it must name a
/// family.
LoadedChurnBundle load_overlay(const std::string& path,
                               std::optional<SnapshotKind> want,
                               SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = want ? open_section_of_kind(r, path, *want)
                                  : open_section(r, path);
  const bool bundle = local.kind == SnapshotKind::kChurnBundle;
  RON_CHECK(bundle || local.kind == SnapshotKind::kObjectDirectory,
            "snapshot: " << path << " holds section kind "
                         << kind_id(local.kind)
                         << ", expected a directory or a churn bundle");
  const char* what = bundle ? "churn bundle" : "directory";
  ScenarioSpec spec = read_spec(r);
  RON_CHECK(!spec.family.empty(),
            "snapshot: " << what << " recipe is missing its metric family");
  RON_CHECK(spec.n <= kInvalidNode,
            "snapshot: " << what << " node count " << spec.n);
  const std::size_t n = static_cast<std::size_t>(spec.n);
  ObjectDirectory initial = read_directory_payload(r, n);
  ChurnTrace trace = bundle ? read_trace_payload(r, n) : ChurnTrace{};
  r.expect_done();
  if (info != nullptr) *info = local;
  return LoadedChurnBundle{std::move(spec), std::move(initial),
                           std::move(trace)};
}

}  // namespace

void write_label(WireWriter& w, const DlsLabel& label) {
  w.u32(label.id);
  w.u64(label.host_dist.size());
  for (Dist d : label.host_dist) w.f64(d);
  w.u64(label.zeta.size());
  for (const DlsZeta& zeta : label.zeta) {
    // The level layout is documented on write_label in snapshot.h.
    w.varint(zeta.size());
    for (std::uint32_t x = 0; x < zeta.rows(); ++x) {
      const std::span<const DlsZetaEntry> row = zeta.row(x);
      w.varint(row.size());
      std::uint32_t y = 0;
      for (const DlsZetaEntry& e : row) {
        w.varint(e.y - y);
        w.varint(e.z);
        y = e.y;
      }
    }
  }
  w.u32(label.zoom0);
  w.u64(label.zoom.size());
  for (std::uint32_t y : label.zoom) w.u32(y);
}

SnapshotInfo inspect_snapshot(const std::string& path) {
  // Verifies length and checksum in one bounded-memory pass, so
  // inspecting a multi-GB snapshot never loads it.
  WireStreamReader r(path);
  const SnapshotInfo info = open_section(r, path);
  r.drain();
  r.expect_done();
  return info;
}

std::uint32_t peek_snapshot_kind(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  // The container header (wire.h) starts magic[8], version u32, kind u32.
  std::uint8_t hdr[sizeof(kSnapshotMagic) + 2 * sizeof(std::uint32_t)];
  if (read_stream_prefix(in, hdr) != sizeof(hdr)) return 0;
  if (std::memcmp(hdr, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) return 0;
  WireReader rd(std::span(hdr + sizeof(kSnapshotMagic), 2 * sizeof(std::uint32_t)));
  rd.u32();  // version (the caller routes on kind alone)
  return rd.u32();
}

void save_rings(const RingsOfNeighbors& rings, const std::string& path,
                const ScenarioSpec& spec) {
  check_spec_n(spec, rings.n(), "rings");
  WireStreamWriter w(path, kind_id(SnapshotKind::kRings));
  write_spec(w, spec);
  w.u64(rings.n());
  // Visitation accessors instead of the rings() span, so sealed (compact)
  // and mutable containers write byte-identical snapshots.
  std::vector<NodeId> members;
  for (NodeId u = 0; u < rings.n(); ++u) {
    const std::size_t nr = rings.num_rings(u);
    w.u64(nr);
    for (std::size_t k = 0; k < nr; ++k) {
      w.f64(rings.ring_scale(u, k));
      members.clear();
      rings.visit_ring(u, k, [&](NodeId v) { members.push_back(v); });
      write_node_list(w, members);
    }
  }
  w.finish();
}

RingsOfNeighbors load_rings(const std::string& path, ScenarioSpec* spec,
                            SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local =
      open_section_of_kind(r, path, SnapshotKind::kRings);
  const ScenarioSpec embedded = read_spec(r);
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t), "node");
  RON_CHECK(n >= 1 && n <= kInvalidNode, "snapshot: rings node count " << n);
  RingsOfNeighbors rings(static_cast<std::size_t>(n));
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t num_rings =
        r.read_count(sizeof(double) + sizeof(std::uint64_t), "ring");
    for (std::uint64_t k = 0; k < num_rings; ++k) {
      Ring ring;
      ring.scale = r.f64();
      ring.members =
          read_node_list(r, static_cast<std::size_t>(n), "ring member");
      // add_ring re-sorts, dedups and rebuilds the degree caches, so the
      // loaded accounting is recomputed rather than trusted.
      rings.add_ring(static_cast<NodeId>(u), std::move(ring));
    }
  }
  r.expect_done();
  check_spec_n(embedded, rings.n(), "rings");
  if (info != nullptr) *info = local;
  if (spec != nullptr) *spec = embedded;
  return rings;
}

void save_neighbor_system(const NeighborSystem& sys, const std::string& path,
                          const ScenarioSpec& spec) {
  const std::size_t n = sys.prox().n();
  check_spec_n(spec, n, "neighbor system");
  const int levels = sys.num_levels();
  const int zscales = sys.num_z_scales();
  WireStreamWriter w(path, kind_id(SnapshotKind::kNeighborSystem));
  write_spec(w, spec);
  w.u64(n);
  w.f64(sys.delta());
  w.f64(sys.profile().y_ball_factor);
  w.f64(sys.profile().y_net_divisor);
  w.f64(sys.profile().z_net_divisor);
  w.u32(static_cast<std::uint32_t>(levels));
  w.u32(static_cast<std::uint32_t>(zscales));
  for (NodeId u = 0; u < n; ++u) {
    for (int i = 0; i < levels; ++i) {
      w.f64(sys.r(u, i));
      w.u32(sys.nearest_x(u, i));  // may be kInvalidNode
      w.u32(sys.f(u, i));
      w.u32(int_to_u32(sys.y_level(u, i)));
      write_node_list(w, sys.X(u, i));
      write_node_list(w, sys.Y(u, i));
    }
    for (int j = 1; j <= zscales; ++j) write_node_list(w, sys.Z(u, j));
    write_node_list(w, sys.Z_all(u));
    write_node_list(w, sys.X_all(u));
    write_node_list(w, sys.host_set(u));
    write_node_list(w, sys.virtual_set(u));
  }
  w.finish();
}

NeighborSystemSnapshot load_neighbor_system(const std::string& path,
                                            ScenarioSpec* spec,
                                            SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local =
      open_section_of_kind(r, path, SnapshotKind::kNeighborSystem);
  const ScenarioSpec embedded = read_spec(r);
  NeighborSystemSnapshot s;
  const std::uint64_t n = r.read_count(sizeof(std::uint64_t), "node");
  RON_CHECK(n >= 1 && n <= kInvalidNode,
            "snapshot: neighbor system node count " << n);
  s.n_ = static_cast<std::size_t>(n);
  s.delta_ = r.f64();
  RON_CHECK(s.delta_ > 0.0 && s.delta_ < 1.0,
            "snapshot: delta " << s.delta_ << " outside (0,1)");
  s.profile_.y_ball_factor = r.f64();
  s.profile_.y_net_divisor = r.f64();
  s.profile_.z_net_divisor = r.f64();
  s.num_levels_ = u32_to_int(r.u32());
  s.num_z_scales_ = u32_to_int(r.u32());
  RON_CHECK(s.num_levels_ >= 1 && s.num_levels_ <= 64,
            "snapshot: level count " << s.num_levels_);
  RON_CHECK(s.num_z_scales_ >= 1 && s.num_z_scales_ <= 4096,
            "snapshot: z-scale count " << s.num_z_scales_);
  // The reserves below are sized from n x levels before any of those bytes
  // are read, so bound the product by the unread payload: a level costs at
  // least its radius, nearest, f, y_level and two list counts, and a node
  // adds a count per Z scale and four set counts.
  const std::uint64_t node_bytes =
      static_cast<std::uint64_t>(s.num_levels_) * (8 + 4 + 4 + 4 + 8 + 8) +
      (static_cast<std::uint64_t>(s.num_z_scales_) + 4) * 8;
  RON_CHECK(n <= r.remaining() / node_bytes,
            "snapshot: implausible neighbor system node count "
                << n << " for " << s.num_levels_ << " levels and "
                << s.num_z_scales_ << " z-scales (" << r.remaining()
                << " bytes left, " << node_bytes << " per node)");
  const std::size_t per_level = s.n_ * static_cast<std::size_t>(s.num_levels_);
  s.r_.reserve(per_level);
  s.nearest_x_.reserve(per_level);
  s.f_.reserve(per_level);
  s.y_level_.reserve(per_level);
  s.x_.reserve(per_level);
  s.y_.reserve(per_level);
  for (std::size_t u = 0; u < s.n_; ++u) {
    for (int i = 0; i < s.num_levels_; ++i) {
      const Dist radius = r.f64();
      RON_CHECK(std::isfinite(radius) && radius >= 0.0,
                "snapshot: level radius not finite/non-negative");
      s.r_.push_back(radius);
      const NodeId nearest = r.u32();
      RON_CHECK(nearest < s.n_ || nearest == kInvalidNode,
                "snapshot: nearest_x out of range");
      s.nearest_x_.push_back(nearest);
      const NodeId fu = r.u32();
      RON_CHECK(fu < s.n_, "snapshot: zooming node out of range");
      s.f_.push_back(fu);
      const int ylev = u32_to_int(r.u32());
      RON_CHECK(ylev >= 0 && ylev <= 4096, "snapshot: y_level " << ylev);
      s.y_level_.push_back(ylev);
      s.x_.push_back(read_node_list(r, s.n_, "X member"));
      s.y_.push_back(read_node_list(r, s.n_, "Y member"));
    }
    for (int j = 1; j <= s.num_z_scales_; ++j) {
      s.z_.push_back(read_node_list(r, s.n_, "Z member"));
    }
    s.z_all_.push_back(read_node_list(r, s.n_, "Z_all member"));
    s.x_all_.push_back(read_node_list(r, s.n_, "X_all member"));
    s.host_.push_back(read_node_list(r, s.n_, "host member"));
    s.virtual_.push_back(read_node_list(r, s.n_, "virtual member"));
  }
  r.expect_done();
  check_spec_n(embedded, s.n_, "neighbor system");
  if (info != nullptr) *info = local;
  if (spec != nullptr) *spec = embedded;
  return s;
}

void save_labeling(const DistanceLabeling& dls, const std::string& path,
                   const ScenarioSpec& spec) {
  check_spec_n(spec, dls.n(), "labeling");
  WireStreamWriter w(path, kind_id(SnapshotKind::kDistanceLabeling));
  write_spec(w, spec);
  write_labeling_payload(w, dls);
  w.finish();
}

DistanceLabeling load_labeling(const std::string& path, ScenarioSpec* spec,
                               SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local =
      open_section_of_kind(r, path, SnapshotKind::kDistanceLabeling);
  const ScenarioSpec embedded = read_spec(r);
  DistanceLabeling dls = read_labeling_payload(r);
  r.expect_done();
  check_spec_n(embedded, dls.n(), "labeling");
  if (info != nullptr) *info = local;
  if (spec != nullptr) *spec = embedded;
  return dls;
}

void save_oracle(const ScenarioSpec& spec, const std::string& metric_name,
                 const DistanceLabeling& dls, const std::string& path) {
  RON_CHECK(spec.n == dls.n(),
            "save_oracle: spec n " << spec.n << " != labeling n " << dls.n());
  WireStreamWriter w(path, kind_id(SnapshotKind::kOracle));
  write_spec(w, spec);
  w.str(metric_name);
  write_labeling_payload(w, dls.pruned());
  w.finish();
}

LoadedOracle load_oracle(const std::string& path, SnapshotInfo* info) {
  WireStreamReader r(path);
  const SnapshotInfo local = open_section_of_kind(r, path, SnapshotKind::kOracle);
  ScenarioSpec spec = read_spec(r);
  std::string metric_name = r.str();
  DistanceLabeling dls = read_labeling_payload(r);
  r.expect_done();
  RON_CHECK(spec.n == dls.n(), "snapshot: oracle spec n "
                                   << spec.n << " != labeling n "
                                   << dls.n());
  if (info != nullptr) *info = local;
  return LoadedOracle{std::move(spec), std::move(metric_name),
                      std::move(dls)};
}

void save_directory(const ScenarioSpec& spec, const ObjectDirectory& dir,
                    const std::string& path) {
  RON_CHECK(!spec.family.empty(),
            "save_directory: the scenario spec must name a metric family "
            "(the stored recipe is what locate rebuilds from)");
  RON_CHECK(spec.n == dir.n(), "save_directory: spec n " << spec.n
                                   << " != directory n " << dir.n());
  WireStreamWriter w(path, kind_id(SnapshotKind::kObjectDirectory));
  write_spec(w, spec);
  write_directory_payload(w, dir);
  w.finish();
}

void save_churn_bundle(const ScenarioSpec& spec,
                       const ObjectDirectory& initial,
                       const ChurnTrace& trace, const std::string& path) {
  RON_CHECK(!spec.family.empty(),
            "save_churn_bundle: the scenario spec must name a metric family "
            "(the stored recipe is what replay rebuilds from)");
  RON_CHECK(spec.n == initial.n(), "save_churn_bundle: spec n "
                                       << spec.n << " != directory n "
                                       << initial.n());
  trace.validate(initial.n());
  WireStreamWriter w(path, kind_id(SnapshotKind::kChurnBundle));
  write_spec(w, spec);
  write_directory_payload(w, initial);
  write_trace_payload(w, trace);
  w.finish();
}

LoadedChurnBundle load_churn_bundle(const std::string& path,
                                    SnapshotInfo* info) {
  return load_overlay(path, SnapshotKind::kChurnBundle, info);
}

LoadedDirectory load_directory(const std::string& path, SnapshotInfo* info) {
  LoadedChurnBundle loaded =
      load_overlay(path, SnapshotKind::kObjectDirectory, info);
  return LoadedDirectory{std::move(loaded.spec), std::move(loaded.initial)};
}

LoadedChurnBundle load_overlay_recipe(const std::string& path,
                                      SnapshotInfo* info) {
  return load_overlay(path, std::nullopt, info);
}

}  // namespace ron
