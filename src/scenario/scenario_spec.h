// ScenarioSpec: one value that names everything a paper construction needs.
//
// Every consumer of this library — the CLI, the benches, the examples, the
// snapshot files — parameterizes the same pipeline: pick a metric family,
// instantiate it at some size from a seed, then build nets, a doubling
// measure, rings, and optionally a distance labeling or location overlay on
// top. A ScenarioSpec is that parameterization as a first-class value:
//
//   metric=geoline,n=256,seed=1,base=1.3,overlay_seed=7
//
// It parses from the compact key=value,... grammar above (see
// ScenarioSpec::parse), prints back canonically (to_string), and travels
// inside every snapshot section (write_spec/read_spec in the wire format),
// so a snapshot is self-describing: `ron_oracle info` prints the spec back,
// and `locate` rebuilds the exact metric and overlay from it.
//
// Scenario-level keys (family-independent):
//   metric        metric family key, resolved by MetricRegistry (required)
//   n             requested node count (families may round it up; builders
//                 canonicalize the spec to the effective count)
//   seed          metric generator seed
//   delta         labeling quality parameter (NeighborSystem's delta)
//   overlay_seed  ring-sampling (and synthetic-publish) seed
//   c_x, c_y      Theorem 5.2(a) ring sample factors
//   with_x        1 = X+Y rings, 0 = the Y-only O(log Δ) foil
//   churn         optional dynamic-workload clause: number of synthetic
//                 churn ops (join/leave/publish/unpublish) to generate and
//                 apply on top of the static build (0 = static scenario)
//   churn_seed    seed of the churn trace generator
//
// Every other key is a per-family parameter (numeric), validated by the
// registry against the family's declared table. The churn keys are
// scenario-level but travel on the wire inside the parameter stream under
// their own (reserved) names, so a churn-free spec's bytes are unchanged
// from before the clause existed — committed golden snapshots stay
// bit-identical.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "smallworld/rings_model.h"

namespace ron {

class WireReader;
class WireWriter;

struct ScenarioSpec {
  std::string family;  // empty = unknown provenance (saved without a recipe)
  std::uint64_t n = 256;
  std::uint64_t seed = 1;
  double delta = 0.25;
  std::uint64_t overlay_seed = 7;
  double c_x = 2.0;
  double c_y = 2.0;
  bool with_x = true;
  /// churn= clause: synthetic churn ops to layer on the static build
  /// (0 = none). Consumed by the churn subsystem (src/churn/), the
  /// `ron_oracle churn` subcommand and bench_churn; the static builders
  /// ignore it.
  std::uint64_t churn_ops = 0;
  std::uint64_t churn_seed = 13;
  /// Per-family parameters, keyed canonically (sorted; std::map keeps them
  /// so). Only explicitly-set parameters appear; the registry fills in
  /// family defaults at build time.
  std::map<std::string, double> params;

  /// Parses the key=value,... grammar. Throws ron::Error naming the
  /// offending token for junk tokens, duplicate keys, malformed numbers,
  /// out-of-range scenario-level values, and a missing metric= key.
  static ScenarioSpec parse(const std::string& text);

  /// Canonical compact form: scenario-level keys in fixed order (defaults
  /// omitted, metric/n/seed always present), then family params sorted by
  /// key. parse(to_string()) == *this.
  std::string to_string() const;

  /// The Theorem 5.2(a) ring profile encoded by this spec.
  RingsModelParams ring_params() const {
    RingsModelParams p;
    p.c_x = c_x;
    p.c_y = c_y;
    p.with_x = with_x;
    return p;
  }

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Wire-format round trip (the snapshot payload embedding). read_spec
/// validates every field range and the canonical param ordering, so a
/// corrupted spec throws ron::Error instead of producing a nonsense recipe.
/// Snapshot files pass their stream classes, which are a WireWriter and a
/// WireReader.
void write_spec(WireWriter& w, const ScenarioSpec& spec);
ScenarioSpec read_spec(WireReader& r);

}  // namespace ron
