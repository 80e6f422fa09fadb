// ServedState: any servable snapshot loaded into an engine the daemon can
// put on the wire.
//
// ron_served accepts the same snapshot kinds ron_oracle serves:
//
//   kOracle / kDistanceLabeling   estimate serving (no locate, no churn)
//   kObjectDirectory              locate serving over the rebuilt overlay
//   kChurnBundle                  locate serving over the replayed trace
//
// With the dense backend (the default) the two locate kinds go through an
// OverlayMutator, even when the snapshot carries no churn: the daemon's
// admin channel feeds further ChurnTrace ops through
// OverlayMutator::apply + commit() and swaps the resulting LocationEpoch
// into the live engine with OracleEngine::apply — zero-downtime epoch
// swaps under live traffic. Building the mutator up front (bit-identical
// to the static ScenarioBuilder overlay) means a directory snapshot is
// churnable from frame one, not a special case. Under the sparse backend
// (the million-node serving mode) the mutator — which needs full distance
// rows — is skipped and the directory is served as one static epoch.
//
// kRings / kNeighborSystem snapshots are construction artifacts with no
// query surface; loading one throws ron::Error.
#pragma once

#include <memory>
#include <string>

#include "churn/overlay_mutator.h"
#include "metric/sparse_proximity.h"
#include "oracle/engine.h"
#include "scenario/scenario_builder.h"

namespace ron {

struct ServedStateOptions {
  /// Engine pool/cache/clock configuration (served batches run through the
  /// same worker machinery as ron_oracle's).
  OracleOptions engine;
  /// Walk configuration, fixed per engine (cached results must never
  /// reflect a different configuration).
  LocateOptions locate;
  /// ScenarioBuilder threads for the overlay rebuild at load time
  /// (proximity rows and ring sampling; 0 = one per available CPU). The
  /// rebuilt overlay is the same for every count.
  unsigned build_threads = 0;
  /// Proximity backend for the overlay rebuild. Dense (the default) keeps
  /// directory snapshots churnable through the admin channel; sparse (or
  /// auto above the cutoff) serves static locate at scales where dense
  /// rows cannot exist — the mutator is skipped and admin churn is
  /// rejected. Churn bundles always need dense (the replay walks full
  /// rows), so a sparse rebuild of one throws the mutator's named error.
  ProxBackend backend = ProxBackend::kDense;
};

/// Declaration order is the lifetime order: the builder owns the metric the
/// mutator borrows, and both outlive the engine serving their epochs.
struct ServedState {
  std::unique_ptr<ScenarioBuilder> builder;  // null for estimate snapshots
  std::unique_ptr<OverlayMutator> mutator;   // null for estimate snapshots
  std::unique_ptr<OracleEngine> engine;      // never null after load

  bool can_estimate() const { return engine->has_labeling(); }
  bool can_locate() const { return engine->has_location(); }
  /// The admin channel needs a mutator to extend the overlay's history.
  bool can_churn() const { return mutator != nullptr; }
};

/// Loads `path` into serving state (see the kind table above). Throws
/// ron::Error for unreadable/corrupt files and unservable kinds.
ServedState load_served_state(const std::string& path,
                              const ServedStateOptions& opts);

}  // namespace ron
