#include "served/served_state.h"

#include <utility>

#include "common/check.h"
#include "oracle/snapshot.h"

namespace ron {

namespace {

/// Overlay serving state for a directory or churn bundle: rebuild the
/// static overlay from the embedded recipe, replay any stored trace, and
/// commit the first epoch. Mirrors ron_oracle's load path, except the
/// mutator is unconditional so the admin channel can keep mutating.
ServedState load_overlay(const std::string& path,
                         const ServedStateOptions& opts) {
  ServedState state;
  SnapshotInfo info;
  LoadedChurnBundle recipe = load_overlay_recipe(path, &info);
  state.builder = std::make_unique<ScenarioBuilder>(
      recipe.spec, opts.build_threads, opts.backend);
  RON_CHECK(state.builder->n() == recipe.initial.n(),
            "served: scenario rebuilds n = "
                << state.builder->n() << ", snapshot directory has n = "
                << recipe.initial.n());
  if (state.builder->sparse_backend() &&
      info.kind != SnapshotKind::kChurnBundle) {
    // Million-node serving mode: no mutator (it needs full distance rows),
    // one static epoch over the compact sealed rings. A churn bundle falls
    // through to the mutator below so its replay requirement surfaces as
    // the mutator's named error rather than silently skipping the trace.
    auto epoch = std::make_shared<LocationEpoch>();
    epoch->id = 1;
    auto directory =
        std::make_shared<const ObjectDirectory>(std::move(recipe.initial));
    epoch->service = std::make_shared<const LocationService>(
        state.builder->prox(), state.builder->rings(), *directory);
    epoch->directory = std::move(directory);
    state.engine = std::make_unique<OracleEngine>(std::move(epoch),
                                                  opts.engine, opts.locate);
    return state;
  }
  state.mutator = std::make_unique<OverlayMutator>(
      state.builder->prox(), state.builder->spec(), std::move(recipe.initial),
      opts.engine.clock);
  if (!recipe.trace.ops.empty()) state.mutator->apply(recipe.trace);
  state.engine = std::make_unique<OracleEngine>(state.mutator->commit(),
                                                opts.engine, opts.locate);
  return state;
}

}  // namespace

ServedState load_served_state(const std::string& path,
                              const ServedStateOptions& opts) {
  // Header peek picks the load path; the follow-up load performs the real
  // validation (magic, checksum, bounds) — same pattern as ron_oracle.
  const auto kind = static_cast<SnapshotKind>(peek_snapshot_kind(path));
  switch (kind) {
    case SnapshotKind::kOracle: {
      ServedState state;
      state.engine = std::make_unique<OracleEngine>(
          load_oracle(path).labeling, opts.engine);
      return state;
    }
    case SnapshotKind::kDistanceLabeling: {
      ServedState state;
      state.engine =
          std::make_unique<OracleEngine>(load_labeling(path), opts.engine);
      return state;
    }
    case SnapshotKind::kObjectDirectory:
    case SnapshotKind::kChurnBundle:
      return load_overlay(path, opts);
    case SnapshotKind::kRings:
    case SnapshotKind::kNeighborSystem:
      RON_CHECK(false, "served: snapshot '"
                           << path << "' (kind "
                           << static_cast<std::uint32_t>(kind)
                           << ") is a construction artifact with no query "
                              "surface — serve an oracle, labeling, "
                              "directory or churn-bundle snapshot");
  }
  // Unknown kind byte: run the full validation for the real error message
  // (bad magic, truncation, wrong checksum, ...).
  inspect_snapshot(path);
  RON_CHECK(false, "served: snapshot '"
                       << path << "' has unservable kind "
                       << static_cast<std::uint32_t>(kind));
  return {};  // unreachable
}

}  // namespace ron
