// Tests for the unified scenario API: the key=value spec grammar (round
// trips and a table of malformed inputs that must each throw ron::Error
// naming the offending token), the metric registry (family resolution,
// parameter validation, registration hooks), the ScenarioBuilder (bit-wise
// determinism and equivalence with hand assembly), and the acceptance
// invariant that a spec -> build -> save -> load -> rebuild round trip is
// bit-identical for every registered family.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "labeling/neighbor_system.h"
#include "metric/euclidean.h"
#include "metric/line_metrics.h"
#include "metric/proximity.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "scenario/scenario_spec.h"

namespace ron {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "ron_scenario_" + tag +
              ".snapshot") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// Expects fn() to throw ron::Error whose message contains `token`.
template <typename Fn>
void expect_error_with(const std::string& token, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "no ron::Error thrown (wanted one naming '" << token
                  << "')";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "error message does not name '" << token << "': " << e.what();
  }
}

// --- spec grammar ----------------------------------------------------------

TEST(SpecParse, MinimalSpecUsesDefaults) {
  const ScenarioSpec spec = ScenarioSpec::parse("metric=geoline,n=64,seed=9");
  EXPECT_EQ(spec.family, "geoline");
  EXPECT_EQ(spec.n, 64u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.delta, 0.25);
  EXPECT_EQ(spec.overlay_seed, 7u);
  EXPECT_EQ(spec.c_x, 2.0);
  EXPECT_EQ(spec.c_y, 2.0);
  EXPECT_TRUE(spec.with_x);
  EXPECT_TRUE(spec.params.empty());
}

TEST(SpecParse, AllKeysAndFamilyParams) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=clustered,n=128,seed=3,delta=0.125,overlay_seed=42,c_x=1.5,"
      "c_y=3,with_x=0,per_cluster=8,dim=2");
  EXPECT_EQ(spec.delta, 0.125);
  EXPECT_EQ(spec.overlay_seed, 42u);
  EXPECT_EQ(spec.c_x, 1.5);
  EXPECT_EQ(spec.c_y, 3.0);
  EXPECT_FALSE(spec.with_x);
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params.at("per_cluster"), 8.0);
  EXPECT_EQ(spec.params.at("dim"), 2.0);
  const RingsModelParams rp = spec.ring_params();
  EXPECT_EQ(rp.c_x, 1.5);
  EXPECT_EQ(rp.c_y, 3.0);
  EXPECT_FALSE(rp.with_x);
}

TEST(SpecParse, ToStringRoundTripsAndIsCanonical) {
  const std::vector<std::string> specs = {
      "metric=geoline,n=64,seed=9",
      "metric=euclid,n=32,seed=1,dim=3,side=10",
      "metric=clustered,n=128,seed=3,delta=0.125,overlay_seed=42,c_x=1.5,"
      "c_y=3,with_x=0,per_cluster=8",
      "metric=torus,n=100,seed=0",
  };
  for (const std::string& text : specs) {
    const ScenarioSpec spec = ScenarioSpec::parse(text);
    EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec) << text;
    // Canonical: printing the reparse reproduces the same string.
    EXPECT_EQ(ScenarioSpec::parse(spec.to_string()).to_string(),
              spec.to_string())
        << text;
  }
  // Keys come back in canonical order regardless of input order.
  EXPECT_EQ(
      ScenarioSpec::parse("seed=2,side=9,metric=euclid,dim=3,n=16")
          .to_string(),
      "metric=euclid,n=16,seed=2,dim=3,side=9");
}

TEST(SpecParse, BadSpecsThrowNamingTheOffendingToken) {
  // The satellite contract: every malformed spec throws ron::Error whose
  // message contains the offending token. Entries marked build=true parse
  // fine and fail at registry resolution instead.
  struct BadSpec {
    const char* text;
    const char* token;
    bool build = false;
  };
  const std::vector<BadSpec> cases = {
      // parse-level: junk tokens and structural errors
      {"", "missing metric"},
      {"n=5,seed=1", "missing metric"},
      {"garbage", "'garbage' is not key=value"},
      {"=5", "'=5' is not key=value"},
      {"metric=", "empty value in 'metric='"},
      {"metric=euclid,n=", "empty value in 'n='"},
      {"metric=euclid,n=abc", "bad count in 'n=abc'"},
      {"metric=euclid,n=-4", "bad count in 'n=-4'"},
      {"metric=euclid,delta=banana", "bad number in 'delta=banana'"},
      {"metric=euclid,n=32,,seed=1", "empty token"},
      // parse-level: duplicates and out-of-range scenario knobs
      {"metric=euclid,n=32,n=64", "duplicate key 'n'"},
      {"metric=euclid,dim=2,dim=3", "duplicate key 'dim'"},
      {"metric=euclid,metric=geoline", "duplicate key 'metric'"},
      {"metric=euclid,with_x=2", "'with_x=2' must be 0 or 1"},
      {"metric=euclid,n=0", "n must be >= 1"},
      {"metric=euclid,delta=0", "delta=0 outside"},
      {"metric=euclid,delta=1.5", "delta=1.5 outside"},
      {"metric=euclid,c_x=-1", "c_x=-1 outside"},
      {"metric=euclid,c_y=0", "c_y=0 outside"},
      {"metric=euclid,delta=nan", "bad number in 'delta=nan'"},
      // registry-level: unknown family, unknown/out-of-range/non-integer
      // params, n outside the buildable range
      {"metric=marshmallow,n=32", "unknown metric family 'marshmallow'",
       true},
      {"metric=euclid,n=32,base=1.5", "does not take parameter 'base'",
       true},
      {"metric=torus,n=32,q=1", "does not take parameter 'q'", true},
      {"metric=geoline,n=32,base=9", "'base=9' out of range", true},
      {"metric=geoline,n=32,base=1", "'base=1' out of range", true},
      {"metric=euclid,n=32,dim=0", "'dim=0' out of range", true},
      {"metric=clustered,n=32,per_cluster=2.5",
       "'per_cluster=2.5' must be an integer", true},
      {"metric=euclid,n=3", "outside [4, 4000000]", true},
      {"metric=euclid,n=5000000", "outside [4, 4000000]", true},
      // churn clause: counts only, within sane bounds
      {"metric=euclid,churn=abc", "bad count in 'churn=abc'"},
      {"metric=euclid,churn=-5", "bad count in 'churn=-5'"},
      {"metric=euclid,churn=200000000", "churn=200000000 exceeds"},
      {"metric=euclid,churn_seed=1e9", "bad count in 'churn_seed=1e9'"},
      {"metric=euclid,churn=1,churn=2", "duplicate key 'churn'"},
  };
  for (const BadSpec& c : cases) {
    SCOPED_TRACE(c.text);
    expect_error_with(c.token, [&] {
      const ScenarioSpec spec = ScenarioSpec::parse(c.text);
      ASSERT_TRUE(c.build) << "parse unexpectedly succeeded";
      MetricRegistry::global().make(spec);
    });
  }
}

TEST(SpecParse, ChurnClauseParsesPrintsAndStaysOutOfParams) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=geoline,n=64,seed=9,churn=1000,churn_seed=5,base=1.25");
  EXPECT_EQ(spec.churn_ops, 1000u);
  EXPECT_EQ(spec.churn_seed, 5u);
  // The churn keys are scenario-level: they never leak into the family
  // param map the registry validates.
  ASSERT_EQ(spec.params.size(), 1u);
  EXPECT_EQ(spec.params.at("base"), 1.25);
  EXPECT_EQ(spec.to_string(),
            "metric=geoline,n=64,seed=9,churn=1000,churn_seed=5,base=1.25");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);
  // Defaults are omitted from the canonical form.
  const ScenarioSpec plain = ScenarioSpec::parse("metric=geoline,n=64,seed=9");
  EXPECT_EQ(plain.churn_ops, 0u);
  EXPECT_EQ(plain.churn_seed, 13u);
  EXPECT_EQ(plain.to_string(), "metric=geoline,n=64,seed=9");
}

// --- spec wire format ------------------------------------------------------

TEST(SpecWire, ChurnClauseRoundTripsAndChurnFreeBytesAreUnchanged) {
  // The churn keys travel inside the wire param stream under reserved
  // names; a churn-free spec must serialize to exactly its pre-churn bytes
  // (that is what keeps the committed golden fixtures bit-identical).
  const ScenarioSpec plain =
      ScenarioSpec::parse("metric=euclid,n=32,seed=1,dim=3");
  WireWriter w_plain;
  write_spec(w_plain, plain);
  {
    WireReader r(w_plain.bytes());
    EXPECT_EQ(read_spec(r), plain);
  }
  ScenarioSpec churny = plain;
  churny.churn_ops = 500;
  churny.churn_seed = 21;
  WireWriter w_churny;
  write_spec(w_churny, churny);
  EXPECT_GT(w_churny.size(), w_plain.size());
  {
    WireReader r(w_churny.bytes());
    const ScenarioSpec back = read_spec(r);
    EXPECT_EQ(back, churny);
    EXPECT_TRUE(back.params.count("churn") == 0 &&
                back.params.count("churn_seed") == 0);
  }
  // A programmatic spec that smuggles the reserved keys as family params
  // is rejected rather than silently re-interpreted.
  ScenarioSpec smuggler = plain;
  smuggler.params["churn"] = 3.0;
  WireWriter w_bad;
  expect_error_with("reserved", [&] { write_spec(w_bad, smuggler); });
}

TEST(SpecWire, RoundTripsAllFields) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=clustered,n=112,seed=3,delta=0.375,overlay_seed=9,c_x=2.5,"
      "c_y=1.25,with_x=0,dim=2,per_cluster=16");
  WireWriter w;
  write_spec(w, spec);
  WireReader r(w.bytes());
  const ScenarioSpec back = read_spec(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, spec);
}

TEST(SpecWire, EmptyFamilyRoundTrips) {
  // The "unknown provenance" spec (an artifact saved without a recipe) is
  // wire-representable.
  WireWriter w;
  write_spec(w, ScenarioSpec{});
  WireReader r(w.bytes());
  EXPECT_EQ(read_spec(r), ScenarioSpec{});
}

TEST(SpecWire, NonCanonicalParamOrderRejected) {
  // Hand-craft a spec payload whose params are out of order: the reader
  // must reject it (canonical bytes are what the golden fixtures pin).
  WireWriter w;
  w.str("euclid");
  w.u64(32);
  w.u64(1);
  w.f64(0.25);
  w.u64(7);
  w.f64(2.0);
  w.f64(2.0);
  w.u8(1);
  w.u64(2);  // two params, wrong order
  w.str("side");
  w.f64(10.0);
  w.str("dim");
  w.f64(2.0);
  WireReader r(w.bytes());
  expect_error_with("canonical order", [&] { read_spec(r); });
}

TEST(SpecWire, DuplicateParamRejected) {
  WireWriter w;
  w.str("euclid");
  w.u64(32);
  w.u64(1);
  w.f64(0.25);
  w.u64(7);
  w.f64(2.0);
  w.f64(2.0);
  w.u8(1);
  w.u64(2);
  w.str("dim");
  w.f64(2.0);
  w.str("dim");
  w.f64(3.0);
  WireReader r(w.bytes());
  expect_error_with("canonical order", [&] { read_spec(r); });
}

// --- metric registry -------------------------------------------------------

TEST(Registry, ListsAllBuiltinFamiliesSorted) {
  const std::vector<const MetricFamily*> fams =
      MetricRegistry::global().families();
  std::vector<std::string> keys;
  for (const MetricFamily* f : fams) keys.push_back(f->key);
  const std::vector<std::string> want = {"cliques", "clustered", "euclid",
                                         "geograph", "geoline", "grid",
                                         "ring",    "torus",     "uniline"};
  EXPECT_EQ(keys, want);
  for (const std::string& k : want) {
    EXPECT_TRUE(MetricRegistry::global().has(k)) << k;
  }
}

TEST(Registry, ResolveParamsFillsDefaultsAndAcceptsOverrides) {
  const MetricRegistry& reg = MetricRegistry::global();
  const ResolvedParams dflt =
      reg.resolve_params(ScenarioSpec::parse("metric=clustered,n=32"));
  EXPECT_EQ(dflt.at("per_cluster"), 16.0);
  EXPECT_EQ(dflt.at("dim"), 3.0);
  EXPECT_EQ(dflt.at("world_side"), 10000.0);
  const ResolvedParams over = reg.resolve_params(
      ScenarioSpec::parse("metric=clustered,n=32,per_cluster=4"));
  EXPECT_EQ(over.at("per_cluster"), 4.0);
  EXPECT_EQ(over.at("dim"), 3.0);
}

TEST(Registry, RegistrationHookMakesNewFamilyBuildable) {
  // The pluggability seam: a local registry (so the global one stays
  // clean), one register_family call, and the full builder pipeline works
  // for the new family.
  MetricRegistry registry;
  registry.register_family(MetricFamily{
      "halfline",
      "uniform line with half spacing (test family)",
      {{"spacing", 0.5, 0.1, 10.0, "gap"}},
      [](const ScenarioSpec& spec, const ResolvedParams& p) {
        return std::make_unique<UniformLineMetric>(
            static_cast<std::size_t>(spec.n), p.at("spacing"));
      }});
  EXPECT_TRUE(registry.has("halfline"));
  ScenarioBuilder builder(ScenarioSpec::parse("metric=halfline,n=16,seed=1"),
                          0, ProxBackend::kAuto, registry);
  EXPECT_EQ(builder.n(), 16u);
  EXPECT_EQ(builder.prox().dist(0, 2), 1.0);  // 2 * 0.5 spacing
  EXPECT_FALSE(MetricRegistry::global().has("halfline"));
}

TEST(Registry, DuplicateRegistrationRejected) {
  MetricRegistry registry;
  expect_error_with("'euclid' already registered", [&] {
    registry.register_family(MetricFamily{
        "euclid",
        "clashes with the builtin",
        {},
        [](const ScenarioSpec&, const ResolvedParams&) {
          return std::unique_ptr<MetricSpace>();
        }});
  });
}

// --- builder ---------------------------------------------------------------

TEST(Builder, CanonicalizesEffectiveN) {
  struct Case {
    const char* spec;
    std::size_t effective;
  };
  const std::vector<Case> cases = {
      {"metric=clustered,n=100,seed=1", 112},  // 7 clusters of 16
      {"metric=torus,n=50,seed=1", 64},        // 8 x 8 torus
      {"metric=grid,n=10,seed=1", 16},         // 4 x 4 grid
      {"metric=cliques,n=20,seed=1", 24},      // 3 cliques of 8
      {"metric=euclid,n=100,seed=1", 100},     // exact families stay put
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    ScenarioBuilder builder(ScenarioSpec::parse(c.spec));
    EXPECT_EQ(builder.n(), c.effective);
    EXPECT_EQ(builder.spec().n, c.effective);
    // Canonicalization is idempotent: rebuilding from the canonical spec
    // yields the same metric size again.
    ScenarioBuilder again(builder.spec());
    EXPECT_EQ(again.n(), c.effective);
  }
}

TEST(Builder, MatchesHandAssembledPipelineBitForBit) {
  // The builder must be a pure refactor of the inline pipeline the benches
  // and examples used to repeat: same metric, same labeling estimates, same
  // overlay rings, bit for bit.
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=euclid,n=32,seed=7,overlay_seed=5");
  ScenarioBuilder builder(spec);

  EuclideanMetric metric = random_cube_metric(32, 2, 7, 1000.0);
  DenseProximityIndex prox(metric);
  NeighborSystem sys(prox, 0.25);
  DistanceLabeling dls(sys);
  LocationOverlay overlay(prox, RingsModelParams{}, 5);

  ASSERT_EQ(builder.n(), prox.n());
  for (NodeId u = 0; u < prox.n(); ++u) {
    for (NodeId v = u; v < prox.n(); ++v) {
      EXPECT_EQ(builder.prox().dist(u, v), prox.dist(u, v));
      EXPECT_EQ(
          DistanceLabeling::estimate(builder.labeling().label(u),
                                     builder.labeling().label(v))
              .upper,
          DistanceLabeling::estimate(dls.label(u), dls.label(v)).upper);
    }
  }
  // Rings equality via canonical serialization.
  TempFile a("hand_a");
  TempFile b("hand_b");
  save_rings(builder.rings(), a.path(), builder.spec());
  save_rings(overlay.rings(), b.path(), builder.spec());
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(Builder, DeterministicAcrossInstancesAndThreadCounts) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "metric=clustered,n=48,seed=9,per_cluster=16,overlay_seed=3");
  ScenarioBuilder one(spec, /*num_threads=*/1);
  ScenarioBuilder two(spec, /*num_threads=*/4);
  TempFile a("det_a");
  TempFile b("det_b");
  save_rings(one.rings(), a.path(), one.spec());
  save_rings(two.rings(), b.path(), two.spec());
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
  for (NodeId u = 0; u < one.n(); ++u) {
    EXPECT_EQ(one.labeling().label(u), two.labeling().label(u));
  }
  // Directory workload regeneration is part of the recipe contract.
  const ObjectDirectory d1 = one.make_directory(6, 2);
  const ObjectDirectory d2 = two.make_directory(6, 2);
  ASSERT_EQ(d1.num_objects(), d2.num_objects());
  for (ObjectId obj = 0; obj < d1.num_objects(); ++obj) {
    EXPECT_EQ(d1.name(obj), d2.name(obj));
    const auto h1 = d1.holders(obj);
    const auto h2 = d2.holders(obj);
    EXPECT_TRUE(std::equal(h1.begin(), h1.end(), h2.begin(), h2.end()));
  }
}

TEST(Builder, YOnlyFoilSpecBuildsTheFoil) {
  ScenarioBuilder foil(
      ScenarioSpec::parse("metric=geoline,n=24,seed=1,with_x=0"));
  EXPECT_EQ(foil.overlay().model().name(), "Y-only");
  ScenarioBuilder full(ScenarioSpec::parse("metric=geoline,n=24,seed=1"));
  EXPECT_EQ(full.overlay().model().name(), "thm5.2a(X+Y)");
}

// --- acceptance: spec -> build -> save -> load -> rebuild ------------------

TEST(RoundTrip, RingsAreBitIdenticalForEveryFamily) {
  // The acceptance criterion, at the library layer (the CLI layer is
  // covered by scenario.cli_matrix): for each registered family, building
  // from a spec, snapshotting, re-parsing the embedded spec and rebuilding
  // must reproduce the snapshot bytes exactly.
  for (const MetricFamily* fam : MetricRegistry::global().families()) {
    SCOPED_TRACE(fam->key);
    const ScenarioSpec spec = ScenarioSpec::parse(
        "metric=" + fam->key + ",n=24,seed=5,overlay_seed=3");
    ScenarioBuilder first(spec);
    TempFile a("rt_" + fam->key + "_a");
    save_rings(first.rings(), a.path(), first.spec());

    ScenarioSpec embedded;
    load_rings(a.path(), &embedded);
    ScenarioBuilder second(embedded);
    TempFile b("rt_" + fam->key + "_b");
    save_rings(second.rings(), b.path(), second.spec());
    EXPECT_EQ(slurp(a.path()), slurp(b.path()));
  }
}

TEST(RoundTrip, OracleBundleIsBitIdenticalAfterRebuild) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("metric=geoline,n=24,seed=5,base=1.2");
  ScenarioBuilder first(spec);
  TempFile a("rt_oracle_a");
  save_oracle(first.spec(), first.metric().name(), first.labeling(),
              a.path());

  const LoadedOracle loaded = load_oracle(a.path());
  ScenarioBuilder second(loaded.spec);
  TempFile b("rt_oracle_b");
  save_oracle(second.spec(), second.metric().name(), second.labeling(),
              b.path());
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
  // The bundle holds the rebuilt labeling pruned to what some decode
  // reads, and answers every pair bit-identically to the construction.
  const DistanceLabeling pruned = second.labeling().pruned();
  for (NodeId u = 0; u < second.n(); ++u) {
    EXPECT_EQ(loaded.labeling.label(u), pruned.label(u));
    for (NodeId v = 0; v < second.n(); ++v) {
      const DlsEstimate got = DistanceLabeling::estimate(
          loaded.labeling.label(u), loaded.labeling.label(v));
      const DlsEstimate want = DistanceLabeling::estimate(
          second.labeling().label(u), second.labeling().label(v));
      EXPECT_EQ(got.upper, want.upper) << "(" << u << "," << v << ")";
      EXPECT_EQ(got.candidates, want.candidates)
          << "(" << u << "," << v << ")";
    }
  }
}

}  // namespace
}  // namespace ron
