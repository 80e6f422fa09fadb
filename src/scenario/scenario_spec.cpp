#include "scenario/scenario_spec.h"

#include <charconv>
#include <cmath>
#include <set>
#include <system_error>

#include "common/check.h"
#include "oracle/wire.h"

namespace ron {

namespace {

/// Loosest sane bounds for the scenario-level knobs; family parameters get
/// their own ranges from the registry. Hard limits exist so a parsed or
/// wire-loaded spec can never describe an unbuildable scenario (n = 0, a
/// negative sample factor, delta outside the triangulation's domain).
constexpr double kMaxRingFactor = 1e6;
/// A churn trace op is ~9 wire bytes; 1e8 ops is already a multi-GB trace.
constexpr std::uint64_t kMaxChurnOps = 100000000;
/// Reserved scenario-level keys that travel inside the wire parameter
/// stream (so churn-free specs keep their pre-churn bytes). They are popped
/// back into the dedicated fields on read and may never appear as family
/// params.
constexpr const char* kReservedParamKeys[] = {"churn", "churn_seed"};

double parse_double(const std::string& token, const std::string& value) {
  double v = 0.0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  auto [p, ec] = std::from_chars(first, last, v);
  RON_CHECK(ec == std::errc() && p == last && std::isfinite(v),
            "scenario spec: bad number in '" << token << "'");
  return v;
}

std::uint64_t parse_u64(const std::string& token, const std::string& value) {
  std::uint64_t v = 0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  auto [p, ec] = std::from_chars(first, last, v);
  RON_CHECK(ec == std::errc() && p == last,
            "scenario spec: bad count in '" << token << "'");
  return v;
}

/// Shortest round-trip decimal for a double ("2" for 2.0, "1.3" for 1.3).
std::string fmt_double(double v) {
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  RON_CHECK(ec == std::errc(), "scenario spec: unprintable double");
  return std::string(buf, p);
}

void validate_ranges(const ScenarioSpec& spec) {
  RON_CHECK(spec.n >= 1, "scenario spec: n must be >= 1");
  RON_CHECK(std::isfinite(spec.delta) && spec.delta > 0.0 && spec.delta < 1.0,
            "scenario spec: delta=" << spec.delta << " outside (0, 1)");
  RON_CHECK(std::isfinite(spec.c_x) && spec.c_x >= 0.0 &&
                spec.c_x <= kMaxRingFactor,
            "scenario spec: c_x=" << spec.c_x << " outside [0, 1e6]");
  RON_CHECK(std::isfinite(spec.c_y) && spec.c_y > 0.0 &&
                spec.c_y <= kMaxRingFactor,
            "scenario spec: c_y=" << spec.c_y << " outside (0, 1e6]");
  RON_CHECK(spec.churn_ops <= kMaxChurnOps,
            "scenario spec: churn=" << spec.churn_ops << " exceeds "
                                    << kMaxChurnOps);
  // The wire format carries the churn keys as f64 param values; a seed
  // beyond 2^53 would round-trip lossily, so it is rejected up front.
  RON_CHECK(spec.churn_seed < (1ull << 53),
            "scenario spec: churn_seed=" << spec.churn_seed
                                         << " must fit an exact double "
                                            "(< 2^53)");
}

/// The full invariant a spec must satisfy to travel on the wire — shared by
/// write_spec and read_spec so a save either throws immediately or produces
/// a loadable file (a programmatically built spec can violate what parse()
/// would have rejected).
void validate_wire_spec(const ScenarioSpec& spec) {
  validate_ranges(spec);
  RON_CHECK(spec.family.size() <= 64, "scenario spec: family name of "
                                          << spec.family.size() << " bytes");
  for (const auto& [key, value] : spec.params) {
    RON_CHECK(!key.empty() && key.size() <= 64,
              "scenario spec: param key of " << key.size() << " bytes");
    RON_CHECK(std::isfinite(value),
              "scenario spec: param '" << key << "' not finite");
    for (const char* reserved : kReservedParamKeys) {
      RON_CHECK(key != reserved, "scenario spec: '"
                                     << key
                                     << "' is a reserved scenario-level key, "
                                        "not a family parameter");
    }
  }
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  bool saw_metric = false;
  std::set<std::string> seen;  // every key, scenario-level and per-family
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) {
      // Allow a trailing comma / empty spec to fall through to the
      // missing-metric error below rather than a confusing token error.
      if (pos > text.size()) break;
      throw Error("scenario spec: empty token (doubled comma?) in '" + text +
                  "'");
    }
    const std::size_t eq = token.find('=');
    RON_CHECK(eq != std::string::npos && eq > 0,
              "scenario spec: token '" << token << "' is not key=value");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // Key/value length caps match the wire reader's validation, so any
    // parseable spec is also embeddable in a snapshot.
    RON_CHECK(key.size() <= 64,
              "scenario spec: key of " << key.size() << " bytes in '"
                                       << token << "'");
    RON_CHECK(!value.empty() && value.size() <= 64,
              "scenario spec: "
                  << (value.empty() ? "empty value" : "oversized value")
                  << " in '" << token << "'");
    RON_CHECK(seen.insert(key).second,
              "scenario spec: duplicate key '" << key << "'");
    if (key == "metric") {
      spec.family = value;
      saw_metric = true;
    } else if (key == "n") {
      spec.n = parse_u64(token, value);
    } else if (key == "seed") {
      spec.seed = parse_u64(token, value);
    } else if (key == "delta") {
      spec.delta = parse_double(token, value);
    } else if (key == "overlay_seed") {
      spec.overlay_seed = parse_u64(token, value);
    } else if (key == "c_x") {
      spec.c_x = parse_double(token, value);
    } else if (key == "c_y") {
      spec.c_y = parse_double(token, value);
    } else if (key == "with_x") {
      const std::uint64_t v = parse_u64(token, value);
      RON_CHECK(v <= 1, "scenario spec: '" << token << "' must be 0 or 1");
      spec.with_x = v == 1;
    } else if (key == "churn") {
      spec.churn_ops = parse_u64(token, value);
    } else if (key == "churn_seed") {
      spec.churn_seed = parse_u64(token, value);
    } else {
      spec.params[key] = parse_double(token, value);
    }
  }
  RON_CHECK(saw_metric && !spec.family.empty(),
            "scenario spec: missing metric=FAMILY in '" << text << "'");
  validate_ranges(spec);
  return spec;
}

std::string ScenarioSpec::to_string() const {
  const ScenarioSpec dflt;
  std::string s = "metric=" + family + ",n=" + std::to_string(n) +
                  ",seed=" + std::to_string(seed);
  if (delta != dflt.delta) s += ",delta=" + fmt_double(delta);
  if (overlay_seed != dflt.overlay_seed) {
    s += ",overlay_seed=" + std::to_string(overlay_seed);
  }
  if (c_x != dflt.c_x) s += ",c_x=" + fmt_double(c_x);
  if (c_y != dflt.c_y) s += ",c_y=" + fmt_double(c_y);
  if (with_x != dflt.with_x) s += ",with_x=0";
  if (churn_ops != dflt.churn_ops) s += ",churn=" + std::to_string(churn_ops);
  if (churn_seed != dflt.churn_seed) {
    s += ",churn_seed=" + std::to_string(churn_seed);
  }
  for (const auto& [key, value] : params) {
    s += "," + key + "=" + fmt_double(value);
  }
  return s;
}

void write_spec(WireWriter& w, const ScenarioSpec& spec) {
  validate_wire_spec(spec);
  w.str(spec.family);
  w.u64(spec.n);
  w.u64(spec.seed);
  w.f64(spec.delta);
  w.u64(spec.overlay_seed);
  w.f64(spec.c_x);
  w.f64(spec.c_y);
  w.u8(spec.with_x ? 1 : 0);
  // The churn clause rides inside the param stream under reserved keys (a
  // default/churn-free spec therefore serializes to exactly its pre-churn
  // bytes, keeping the golden fixtures bit-identical). The values are small
  // counts/seeds validated to be exact in a double.
  std::map<std::string, double> wire_params = spec.params;
  const ScenarioSpec dflt;
  if (spec.churn_ops != dflt.churn_ops) {
    wire_params.emplace("churn", static_cast<double>(spec.churn_ops));
  }
  if (spec.churn_seed != dflt.churn_seed) {
    wire_params.emplace("churn_seed", static_cast<double>(spec.churn_seed));
  }
  w.u64(wire_params.size());
  for (const auto& [key, value] : wire_params) {  // map order = canonical
    w.str(key);
    w.f64(value);
  }
}

ScenarioSpec read_spec(WireReader& r) {
  ScenarioSpec spec;
  spec.family = r.str();
  spec.n = r.u64();
  spec.seed = r.u64();
  spec.delta = r.f64();
  spec.overlay_seed = r.u64();
  spec.c_x = r.f64();
  spec.c_y = r.f64();
  const std::uint8_t with_x = r.u8();
  RON_CHECK(with_x <= 1, "snapshot: scenario with_x byte " << +with_x);
  spec.with_x = with_x == 1;
  // Each param costs at least a key length (u64) + one key byte + an f64.
  const std::uint64_t count = r.read_count(8 + 1 + 8, "scenario param");
  std::string prev;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.str();
    RON_CHECK(i == 0 || prev < key,
              "snapshot: scenario params not in canonical order ('"
                  << prev << "' then '" << key << "')");
    const double value = r.f64();
    prev = key;
    spec.params.emplace(std::move(key), value);
  }
  // Pop the reserved churn keys back out of the param stream into their
  // dedicated fields (see write_spec).
  const auto take_reserved_u64 = [&spec](const char* key,
                                         std::uint64_t& out) {
    const auto it = spec.params.find(key);
    if (it == spec.params.end()) return;
    const double v = it->second;
    RON_CHECK(std::isfinite(v) && v >= 0.0 && v == std::floor(v) &&
                  v < static_cast<double>(1ull << 53),
              "snapshot: scenario " << key << "=" << v
                                    << " is not a whole count");
    out = static_cast<std::uint64_t>(v);
    spec.params.erase(it);
  };
  take_reserved_u64("churn", spec.churn_ops);
  take_reserved_u64("churn_seed", spec.churn_seed);
  validate_wire_spec(spec);
  return spec;
}

}  // namespace ron
