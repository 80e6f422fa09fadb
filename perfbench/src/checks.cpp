#include "checks.h"

#include "location/location_service.h"

namespace ronbench {

using ron::LocateStatus;
using ron::MsgType;

bool AnswerChecker::header_ok(std::span<const std::uint8_t> payload,
                              std::uint64_t request_id, MsgType expect,
                              std::size_t failed_units, Failures& fails,
                              ron::WireReader* body) const {
  try {
    ron::FrameView f = ron::parse_frame(payload);
    if (f.version != ron::kServedProtocolVersion) {
      fails.add("bad_version", failed_units);
      return false;
    }
    if (f.type == MsgType::kError) {
      fails.add("error_frame", failed_units);
      return false;
    }
    if (f.type != expect || f.request_id != request_id) {
      fails.add("misaddressed", failed_units);
      return false;
    }
    *body = f.body;
    return true;
  } catch (const ron::Error&) {
    fails.add("malformed", failed_units);
    return false;
  }
}

std::string AnswerChecker::locate_verdict(const ron::ServedLocate& s) const {
  if (s.status == LocateStatus::kZeroHolders) {
    return cfg_.allow_zero_holders ? "" : "zero_holders";
  }
  if (s.status != LocateStatus::kOk) return "bad_status";
  const ron::LocateResult& r = s.result;
  if (!r.found || r.holder >= cfg_.n) return "not_found";
  if (r.hops > cfg_.hop_bound) return "hop_bound";
  if (r.route_stretch > ron::location_stretch_bound(r.hops)) {
    return "stretch_bound";
  }
  return "";
}

std::string AnswerChecker::estimate_verdict(const ron::QueryPair& q,
                                            ron::Dist upper) const {
  if (cfg_.metric == nullptr) return "no_metric";
  const ron::Dist d =
      q.first == q.second ? 0.0 : cfg_.metric->distance(q.first, q.second);
  return upper >= d ? "" : "estimate_below_distance";
}

std::size_t AnswerChecker::locate_frame(
    std::span<const ron::LocateQuery> queries, std::uint64_t request_id,
    std::span<const std::uint8_t> payload, Failures& fails,
    std::vector<ron::ServedLocate>* out) const {
  ron::WireReader body{std::span<const std::uint8_t>()};
  if (!header_ok(payload, request_id, MsgType::kLocateResult, queries.size(),
                 fails, &body)) {
    return queries.size();
  }
  std::vector<ron::ServedLocate> results;
  try {
    results = ron::decode_locate_result(body);
  } catch (const ron::Error&) {
    fails.add("malformed", queries.size());
    return queries.size();
  }
  if (results.size() != queries.size()) {
    fails.add("wrong_count", queries.size());
    return queries.size();
  }
  std::size_t failed = 0;
  for (const ron::ServedLocate& s : results) {
    const std::string verdict = locate_verdict(s);
    if (!verdict.empty()) {
      fails.add(verdict);
      ++failed;
    }
  }
  if (out != nullptr) *out = std::move(results);
  return failed;
}

std::size_t AnswerChecker::estimate_frame(
    std::span<const ron::QueryPair> pairs, std::uint64_t request_id,
    std::span<const std::uint8_t> payload, Failures& fails,
    std::vector<ron::Dist>* out) const {
  ron::WireReader body{std::span<const std::uint8_t>()};
  if (!header_ok(payload, request_id, MsgType::kEstimateResult, pairs.size(),
                 fails, &body)) {
    return pairs.size();
  }
  std::vector<ron::Dist> dists;
  try {
    dists = ron::decode_estimate_result(body);
  } catch (const ron::Error&) {
    fails.add("malformed", pairs.size());
    return pairs.size();
  }
  if (dists.size() != pairs.size()) {
    fails.add("wrong_count", pairs.size());
    return pairs.size();
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string verdict = estimate_verdict(pairs[i], dists[i]);
    if (!verdict.empty()) {
      fails.add(verdict);
      ++failed;
    }
  }
  if (out != nullptr) *out = std::move(dists);
  return failed;
}

std::size_t AnswerChecker::churn_ack(std::size_t ops,
                                     std::uint64_t request_id,
                                     std::span<const std::uint8_t> payload,
                                     Failures& fails) const {
  ron::WireReader body{std::span<const std::uint8_t>()};
  if (!header_ok(payload, request_id, MsgType::kChurnResult, ops, fails,
                 &body)) {
    return ops;
  }
  try {
    const ron::ChurnResult r = ron::decode_churn_result(body);
    if (r.ops_applied != ops) {
      fails.add("churn_partial", ops);
      return ops;
    }
    return 0;
  } catch (const ron::Error&) {
    fails.add("malformed", ops);
    return ops;
  }
}

}  // namespace ronbench
