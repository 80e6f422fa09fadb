// Output checks on every answer the daemon sends back.
//
// A query fails when its frame is an error frame or does not decode to the
// request it answers, when a locate is neither found nor a typed zero-holder
// answer (zero holders only where churn can drain an object), when its hops
// exceed location_hop_bound(n) or its route stretch exceeds 2·hops, and when
// an estimate's upper bound lies below the true distance in the rebuilt
// metric. A churn chunk fails unless it is acknowledged with its full op
// count. Reference equality on a seeded sample is checked by the replay
// (replay.h), which owns the in-process state.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "metric/metric_space.h"
#include "served/protocol.h"

namespace ronbench {

/// Failure counts by reason, for the report.
struct Failures {
  std::map<std::string, std::size_t> by_reason;
  std::size_t total = 0;

  void add(const std::string& reason, std::size_t count = 1) {
    if (count == 0) return;
    by_reason[reason] += count;
    total += count;
  }
  void merge(const Failures& other) {
    for (const auto& [reason, count] : other.by_reason) add(reason, count);
  }
};

struct CheckConfig {
  std::size_t n = 0;
  std::size_t hop_bound = 0;
  bool allow_zero_holders = false;
  /// Estimates are checked against this metric (borrowed); may be null for
  /// locate workloads.
  const ron::MetricSpace* metric = nullptr;
};

class AnswerChecker {
 public:
  explicit AnswerChecker(CheckConfig cfg) : cfg_(cfg) {}

  /// Checks one locate response against its request. Returns the number of
  /// failed queries (every query when the frame itself is bad) and records
  /// reasons in `fails`. Decoded answers go to `out` when it is non-null.
  std::size_t locate_frame(std::span<const ron::LocateQuery> queries,
                           std::uint64_t request_id,
                           std::span<const std::uint8_t> payload,
                           Failures& fails,
                           std::vector<ron::ServedLocate>* out) const;
  std::size_t estimate_frame(std::span<const ron::QueryPair> pairs,
                             std::uint64_t request_id,
                             std::span<const std::uint8_t> payload,
                             Failures& fails,
                             std::vector<ron::Dist>* out) const;
  /// A churn chunk of `ops` operations: all of them fail unless the ack
  /// reports ops applied.
  std::size_t churn_ack(std::size_t ops, std::uint64_t request_id,
                        std::span<const std::uint8_t> payload,
                        Failures& fails) const;

  /// Per-answer predicates; empty string means the answer passes.
  std::string locate_verdict(const ron::ServedLocate& s) const;
  std::string estimate_verdict(const ron::QueryPair& q,
                               ron::Dist upper) const;

 private:
  /// Parses the header; returns false (after counting `failed_units`
  /// failures) when the frame is an error, mistyped or mis-addressed.
  bool header_ok(std::span<const std::uint8_t> payload,
                 std::uint64_t request_id, ron::MsgType expect,
                 std::size_t failed_units, Failures& fails,
                 ron::WireReader* body) const;

  CheckConfig cfg_;
};

}  // namespace ronbench
