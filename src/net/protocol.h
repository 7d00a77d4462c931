// Typed messages of the optimizer wire protocol, and their payload
// encodings inside ETLNET1 frames (frame.h).
//
// Plans ride the wire in the exact ETLPLAN1 binary form the plan cache
// persists (io/plan_format.h), and request workflows travel as the
// canonical DSL text — so a networked answer is byte-comparable to an
// in-process one, and the server's parser is the same battle-tested
// code path the persistence formats use. Every decode is defensive:
// truncated, bit-flipped, or trailing-garbage payloads fail with a
// clean InvalidArgument.

#ifndef ETLOPT_NET_PROTOCOL_H_
#define ETLOPT_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "io/plan_format.h"
#include "optimizer/search.h"
#include "service/service_stats.h"

namespace etlopt {

/// One optimize call as it crosses the wire. The workflow is canonical
/// DSL text (plabels included, so signatures survive the trip).
struct NetOptimizeRequest {
  std::string workflow_text;
  SearchAlgorithm algorithm = SearchAlgorithm::kHeuristic;
  SearchOptions options;
  std::vector<MergeConstraint> merge_constraints;
  /// Wall-clock budget for the whole request, queueing included,
  /// enforced server-side. 0 = server default; negative is rejected.
  int64_t deadline_millis = 0;
};

/// The answer: the full persisted-plan form plus the serving flags the
/// in-process OptimizeResponse reports.
struct NetOptimizeResponse {
  OptimizedPlan plan;
  bool cache_hit = false;
  bool coalesced = false;
  bool degraded = false;
  /// Server-side wall clock spent on the request.
  double server_millis = 0.0;
};

std::string EncodeOptimizeRequest(const NetOptimizeRequest& request);
StatusOr<NetOptimizeRequest> DecodeOptimizeRequest(std::string_view payload);

std::string EncodeOptimizeResponse(const NetOptimizeResponse& response);
StatusOr<NetOptimizeResponse> DecodeOptimizeResponse(
    std::string_view payload);

/// Server-level counters, alongside the wrapped service's ServiceStats.
struct NetServerStats {
  uint64_t connections_accepted = 0;
  /// Connections shed past max_connections (fast error reply, closed).
  uint64_t connections_rejected = 0;
  uint64_t requests_served = 0;
  /// Requests answered with ResourceExhausted because the service queue
  /// was full (admission-control sheds).
  uint64_t requests_shed = 0;
  /// Malformed/corrupt frames rejected (connection closed after).
  uint64_t bad_frames = 0;
  size_t active_connections = 0;  // gauge
  bool draining = false;
};

struct NetStatsResponse {
  ServiceStats service;
  NetServerStats server;
};

std::string EncodeStatsResponse(const NetStatsResponse& stats);
StatusOr<NetStatsResponse> DecodeStatsResponse(std::string_view payload);

struct NetSavePlansRequest {
  std::string path;
  /// False = canonical text, true = ETLPLNS1 binary container.
  bool binary = true;
};

std::string EncodeSavePlansRequest(const NetSavePlansRequest& request);
StatusOr<NetSavePlansRequest> DecodeSavePlansRequest(
    std::string_view payload);

struct NetHealthResponse {
  /// False once the server started draining (stats/health still answer;
  /// new optimize work should go elsewhere).
  bool serving = true;
  std::string message;
};

std::string EncodeHealthResponse(const NetHealthResponse& health);
StatusOr<NetHealthResponse> DecodeHealthResponse(std::string_view payload);

/// Error replies carry the full Status (code + message) so the client
/// reconstructs exactly what an in-process caller would have seen —
/// a shed request is IsResourceExhausted() on both sides of the wire.
std::string EncodeStatusPayload(const Status& status);
/// Returns the remote Status carried by an error frame; a payload that
/// does not decode comes back as InvalidArgument instead.
Status DecodeStatusPayload(std::string_view payload);

}  // namespace etlopt

#endif  // ETLOPT_NET_PROTOCOL_H_
