// TraceRecorder — the serve trace on the virtual timeline
// (docs/OBSERVABILITY.md).
//
// Every record is stamped with virtual seconds (the serving timeline of
// serve/request.h), never wall clock: a fixed arrival seed therefore pins
// the recorded trace bit-exactly — the serve determinism contract extends
// to the trace itself.
//
// Request and batch spans are not recorded here: they are views over the
// run's CompletionLog (completion_log.h), built at Drain(). The recorder
// itself keeps only the rare control-plane records (autoscaler decisions,
// replica transitions, counter samples), which carry a human-readable
// detail string, and the seq counter every record draws from: a committed
// batch takes 1 + size numbers, so Drain() orders spans and instants
// exactly as if each had been recorded one by one. The engine's one
// thread is the only writer. Drain() returns one deterministic stream
// ordered by (timestamp, sequence number).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/completion_log.h"

namespace nsflow::obs {

/// One request's full lifecycle on the virtual timeline: its log record
/// joined with its batch's.
struct RequestSpan {
  std::int64_t request_id = 0;
  std::int32_t workload = 0;
  BatchClose close = BatchClose::kNone;
  double arrival_s = 0.0;   // Generator stamp == queue entry (virtual time).
  double formed_s = 0.0;    // The request's batch closed.
  double start_s = 0.0;     // Batch began executing on its replica.
  double complete_s = 0.0;  // Batch finished; the request's latency ends.
  std::int64_t batch_index = 0;
  std::int32_t replica = 0;
  std::int32_t batch_size = 0;
  std::int64_t seq = 0;     // Global record order.
};

/// Control-plane instants: autoscaler decisions and replica lifecycle
/// transitions. Rare; the detail string is allowed to allocate.
enum class InstantKind : std::int32_t {
  kAutoscalerDecision = 0,  // An applied PoolDelta (detail = reason).
  kAutoscalerDeferred = 1,  // Budget-exhausted add deferral.
  kReplicaAdded = 2,
  kReplicaDraining = 3,
  kReplicaRetired = 4,
  kReplicaRefit = 5,
  // Environment faults (the adversity engine, serve/adversity.h).
  kReplicaFailed = 6,     // Replica went dark (detail = recovery time).
  kReplicaRecovered = 7,  // Back up (possibly still warming).
  kReplicaDerated = 8,    // Straggler derate window opened/closed.
  kEnvironment = 9,       // Tenant churn / flash-crowd window markers.
  // Admission frontend decisions (serve/admission.h).
  kAdmissionShed = 10,     // Final shed (detail = quota/overload + tier).
  kAdmissionRetry = 11,    // Shed standard request scheduled for re-offer.
  kAdmissionExpired = 12,  // Admitted request swept before dispatch.
  // Cluster router decisions (serve/cluster.h). Only cross-node routes are
  // recorded — a one-node cluster's trace stays byte-identical.
  kClusterRoute = 13,      // Batch routed off its home node (detail =
                           // "node0->node1 bytes=...").
};

struct InstantEvent {
  double t_s = 0.0;
  InstantKind kind = InstantKind::kAutoscalerDecision;
  std::int32_t replica = -1;   // Target replica (-1 = none).
  std::int32_t workload = -1;  // Tenant the event serves (-1 = none).
  std::string detail;
  std::int64_t seq = 0;
};

/// Periodic autoscaler-track sample (window rate, pool size, backlog) —
/// exported as Chrome counter events.
struct CounterSample {
  double t_s = 0.0;
  double window_rate_rps = 0.0;
  std::int32_t active_replicas = 0;
  std::int64_t queue_depth = 0;
  std::int64_t seq = 0;
};

/// Everything one recorder captured, deterministically ordered by
/// (timestamp, seq). The unit the exporters (chrome_trace.h) consume.
struct TraceData {
  std::vector<RequestSpan> requests;
  std::vector<BatchSpan> batches;
  std::vector<InstantEvent> instants;
  std::vector<CounterSample> counters;
  std::int64_t dropped = 0;  // Always 0; kept for the NSFT layout.
};

class TraceRecorder {
 public:
  /// `log` is the run's completion log (null: no spans).
  explicit TraceRecorder(std::shared_ptr<const CompletionLog> log = nullptr)
      : log_(std::move(log)) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void RecordInstant(InstantEvent event);
  void RecordCounter(CounterSample sample);
  /// Reserve `n` consecutive seq numbers and return the first.
  std::int64_t TakeSeq(std::int64_t n) {
    const std::int64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Everything recorded, ordered by (timestamp, seq). Seq numbers are
  /// assigned in record order, so the order is bit-deterministic.
  TraceData Drain() const;

 private:
  std::shared_ptr<const CompletionLog> log_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
  std::int64_t next_seq_ = 0;
};

}  // namespace nsflow::obs
