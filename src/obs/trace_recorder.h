// TraceRecorder — pooled capture of serve-path lifecycle events on the
// virtual timeline (docs/OBSERVABILITY.md).
//
// Every record is stamped with virtual seconds (the serving timeline of
// serve/request.h), never wall clock: a fixed arrival seed therefore pins
// the recorded trace bit-exactly — the serve determinism contract extends
// to the trace itself.
//
// The hot-path records (RequestSpan, BatchSpan) are fixed-size PODs pushed
// into vectors whose capacity is reserved on the pool's first record (an
// unused pool allocates nothing), so the steady-state recording cost is a
// bounds-checked append — no lock, no allocation, no string building. The
// engine's one thread is the only writer. Rare control-plane events
// (autoscaler decisions, replica transitions) carry a human-readable
// detail string — they happen a handful of times per run, outside the
// steady state.
//
// `ring_capacity` > 0 bounds each record pool: when full, the oldest record
// is overwritten (ring buffer) and `dropped()` counts the evictions — the
// long-run mode where a trace must not grow with the request count.
// Drain() returns one deterministic stream ordered by (timestamp, sequence
// number).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nsflow::obs {

/// Reasons a formed batch closed (mirrors the MultiBatchFormer policy).
enum class BatchClose : std::int32_t {
  kNone = 0,      // Not recorded (single-shot dispatch paths).
  kSizeCap = 1,   // Reached the lane's max_batch.
  kDeadline = 2,  // Oldest request hit max_wait (stretched to busy horizon).
  kFlush = 3,     // Stream drained; engine flushed the lane.
};

/// One request's full lifecycle on the virtual timeline. Written once,
/// fully resolved, at dispatch time (the engine knows every phase stamp by
/// then), so recording never revisits a partially filled span.
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
  std::int64_t seq = 0;     // Global record order (assigned by the recorder).
};

/// One dispatched batch's execution on a replica track.
struct BatchSpan {
  std::int64_t batch_index = 0;
  std::int32_t workload = 0;
  std::int32_t replica = 0;
  BatchClose close = BatchClose::kNone;
  double formed_s = 0.0;
  double start_s = 0.0;
  double complete_s = 0.0;
  std::int64_t size = 0;
  std::int64_t seq = 0;
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
  std::int64_t dropped = 0;  // Ring-mode evictions across all pools.
};

class TraceRecorder {
 public:
  /// `ring_capacity` == 0: unbounded pools (each reserves kInitialReserve
  /// at its first record and grows geometrically — amortized
  /// allocation-free). > 0: ring buffers of that many records.
  explicit TraceRecorder(std::size_t ring_capacity = 0)
      : ring_capacity_(ring_capacity) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void RecordRequest(RequestSpan span);
  void RecordBatch(BatchSpan span);
  void RecordInstant(InstantEvent event);
  void RecordCounter(CounterSample sample);

  /// Everything recorded, ordered by (timestamp, seq). Seq numbers are
  /// assigned in record order, so the order is bit-deterministic.
  TraceData Drain() const;

  std::int64_t dropped() const { return dropped_; }
  std::size_t ring_capacity() const { return ring_capacity_; }

 private:
  static constexpr std::size_t kInitialReserve = 4096;

  /// Append `record` to `pool`, wrapping at the ring capacity.
  template <typename Record>
  void Push(std::vector<Record>& pool, std::size_t& head, Record record);

  std::size_t ring_capacity_;
  std::vector<RequestSpan> requests_;
  std::vector<BatchSpan> batches_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
  // Ring write cursors (used only when ring_capacity_ > 0).
  std::size_t request_head_ = 0;
  std::size_t batch_head_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t next_seq_ = 0;
};

}  // namespace nsflow::obs
