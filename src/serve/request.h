// Serving request/batch value types — the unit of work NSFlow-Serve moves
// through its pipeline (arrival stream -> MultiBatchFormer -> ServerPool).
//
// Timestamps are *virtual* seconds on the serving timeline: arrivals are
// stamped by the open-loop generator, batch close times by the forming
// policy, and completion times by the replica dispatch sweep. Keeping the
// timeline virtual — never the host clock — is what makes a serve run
// bit-reproducible under a fixed RNG seed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace nsflow::serve {

/// Dense index of a workload registered with a `WorkloadRegistry`.
using WorkloadId = int;

/// SLA tier a request (and its tenant) belongs to. Ordered by protection:
/// under overload the admission controller sheds the *highest* value first
/// (batch before standard before critical), and at dispatch lower values
/// preempt higher ones in the forming order (docs/ADMISSION.md).
enum class SlaTier : std::int8_t {
  kCritical = 0,  // Latency-SLO traffic; never load-shed.
  kStandard = 1,  // Default tier; shed under deep overload, retried.
  kBatch = 2,     // Throughput traffic; first to shed, no deadline.
};

/// Canonical tier names as accepted by `--tiers` (docs/ADMISSION.md).
const char* TierName(SlaTier tier);

/// Parses "critical" | "standard" | "batch"; throws `Error` on anything
/// else (strict, like the scenario/adversity spec parsers).
SlaTier TierFromName(const std::string& name);

/// One inference/reasoning request entering the serving engine.
struct Request {
  std::int64_t id = 0;
  double arrival_s = 0.0;     // Virtual arrival time.
  WorkloadId workload = 0;    // Which compiled workload this request targets.
  SlaTier tier = SlaTier::kStandard;  // Stamped at admission.
  // Latest virtual time execution may still *begin*; anchored at the
  // original arrival (a retry keeps its first deadline). Infinity = none.
  double deadline_s = std::numeric_limits<double>::infinity();
  std::int32_t attempt = 0;   // 0 = first offer; bumped per admission retry.
};

/// Why the MultiBatchFormer closed a batch — recorded on the batch so the
/// observability layer can attribute forming latency to the policy edge
/// that fired (docs/OBSERVABILITY.md).
enum class BatchCloseReason {
  kNone = 0,      // Not set (hand-built batches in tests/benches).
  kSizeCap = 1,   // Reached the lane's max_batch.
  kDeadline = 2,  // Oldest request hit max_wait (stretched to busy horizon).
  kFlush = 3,     // Stream drained; the engine flushed the lane.
};

/// A group of requests coalesced by the MultiBatchFormer and dispatched to
/// one accelerator replica as a single RunWorkloadBatch launch. Batches
/// never mix workloads: one batch = one workload = one kernel launch.
struct Batch {
  std::vector<Request> requests;
  double formed_s = 0.0;      // Virtual time the batch closed.
  WorkloadId workload = 0;    // Workload all member requests share.
  BatchCloseReason close_reason = BatchCloseReason::kNone;

  std::int64_t size() const {
    return static_cast<std::int64_t>(requests.size());
  }
};

}  // namespace nsflow::serve
