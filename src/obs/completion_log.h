// CompletionLog — the one record of what a serve run completed
// (docs/OBSERVABILITY.md). The engine appends to it at one commit site,
// in commit order: one BatchSpan per committed batch and one
// CompletedRequest per member, contiguous per batch. Stats, metrics,
// trace spans and ServeReport::dispatches are views over it. It lives in
// obs/ because serve/ and obs/ both read it, and nothing may depend on
// serve/ (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <vector>

namespace nsflow::obs {

/// Reasons a formed batch closed (mirrors the MultiBatchFormer policy).
enum class BatchClose : std::int32_t {
  kNone = 0,      // Not recorded (single-shot dispatch paths).
  kSizeCap = 1,   // Reached the lane's max_batch.
  kDeadline = 2,  // Oldest request hit max_wait (stretched to busy horizon).
  kFlush = 3,     // Stream drained; engine flushed the lane.
};

/// One committed batch's execution on a replica, on the virtual timeline.
struct BatchSpan {
  std::int64_t batch_index = 0;  // Pool dispatch order.
  std::int32_t workload = 0;
  std::int32_t replica = 0;
  BatchClose close = BatchClose::kNone;
  double formed_s = 0.0;    // The batch closed (plus any network ingress).
  double start_s = 0.0;     // max(formed, replica free).
  double complete_s = 0.0;  // start + batched service; the replica frees.
  double egress_s = 0.0;    // Cluster response transfer: members' latency
                            // ends at complete_s + egress_s.
  std::int64_t size = 0;
  std::int64_t queue_depth = 0;  // Backlog the batch saw at its start.
  std::int64_t seq = 0;  // Trace record order (traced runs): the span
                         // takes seq, member i takes seq + 1 + i.
};

/// One completed request; its batch is the log batch it falls in.
struct CompletedRequest {
  std::int64_t id = 0;
  double arrival_s = 0.0;
};

struct CompletionLog {
  std::vector<BatchSpan> batches;
  std::vector<CompletedRequest> requests;
};

}  // namespace nsflow::obs
