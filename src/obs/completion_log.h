// CompletionLog — the one record of what a serve run completed
// (docs/OBSERVABILITY.md). The engine appends to it at one commit site,
// in commit order: one BatchSpan per committed batch and one
// CompletedRequest per member, contiguous per batch. Stats, metrics,
// trace spans and ServeReport::dispatches are views over it. It lives in
// obs/ because serve/ and obs/ both read it, and nothing may depend on
// serve/ (docs/ARCHITECTURE.md).
//
// Each record holds a request's or a batch's fields at the width their
// values need, 12 B per request and 56 B per batch, because a run keeps
// every record to its end; the backlog a batch saw at its start is
// tallied into ServeStats at the commit, not stored. A value is narrowed
// where it is made (the pool's dispatch, the recorder's seq, the engine's
// commit) and where a file is decoded (ParseBinaryTrace), through
// LogField, which throws instead of truncating.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace nsflow::obs {

/// Reasons a formed batch closed (mirrors the MultiBatchFormer policy).
enum class BatchClose : std::uint8_t {
  kNone = 0,      // Not recorded (single-shot dispatch paths).
  kSizeCap = 1,   // Reached the lane's max_batch.
  kDeadline = 2,  // Oldest request hit max_wait (stretched to busy horizon).
  kFlush = 3,     // Stream drained; engine flushed the lane.
};

/// One committed batch's execution on a replica, on the virtual timeline.
struct BatchSpan {
  std::uint32_t batch_index = 0;  // Pool dispatch order.
  std::int32_t workload = 0;
  std::int32_t replica = 0;
  BatchClose close = BatchClose::kNone;
  double formed_s = 0.0;    // The batch closed (plus any network ingress).
  double start_s = 0.0;     // max(formed, replica free).
  double complete_s = 0.0;  // start + batched service; the replica frees.
  double egress_s = 0.0;    // Cluster response transfer: members' latency
                            // ends at complete_s + egress_s.
  std::int32_t size = 0;
  std::uint32_t seq = 0;  // Trace record order (traced runs): the span
                          // takes seq, member i takes seq + 1 + i.
};
static_assert(sizeof(BatchSpan) <= 56);

/// One completed request; its batch is the log batch it falls in. Packed
/// to 12 B, so arrival_s sits 4 bytes in: read it by value, and never bind
/// a reference or pointer to it.
#pragma pack(push, 4)
struct CompletedRequest {
  std::uint32_t id = 0;
  double arrival_s = 0.0;
};
#pragma pack(pop)
static_assert(sizeof(CompletedRequest) == 12);

struct CompletionLog {
  std::vector<BatchSpan> batches;
  std::vector<CompletedRequest> requests;
};

/// Throws nsflow::Error naming `field` and `value`. Out of line, so the
/// per-request check inlines to a compare and a branch.
[[noreturn]] void ThrowLogFieldRange(const char* field, std::int64_t value);

/// `value` as a log field of type T. Throws nsflow::Error naming `field`
/// when it does not fit: a log field is never truncated.
template <typename T>
T LogField(std::int64_t value, const char* field) {
  if (!std::in_range<T>(value)) {
    ThrowLogFieldRange(field, value);
  }
  return static_cast<T>(value);
}

}  // namespace nsflow::obs
