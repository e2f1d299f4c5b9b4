// Batch forming policy: coalesce the request stream into batches under a
// max-batch-size / max-wait contract, one lane per workload.
//
// A lane's batch closes when either
//   * it reaches `max_batch` requests (closed at the last arrival), or
//   * the *oldest* request in it has waited `max_wait_s` AND a server able
//     to serve the lane is free (closed at that moment — the next arrival,
//     to any workload, proves virtual time passed it). While every such
//     replica is busy (the lane's `busy_until` at Add time), waiting longer
//     costs nothing, so the pending batch keeps absorbing backlog up to
//     max_batch — this is what makes batching engage at saturation, where
//     the amortization matters most.
//
// The former is a pure, single-threaded policy object operating on
// arrival-stamped requests in arrival order; all latency/wait bookkeeping is
// virtual time, so forming is deterministic and unit-testable in isolation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "serve/request.h"

namespace nsflow::obs {
class Counter;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

struct BatchPolicy {
  std::int64_t max_batch = 8;
  double max_wait_s = 5e-3;
};

/// One pending lane per workload, each closing under its own BatchPolicy,
/// and a global notion of virtual time — *any* arrival can prove that
/// another workload's pending batch passed its deadline and close it.
/// Batches never mix workloads; within a batch, requests keep arrival
/// (FIFO) order.
///
/// Fairness: when several lanes are past their deadlines at the same
/// arrival, they close oldest head-of-line first (the lane whose oldest
/// pending request arrived earliest; ties to the lowest workload id), so a
/// high-rate workload cannot starve a trickle workload's formed batches.
class MultiBatchFormer {
 public:
  /// `workloads` lanes, all sharing `policy`.
  MultiBatchFormer(BatchPolicy policy, int workloads);

  /// One policy per lane — how an SLO-planned pool runs tenants with
  /// different batching contracts side by side (a latency-critical lane at
  /// max_batch 1 closes every batch at its arrival and pays no forming
  /// wait, while a throughput lane keeps coalescing). `policies.size()`
  /// fixes the lane count.
  explicit MultiBatchFormer(std::vector<BatchPolicy> policies);

  /// Feed the next request (global arrival order). `busy_until[w]` is the
  /// earliest virtual time a replica able to serve workload `w` frees up
  /// (0 when one is already idle): the lane's wait deadline stretches to
  /// it, growing batches from backlog while dispatch would stall anyway.
  /// A lane expires only once the arrival reaches its deadline, so Add
  /// reads `busy_until` only when `request.arrival_s >= next_deadline()`.
  /// Replaces `*closed` with every batch this arrival closed, in fairness
  /// order; the new request is never part of a batch closed by its own
  /// arrival's deadline check (it arrived after the deadline). `closed` is
  /// the caller's scratch: reusing one vector across calls keeps forming
  /// allocation-free (docs/ENGINE.md).
  void Add(const Request& request, const std::vector<double>& busy_until,
           std::vector<Batch>* closed);

  /// Close all pending lanes at `now` (stream drained), fairness order.
  /// Each closes no later than its wait deadline and no earlier than its
  /// newest pending arrival (a batch cannot form before its requests
  /// exist).
  std::vector<Batch> Flush(double now);

  /// Virtual deadline of workload `w`'s pending batch (+inf when empty).
  double Deadline(WorkloadId w) const;
  /// The earliest pending deadline: the minimum of Deadline(w) over every
  /// lane (+inf when all are empty). No lane can expire before it.
  double next_deadline() const { return next_deadline_; }

  /// Swap lane `w`'s policy mid-stream (the autoscaler's kSetBatchCap
  /// delta). Applies from the next Add on: a pending lane already above a
  /// shrunken cap closes at the next arrival's size check, and a grown cap
  /// simply lets the lane keep absorbing.
  void SetPolicy(WorkloadId w, BatchPolicy policy);

  /// Dispatch-preemption order for lane `w`: when several lanes are past
  /// deadline (or flushing) together, lower priority values close first —
  /// the admission frontend maps a lane's SLA tier here so `critical`
  /// batches preempt `batch`-tier ones (docs/ADMISSION.md). All-zero (the
  /// default) preserves the legacy oldest-head-of-line order bit-exactly.
  void SetLanePriority(WorkloadId w, int priority);

  std::int64_t pending(WorkloadId w) const;
  std::int64_t total_pending() const;
  int workloads() const { return static_cast<int>(lanes_.size()); }
  const BatchPolicy& policy(WorkloadId w) const {
    return policies_[static_cast<std::size_t>(w)];
  }

  /// Publish per-close-reason tallies into `registry`
  /// (`former.close_*` counters; docs/OBSERVABILITY.md). Null detaches.
  /// Counter pointers are resolved once here, so the close path publishes
  /// with a plain atomic increment.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Returns a settled batch's request storage so the next lane close
  /// reuses its capacity instead of growing a fresh vector — part of the
  /// serve path's zero-steady-state-allocation contract (docs/ENGINE.md).
  /// The stash holds as many spares as batches were in flight at the
  /// peak. Purely an allocation optimization: forming behavior is
  /// unchanged.
  void Recycle(std::vector<Request>&& storage);

 private:
  Batch CloseLane(WorkloadId w, double formed_s, BatchCloseReason reason);
  /// Recompute next_deadline_ over every lane. Called whenever a lane's
  /// deadline can rise: at a close and at a policy change.
  void RefreshNextDeadline();
  /// Fill `expired_` with the lanes past their effective deadline at time
  /// `now`, fairness-ordered.
  void ExpiredLanes(double now, const std::vector<double>& busy_until);
  /// Sort non-empty `lanes` into close order: lane priority, then oldest
  /// head-of-line, then workload id.
  void SortByCloseOrder(std::vector<WorkloadId>* lanes) const;

  std::vector<BatchPolicy> policies_;        // One per lane.
  std::vector<std::vector<Request>> lanes_;  // Pending, one lane/workload.
  std::vector<int> lane_priority_;           // Close order key; default 0.
  std::vector<std::vector<Request>> spares_;  // Recycled lane storage.
  std::vector<WorkloadId> expired_;  // ExpiredLanes scratch, reused by Add.
  double next_deadline_ = std::numeric_limits<double>::infinity();
  // Resolved by AttachMetrics; null = metrics off.
  obs::Counter* close_size_cap_ = nullptr;
  obs::Counter* close_deadline_ = nullptr;
  obs::Counter* close_flush_ = nullptr;
};

}  // namespace nsflow::serve
