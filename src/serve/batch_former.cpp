#include "serve/batch_former.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace nsflow::serve {

MultiBatchFormer::MultiBatchFormer(BatchPolicy policy, int workloads)
    : MultiBatchFormer(std::vector<BatchPolicy>(
          static_cast<std::size_t>(std::max(workloads, 1)), policy)) {
  NSF_CHECK_MSG(workloads >= 1, "need at least one workload lane");
}

MultiBatchFormer::MultiBatchFormer(std::vector<BatchPolicy> policies)
    : policies_(std::move(policies)) {
  NSF_CHECK_MSG(!policies_.empty(), "need at least one workload lane");
  for (const BatchPolicy& policy : policies_) {
    NSF_CHECK_MSG(policy.max_batch >= 1, "max_batch must be positive");
    NSF_CHECK_MSG(policy.max_wait_s >= 0.0,
                  "max_wait_s must be non-negative");
  }
  lanes_.resize(policies_.size());
  lane_priority_.assign(policies_.size(), 0);
}

Batch MultiBatchFormer::CloseLane(WorkloadId w, double formed_s,
                                  BatchCloseReason reason) {
  auto& lane = lanes_[static_cast<std::size_t>(w)];
  Batch batch;
  batch.requests = std::move(lane);
  batch.formed_s = formed_s;
  batch.workload = w;
  batch.close_reason = reason;
  lane.clear();
  if (!spares_.empty()) {
    // The move above surrendered the lane's capacity to the batch; refill
    // it from the recycled stash so steady-state forming never grows a
    // vector (docs/ENGINE.md's allocation contract).
    lane = std::move(spares_.back());
    spares_.pop_back();
  }
  RefreshNextDeadline();
  switch (reason) {
    case BatchCloseReason::kSizeCap:
      if (close_size_cap_ != nullptr) close_size_cap_->Increment();
      break;
    case BatchCloseReason::kDeadline:
      if (close_deadline_ != nullptr) close_deadline_->Increment();
      break;
    case BatchCloseReason::kFlush:
      if (close_flush_ != nullptr) close_flush_->Increment();
      break;
    case BatchCloseReason::kNone:
      break;
  }
  return batch;
}

void MultiBatchFormer::RefreshNextDeadline() {
  next_deadline_ = std::numeric_limits<double>::infinity();
  for (int w = 0; w < workloads(); ++w) {
    next_deadline_ = std::min(next_deadline_, Deadline(w));
  }
}

void MultiBatchFormer::ExpiredLanes(double now,
                                    const std::vector<double>& busy_until) {
  expired_.clear();
  for (int w = 0; w < workloads(); ++w) {
    const auto& lane = lanes_[static_cast<std::size_t>(w)];
    if (lane.empty()) {
      continue;
    }
    const double busy = static_cast<std::size_t>(w) < busy_until.size()
                            ? busy_until[static_cast<std::size_t>(w)]
                            : 0.0;
    if (now >= std::max(Deadline(w), busy)) {
      expired_.push_back(w);
    }
  }
  SortByCloseOrder(&expired_);
}

void MultiBatchFormer::SortByCloseOrder(std::vector<WorkloadId>* lanes) const {
  // Lane priority first (critical preempts batch under admission tiers),
  // then oldest head-of-line; workload id breaks exact ties. With all
  // priorities at the default 0 this is the legacy fairness order.
  std::sort(lanes->begin(), lanes->end(), [this](WorkloadId a, WorkloadId b) {
    const int pa = lane_priority_[static_cast<std::size_t>(a)];
    const int pb = lane_priority_[static_cast<std::size_t>(b)];
    if (pa != pb) {
      return pa < pb;
    }
    const double ha = lanes_[static_cast<std::size_t>(a)].front().arrival_s;
    const double hb = lanes_[static_cast<std::size_t>(b)].front().arrival_s;
    return ha != hb ? ha < hb : a < b;
  });
}

void MultiBatchFormer::Add(const Request& request,
                           const std::vector<double>& busy_until,
                           std::vector<Batch>* closed) {
  NSF_CHECK_MSG(request.workload >= 0 && request.workload < workloads(),
                "request targets an unregistered workload lane");
  closed->clear();
  // This arrival proves virtual time reached `request.arrival_s`: every lane
  // whose effective deadline (stretched to its busy horizon) has passed
  // closes at that deadline, not at the arrival — a lull in one workload's
  // traffic must not delay another workload's formed batch. Before the
  // earliest unstretched deadline no lane can have passed its own.
  if (request.arrival_s >= next_deadline_) {
    ExpiredLanes(request.arrival_s, busy_until);
    for (const WorkloadId w : expired_) {
      const double busy = static_cast<std::size_t>(w) < busy_until.size()
                              ? busy_until[static_cast<std::size_t>(w)]
                              : 0.0;
      closed->push_back(CloseLane(w, std::max(Deadline(w), busy),
                                  BatchCloseReason::kDeadline));
    }
  }
  auto& lane = lanes_[static_cast<std::size_t>(request.workload)];
  lane.push_back(request);
  if (lane.size() == 1) {
    next_deadline_ = std::min(next_deadline_, Deadline(request.workload));
  }
  if (static_cast<std::int64_t>(lane.size()) >=
      policy(request.workload).max_batch) {
    closed->push_back(CloseLane(request.workload, request.arrival_s,
                                BatchCloseReason::kSizeCap));
  }
}

std::vector<Batch> MultiBatchFormer::Flush(double now) {
  std::vector<WorkloadId> order;
  for (int w = 0; w < workloads(); ++w) {
    if (!lanes_[static_cast<std::size_t>(w)].empty()) {
      order.push_back(w);
    }
  }
  SortByCloseOrder(&order);
  std::vector<Batch> closed;
  for (const WorkloadId w : order) {
    // No later than the lane's deadline, no earlier than its newest
    // pending arrival.
    const double formed =
        std::max(lanes_[static_cast<std::size_t>(w)].back().arrival_s,
                 std::min(now, Deadline(w)));
    closed.push_back(CloseLane(w, formed, BatchCloseReason::kFlush));
  }
  return closed;
}

double MultiBatchFormer::Deadline(WorkloadId w) const {
  NSF_CHECK(w >= 0 && w < workloads());
  const auto& lane = lanes_[static_cast<std::size_t>(w)];
  if (lane.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  return lane.front().arrival_s + policy(w).max_wait_s;
}

void MultiBatchFormer::SetPolicy(WorkloadId w, BatchPolicy policy) {
  NSF_CHECK(w >= 0 && w < workloads());
  NSF_CHECK_MSG(policy.max_batch >= 1, "max_batch must be positive");
  NSF_CHECK_MSG(policy.max_wait_s >= 0.0, "max_wait_s must be non-negative");
  policies_[static_cast<std::size_t>(w)] = policy;
  RefreshNextDeadline();
}

void MultiBatchFormer::SetLanePriority(WorkloadId w, int priority) {
  NSF_CHECK(w >= 0 && w < workloads());
  lane_priority_[static_cast<std::size_t>(w)] = priority;
}

std::int64_t MultiBatchFormer::pending(WorkloadId w) const {
  NSF_CHECK(w >= 0 && w < workloads());
  return static_cast<std::int64_t>(lanes_[static_cast<std::size_t>(w)].size());
}

void MultiBatchFormer::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    close_size_cap_ = nullptr;
    close_deadline_ = nullptr;
    close_flush_ = nullptr;
    return;
  }
  close_size_cap_ = registry->GetCounter("former.close_size_cap");
  close_deadline_ = registry->GetCounter("former.close_deadline");
  close_flush_ = registry->GetCounter("former.close_flush");
}

void MultiBatchFormer::Recycle(std::vector<Request>&& storage) {
  if (storage.capacity() == 0) {
    return;
  }
  // No cap: a deferred-commit run can hold many batches in flight, and
  // each one's storage must find a spare when it settles. Every spare was
  // a lane or an in-flight batch's vector, so the stash never outgrows the
  // peak number of batches in flight, and keeping them costs no memory
  // beyond that peak.
  storage.clear();
  spares_.push_back(std::move(storage));
}

std::int64_t MultiBatchFormer::total_pending() const {
  std::int64_t total = 0;
  for (const auto& lane : lanes_) {
    total += static_cast<std::int64_t>(lane.size());
  }
  return total;
}

}  // namespace nsflow::serve
