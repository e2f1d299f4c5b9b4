// TraceRecorder — the serve trace on the virtual timeline
// (docs/OBSERVABILITY.md).
//
// Every record is stamped with virtual seconds (the serving timeline of
// serve/request.h), never wall clock: a fixed arrival seed therefore pins
// the recorded trace bit-exactly — the serve determinism contract extends
// to the trace itself.
//
// Request and batch spans are not recorded here, and Drain() does not copy
// them: TraceData::requests and TraceData::batches are read-only views over
// the run's CompletionLog (completion_log.h) through an index order, and a
// request span is joined from its request and batch records when it is
// read. The recorder itself keeps only the rare control-plane records
// (autoscaler decisions, replica transitions, counter samples), which
// carry a human-readable detail string, and the seq counter every record
// draws from: a committed batch takes 1 + size numbers, so Drain() orders
// spans and instants exactly as if each had been recorded one by one. The
// engine's one thread is the only writer. Drain() returns one
// deterministic stream ordered by (timestamp, sequence number).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/// The trace's record order: the timestamp leads and seq breaks ties. Seqs
/// are unique, so the order is total.
template <typename Record>
bool EarlierInTrace(const Record& a, const Record& b, double Record::* stamp) {
  if (a.*stamp != b.*stamp) {
    return a.*stamp < b.*stamp;
  }
  return a.seq < b.seq;
}

/// A log's batch spans in (start_s, seq) order: a read-only view through
/// one index per batch.
class BatchSpans {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = BatchSpan;
    using difference_type = std::ptrdiff_t;
    using pointer = const BatchSpan*;
    using reference = const BatchSpan&;

    iterator() = default;
    const BatchSpan& operator*() const { return batches_[*index_]; }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class BatchSpans;
    iterator(const BatchSpan* batches, const std::uint32_t* index)
        : batches_(batches), index_(index) {}

    const BatchSpan* batches_ = nullptr;
    const std::uint32_t* index_ = nullptr;
  };

  BatchSpans() = default;
  /// Orders `log`'s batches (null: none).
  explicit BatchSpans(std::shared_ptr<const CompletionLog> log);

  std::size_t size() const { return order_.size(); }
  const BatchSpan& operator[](std::size_t i) const {
    return log_->batches[order_[i]];
  }
  iterator begin() const { return {Base(), order_.data()}; }
  iterator end() const { return {Base(), order_.data() + order_.size()}; }

 private:
  const BatchSpan* Base() const {
    return log_ != nullptr ? log_->batches.data() : nullptr;
  }

  std::shared_ptr<const CompletionLog> log_;
  std::vector<std::uint32_t> order_;  // Log indices, (start_s, seq) order.
};

/// A log's request spans in (complete_s, seq) order: a read-only view. A
/// batch's member i takes seq batch.seq + 1 + i, so that order is the
/// batches in (complete_s, seq) order, each expanded member by member.
/// Each span is joined from its request and batch records when it is read,
/// so the iterator returns it by value.
class RequestSpans {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = RequestSpan;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RequestSpan;

    iterator() = default;
    RequestSpan operator*() const {
      const BatchSpan& batch = batches_[*batch_];
      const CompletedRequest& request = requests_[first_[*batch_] + member_];
      RequestSpan span;
      span.request_id = request.id;
      span.workload = batch.workload;
      span.close = batch.close;
      span.arrival_s = request.arrival_s;
      span.formed_s = batch.formed_s;
      span.start_s = batch.start_s;
      span.complete_s = batch.complete_s;
      span.batch_index = batch.batch_index;
      span.replica = batch.replica;
      span.batch_size = static_cast<std::int32_t>(batch.size);
      span.seq = batch.seq + 1 + member_;
      return span;
    }
    iterator& operator++() {
      if (++member_ == batches_[*batch_].size) {
        ++batch_;
        member_ = 0;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return batch_ == other.batch_ && member_ == other.member_;
    }

   private:
    friend class RequestSpans;
    iterator(const RequestSpans& spans, const std::uint32_t* batch)
        : batches_(spans.log_ != nullptr ? spans.log_->batches.data()
                                         : nullptr),
          requests_(spans.log_ != nullptr ? spans.log_->requests.data()
                                          : nullptr),
          first_(spans.first_.data()),
          batch_(batch) {}

    const BatchSpan* batches_ = nullptr;
    const CompletedRequest* requests_ = nullptr;
    const std::uint32_t* first_ = nullptr;
    const std::uint32_t* batch_ = nullptr;  // Into the view's order.
    std::int64_t member_ = 0;
  };

  RequestSpans() = default;
  /// Orders `log`'s batches (null: none). Throws unless every batch has a
  /// member and the sizes sum to the request count.
  explicit RequestSpans(std::shared_ptr<const CompletionLog> log);

  std::size_t size() const {
    return log_ != nullptr ? log_->requests.size() : 0;
  }
  iterator begin() const { return {*this, order_.data()}; }
  iterator end() const { return {*this, order_.data() + order_.size()}; }

 private:
  std::shared_ptr<const CompletionLog> log_;
  std::vector<std::uint32_t> order_;  // Log batch indices, (complete_s, seq).
  std::vector<std::uint32_t> first_;  // Each log batch's first request.
};

/// Everything one recorder captured, deterministically ordered by
/// (timestamp, seq). The unit the exporters (chrome_trace.h) consume. The
/// spans are views that share the completion log, so they stay valid after
/// the report is gone; they index the log as it stood when drained, which
/// is why only a finished run is drained. The instants and counters are
/// copies.
struct TraceData {
  TraceData() = default;
  /// Spans over `log` (null: none), with no instants or counters.
  explicit TraceData(const std::shared_ptr<const CompletionLog>& log)
      : requests(log), batches(log) {}

  RequestSpans requests;
  BatchSpans batches;
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
  /// assigned in record order, so the order is bit-deterministic. Allocates
  /// 12 bytes per committed batch (the two span orders and each batch's
  /// first request) plus the copies of the instants and counters.
  TraceData Drain() const;

 private:
  std::shared_ptr<const CompletionLog> log_;
  std::vector<InstantEvent> instants_;
  std::vector<CounterSample> counters_;
  std::int64_t next_seq_ = 0;
};

}  // namespace nsflow::obs
