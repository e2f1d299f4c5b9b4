#include "obs/trace_recorder.h"

#include <algorithm>
#include <utility>

namespace nsflow::obs {

void TraceRecorder::RecordInstant(InstantEvent event) {
  event.seq = next_seq_++;
  instants_.push_back(std::move(event));
}

void TraceRecorder::RecordCounter(CounterSample sample) {
  sample.seq = next_seq_++;
  counters_.push_back(sample);
}

namespace {

/// (timestamp, seq) ordering: the timestamp leads, record order breaks
/// ties. Seqs are unique, so the order is total and a sequence that is
/// already in it is left as it is: a replica-fail log commits in
/// (completion, dispatch order), which puts its request spans in order.
template <typename Record>
void SortByTime(std::vector<Record>& records, double Record::* stamp) {
  const auto by_time = [stamp](const Record& a, const Record& b) {
    if (a.*stamp != b.*stamp) {
      return a.*stamp < b.*stamp;
    }
    return a.seq < b.seq;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_time)) {
    std::sort(records.begin(), records.end(), by_time);
  }
}

}  // namespace

TraceData TraceRecorder::Drain() const {
  TraceData data;
  if (log_ != nullptr) {
    data.batches = log_->batches;
    data.requests.reserve(log_->requests.size());
    auto request = log_->requests.begin();
    for (const BatchSpan& batch : log_->batches) {
      for (std::int64_t i = 0; i < batch.size; ++i, ++request) {
        RequestSpan span;
        span.request_id = request->id;
        span.workload = batch.workload;
        span.close = batch.close;
        span.arrival_s = request->arrival_s;
        span.formed_s = batch.formed_s;
        span.start_s = batch.start_s;
        span.complete_s = batch.complete_s;
        span.batch_index = batch.batch_index;
        span.replica = batch.replica;
        span.batch_size = static_cast<std::int32_t>(batch.size);
        span.seq = batch.seq + 1 + i;
        data.requests.push_back(span);
      }
    }
  }
  data.instants = instants_;
  data.counters = counters_;
  SortByTime(data.requests, &RequestSpan::complete_s);
  SortByTime(data.batches, &BatchSpan::start_s);
  SortByTime(data.instants, &InstantEvent::t_s);
  SortByTime(data.counters, &CounterSample::t_s);
  return data;
}

}  // namespace nsflow::obs
