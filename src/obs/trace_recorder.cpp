#include "obs/trace_recorder.h"

#include <algorithm>
#include <utility>

namespace nsflow::obs {

template <typename Record>
void TraceRecorder::Push(std::vector<Record>& pool, std::size_t& head,
                         Record record) {
  record.seq = next_seq_++;
  if (ring_capacity_ > 0 && pool.size() >= ring_capacity_) {
    pool[head] = std::move(record);  // Overwrite the oldest record.
    head = (head + 1) % ring_capacity_;
    ++dropped_;
    return;
  }
  if (pool.capacity() == 0) {
    // Reserve on the first record, not at construction: a recorder that
    // never sees a record kind never pays for its pool.
    pool.reserve(ring_capacity_ > 0 ? ring_capacity_ : kInitialReserve);
  }
  pool.push_back(std::move(record));
}

void TraceRecorder::RecordRequest(RequestSpan span) {
  Push(requests_, request_head_, span);
}

void TraceRecorder::RecordBatch(BatchSpan span) {
  Push(batches_, batch_head_, span);
}

void TraceRecorder::RecordInstant(InstantEvent event) {
  // Control-plane events are never ring-evicted: they are rare and a
  // long-run trace must keep its reconfiguration history.
  event.seq = next_seq_++;
  instants_.push_back(std::move(event));
}

void TraceRecorder::RecordCounter(CounterSample sample) {
  sample.seq = next_seq_++;
  counters_.push_back(sample);
}

namespace {

/// (timestamp, seq) ordering: the timestamp leads, record order breaks
/// ties.
template <typename Record>
void SortByTime(std::vector<Record>& records, double Record::* stamp) {
  std::sort(records.begin(), records.end(),
            [stamp](const Record& a, const Record& b) {
              if (a.*stamp != b.*stamp) {
                return a.*stamp < b.*stamp;
              }
              return a.seq < b.seq;
            });
}

}  // namespace

TraceData TraceRecorder::Drain() const {
  TraceData data;
  data.requests = requests_;
  data.batches = batches_;
  data.instants = instants_;
  data.counters = counters_;
  data.dropped = dropped_;
  SortByTime(data.requests, &RequestSpan::complete_s);
  SortByTime(data.batches, &BatchSpan::start_s);
  SortByTime(data.instants, &InstantEvent::t_s);
  SortByTime(data.counters, &CounterSample::t_s);
  return data;
}

}  // namespace nsflow::obs
