#include "obs/trace_recorder.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.h"

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

constexpr std::size_t kMaxIndexed = std::numeric_limits<std::uint32_t>::max();

/// Sorts `records` into (timestamp, seq) order. A sequence that is already
/// in it is only checked.
template <typename Record>
void SortByTime(std::vector<Record>& records, double Record::* stamp) {
  const auto by_time = [stamp](const Record& a, const Record& b) {
    return EarlierInTrace(a, b, stamp);
  };
  if (!std::is_sorted(records.begin(), records.end(), by_time)) {
    std::sort(records.begin(), records.end(), by_time);
  }
}

/// The indices of `batches` in (stamp, seq) order. Seq breaks stamp ties,
/// not the index: a decoded log is stored in start order, so its seqs do
/// not rise with the index. A log already in order is only checked; a
/// replica-fail log commits in (completion, dispatch order), which is its
/// request spans' order.
std::vector<std::uint32_t> StampOrder(const std::vector<BatchSpan>& batches,
                                      double BatchSpan::* stamp) {
  NSF_CHECK_MSG(batches.size() <= kMaxIndexed,
                "a completion log holds more batches than a span order "
                "indexes");
  std::vector<std::uint32_t> order(batches.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  const auto by_time = [&batches, stamp](std::uint32_t a, std::uint32_t b) {
    return EarlierInTrace(batches[a], batches[b], stamp);
  };
  if (!std::is_sorted(order.begin(), order.end(), by_time)) {
    std::sort(order.begin(), order.end(), by_time);
  }
  return order;
}

}  // namespace

BatchSpans::BatchSpans(std::shared_ptr<const CompletionLog> log)
    : log_(std::move(log)) {
  if (log_ != nullptr) {
    order_ = StampOrder(log_->batches, &BatchSpan::start_s);
  }
}

RequestSpans::RequestSpans(std::shared_ptr<const CompletionLog> log)
    : log_(std::move(log)) {
  if (log_ == nullptr) {
    return;
  }
  const std::size_t requests = log_->requests.size();
  NSF_CHECK_MSG(requests <= kMaxIndexed,
                "a completion log holds more requests than a span view "
                "indexes");
  first_.resize(log_->batches.size());
  std::size_t next = 0;
  for (std::size_t b = 0; b < log_->batches.size(); ++b) {
    const std::int64_t size = log_->batches[b].size;
    NSF_CHECK_MSG(size > 0 && static_cast<std::uint64_t>(size) <=
                                  requests - next,
                  "a completion log's batches must each hold a member, and "
                  "their sizes sum to its request count");
    first_[b] = static_cast<std::uint32_t>(next);
    next += static_cast<std::size_t>(size);
  }
  NSF_CHECK_MSG(next == requests,
                "a completion log's batch sizes must sum to its request "
                "count");
  order_ = StampOrder(log_->batches, &BatchSpan::complete_s);
}

TraceData TraceRecorder::Drain() const {
  TraceData data(log_);
  data.instants = instants_;
  data.counters = counters_;
  SortByTime(data.instants, &InstantEvent::t_s);
  SortByTime(data.counters, &CounterSample::t_s);
  return data;
}

}  // namespace nsflow::obs
