#include "obs/trace_recorder.h"

#include <algorithm>
#include <array>
#include <cmath>
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

/// Most buckets StampOrder spreads a log over. Their counts live on the
/// stack (32 KB), so an order costs its own 4 bytes per batch and nothing
/// more.
constexpr std::size_t kMaxStampBuckets = 8192;

/// The indices of `batches` in (stamp, seq) order. Seq breaks stamp ties,
/// not the index: a decoded log is stored in start order, so its seqs do
/// not rise with the index. A log already in order is only checked; a
/// replica-fail log commits in (completion, dispatch order), which is its
/// request spans' order. Any other log is spread over equal-width stamp
/// buckets on [min, max], one counting pass, a prefix sum and one scatter
/// into the order, and each bucket is then sorted on its own.
std::vector<std::uint32_t> StampOrder(const std::vector<BatchSpan>& batches,
                                      double BatchSpan::* stamp) {
  NSF_CHECK_MSG(batches.size() <= kMaxIndexed,
                "a completion log holds more batches than a span order "
                "indexes");
  const auto n = static_cast<std::uint32_t>(batches.size());
  std::vector<std::uint32_t> order(n);
  const auto earlier = [stamp](const BatchSpan& a, const BatchSpan& b) {
    return EarlierInTrace(a, b, stamp);
  };
  const auto by_time = [&batches, &earlier](std::uint32_t a,
                                            std::uint32_t b) {
    return earlier(batches[a], batches[b]);
  };
  if (std::is_sorted(batches.begin(), batches.end(), earlier)) {
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    return order;
  }

  // A stamp's bucket: (stamp - lo) * scale, truncated, never decreases as
  // the stamp grows, and -0.0 and +0.0 share one. A range that is not
  // finite and positive (all stamps equal, an infinite end) or too narrow
  // to scale takes one bucket; a NaN is never cast (it takes the last).
  const auto [lo_span, hi_span] =
      std::minmax_element(batches.begin(), batches.end(),
                          [stamp](const BatchSpan& a, const BatchSpan& b) {
                            return a.*stamp < b.*stamp;
                          });
  const double lo = (*lo_span).*stamp;
  const double range = (*hi_span).*stamp - lo;
  std::uint32_t buckets = static_cast<std::uint32_t>(
      std::min<std::size_t>(kMaxStampBuckets, n));
  double scale = static_cast<double>(buckets) / range;
  if (!(range > 0.0 && std::isfinite(range) && std::isfinite(scale))) {
    buckets = 1;
    scale = 0.0;
  }
  const double last = static_cast<double>(buckets - 1);
  const auto bucket_of = [&](std::uint32_t b) -> std::uint32_t {
    const double x = (batches[b].*stamp - lo) * scale;
    return x < last ? static_cast<std::uint32_t>(x) : buckets - 1;
  };

  std::array<std::uint32_t, kMaxStampBuckets> ends{};
  for (std::uint32_t b = 0; b < n; ++b) {
    ++ends[bucket_of(b)];
  }
  std::uint32_t start = 0;  // Each count becomes its bucket's start.
  for (std::uint32_t k = 0; k < buckets; ++k) {
    start += std::exchange(ends[k], start);
  }
  for (std::uint32_t b = 0; b < n; ++b) {
    order[ends[bucket_of(b)]++] = b;  // Now each bucket's end.
  }
  std::uint32_t begin = 0;
  for (std::uint32_t k = 0; k < buckets; ++k) {
    if (ends[k] - begin > 1) {
      std::sort(order.begin() + begin, order.begin() + ends[k], by_time);
    }
    begin = ends[k];
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
