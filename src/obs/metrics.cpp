#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace nsflow::obs {

double Histogram::Boundary(int i) {
  NSF_CHECK_MSG(i >= 0 && i <= kBucketCount, "bucket index out of range");
  return kBase * std::exp2(static_cast<double>(i) /
                           static_cast<double>(kBucketsPerOctave));
}

int Histogram::BucketFor(double value_s) {
  if (value_s < kBase) {
    return -1;
  }
  static const std::array<double, kBucketCount + 1> kBoundaries = [] {
    std::array<double, kBucketCount + 1> boundaries{};
    for (int i = 0; i <= kBucketCount; ++i) {
      boundaries[static_cast<std::size_t>(i)] = Boundary(i);
    }
    return boundaries;
  }();
  // Start at the first bucket of v's octave (v / base in [2^(e-1), 2^e)),
  // then nudge to the unique i with Boundary(i) <= v < Boundary(i + 1):
  // the table holds the boundaries themselves, so the bucket is the same
  // wherever the search starts.
  int exponent = 0;
  std::frexp(value_s / kBase, &exponent);
  int i = std::clamp((exponent - 1) * kBucketsPerOctave, 0, kBucketCount - 1);
  while (i > 0 && value_s < kBoundaries[static_cast<std::size_t>(i)]) {
    --i;
  }
  while (i + 1 < kBucketCount &&
         value_s >= kBoundaries[static_cast<std::size_t>(i + 1)]) {
    ++i;
  }
  return i;
}

void Histogram::Observe(double value_s) {
  const int i = BucketFor(value_s);
  if (i < 0) {
    ++underflow_;
  } else {
    ++buckets_[static_cast<std::size_t>(i)];
  }
  if (count_ == 0) {
    min_s_ = value_s;
    max_s_ = value_s;
  } else {
    min_s_ = std::min(min_s_, value_s);
    max_s_ = std::max(max_s_, value_s);
  }
  ++count_;
  sum_s_ += value_s;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  underflow_ += other.underflow_;
  if (other.count_ > 0) {
    min_s_ = count_ > 0 ? std::min(min_s_, other.min_s_) : other.min_s_;
    max_s_ = count_ > 0 ? std::max(max_s_, other.max_s_) : other.max_s_;
  }
  count_ += other.count_;
  sum_s_ += other.sum_s_;
}

double Histogram::ValueAtPercentile(double p) const {
  NSF_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::int64_t>(std::max(
      1.0, std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::int64_t seen = underflow_;
  if (rank <= seen) {
    return kBase;  // Underflow bucket's upper edge.
  }
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (rank <= seen) {
      return Boundary(i + 1);
    }
  }
  return max_s_;
}

Json Histogram::ToJson() const {
  JsonObject schema;
  schema["base_s"] = Json(kBase);
  schema["buckets_per_octave"] = Json(kBucketsPerOctave);
  schema["bucket_count"] = Json(kBucketCount);
  schema["version"] = Json(kSchemaVersion);

  // Sparse: [bucket index, count] pairs, ascending index.
  JsonArray nonzero;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[static_cast<std::size_t>(i)] != 0) {
      nonzero.push_back(Json(JsonArray{
          Json(i), Json(buckets_[static_cast<std::size_t>(i)])}));
    }
  }

  JsonObject out;
  out["schema"] = Json(std::move(schema));
  out["count"] = Json(count_);
  out["underflow"] = Json(underflow_);
  out["sum_s"] = Json(sum_s_);
  out["min_s"] = Json(min_s());
  out["max_s"] = Json(max_s());
  out["buckets"] = Json(std::move(nonzero));
  return Json(std::move(out));
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

Json MetricsSnapshot::ToJson() const {
  JsonObject counter_values;
  for (const auto& [name, value] : counters) {
    counter_values[*name] = Json(value);
  }
  JsonObject gauge_values;
  for (const auto& [name, value] : gauges) {
    gauge_values[*name] = Json(value);
  }
  JsonObject histogram_values;
  for (const auto& [name, histogram] : histograms) {
    histogram_values[*name] = histogram.ToJson();
  }
  JsonObject out;
  out["counters"] = Json(std::move(counter_values));
  out["gauges"] = Json(std::move(gauge_values));
  out["histograms"] = Json(std::move(histogram_values));
  return Json(std::move(out));
}

void MetricsRegistry::TakeSnapshot(double t_s) {
  MetricsSnapshot snapshot;
  snapshot.t_s = t_s;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(&name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(&name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(&name, *histogram);
  }
  timeline_.push_back(std::move(snapshot));
}

Json MetricsRegistry::TimelineJson() const {
  JsonArray points;
  for (const MetricsSnapshot& snapshot : timeline_) {
    JsonObject point;
    point["t_s"] = Json(snapshot.t_s);
    point["values"] = snapshot.ToJson();
    points.push_back(Json(std::move(point)));
  }
  JsonObject out;
  out["format"] = Json("nsflow-metrics");
  out["version"] = Json(1);
  out["snapshots"] = Json(std::move(points));
  return Json(std::move(out));
}

}  // namespace nsflow::obs
