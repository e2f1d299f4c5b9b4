// Metrics registry — typed counters, gauges, and log-bucketed latency
// histograms for NSFlow-Serve observability (docs/OBSERVABILITY.md).
//
// The registry is the pull-side complement of the TraceRecorder: where the
// recorder captures *events* (one record per request/batch/decision), the
// registry captures *aggregates* that the serving components publish into —
// completed counts, cache hit/miss tallies, batch close reasons, latency
// distributions. Instruments are created once by name (std::map keeps the
// serialized order deterministic) and callers hold raw pointers afterwards,
// so the steady-state publish path is a plain add / a bucket increment
// with no allocation and no map lookup.
//
// Histograms are HDR-style log-bucketed with a *pinned* bucket-boundary
// schema: bucket i spans [kBase * 2^(i/kBucketsPerOctave), next boundary).
// The schema (base, buckets-per-octave, bucket count) is a versioned
// contract — two histograms with the same schema merge by adding counts,
// and a serialized timeline stays comparable across runs and commits
// (tests/obs_test.cpp pins the boundaries).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/chunked_output.h"

namespace nsflow::obs {

/// Monotonically increasing event tally. Plain integer: the engine's one
/// thread publishes and snapshots it.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-write-wins instantaneous value (active replicas, window rate).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed latency histogram with a pinned bucket-boundary schema.
///
/// Boundary(i) = kBase * 2^(i / kBucketsPerOctave): quarter-octave buckets
/// from 1 us up past ~100 s (relative bucket width 2^(1/4) ~= 19%), plus an
/// underflow bucket for values below kBase. Mergeable: two histograms with
/// the same schema add bucket-wise.
class Histogram {
 public:
  static constexpr double kBase = 1e-6;     // Seconds; bucket 0's floor.
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kBucketCount = 112;  // Through kBase * 2^28 = 268 s.
  static constexpr int kSchemaVersion = 1;

  /// Lower edge of bucket `i` (i == 0 -> kBase), read from a literal
  /// table: the first octave's four boundaries, each doubled exactly once
  /// per octave, so Boundary(i + 4) == 2 * Boundary(i).
  static double Boundary(int i);
  /// Bucket index for `value_s` (underflow -> -1 maps to the underflow
  /// slot; overflow clamps into the last bucket). One byte-table lookup by
  /// the value's exponent and top mantissa bits and one compare: no log,
  /// exp or division per call.
  static int BucketFor(double value_s);

  void Observe(double value_s);
  void Merge(const Histogram& other);

  std::int64_t count() const { return count_; }
  double sum_s() const { return sum_s_; }
  double min_s() const { return count_ > 0 ? min_s_ : 0.0; }
  double max_s() const { return count_ > 0 ? max_s_ : 0.0; }
  std::int64_t underflow() const { return underflow_; }
  std::int64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// Upper bucket boundary containing the p-th percentile (nearest-rank on
  /// bucket counts) — a <=19%-wide bracket of the true value.
  double ValueAtPercentile(double p) const;

 private:
  std::array<std::int64_t, kBucketCount> buckets_{};
  std::int64_t underflow_ = 0;
  std::int64_t count_ = 0;
  double sum_s_ = 0.0;
  double min_s_ = 0.0;
  double max_s_ = 0.0;
};

/// One virtual-time point of every instrument's value. Stored *typed* —
/// name pointers into the registry's maps (stable; a snapshot never
/// outlives its registry) plus plain value copies — so taking a snapshot
/// on the serve path costs three vector fills; the export writes the text.
struct MetricsSnapshot {
  double t_s = 0.0;
  std::vector<std::pair<const std::string*, std::int64_t>> counters;
  std::vector<std::pair<const std::string*, double>> gauges;
  std::vector<std::pair<const std::string*, Histogram>> histograms;
};

class MetricsRegistry {
 public:
  /// Create-or-get by name. The returned pointer is stable for the life of
  /// the registry — resolve it once at attach time, publish through it.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Append a timeline point stamped at virtual time `t_s`. Cheap enough
  /// for the serve loop's snapshot clock: no Json building, no string
  /// copies (see MetricsSnapshot).
  void TakeSnapshot(double t_s);
  const std::vector<MetricsSnapshot>& timeline() const { return timeline_; }

  /// The metrics.json document: schema header + the snapshot timeline
  /// (callers append a final snapshot before serializing). Written in one
  /// pass, keys in the order Json::Dump sorts them and values through
  /// common/json's EscapeString and FormatNumber, at Dump(2)'s
  /// indentation: the bytes Json::Dump(2) writes for the same document.
  std::string TimelineJson() const;
  /// The same document, handed to `sink` in chunks (chunked_output.h).
  void WriteTimelineJson(const ChunkSink& sink) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<MetricsSnapshot> timeline_;

  void WriteTimeline(ChunkedOutput& out) const;
};

}  // namespace nsflow::obs
