#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>

#include "common/error.h"
#include "common/json.h"

namespace nsflow::obs {

namespace {

constexpr int kOctaves = Histogram::kBucketCount / Histogram::kBucketsPerOctave;
static_assert(Histogram::kBucketCount % Histogram::kBucketsPerOctave == 0);

/// Boundary(0..3): kBase * std::exp2(j / 4.0) as glibc rounds it, the
/// formula the boundaries were first computed with. A boundary one octave
/// up is exactly twice its double, so the table needs no libm.
constexpr double kFirstOctave[Histogram::kBucketsPerOctave] = {
    1e-6, 1.1892071150027209e-06, 1.4142135623730952e-06,
    1.681792830507429e-06};

constexpr std::array<double, Histogram::kBucketCount + 1> kBoundaries = [] {
  std::array<double, Histogram::kBucketCount + 1> boundaries{};
  for (int i = 0; i <= Histogram::kBucketCount; ++i) {
    boundaries[static_cast<std::size_t>(i)] =
        kFirstOctave[i % Histogram::kBucketsPerOctave] *
        static_cast<double>(std::uint64_t{1}
                            << (i / Histogram::kBucketsPerOctave));
  }
  return boundaries;
}();
static_assert(kBoundaries[0] == Histogram::kBase);

// BucketFor's cells: a positive double's bits shifted right by
// kCellShift are its exponent and top kCellBits mantissa bits, so each
// cell is 1/64 of an octave, and those keys rise with the value. The
// boundaries are 2^(1/4) apart, so a cell holds at most one of them.
// Cell 0 holds kBase, and the last cell Boundary(kBucketCount).
constexpr int kCellBits = 6;
constexpr int kCellShift = 52 - kCellBits;
constexpr std::uint64_t kFirstCellKey =
    std::bit_cast<std::uint64_t>(Histogram::kBase) >> kCellShift;
constexpr std::size_t kCells = (std::size_t{kOctaves} << kCellBits) + 1;
static_assert((std::bit_cast<std::uint64_t>(
                   kBoundaries[Histogram::kBucketCount]) >>
               kCellShift) -
                  kFirstCellKey ==
              kCells - 1);

/// Each cell's bucket at its lowest value (kBase for cell 0): a value in
/// the cell is in that bucket or, at or past the next boundary, the one
/// after it.
constexpr std::array<std::uint8_t, kCells> kCellBuckets = [] {
  std::array<std::uint8_t, kCells> cells{};
  int bucket = 0;
  for (std::size_t c = 0; c < kCells; ++c) {
    const double lowest =
        c == 0 ? Histogram::kBase
               : std::bit_cast<double>((kFirstCellKey + c) << kCellShift);
    while (bucket + 1 < Histogram::kBucketCount &&
           lowest >= kBoundaries[static_cast<std::size_t>(bucket + 1)]) {
      ++bucket;
    }
    cells[c] = static_cast<std::uint8_t>(bucket);
  }
  return cells;
}();
static_assert(
    [] {
      for (std::size_t c = 0; c + 1 < kCells; ++c) {
        if (kCellBuckets[c + 1] > kCellBuckets[c] + 1) {
          return false;  // Cell c would hold two boundaries.
        }
      }
      return true;
    }(),
    "a cell must hold at most one boundary");

}  // namespace

double Histogram::Boundary(int i) {
  NSF_CHECK_MSG(i >= 0 && i <= kBucketCount, "bucket index out of range");
  return kBoundaries[static_cast<std::size_t>(i)];
}

int Histogram::BucketFor(double value_s) {
  if (value_s < kBase) {
    return -1;
  }
  // Past the last cell (overflow, +inf, a NaN's bits) reads the last one.
  const std::uint64_t cell = std::min<std::uint64_t>(
      (std::bit_cast<std::uint64_t>(value_s) >> kCellShift) - kFirstCellKey,
      kCells - 1);
  const int bucket = kCellBuckets[cell];
  const bool past_next =
      value_s >= kBoundaries[static_cast<std::size_t>(bucket + 1)];
  return std::min(bucket + (past_next ? 1 : 0), kBucketCount - 1);
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

namespace {

/// Writes a JSON document's structure as Json::Dump(2) lays it out: a
/// member or element on its own line, indented two spaces per level, and
/// an empty object or array as "{}" or "[]".
class IndentedJson {
 public:
  explicit IndentedJson(std::string& out) : out_(out) {}

  void Open(char bracket) {
    out_ += bracket;
    ++depth_;
    empty_ = true;
  }
  void Close(char bracket) {
    --depth_;
    if (!empty_) {
      NewLine();
    }
    out_ += bracket;
    empty_ = false;  // The closed container is its parent's member.
  }
  /// Starts an array element.
  void Element() {
    if (!empty_) {
      out_ += ',';
    }
    empty_ = false;
    NewLine();
  }
  /// Starts an object member; its value follows.
  void Key(std::string_view key) {
    Element();
    EscapeString(out_, key);
    out_ += ": ";
  }
  void Number(double value) { FormatNumber(out_, value); }
  void String(std::string_view value) { EscapeString(out_, value); }

 private:
  void NewLine() {
    out_ += '\n';
    out_.append(2 * depth_, ' ');
  }

  std::string& out_;
  std::size_t depth_ = 0;
  bool empty_ = true;  // The open container has no member yet.
};

/// A histogram's object: the schema header, the totals and only the
/// non-zero buckets, as [bucket index, count] pairs in ascending index.
void WriteHistogram(IndentedJson& w, const Histogram& h) {
  w.Open('{');
  w.Key("buckets");
  w.Open('[');
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    if (h.bucket(i) != 0) {
      w.Element();
      w.Open('[');
      w.Element();
      w.Number(i);
      w.Element();
      w.Number(static_cast<double>(h.bucket(i)));
      w.Close(']');
    }
  }
  w.Close(']');
  w.Key("count");
  w.Number(static_cast<double>(h.count()));
  w.Key("max_s");
  w.Number(h.max_s());
  w.Key("min_s");
  w.Number(h.min_s());
  w.Key("schema");
  w.Open('{');
  w.Key("base_s");
  w.Number(Histogram::kBase);
  w.Key("bucket_count");
  w.Number(Histogram::kBucketCount);
  w.Key("buckets_per_octave");
  w.Number(Histogram::kBucketsPerOctave);
  w.Key("version");
  w.Number(Histogram::kSchemaVersion);
  w.Close('}');
  w.Key("sum_s");
  w.Number(h.sum_s());
  w.Key("underflow");
  w.Number(static_cast<double>(h.underflow()));
  w.Close('}');
}

}  // namespace

void MetricsRegistry::WriteTimeline(ChunkedOutput& out) const {
  // Each snapshot's instruments are in their maps' key order, the order
  // Json::Dump sorts an object's keys in.
  IndentedJson w(out.text());
  w.Open('{');
  w.Key("format");
  w.String("nsflow-metrics");
  w.Key("snapshots");
  w.Open('[');
  for (const MetricsSnapshot& snapshot : timeline_) {
    w.Element();
    w.Open('{');
    w.Key("t_s");
    w.Number(snapshot.t_s);
    w.Key("values");
    w.Open('{');
    w.Key("counters");
    w.Open('{');
    for (const auto& [name, value] : snapshot.counters) {
      w.Key(*name);
      w.Number(static_cast<double>(value));
    }
    w.Close('}');
    w.Key("gauges");
    w.Open('{');
    for (const auto& [name, value] : snapshot.gauges) {
      w.Key(*name);
      w.Number(value);
    }
    w.Close('}');
    w.Key("histograms");
    w.Open('{');
    for (const auto& [name, histogram] : snapshot.histograms) {
      w.Key(*name);
      WriteHistogram(w, histogram);
    }
    w.Close('}');
    w.Close('}');
    w.Close('}');
    out.EntryDone();
  }
  w.Close(']');
  w.Key("version");
  w.Number(1);
  w.Close('}');
  out.Finish();
}

std::string MetricsRegistry::TimelineJson() const {
  ChunkedOutput out;
  WriteTimeline(out);
  return std::move(out.text());
}

void MetricsRegistry::WriteTimelineJson(const ChunkSink& sink) const {
  ChunkedOutput out(sink);
  WriteTimeline(out);
}

}  // namespace nsflow::obs
