// Observability tests (docs/OBSERVABILITY.md): pinned histogram bucket
// boundaries and lookup, pinned Chrome documents, bit-exact binary trace
// round trips, the NSFT encoded size, hostile headers and records, NSFT
// round trips of served runs, spans drained from a completion log in
// (stamp, seq) order, fixed-seed trace determinism of an autoscaled
// diurnal run, and request/batch span invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/completion_log.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"

namespace nsflow::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(ObsHistogramTest, BucketBoundariesArePinned) {
  // The schema is a versioned contract: these exact boundaries must hold
  // across commits or serialized histograms stop being comparable.
  EXPECT_EQ(Histogram::kSchemaVersion, 1);
  EXPECT_EQ(Histogram::kBucketsPerOctave, 4);
  EXPECT_EQ(Histogram::kBucketCount, 112);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(0), 1e-6);
  // Whole octaves are exact powers of two of the base.
  EXPECT_DOUBLE_EQ(Histogram::Boundary(4), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(8), 4e-6);
  EXPECT_DOUBLE_EQ(Histogram::Boundary(40), 1024e-6);
  // Quarter-octave steps are monotone with ~19% relative width.
  for (int i = 1; i < Histogram::kBucketCount; ++i) {
    const double ratio =
        Histogram::Boundary(i) / Histogram::Boundary(i - 1);
    EXPECT_NEAR(ratio, std::exp2(0.25), 1e-12);
  }
  // BucketFor agrees with the boundaries, including the exact edges.
  EXPECT_EQ(Histogram::BucketFor(1e-6), 0);
  EXPECT_EQ(Histogram::BucketFor(2e-6), 4);
  EXPECT_EQ(Histogram::BucketFor(2e-6 - 1e-12), 3);
  EXPECT_EQ(Histogram::BucketFor(0.5e-6), -1);  // Underflow.
  EXPECT_EQ(Histogram::BucketFor(1e9), Histogram::kBucketCount - 1);
}

/// The bucket search BucketFor replaced: floor(log2(v / base)) quarter
/// octaves, then nudged against freshly computed boundaries.
int LogSearchBucketFor(double value_s) {
  if (value_s < Histogram::kBase) {
    return -1;
  }
  int i = static_cast<int>(
      std::floor(std::log2(value_s / Histogram::kBase) *
                 static_cast<double>(Histogram::kBucketsPerOctave)));
  i = std::clamp(i, 0, Histogram::kBucketCount - 1);
  while (i > 0 && value_s < Histogram::Boundary(i)) {
    --i;
  }
  while (i + 1 < Histogram::kBucketCount &&
         value_s >= Histogram::Boundary(i + 1)) {
    ++i;
  }
  return i;
}

TEST(ObsHistogramTest, BucketTableMatchesTheLogSearch) {
  // Every boundary and both its float neighbours, underflow, overflow
  // past the last boundary, and a million latencies spanning 1e-10..1e3 s.
  std::vector<double> values = {0.0, 0.5e-6, 1e3, 1e9};
  for (int i = 0; i <= Histogram::kBucketCount; ++i) {
    const double boundary = Histogram::Boundary(i);
    values.push_back(std::nextafter(boundary, 0.0));
    values.push_back(boundary);
    values.push_back(
        std::nextafter(boundary, std::numeric_limits<double>::infinity()));
  }
  std::mt19937_64 rng(20261017);
  std::lognormal_distribution<double> latency(std::log(1e-3), 3.0);
  for (int n = 0; n < 1000000; ++n) {
    values.push_back(latency(rng));
  }
  std::int64_t mismatches = 0;
  for (const double value : values) {
    if (Histogram::BucketFor(value) != LogSearchBucketFor(value)) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at " << value << ": "
                      << Histogram::BucketFor(value) << " vs "
                      << LogSearchBucketFor(value);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ObsHistogramTest, ObserveMergeAndPercentileBracket) {
  Histogram a;
  for (int i = 0; i < 90; ++i) {
    a.Observe(1e-3);  // 1 ms.
  }
  for (int i = 0; i < 10; ++i) {
    a.Observe(50e-3);  // 50 ms tail.
  }
  EXPECT_EQ(a.count(), 100);
  EXPECT_NEAR(a.sum_s(), 90 * 1e-3 + 10 * 50e-3, 1e-12);
  EXPECT_DOUBLE_EQ(a.min_s(), 1e-3);
  EXPECT_DOUBLE_EQ(a.max_s(), 50e-3);
  // The bucketed percentile brackets the true value within one bucket
  // (<= 2^(1/4) relative error on the upper edge it reports).
  EXPECT_GE(a.ValueAtPercentile(50.0), 1e-3);
  EXPECT_LE(a.ValueAtPercentile(50.0), 1e-3 * std::exp2(0.25) + 1e-12);
  EXPECT_GE(a.ValueAtPercentile(99.0), 50e-3);
  EXPECT_LE(a.ValueAtPercentile(99.0), 50e-3 * std::exp2(0.25) + 1e-12);

  Histogram b;
  b.Observe(0.1e-6);  // Underflow slot.
  b.Merge(a);
  EXPECT_EQ(b.count(), 101);
  EXPECT_EQ(b.underflow(), 1);
  EXPECT_DOUBLE_EQ(b.max_s(), 50e-3);
  EXPECT_DOUBLE_EQ(b.min_s(), 0.1e-6);
}

TEST(ObsMetricsTest, RegistryPointersAreStableAndSnapshotsAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("serve.completed");
  EXPECT_EQ(c, registry.GetCounter("serve.completed"));
  c->Increment(3);
  registry.GetGauge("pool.rate")->Set(123.5);
  registry.GetHistogram("serve.latency_s")->Observe(2e-3);
  registry.TakeSnapshot(0.25);
  c->Increment();
  registry.TakeSnapshot(0.5);
  ASSERT_EQ(registry.timeline().size(), 2u);
  EXPECT_DOUBLE_EQ(registry.timeline()[0].t_s, 0.25);
  const std::string doc = registry.TimelineJson().Dump(0);
  EXPECT_NE(doc.find("\"nsflow-metrics\""), std::string::npos);
  EXPECT_NE(doc.find("serve.completed"), std::string::npos);
}

// ------------------------------------------------------------- round trips

/// A hand-built run: batches A (two members), C and B, committed in that
/// order. Starts order them B, A, C, which Drain() must sort, and
/// completions A, C, B, the commit order. A and C tie on both stamps, and
/// seq breaks the ties. One instant and one counter follow.
TraceData SampleTrace() {
  auto log = std::make_shared<CompletionLog>();
  const auto commit = [&log](std::uint32_t batch_index, std::int32_t workload,
                             std::int32_t replica, BatchClose close,
                             double formed_s, double start_s,
                             double complete_s,
                             std::vector<CompletedRequest> members,
                             std::uint32_t seq) {
    BatchSpan b;
    b.batch_index = batch_index;
    b.workload = workload;
    b.replica = replica;
    b.close = close;
    b.formed_s = formed_s;
    b.start_s = start_s;
    b.complete_s = complete_s;
    b.size = static_cast<std::int32_t>(members.size());
    b.seq = seq;
    log->batches.push_back(b);
    log->requests.insert(log->requests.end(), members.begin(), members.end());
  };
  commit(3, 1, 2, BatchClose::kSizeCap, 0.002, 0.003, 0.004,
         {{7, 0.001}, {8, 0.0015}}, 0);  // A
  commit(5, 1, 4, BatchClose::kFlush, 0.0029, 0.003, 0.004, {{10, 0.0027}},
         3);  // C
  commit(4, 0, 3, BatchClose::kDeadline, 0.0024, 0.0025, 0.0045,
         {{9, 0.0023}}, 5);  // B
  TraceData data(log);
  InstantEvent i;
  i.t_s = 0.25;
  i.kind = InstantKind::kReplicaAdded;
  i.replica = 5;
  i.workload = 1;
  i.detail = "add replica 5: demand above band";
  i.seq = 7;
  data.instants.push_back(i);
  CounterSample s;
  s.t_s = 0.25;
  s.window_rate_rps = 212.5;
  s.active_replicas = 6;
  s.queue_depth = 11;
  s.seq = 8;
  data.counters.push_back(s);
  return data;
}

TraceMeta SampleMeta() {
  TraceMeta meta;
  meta.workload_names = {"mlp", "resnet18"};
  meta.replicas = 6;
  return meta;
}

/// The sample trace plus one instant of every InstantKind: details that
/// need escaping, are empty or are UTF-8, replicas on and off the track,
/// and a workload the meta does not name. Its own helper, so the NSFT
/// tests' byte offsets into SampleTrace() hold.
TraceData EveryInstantTrace() {
  TraceData data = SampleTrace();
  const char* const details[] = {
      "p99 \"above\" band",  "",
      "pool C:\\r2",         "one\ntwo\tthree\r",
      "bell \x07 unit \x1f", "caf\xc3\xa9",
      "node0->node1 bytes=4096",
  };
  for (int kind = 0; kind <= static_cast<int>(InstantKind::kClusterRoute);
       ++kind) {
    InstantEvent instant;
    instant.t_s = 0.3 + 0.01 * kind;
    instant.kind = static_cast<InstantKind>(kind);
    instant.replica = kind % 3 == 0 ? -1 : kind;
    instant.workload = kind % 4 - 1;
    instant.detail = details[kind % 7];
    instant.seq = 9 + kind;
    data.instants.push_back(instant);
  }
  return data;
}

// EveryInstantTrace()'s Chrome entries, one per line, as the exporter that
// built a ChromeEvent list and a Json tree wrote them: the metadata,
// counters, instants and batches every detail writes, then the request
// spans of each detail.
const char* const kSharedEntries[] = {
    R"({"args":{"name":"requests"},"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0})",
    R"({"args":{"name":"replicas"},"name":"process_name","ph":"M","pid":2,"tid":0,"ts":0})",
    R"({"args":{"name":"autoscaler"},"name":"process_name","ph":"M","pid":3,"tid":0,"ts":0})",
    R"({"args":{"name":"mlp"},"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0})",
    R"({"args":{"name":"resnet18"},"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0})",
    R"({"args":{"name":"replica 0"},"name":"thread_name","ph":"M","pid":2,"tid":0,"ts":0})",
    R"({"args":{"name":"replica 1"},"name":"thread_name","ph":"M","pid":2,"tid":1,"ts":0})",
    R"({"args":{"name":"replica 2"},"name":"thread_name","ph":"M","pid":2,"tid":2,"ts":0})",
    R"({"args":{"name":"replica 3"},"name":"thread_name","ph":"M","pid":2,"tid":3,"ts":0})",
    R"({"args":{"name":"replica 4"},"name":"thread_name","ph":"M","pid":2,"tid":4,"ts":0})",
    R"({"args":{"name":"replica 5"},"name":"thread_name","ph":"M","pid":2,"tid":5,"ts":0})",
    R"({"args":{"name":"control loop"},"name":"thread_name","ph":"M","pid":3,"tid":0,"ts":0})",
    R"({"args":{"rps":212.5},"cat":"autoscaler","name":"window_rate_rps","ph":"C","pid":3,"tid":0,"ts":250000})",
    R"({"args":{"replicas":6},"cat":"autoscaler","name":"active_replicas","ph":"C","pid":3,"tid":0,"ts":250000})",
    R"({"args":{"depth":11},"cat":"autoscaler","name":"queue_depth","ph":"C","pid":3,"tid":0,"ts":250000})",
    R"({"args":{"detail":"add replica 5: demand above band","workload":"resnet18"},"cat":"replica","name":"added","ph":"i","pid":2,"s":"t","tid":5,"ts":250000})",
    R"({"args":{"detail":"p99 \"above\" band"},"cat":"autoscaler","name":"decision","ph":"i","pid":3,"s":"t","tid":0,"ts":300000})",
    R"({"args":{"workload":"mlp"},"cat":"autoscaler","name":"add deferred","ph":"i","pid":3,"s":"t","tid":0,"ts":310000})",
    R"({"args":{"detail":"pool C:\\r2","workload":"resnet18"},"cat":"replica","name":"added","ph":"i","pid":2,"s":"t","tid":2,"ts":320000})",
    R"({"args":{"detail":"one\ntwo\tthree\r","workload":"workload 2"},"cat":"replica","name":"draining","ph":"i","pid":2,"s":"t","tid":-1,"ts":329999.99999999994})",
    R"({"args":{"detail":"bell \u0007 unit \u001f"},"cat":"replica","name":"retired","ph":"i","pid":2,"s":"t","tid":4,"ts":339999.99999999994})",
    R"({"args":{"detail":")" "caf\xc3\xa9" R"(","workload":"mlp"},"cat":"replica","name":"refit","ph":"i","pid":2,"s":"t","tid":5,"ts":350000})",
    R"({"args":{"detail":"node0->node1 bytes=4096","workload":"resnet18"},"cat":"replica","name":"failed","ph":"i","pid":2,"s":"t","tid":-1,"ts":360000})",
    R"({"args":{"detail":"p99 \"above\" band","workload":"workload 2"},"cat":"replica","name":"recovered","ph":"i","pid":2,"s":"t","tid":7,"ts":370000})",
    R"({"cat":"replica","name":"derated","ph":"i","pid":2,"s":"t","tid":8,"ts":380000})",
    R"({"args":{"detail":"pool C:\\r2","workload":"mlp"},"cat":"adversity","name":"environment","ph":"i","pid":3,"s":"t","tid":0,"ts":390000})",
    R"({"args":{"detail":"one\ntwo\tthree\r","workload":"resnet18"},"cat":"admission","name":"shed","ph":"i","pid":3,"s":"t","tid":0,"ts":400000})",
    R"({"args":{"detail":"bell \u0007 unit \u001f","workload":"workload 2"},"cat":"admission","name":"retry","ph":"i","pid":3,"s":"t","tid":0,"ts":410000})",
    R"({"args":{"detail":")" "caf\xc3\xa9" R"("},"cat":"admission","name":"expired","ph":"i","pid":3,"s":"t","tid":0,"ts":420000})",
    R"({"args":{"detail":"node0->node1 bytes=4096","workload":"mlp"},"cat":"cluster","name":"route","ph":"i","pid":3,"s":"t","tid":0,"ts":430000})",
    R"({"args":{"batch":4,"close":"deadline","size":1},"cat":"batch","dur":1999.9999999999995,"name":"mlp","ph":"X","pid":2,"tid":3,"ts":2500})",
    R"({"args":{"batch":3,"close":"size_cap","size":2},"cat":"batch","dur":1000,"name":"resnet18","ph":"X","pid":2,"tid":2,"ts":3000})",
    R"({"args":{"batch":5,"close":"flush","size":1},"cat":"batch","dur":1000,"name":"resnet18","ph":"X","pid":2,"tid":4,"ts":3000})",
};
const char* const kSpansRequests[] = {
    R"({"cat":"request","id":"7","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":1000})",
    R"({"args":{"batch":3,"batch_size":2,"close":"size_cap","replica":2},"cat":"request","id":"7","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"8","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":1500})",
    R"({"args":{"batch":3,"batch_size":2,"close":"size_cap","replica":2},"cat":"request","id":"8","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"10","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":2700})",
    R"({"args":{"batch":5,"batch_size":1,"close":"flush","replica":4},"cat":"request","id":"10","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"9","name":"mlp","ph":"b","pid":1,"tid":0,"ts":2300})",
    R"({"args":{"batch":4,"batch_size":1,"close":"deadline","replica":3},"cat":"request","id":"9","name":"mlp","ph":"e","pid":1,"tid":0,"ts":4500})",
};
const char* const kFullRequests[] = {
    R"({"cat":"request","id":"7","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":1000})",
    R"({"cat":"request","id":"7","name":"form","ph":"b","pid":1,"tid":1,"ts":1000})",
    R"({"cat":"request","id":"7","name":"form","ph":"e","pid":1,"tid":1,"ts":2000})",
    R"({"cat":"request","id":"7","name":"execute","ph":"b","pid":1,"tid":1,"ts":3000})",
    R"({"cat":"request","id":"7","name":"execute","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"args":{"batch":3,"batch_size":2,"close":"size_cap","replica":2},"cat":"request","id":"7","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"8","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":1500})",
    R"({"cat":"request","id":"8","name":"form","ph":"b","pid":1,"tid":1,"ts":1500})",
    R"({"cat":"request","id":"8","name":"form","ph":"e","pid":1,"tid":1,"ts":2000})",
    R"({"cat":"request","id":"8","name":"execute","ph":"b","pid":1,"tid":1,"ts":3000})",
    R"({"cat":"request","id":"8","name":"execute","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"args":{"batch":3,"batch_size":2,"close":"size_cap","replica":2},"cat":"request","id":"8","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"10","name":"resnet18","ph":"b","pid":1,"tid":1,"ts":2700})",
    R"({"cat":"request","id":"10","name":"form","ph":"b","pid":1,"tid":1,"ts":2700})",
    R"({"cat":"request","id":"10","name":"form","ph":"e","pid":1,"tid":1,"ts":2900})",
    R"({"cat":"request","id":"10","name":"execute","ph":"b","pid":1,"tid":1,"ts":3000})",
    R"({"cat":"request","id":"10","name":"execute","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"args":{"batch":5,"batch_size":1,"close":"flush","replica":4},"cat":"request","id":"10","name":"resnet18","ph":"e","pid":1,"tid":1,"ts":4000})",
    R"({"cat":"request","id":"9","name":"mlp","ph":"b","pid":1,"tid":0,"ts":2300})",
    R"({"cat":"request","id":"9","name":"form","ph":"b","pid":1,"tid":0,"ts":2300})",
    R"({"cat":"request","id":"9","name":"form","ph":"e","pid":1,"tid":0,"ts":2400})",
    R"({"cat":"request","id":"9","name":"execute","ph":"b","pid":1,"tid":0,"ts":2500})",
    R"({"cat":"request","id":"9","name":"execute","ph":"e","pid":1,"tid":0,"ts":4500})",
    R"({"args":{"batch":4,"batch_size":1,"close":"deadline","replica":3},"cat":"request","id":"9","name":"mlp","ph":"e","pid":1,"tid":0,"ts":4500})",
};

/// `entries` joined into a trace_event document.
std::string ChromeDocument(const std::vector<std::string>& entries) {
  std::string text = R"({"displayTimeUnit":"ms","traceEvents":[)";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) {
      text += ',';
    }
    text += entries[i];
  }
  text += "]}";
  return text;
}

TEST(ObsChromeTraceTest, WritesThePinnedDocuments) {
  std::vector<std::string> spans(std::begin(kSharedEntries),
                                 std::end(kSharedEntries));
  std::vector<std::string> full = spans;
  spans.insert(spans.end(), std::begin(kSpansRequests),
               std::end(kSpansRequests));
  full.insert(full.end(), std::begin(kFullRequests), std::end(kFullRequests));
  for (const auto& [detail, entries] :
       {std::pair{TraceDetail::kSpans, spans},
        std::pair{TraceDetail::kFull, full}}) {
    const std::string text =
        SerializeChromeTrace(EveryInstantTrace(), SampleMeta(), detail);
    EXPECT_EQ(text, ChromeDocument(entries));
    // The reference serializer writes the same bytes.
    EXPECT_EQ(Json::Parse(text).Dump(0), text);
  }
}

TEST(ObsChromeTraceTest, UnknownInstantKindThrows) {
  TraceData data = SampleTrace();
  data.instants[0].kind = static_cast<InstantKind>(14);
  EXPECT_THROW(SerializeChromeTrace(data, SampleMeta(), TraceDetail::kSpans),
               Error);
}

TEST(ObsBinaryTraceTest, EncodeDecodeReencodeIsByteExact) {
  // Details of length 0, 15 and 16 (either side of the short-string
  // buffer) and 100 beside the sample's own.
  TraceData data = SampleTrace();
  for (const std::size_t length : {0u, 15u, 16u, 100u}) {
    InstantEvent instant = data.instants[0];
    instant.detail.assign(length, 'd');
    instant.seq = 8 + static_cast<std::int64_t>(data.instants.size());
    data.instants.push_back(instant);
  }
  const std::string bytes = SerializeBinaryTrace(data);
  // A 48-byte header, 72 bytes per request, 60 per batch, 32 plus the
  // detail per instant and 36 per counter.
  std::size_t expected_size = 48 + 72 * data.requests.size() +
                              60 * data.batches.size() +
                              36 * data.counters.size();
  for (const InstantEvent& instant : data.instants) {
    expected_size += 32 + instant.detail.size();
  }
  EXPECT_EQ(bytes.size(), expected_size);
  EXPECT_EQ(bytes.substr(0, 4), "NSFT");
  const TraceData decoded = ParseBinaryTrace(bytes);
  // Requests in completion order A, A, C, B; batches in start order B, A, C.
  std::vector<std::int64_t> ids;
  for (const RequestSpan& span : decoded.requests) {
    ids.push_back(span.request_id);
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{7, 8, 10, 9}));
  const RequestSpan last = *std::next(decoded.requests.begin(), 3);
  EXPECT_EQ(last.close, BatchClose::kDeadline);
  EXPECT_EQ(last.seq, 6);
  std::vector<std::int64_t> batch_indices;
  for (const BatchSpan& batch : decoded.batches) {
    batch_indices.push_back(batch.batch_index);
  }
  EXPECT_EQ(batch_indices, (std::vector<std::int64_t>{4, 3, 5}));
  ASSERT_EQ(decoded.instants.size(), data.instants.size());
  for (std::size_t i = 0; i < data.instants.size(); ++i) {
    EXPECT_EQ(decoded.instants[i].detail, data.instants[i].detail);
  }
  EXPECT_EQ(SerializeBinaryTrace(decoded), bytes);
}

/// Overwrites the little-endian field of `bytes` at `offset` with `value`'s
/// low `width` bytes.
void Patch(std::string& bytes, std::size_t offset, std::uint64_t value,
           int width) {
  for (int b = 0; b < width; ++b) {
    bytes[offset + static_cast<std::size_t>(b)] =
        static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(ObsBinaryTraceTest, HostileRecordsThrowNsflowError) {
  // The sample's four request records (members of A, A, C, B) start at
  // byte 48, 72 bytes each; its three batch records (B, A, C) follow, 60
  // bytes each. Each case breaks one writer rule; the decoder accepts
  // only what SerializeBinaryTrace writes.
  const std::string valid = SerializeBinaryTrace(SampleTrace());
  ASSERT_NO_THROW(ParseBinaryTrace(valid));
  const auto request = [](std::size_t k, std::size_t field) {
    return 48 + 72 * k + field;
  };
  const auto batch = [](std::size_t j, std::size_t field) {
    return 48 + 72 * 4 + 60 * j + field;
  };
  // Request fields: id 0, workload 8, close 12, arrival 16, formed 24,
  // start 32, complete 40, batch_index 48, replica 56, batch_size 60,
  // seq 64. Batch fields: batch_index 0, workload 8, replica 12, close 16,
  // formed 20, start 28, complete 36, size 44, seq 52.
  struct Case {
    const char* name;
    std::function<void(std::string&)> corrupt;
    const char* error;  // A fragment of the expected message.
  };
  const auto swap = [](std::string& b, std::size_t x, std::size_t y,
                       std::size_t width) {
    const std::string at_x = b.substr(x, width);
    b.replace(x, width, b.substr(y, width));
    b.replace(y, width, at_x);
  };
  const std::uint64_t nan = Bits(std::numeric_limits<double>::quiet_NaN());
  const std::vector<Case> cases = {
      {"a request naming no batch",
       [&](std::string& b) { Patch(b, request(0, 48), 99, 8); },
       "names no batch"},
      {"a request's workload differs",
       [&](std::string& b) { Patch(b, request(1, 8), 0, 4); },
       "disagrees with its batch"},
      {"a request's close differs",
       [&](std::string& b) { Patch(b, request(1, 12), 3, 4); },
       "disagrees with its batch"},
      {"a request's formed stamp differs",
       [&](std::string& b) { Patch(b, request(1, 24), Bits(0.0021), 8); },
       "disagrees with its batch"},
      {"a request's start stamp differs",
       [&](std::string& b) {
         Patch(b, request(2, 32), Bits(std::nextafter(0.003, 1.0)), 8);
       },
       "disagrees with its batch"},
      {"a request's complete stamp differs",
       [&](std::string& b) { Patch(b, request(3, 40), Bits(0.005), 8); },
       "disagrees with its batch"},
      {"a request's replica differs",
       [&](std::string& b) { Patch(b, request(2, 56), 7, 4); },
       "disagrees with its batch"},
      {"a request's batch size differs",
       [&](std::string& b) { Patch(b, request(0, 60), 3, 4); },
       "disagrees with its batch"},
      {"a member seq at its batch's own seq",
       [&](std::string& b) { Patch(b, request(0, 64), 0, 8); },
       "is not member 0"},
      {"a member seq past its batch",
       [&](std::string& b) { Patch(b, request(1, 64), 3, 8); },
       "is not member 1"},
      {"two records for one member",
       [&](std::string& b) {
         b.replace(request(1, 0), 72, b.substr(request(0, 0), 72));
       },
       "is not member 1"},
      {"members out of order",
       [&](std::string& b) { swap(b, request(0, 0), request(1, 0), 72); },
       "is not member 0"},
      {"batch sizes that do not sum to the request count",
       [&](std::string& b) { Patch(b, batch(2, 44), 2, 8); },
       "request count"},
      {"a duplicate batch_index",
       [&](std::string& b) {
         Patch(b, batch(2, 0), 3, 8);     // C takes A's index,
         Patch(b, request(2, 48), 3, 8);  // and so does C's member.
       },
       "one batch_index"},
      {"a batch of size 0",
       [&](std::string& b) { Patch(b, batch(0, 44), 0, 8); },
       "has no member"},
      {"batches out of (start, seq) order",
       [&](std::string& b) { swap(b, batch(1, 0), batch(2, 0), 60); },
       "(start, seq) order"},
      {"requests out of (complete, seq) order",
       [&](std::string& b) { swap(b, request(2, 0), request(3, 0), 72); },
       "(complete, seq) order"},
      {"a NaN completion stamp",
       [&](std::string& b) {
         Patch(b, batch(0, 36), nan, 8);
         Patch(b, request(3, 40), nan, 8);
       },
       "(complete, seq) order"},
      // Values past the completion log's field widths: each is rejected,
      // never truncated into a record that would re-encode differently.
      {"a batch_index of 2^32",
       [&](std::string& b) {
         Patch(b, batch(1, 0), std::uint64_t{1} << 32, 8);
       },
       "batch_index 4294967296"},
      {"a batch seq of 2^32",
       [&](std::string& b) {
         Patch(b, batch(1, 52), std::uint64_t{1} << 32, 8);
       },
       "seq 4294967296"},
      {"a request id of 2^32",
       [&](std::string& b) {
         Patch(b, request(0, 0), std::uint64_t{1} << 32, 8);
       },
       "request id 4294967296"},
      {"a batch size of 2^31",
       [&](std::string& b) {
         Patch(b, batch(0, 44), std::uint64_t{1} << 31, 8);
       },
       "size 2147483648"},
      {"a batch close above 3",
       [&](std::string& b) { Patch(b, batch(0, 16), 4, 4); },
       "close 4"},
      {"a request close whose low byte is its batch's",
       [&](std::string& b) { Patch(b, request(1, 12), 0x101, 4); },
       "close 257"},
  };
  for (const Case& c : cases) {
    std::string bytes = valid;
    c.corrupt(bytes);
    ASSERT_EQ(bytes.size(), valid.size()) << c.name;
    try {
      ParseBinaryTrace(bytes);
      ADD_FAILURE() << c.name << ": accepted";
    } catch (const nsflow::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

TEST(ObsBinaryTraceTest, MutatedFilesThrowOrReencodeToThemselves) {
  // Seeded random overwrites of one to three bytes of a valid file: each
  // either throws nsflow::Error or decodes to a trace that re-encodes to
  // exactly the mutated bytes. Ids, arrivals, instants and counters may
  // take any value, so some mutations are accepted.
  const std::string valid = SerializeBinaryTrace(SampleTrace());
  std::mt19937_64 rng(20261018);
  int accepted = 0;
  for (int n = 0; n < 5000; ++n) {
    std::string bytes = valid;
    for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
      bytes[rng() % bytes.size()] = static_cast<char>(rng());
    }
    try {
      const TraceData decoded = ParseBinaryTrace(bytes);
      ++accepted;
      ASSERT_EQ(SerializeBinaryTrace(decoded), bytes) << "mutation " << n;
    } catch (const nsflow::Error&) {
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(ObsBinaryTraceTest, RejectsBadMagicAndTruncation) {
  const std::string bytes = SerializeBinaryTrace(SampleTrace());
  std::string corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_THROW(ParseBinaryTrace(corrupted), std::exception);
  EXPECT_THROW(ParseBinaryTrace(bytes.substr(0, bytes.size() / 2)),
               std::exception);
}

TEST(ObsBinaryTraceTest, HostileHeaderCountsThrowNsflowError) {
  // A bare header that declares more records than it holds, in each of
  // its four count fields: the parse fails before reserving for them.
  const std::string header = SerializeBinaryTrace(TraceData{});
  ASSERT_EQ(header.size(), 48u);
  for (int field = 0; field < 4; ++field) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 30, std::uint64_t{1} << 40,
          std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      std::string bytes = header;
      for (int b = 0; b < 8; ++b) {
        bytes[static_cast<std::size_t>(8 + 8 * field + b)] =
            static_cast<char>((count >> (8 * b)) & 0xff);
      }
      EXPECT_THROW(ParseBinaryTrace(bytes), nsflow::Error)
          << "count field " << field << " = " << count;
    }
  }
}

// ---------------------------------------------------------------- recorder

TEST(ObsRecorderTest, DrainOrdersByTimestampThenSeq) {
  // Spans are views over the completion log: three one-request batches
  // committed as the engine commits them, each taking 1 + size seq
  // numbers.
  auto log = std::make_shared<CompletionLog>();
  TraceRecorder recorder(log);
  for (int i = 0; i < 3; ++i) {
    BatchSpan span;
    span.batch_index = i;
    span.replica = i;
    span.start_s = 0.5;  // Identical stamps: seq breaks the tie.
    span.complete_s = 1.0 - 0.25 * i;  // Later commits complete earlier.
    span.size = 1;
    span.seq = recorder.TakeSeq(1 + span.size);
    log->batches.push_back(span);
    log->requests.push_back({static_cast<std::uint32_t>(100 + i), 0.25});
  }
  InstantEvent instant;
  instant.t_s = 0.5;
  recorder.RecordInstant(instant);

  const TraceData data = recorder.Drain();
  ASSERT_EQ(data.batches.size(), 3u);
  const std::vector<RequestSpan> requests(data.requests.begin(),
                                          data.requests.end());
  ASSERT_EQ(requests.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(data.batches[i].batch_index, i);
    EXPECT_EQ(data.batches[i].seq, 2 * i);
    // The timestamp leads: request spans come out in completion order.
    const RequestSpan& span = requests[2 - i];
    EXPECT_EQ(span.request_id, 100 + i);
    EXPECT_EQ(span.seq, 2 * i + 1);  // Its batch's seq + 1.
    EXPECT_EQ(span.batch_index, i);
    EXPECT_EQ(span.replica, i);
    EXPECT_EQ(span.batch_size, 1);
    EXPECT_EQ(span.arrival_s, 0.25);
    EXPECT_EQ(span.complete_s, 1.0 - 0.25 * i);
  }
  ASSERT_EQ(data.instants.size(), 1u);
  EXPECT_EQ(data.instants[0].seq, 6);
  EXPECT_EQ(data.dropped, 0);
}

TEST(ObsRecorderTest, LogFieldsThrowInsteadOfTruncating) {
  // The engine's request ids, the pool's batch indices and sizes, and the
  // recorder's seqs narrow through LogField; the last value of each width
  // fits, and one past it throws naming the field.
  EXPECT_EQ(LogField<std::uint32_t>(0xffffffff, "request id"), 0xffffffffu);
  EXPECT_EQ(LogField<std::int32_t>(0x7fffffff, "size"), 0x7fffffff);
  for (const auto& [value, field] :
       {std::pair<std::int64_t, const char*>{std::int64_t{1} << 32,
                                             "request id"},
        {-1, "batch_index"}}) {
    try {
      LogField<std::uint32_t>(value, field);
      ADD_FAILURE() << field << " " << value << ": accepted";
    } catch (const nsflow::Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(LogField<std::int32_t>(std::int64_t{1} << 31, "size"),
               nsflow::Error);

  TraceRecorder recorder;
  EXPECT_EQ(recorder.TakeSeq(0xffffffff), 0u);
  EXPECT_EQ(recorder.TakeSeq(1), 0xffffffffu);
  EXPECT_THROW(recorder.TakeSeq(1), nsflow::Error);  // Seq 2^32.
}

template <typename Records>
std::vector<std::int64_t> Seqs(const Records& records) {
  std::vector<std::int64_t> seqs;
  for (const auto& record : records) {
    seqs.push_back(record.seq);
  }
  return seqs;
}

/// `records` in record (seq) order, stably sorted by `stamp`: the order
/// Drain promises, by brute force. Returns the seqs in that order.
template <typename Record>
std::vector<std::int64_t> StampOrderSeqs(std::vector<Record> records,
                                         double Record::* stamp) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  std::stable_sort(records.begin(), records.end(),
                   [stamp](const Record& a, const Record& b) {
                     return a.*stamp < b.*stamp;
                   });
  return Seqs(records);
}

TEST(ObsRecorderTest, DrainMatchesABruteForceStableSortOnServedRuns) {
  // A replica-fail log commits in completion order, so its request spans
  // are already in order and Drain leaves them; a fault-free log commits
  // at dispatch, so Drain sorts them. Both must give the brute-force order.
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  for (const char* adversity : {"replica-fail", "none"}) {
    SCOPED_TRACE(adversity);
    serve::ServeOptions options;
    options.qps = 400.0;
    options.duration_s = 2.0;
    options.seed = 7;
    options.adversity = serve::AdversitySpec::Parse(adversity);
    options.trace.enabled = true;
    const serve::ServeReport report = serve::RunSyntheticServe(
        registry, registry.ReplicaSpecs(4, /*partition=*/false),
        {{"mlp", 0.5}, {"resnet18", 0.5}}, options);
    ASSERT_NE(report.obs, nullptr);
    const TraceData data = report.obs->recorder.Drain();

    // Request spans straight from the log, in commit order.
    std::vector<RequestSpan> committed;
    auto member = report.log->requests.begin();
    for (const BatchSpan& batch : report.log->batches) {
      for (std::int64_t i = 0; i < batch.size; ++i, ++member) {
        RequestSpan span;
        span.request_id = member->id;
        span.complete_s = batch.complete_s;
        span.seq = batch.seq + 1 + i;
        committed.push_back(span);
      }
    }
    const bool in_order =
        std::is_sorted(committed.begin(), committed.end(),
                       [](const RequestSpan& a, const RequestSpan& b) {
                         return a.complete_s < b.complete_s ||
                                (a.complete_s == b.complete_s &&
                                 a.seq < b.seq);
                       });
    EXPECT_EQ(in_order, std::string(adversity) == "replica-fail");

    EXPECT_EQ(Seqs(data.requests),
              StampOrderSeqs(committed, &RequestSpan::complete_s));
    EXPECT_EQ(Seqs(data.batches),
              StampOrderSeqs(report.log->batches, &BatchSpan::start_s));
    EXPECT_EQ(Seqs(data.instants),
              StampOrderSeqs(data.instants, &InstantEvent::t_s));
    EXPECT_EQ(Seqs(data.counters),
              StampOrderSeqs(data.counters, &CounterSample::t_s));
    std::map<std::int64_t, std::int64_t> id_of_seq;
    for (const RequestSpan& span : committed) {
      id_of_seq[span.seq] = span.request_id;
    }
    for (const RequestSpan& span : data.requests) {
      EXPECT_EQ(span.request_id, id_of_seq.at(span.seq));
    }
  }
}

/// Every field of a span that NSFT carries: all of a request span's, and
/// a batch span's except egress_s.
auto Fields(const RequestSpan& s) {
  return std::tuple(s.request_id, s.workload, s.close, s.arrival_s,
                    s.formed_s, s.start_s, s.complete_s, s.batch_index,
                    s.replica, s.batch_size, s.seq);
}
auto Fields(const BatchSpan& b) {
  return std::tuple(b.batch_index, b.workload, b.replica, b.close,
                    b.formed_s, b.start_s, b.complete_s, b.size, b.seq);
}
auto Fields(const InstantEvent& e) {
  return std::tuple(e.t_s, e.kind, e.replica, e.workload, e.detail, e.seq);
}
auto Fields(const CounterSample& c) {
  return std::tuple(c.t_s, c.window_rate_rps, c.active_replicas,
                    c.queue_depth, c.seq);
}

/// `got` and `want` hold the same records, field by field, in one order.
template <typename Records>
void ExpectSameRecords(const Records& got, const Records& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  auto expected = want.begin();
  std::size_t i = 0;
  for (const auto& record : got) {
    if (Fields(record) != Fields(*expected)) {
      ADD_FAILURE() << what << " " << i << " differs";
      return;
    }
    ++expected;
    ++i;
  }
}

TEST(ObsBinaryTraceTest, ServedRunsRoundTripFieldByField) {
  // A fault-free log is out of completion order and a replica-fail log is
  // in it; a two-node cluster records route instants and a guard with a
  // standard tier records retries. Each run's NSFT decodes to Drain()'s
  // spans and re-encodes to the same bytes.
  struct Case {
    const char* name;
    std::function<void(serve::ServeOptions*)> configure;
    std::optional<InstantKind> expected_instant;  // Recorded at least once.
  };
  const std::vector<Case> cases = {
      {"fault-free", [](serve::ServeOptions*) {}, std::nullopt},
      {"replica-fail",
       [](serve::ServeOptions* o) {
         o->adversity = serve::AdversitySpec::Parse("replica-fail");
       },
       InstantKind::kReplicaFailed},
      {"least-loaded:nodes=2",
       [](serve::ServeOptions* o) {
         o->cluster = serve::ClusterSpec::Parse("least-loaded:nodes=2");
       },
       InstantKind::kClusterRoute},
      {"guard, standard tier",
       [](serve::ServeOptions* o) {
         o->qps = 1500.0;
         o->admission =
             serve::AdmissionSpec::Parse("guard:depth=16,deadline=0.03");
         o->tiers = {serve::SlaTier::kCritical, serve::SlaTier::kStandard};
       },
       InstantKind::kAdmissionRetry},
  };
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    serve::ServeOptions options;
    options.qps = 400.0;
    options.duration_s = 2.0;
    options.seed = 7;
    options.trace.enabled = true;
    c.configure(&options);
    const serve::ServeReport report = serve::RunSyntheticServe(
        registry, registry.ReplicaSpecs(4, /*partition=*/false),
        {{"mlp", 0.5}, {"resnet18", 0.5}}, options);
    ASSERT_NE(report.obs, nullptr);
    const TraceData drained = report.obs->recorder.Drain();
    ASSERT_GT(drained.requests.size(), 0u);
    if (c.expected_instant.has_value()) {
      EXPECT_TRUE(std::any_of(drained.instants.begin(),
                              drained.instants.end(),
                              [&c](const InstantEvent& e) {
                                return e.kind == *c.expected_instant;
                              }));
    }

    const std::string bytes = SerializeBinaryTrace(drained);
    EXPECT_EQ(bytes, report.obs->BinaryTrace());
    const TraceData decoded = ParseBinaryTrace(bytes);
    ExpectSameRecords(decoded.requests, drained.requests, "request");
    ExpectSameRecords(decoded.batches, drained.batches, "batch");
    ExpectSameRecords(decoded.instants, drained.instants, "instant");
    ExpectSameRecords(decoded.counters, drained.counters, "counter");
    EXPECT_EQ(decoded.dropped, drained.dropped);
    EXPECT_EQ(SerializeBinaryTrace(decoded), bytes);
  }
}

// ------------------------------------------------- traced serve invariants

serve::ServeReport TracedDiurnalRun(serve::WorkloadRegistry& registry) {
  const std::vector<serve::WorkloadShare> mix = {{"mlp", 0.3},
                                                 {"resnet18", 0.7}};
  const std::vector<serve::ReplicaSpec> replicas =
      registry.ReplicaSpecs(2, /*partition=*/true);
  serve::ServeOptions options;
  options.qps = 300.0;
  options.duration_s = 1.5;
  options.seed = 42;
  options.scenario = serve::ScenarioSpec::Parse("diurnal:depth=0.8");
  options.autoscale = true;
  options.autoscale_opts.max_replicas = 8;
  options.autoscale_opts.devices = 64;
  options.trace.enabled = true;
  options.trace.detail = TraceDetail::kFull;
  return serve::RunSyntheticServe(registry, replicas, mix, options);
}

TEST(ObsServeTest, FixedSeedTraceIsBitIdenticalAcrossRuns) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const serve::ServeReport first = TracedDiurnalRun(registry);
  const serve::ServeReport second = TracedDiurnalRun(registry);
  ASSERT_NE(first.obs, nullptr);
  ASSERT_NE(second.obs, nullptr);
  const std::string chrome = first.obs->ChromeTraceJson();
  EXPECT_EQ(chrome, second.obs->ChromeTraceJson());
  EXPECT_EQ(Json::Parse(chrome).Dump(0), chrome);
  EXPECT_EQ(first.obs->BinaryTrace(), second.obs->BinaryTrace());
  EXPECT_EQ(first.obs->MetricsJson(), second.obs->MetricsJson());
}

TEST(ObsServeTest, SpansSatisfyLifecycleInvariants) {
  serve::WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const serve::ServeReport report = TracedDiurnalRun(registry);
  ASSERT_NE(report.obs, nullptr);
  const TraceData data = report.obs->recorder.Drain();

  // Every completed request has exactly one span, every dispatched batch
  // exactly one batch span.
  EXPECT_EQ(static_cast<std::int64_t>(data.requests.size()),
            report.summary.completed);
  EXPECT_EQ(static_cast<std::int64_t>(data.batches.size()),
            report.summary.batches);
  EXPECT_GT(data.counters.size(), 0u);  // Periodic autoscaler samples.

  std::map<std::int64_t, const BatchSpan*> batches;
  for (const BatchSpan& batch : data.batches) {
    EXPECT_LE(batch.formed_s, batch.start_s);
    EXPECT_LT(batch.start_s, batch.complete_s);
    EXPECT_GE(batch.size, 1);
    EXPECT_NE(batch.close, BatchClose::kNone);
    batches[batch.batch_index] = &batch;
  }
  std::map<std::int64_t, std::int64_t> batch_members;
  for (const RequestSpan& span : data.requests) {
    // Monotone lifecycle on the virtual timeline.
    EXPECT_LE(span.arrival_s, span.formed_s);
    EXPECT_LE(span.formed_s, span.start_s);
    EXPECT_LT(span.start_s, span.complete_s);
    // Every request's dispatch matches a batch span bit-exactly.
    const auto it = batches.find(span.batch_index);
    ASSERT_NE(it, batches.end());
    EXPECT_EQ(span.replica, it->second->replica);
    EXPECT_EQ(span.workload, it->second->workload);
    EXPECT_EQ(span.start_s, it->second->start_s);
    EXPECT_EQ(span.complete_s, it->second->complete_s);
    EXPECT_EQ(span.batch_size, it->second->size);
    ++batch_members[span.batch_index];
  }
  for (const auto& [index, members] : batch_members) {
    EXPECT_EQ(members, batches.at(index)->size);
  }
  // The autoscaled run recorded decision instants, and every applied delta
  // is mirrored as one.
  std::int64_t decisions = 0;
  for (const InstantEvent& instant : data.instants) {
    if (instant.kind == InstantKind::kAutoscalerDecision) {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, static_cast<std::int64_t>(report.deltas.size()));
}

TEST(ObsServeTest, PercentileInPlaceMatchesCopyingPath) {
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0};
  for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
    std::vector<double> scratch = values;
    EXPECT_DOUBLE_EQ(serve::ServeStats::PercentileInPlace(&scratch, p),
                     serve::ServeStats::Percentile(values, p))
        << "p=" << p;
  }
  // The in-place path sorts its argument instead of copying.
  std::vector<double> scratch = values;
  serve::ServeStats::PercentileInPlace(&scratch, 50.0);
  EXPECT_TRUE(std::is_sorted(scratch.begin(), scratch.end()));
}

}  // namespace
}  // namespace nsflow::obs
