// Observability tests (docs/OBSERVABILITY.md): pinned histogram bucket
// boundaries and lookup, bit-exact Chrome/binary trace round trips, the
// NSFT encoded size and hostile headers, spans drained from a completion
// log in (stamp, seq) order, fixed-seed trace determinism of an autoscaled
// diurnal run, and request/batch span invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/chrome_trace.h"
#include "obs/completion_log.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "serve/adversity.h"
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

TraceData SampleTrace() {
  TraceData data;
  RequestSpan r;
  r.request_id = 7;
  r.workload = 1;
  r.close = BatchClose::kSizeCap;
  r.arrival_s = 0.001;
  r.formed_s = 0.002;
  r.start_s = 0.0025;
  r.complete_s = 0.004;
  r.batch_index = 3;
  r.replica = 2;
  r.batch_size = 4;
  r.seq = 0;
  data.requests.push_back(r);
  BatchSpan b;
  b.batch_index = 3;
  b.workload = 1;
  b.replica = 2;
  b.close = BatchClose::kSizeCap;
  b.formed_s = 0.002;
  b.start_s = 0.0025;
  b.complete_s = 0.004;
  b.size = 4;
  b.seq = 1;
  data.batches.push_back(b);
  InstantEvent i;
  i.t_s = 0.25;
  i.kind = InstantKind::kReplicaAdded;
  i.replica = 5;
  i.workload = 1;
  i.detail = "add replica 5: demand above band";
  i.seq = 2;
  data.instants.push_back(i);
  CounterSample s;
  s.t_s = 0.25;
  s.window_rate_rps = 212.5;
  s.active_replicas = 6;
  s.queue_depth = 11;
  s.seq = 3;
  data.counters.push_back(s);
  return data;
}

TraceMeta SampleMeta() {
  TraceMeta meta;
  meta.workload_names = {"mlp", "resnet18"};
  meta.replicas = 6;
  meta.duration_s = 2.0;
  return meta;
}

TEST(ObsChromeTraceTest, SerializeParseReserializeIsBitExact) {
  for (const TraceDetail detail : {TraceDetail::kSpans, TraceDetail::kFull}) {
    const std::vector<ChromeEvent> events =
        BuildChromeTrace(SampleTrace(), SampleMeta(), detail);
    const std::string text = SerializeChromeTrace(events);
    const std::vector<ChromeEvent> parsed = ParseChromeTrace(text);
    ASSERT_EQ(parsed.size(), events.size());
    EXPECT_EQ(SerializeChromeTrace(parsed), text);
  }
}

TEST(ObsChromeTraceTest, FullDetailNestsPhaseSpans) {
  const auto spans = BuildChromeTrace(SampleTrace(), SampleMeta(),
                                      TraceDetail::kSpans);
  const auto full = BuildChromeTrace(SampleTrace(), SampleMeta(),
                                     TraceDetail::kFull);
  EXPECT_GT(full.size(), spans.size());
}

TEST(ObsBinaryTraceTest, EncodeDecodeReencodeIsByteExact) {
  // Details of length 0, 15 and 16 (either side of the short-string
  // buffer) and 100 beside the sample's own.
  TraceData data = SampleTrace();
  for (const std::size_t length : {0u, 15u, 16u, 100u}) {
    InstantEvent instant = data.instants[0];
    instant.detail.assign(length, 'd');
    instant.seq = 4 + static_cast<std::int64_t>(data.instants.size());
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
  ASSERT_EQ(decoded.requests.size(), 1u);
  EXPECT_EQ(decoded.requests[0].request_id, 7);
  EXPECT_EQ(decoded.requests[0].close, BatchClose::kSizeCap);
  ASSERT_EQ(decoded.instants.size(), data.instants.size());
  for (std::size_t i = 0; i < data.instants.size(); ++i) {
    EXPECT_EQ(decoded.instants[i].detail, data.instants[i].detail);
  }
  EXPECT_EQ(SerializeBinaryTrace(decoded), bytes);
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
    log->requests.push_back({100 + i, 0.25});
  }
  InstantEvent instant;
  instant.t_s = 0.5;
  recorder.RecordInstant(instant);

  const TraceData data = recorder.Drain();
  ASSERT_EQ(data.batches.size(), 3u);
  ASSERT_EQ(data.requests.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(data.batches[i].batch_index, i);
    EXPECT_EQ(data.batches[i].seq, 2 * i);
    // The timestamp leads: request spans come out in completion order.
    const RequestSpan& span = data.requests[2 - i];
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

template <typename Record>
std::vector<std::int64_t> Seqs(const std::vector<Record>& records) {
  std::vector<std::int64_t> seqs;
  for (const Record& record : records) {
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
  EXPECT_EQ(first.obs->ChromeTraceJson(), second.obs->ChromeTraceJson());
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
