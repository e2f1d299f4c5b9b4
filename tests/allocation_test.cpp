// The serve path's zero-steady-state-allocation contract (docs/ENGINE.md),
// measured from outside the library: this binary replaces the global
// operator new with a counting one, and doubling a run's length may add
// only the handful of allocations that amortized vector growth needs
// (arrivals, stats samples, dispatch records), not one per batch. Fault
// runs keep the contract too: settlement at the watermark holds only the
// batches in flight, and admission's backlog of dispatched starts only
// the starts still ahead of the clock. The NSFT export allocates its
// output once, at its exact size, the JSON exports only their output (one
// chunk of it when written through a sink), and Drain() allocates 12
// bytes per committed batch beside its copies of the instants and
// counters, never a byte per request.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "obs/chrome_trace.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_allocated_bytes{0};
}  // namespace

// Every replacement stays out of line, so GCC never pairs an inlined
// malloc() or free() with the other side of a new-expression. The nothrow
// forms are replaced too (std::stable_sort's temporary buffer uses them):
// left to the toolchain, a sanitizer's nothrow new would be paired with
// the free() below.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<std::int64_t>(size),
                              std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nsflow::serve {
namespace {

/// What one RunSyntheticServe call allocates (arrival generation, set-up
/// and the event loop; the report's own storage included).
struct ServeCost {
  std::int64_t allocations = 0;
  std::int64_t bytes = 0;
  std::int64_t requests = 0;
};

ServeCost MeasureServe(const WorkloadRegistry& registry,
                       const std::vector<ReplicaSpec>& replicas,
                       const std::vector<WorkloadShare>& mix,
                       const ServeOptions& options) {
  const std::int64_t allocations =
      g_allocations.load(std::memory_order_relaxed);
  const std::int64_t bytes = g_allocated_bytes.load(std::memory_order_relaxed);
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  return {g_allocations.load(std::memory_order_relaxed) - allocations,
          g_allocated_bytes.load(std::memory_order_relaxed) - bytes,
          report.generated_requests};
}

/// Serves the 48-replica, 8,000 qps run for 25 s and for 50 s, plainly and
/// under `least-loaded:nodes=2`, and checks that doubling the run adds
/// fewer than 64 allocations and only the bytes a completed request keeps.
/// `admission`, when given, must shed nothing on these runs.
void ExpectDoublingAddsAlmostNoAllocations(const std::string& adversity,
                                           const std::string& admission = "") {
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  const std::vector<ReplicaSpec> replicas =
      registry.ReplicaSpecs(48, /*partitioned=*/false);
  for (const std::string cluster : {"", "least-loaded:nodes=2"}) {
    ServeOptions options;
    options.qps = 8000.0;
    options.adversity = AdversitySpec::Parse(adversity);
    if (!admission.empty()) {
      options.admission = AdmissionSpec::Parse(admission);
    }
    if (!cluster.empty()) {
      options.cluster = ClusterSpec::Parse(cluster);
    }
    options.duration_s = 25.0;
    const ServeCost base = MeasureServe(registry, replicas, mix, options);
    options.duration_s = 50.0;
    const ServeCost doubled = MeasureServe(registry, replicas, mix, options);
    const std::string label = adversity +
                              (admission.empty() ? "" : " " + admission) +
                              (cluster.empty() ? " plain" : " " + cluster);
    // 200k more requests (~25k more batches) may cost a few vector
    // doublings, never an allocation per batch or per request.
    EXPECT_LT(doubled.allocations - base.allocations, 64)
        << label << ": " << base.allocations << " -> "
        << doubled.allocations;
    // Each extra request may cost only what outlives the event loop:
    const double kept_bytes =
        12.0    // its completion-log record (reserved up front),
        + 56.0  // a batch slot, reserved per expected arrival, since every
                // committed batch holds at least one request,
        + 8.0   // and Summarize's latency key,
        + 4.0;  // plus slack for the reservations' four standard
                // deviations and the percentile gathers.
    // The arrival stream holds O(backlog), not a 40 B Request per arrival.
    const double per_request =
        static_cast<double>(doubled.bytes - base.bytes) /
        static_cast<double>(doubled.requests - base.requests);
    EXPECT_LE(per_request, kept_bytes)
        << label << ": " << base.bytes << " B for " << base.requests
        << " requests -> " << doubled.bytes << " B for " << doubled.requests;
  }
}

TEST(AllocationContract, DoublingAFaultFreeRunAddsAlmostNoAllocations) {
  ExpectDoublingAddsAlmostNoAllocations("none");
}

TEST(AllocationContract, DoublingAReplicaFailRunAddsAlmostNoAllocations) {
  ExpectDoublingAddsAlmostNoAllocations("replica-fail");
}

// Admission keeps a backlog heap of dispatched starts beside the pending
// commits, and both hold only what is in flight.
TEST(AllocationContract, DoublingAnAdmissionRunAddsAlmostNoAllocations) {
  ExpectDoublingAddsAlmostNoAllocations("replica-fail", "overload");
}

TEST(AllocationContract, BinaryTraceExportAllocatesOnce) {
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  ServeOptions options;
  options.qps = 8000.0;
  options.duration_s = 5.0;
  options.adversity = AdversitySpec::Parse("replica-fail");
  options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
  options.trace.enabled = true;
  const ServeReport report = RunSyntheticServe(
      registry, registry.ReplicaSpecs(48, /*partitioned=*/false), mix,
      options);
  const obs::TraceData data = report.obs->recorder.Drain();
  ASSERT_GT(data.instants.size(), 0u);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::string bytes = obs::SerializeBinaryTrace(data);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1);
  EXPECT_GT(bytes.size(), 72 * data.requests.size());
}

TEST(AllocationContract, ChromeTraceExportHoldsOnlyItsOutput) {
  // The Chrome export appends every entry to the one string it returns, so
  // it allocates only that string's growth: one allocation per doubling,
  // never one per request, and capacities that sum to under twice the
  // last, which is under twice the output. The same 48-replica run as
  // above, at two lengths, at the fullest detail.
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  std::vector<std::int64_t> allocations;
  for (const double duration_s : {5.0, 10.0}) {
    ServeOptions options;
    options.qps = 8000.0;
    options.duration_s = duration_s;
    options.adversity = AdversitySpec::Parse("replica-fail");
    options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
    options.trace.enabled = true;
    const ServeReport report = RunSyntheticServe(
        registry, registry.ReplicaSpecs(48, /*partitioned=*/false), mix,
        options);
    const obs::TraceData data = report.obs->recorder.Drain();
    ASSERT_GT(data.instants.size(), 0u);

    const std::int64_t count = g_allocations.load(std::memory_order_relaxed);
    const std::int64_t bytes =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const std::string text = obs::SerializeChromeTrace(
        data, report.obs->meta, obs::TraceDetail::kFull);
    allocations.push_back(g_allocations.load(std::memory_order_relaxed) -
                          count);
    const std::int64_t allocated =
        g_allocated_bytes.load(std::memory_order_relaxed) - bytes;

    EXPECT_LT(allocations.back(), 64)
        << duration_s << " s: " << data.requests.size() << " requests";
    EXPECT_LE(allocated, 4 * static_cast<std::int64_t>(text.size()))
        << duration_s << " s: " << text.size() << " B written";
  }
  // Doubling the run doubles the output: one more doubling of the string.
  EXPECT_LE(allocations[1] - allocations[0], 2)
      << allocations[0] << " -> " << allocations[1];
}

TEST(AllocationContract, MetricsExportHoldsOnlyItsOutput) {
  // metrics.json is written straight onto the string returned, so it
  // allocates only that string's growth, as the Chrome export does. The
  // same 48-replica run as above, at two lengths.
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  std::vector<std::int64_t> allocations;
  for (const double duration_s : {5.0, 10.0}) {
    ServeOptions options;
    options.qps = 8000.0;
    options.duration_s = duration_s;
    options.adversity = AdversitySpec::Parse("replica-fail");
    options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
    options.trace.enabled = true;
    const ServeReport report = RunSyntheticServe(
        registry, registry.ReplicaSpecs(48, /*partitioned=*/false), mix,
        options);

    const std::int64_t count = g_allocations.load(std::memory_order_relaxed);
    const std::int64_t bytes =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const std::string text = report.obs->MetricsJson();
    allocations.push_back(g_allocations.load(std::memory_order_relaxed) -
                          count);
    const std::int64_t allocated =
        g_allocated_bytes.load(std::memory_order_relaxed) - bytes;

    EXPECT_LT(allocations.back(), 64)
        << duration_s << " s: " << report.obs->metrics.timeline().size()
        << " snapshots";
    EXPECT_LE(allocated, 4 * static_cast<std::int64_t>(text.size()))
        << duration_s << " s: " << text.size() << " B written";
  }
  EXPECT_LE(allocations[1] - allocations[0], 2)
      << allocations[0] << " -> " << allocations[1];
}

TEST(AllocationContract, ChunkedJsonExportsHoldOneChunk) {
  // Written through a sink, the Chrome and metrics exports hold one chunk
  // of text, not the document: at most two chunks' bytes allocated beyond
  // the drained trace, whatever the document's size.
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  ServeOptions options;
  options.qps = 8000.0;
  options.duration_s = 5.0;
  options.adversity = AdversitySpec::Parse("replica-fail");
  options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
  options.trace.enabled = true;
  const ServeReport report = RunSyntheticServe(
      registry, registry.ReplicaSpecs(48, /*partitioned=*/false), mix,
      options);
  const obs::TraceData data = report.obs->recorder.Drain();
  std::int64_t written = 0;
  const obs::ChunkSink sink = [&written](std::string_view chunk) {
    written += static_cast<std::int64_t>(chunk.size());
  };
  constexpr auto kTwoChunks =
      static_cast<std::int64_t>(2 * obs::ChunkedOutput::kChunkBytes);

  std::int64_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  obs::SerializeChromeTrace(data, report.obs->meta, obs::TraceDetail::kFull,
                            sink);
  EXPECT_LE(g_allocated_bytes.load(std::memory_order_relaxed) - before,
            kTwoChunks);
  EXPECT_GT(written, 10 * kTwoChunks);

  written = 0;
  before = g_allocated_bytes.load(std::memory_order_relaxed);
  report.obs->WriteMetricsJson(sink);
  EXPECT_LE(g_allocated_bytes.load(std::memory_order_relaxed) - before,
            kTwoChunks);
  EXPECT_EQ(written,
            static_cast<std::int64_t>(report.obs->MetricsJson().size()));
}

TEST(AllocationContract, DrainAllocatesTwelveBytesPerBatch) {
  // Drain() keeps the spans as views over the completion log: its only
  // span storage is two uint32_t orders and each batch's first request.
  // Beside them it copies the instants (each detail string at most its
  // length plus a terminator) and the counters. A fault-free log sorts
  // both orders, a replica-fail log only its start order; each at two run
  // lengths.
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  for (const std::string adversity : {"none", "replica-fail"}) {
    for (const double duration_s : {5.0, 10.0}) {
      ServeOptions options;
      options.qps = 8000.0;
      options.duration_s = duration_s;
      options.adversity = AdversitySpec::Parse(adversity);
      options.cluster = ClusterSpec::Parse("least-loaded:nodes=2");
      options.trace.enabled = true;
      const ServeReport report = RunSyntheticServe(
          registry, registry.ReplicaSpecs(48, /*partitioned=*/false), mix,
          options);

      const std::int64_t before =
          g_allocated_bytes.load(std::memory_order_relaxed);
      const obs::TraceData data = report.obs->recorder.Drain();
      const std::int64_t drained =
          g_allocated_bytes.load(std::memory_order_relaxed) - before;

      ASSERT_GT(data.instants.size(), 0u);
      ASSERT_EQ(data.requests.size(),
                static_cast<std::size_t>(report.summary.completed));
      std::size_t copies = sizeof(obs::InstantEvent) * data.instants.size() +
                           sizeof(obs::CounterSample) * data.counters.size();
      for (const obs::InstantEvent& instant : data.instants) {
        copies += instant.detail.size() + 1;
      }
      EXPECT_LE(drained, static_cast<std::int64_t>(
                             12 * report.log->batches.size() + copies))
          << adversity << " at " << duration_s << " s: "
          << data.requests.size() << " requests, "
          << report.log->batches.size() << " batches, " << copies
          << " bytes of instant and counter copies";
    }
  }
}

}  // namespace
}  // namespace nsflow::serve
