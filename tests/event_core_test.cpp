// Discrete-event serve core: differential equivalence + primitive tests
// (docs/ENGINE.md).
//
// Three layers:
//
//   1. The differential matrix — golden digests recorded from the
//      pre-rewrite polling build, which every matrix row must reproduce
//      byte-for-byte (compared where the platform fingerprint matches),
//      plus a trace-replay slice whose digests compare on any toolchain.
//   2. Unit/property tests for the event-core primitives: (time, class,
//      seq) tie-break stability, randomized equal-timestamp drain order,
//      pooled-node reuse and the generation (ABA) guard.
//   3. The allocation contract: a reserved EventList / grown NodePool
//      never allocates in steady state (exact zero over a million-event
//      window), and a whole engine serve run performs O(1) counted
//      allocations regardless of request count.
//
// Regenerate a golden file (only intentionally, and for the matrix only
// on a toolchain whose fingerprint matches) by running its test with
// NSFLOW_REGEN_GOLDEN=1 set, e.g.
//
//   NSFLOW_REGEN_GOLDEN=1 ./build/test_event_core_test
//       --gtest_filter='EventCoreDifferential.TraceSliceMatchesGolden'

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/event_core.h"
#include "serve_differential.h"

namespace nsflow::serve {
namespace {

using event_core::Event;
using event_core::EventClass;
using event_core::EventList;
using event_core::NodePool;

std::string GoldenPath(const std::string& name) {
  return diff::GoldenDir() + "/" + name;
}

struct GoldenFile {
  std::string fingerprint;
  std::map<std::string, std::pair<std::string, int>> rows;  // key -> digest.
};

GoldenFile LoadGolden(const std::string& path) {
  GoldenFile golden;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first == "fingerprint") {
      fields >> golden.fingerprint;
      continue;
    }
    std::string digest;
    int exit_code = 0;
    fields >> digest >> exit_code;
    golden.rows[first] = {digest, exit_code};
  }
  return golden;
}

bool Regenerating() { return std::getenv("NSFLOW_REGEN_GOLDEN") != nullptr; }

// Which digest of a run a golden file pins.
using DigestField = std::uint64_t diff::RunResult::*;

// Regeneration: one "key digest exit_code" row per config.
void WriteRows(std::ofstream& out, const diff::DiffFixture& fixture,
               const std::vector<diff::DiffConfig>& configs,
               DigestField digest = &diff::RunResult::digest) {
  for (const diff::DiffConfig& config : configs) {
    const diff::RunResult result =
        diff::RunConfig(fixture, diff::OptionsFor(config));
    out << config.Key() << " " << diff::HexDigest(result.*digest) << " "
        << result.exit_code << "\n";
  }
}

void ExpectRowsMatch(const GoldenFile& golden,
                     const diff::DiffFixture& fixture,
                     const std::vector<diff::DiffConfig>& configs,
                     DigestField digest = &diff::RunResult::digest) {
  for (const diff::DiffConfig& config : configs) {
    const auto row = golden.rows.find(config.Key());
    ASSERT_NE(row, golden.rows.end()) << "no golden row for "
                                      << config.Key();
    const diff::RunResult result =
        diff::RunConfig(fixture, diff::OptionsFor(config));
    EXPECT_EQ(diff::HexDigest(result.*digest), row->second.first)
        << "digest drift at " << config.Key();
    EXPECT_EQ(result.exit_code, row->second.second)
        << "exit-code drift at " << config.Key();
  }
}

// ------------------------------------------------- differential matrix

TEST(EventCoreDifferential, MatrixMatchesPreRewriteGolden) {
  const diff::DiffFixture fixture;
  const std::string fingerprint = diff::PlatformFingerprint(fixture);
  const std::string path = GoldenPath("event_core_golden.txt");

  if (Regenerating()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Serve-engine differential digests (pre-rewrite polling "
           "build).\n"
        << "# One row per matrix config: key digest exit_code — see\n"
        << "# tests/serve_differential.h for the serialization.\n"
        << "fingerprint " << fingerprint << "\n";
    WriteRows(out, fixture, diff::MatrixConfigs());
    return;
  }

  const GoldenFile golden = LoadGolden(path);
  if (golden.fingerprint != fingerprint) {
    GTEST_SKIP() << "platform fingerprint " << fingerprint
                 << " != golden " << golden.fingerprint
                 << " — libm/FP differences make the recorded digests "
                    "incomparable on this toolchain (the portable "
                    "TraceSliceMatchesGolden leg still runs)";
  }
  ExpectRowsMatch(golden, fixture, diff::MatrixConfigs());
}

// The portable leg: every arrival comes from a checked-in trace, so the
// recorded digests compare strictly on any toolchain — no fingerprint.
TEST(EventCoreDifferential, TraceSliceMatchesGolden) {
  const diff::DiffFixture fixture;
  const std::string path = GoldenPath("trace_slice_golden.txt");

  if (Regenerating()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Serve-engine digests of the portable trace-replay slice.\n"
        << "# One row per slice config: key digest exit_code — see\n"
        << "# tests/serve_differential.h for the serialization.\n";
    WriteRows(out, fixture, diff::SliceConfigs());
    return;
  }
  ExpectRowsMatch(LoadGolden(path), fixture, diff::SliceConfigs());
}

// The slice's NSFT bytes on their own: the Chrome digest above does not
// cover the binary export, whose records carry every span's seq.
TEST(EventCoreDifferential, TraceSliceNsftMatchesGolden) {
  const diff::DiffFixture fixture;
  const std::string path = GoldenPath("trace_slice_nsft_golden.txt");

  if (Regenerating()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# NSFT (BinaryTrace) digests of the portable trace-replay "
           "slice.\n"
        << "# One row per slice config: key digest exit_code — see\n"
        << "# tests/serve_differential.h for the configs.\n";
    WriteRows(out, fixture, diff::SliceConfigs(),
              &diff::RunResult::nsft_digest);
    return;
  }
  ExpectRowsMatch(LoadGolden(path), fixture, diff::SliceConfigs(),
                  &diff::RunResult::nsft_digest);
}

// ---------------------------------------- same-instant ordering contract
//
// The latent hazard the EventClass contract fixes: with an adversity
// fault and an autoscaler tick landing on the same virtual instant, the
// fault must fire first (the world changes, then the control loop
// observes it). The polling loop the event core replaced got that order
// from code order; now it is an explicit priority, pinned here via the
// stats timeline's record order.
TEST(EventCoreDifferential, SameInstantAdversityFiresBeforeTick) {
  const diff::DiffFixture fixture;
  diff::DiffConfig config;
  config.autoscale = true;  // First control tick at 0.25 s.
  ServeOptions options = diff::OptionsFor(config);
  options.adversity =
      AdversitySpec::Parse("straggler:at=0.25,duration=0.5,count=1");
  const ServeReport report = RunSyntheticServe(
      fixture.registry, fixture.replicas, fixture.mix, options);
  const std::vector<PoolEvent>& timeline = report.summary.timeline;
  std::ptrdiff_t fault_at = -1;
  std::ptrdiff_t sample_at = -1;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    if (timeline[i].t_s != 0.25) {
      continue;
    }
    if (fault_at < 0 && timeline[i].kind == PoolEventKind::kFault) {
      fault_at = static_cast<std::ptrdiff_t>(i);
    }
    if (sample_at < 0 && timeline[i].kind == PoolEventKind::kSample) {
      sample_at = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(fault_at, 0) << "no fault event at t=0.25";
  ASSERT_GE(sample_at, 0) << "no tick sample at t=0.25";
  EXPECT_LT(fault_at, sample_at)
      << "same-instant adversity must fire before the autoscaler tick";
}

// ------------------------------------------- arrivals beside the heap
//
// Arrivals ride a cursor beside the timeline heap and keep the order they
// would take inside it: at one instant a fault, a tick and a retry fire
// before an arrival. Poisson stamps and the checked-in traces never land
// exactly on a tick or a fault instant, so no golden pins this; these
// replayed traces put an arrival there on purpose.

/// Serves one mlp arrival per stamp, replayed from a trace file.
ServeReport ServeStamps(const diff::DiffFixture& fixture,
                        const std::vector<ReplicaSpec>& replicas,
                        const std::vector<double>& stamps,
                        ServeOptions options, const std::string& file) {
  std::vector<Request> arrivals;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    arrivals.push_back(Request{static_cast<std::int64_t>(i), stamps[i], 0});
  }
  const std::string path = testing::TempDir() + file;
  {
    std::ofstream out(path, std::ios::binary);
    out << EmitArrivalTraceJson(arrivals, fixture.registry.Names());
  }
  options.scenario = ScenarioSpec::Parse("trace:file=" + path);
  return RunSyntheticServe(fixture.registry, replicas, fixture.mix, options);
}

TEST(EventCoreDifferential, ArrivalAtATickIsNotInItsSample) {
  const diff::DiffFixture fixture;
  diff::DiffConfig config;
  config.autoscale = true;  // First control tick at 0.25 s.
  const ServeReport report =
      ServeStamps(fixture, fixture.replicas, {0.25}, diff::OptionsFor(config),
                  "arrival_at_tick.json");
  ASSERT_EQ(report.summary.completed, 1);
  const PoolEvent* sample = nullptr;
  for (const PoolEvent& event : report.summary.timeline) {
    if (event.t_s == 0.25 && event.kind == PoolEventKind::kSample) {
      sample = &event;
      break;
    }
  }
  ASSERT_NE(sample, nullptr) << "no tick sample at t=0.25";
  // The tick fires first, so the lanes are still empty; the arrival would
  // wait in a lane (max_batch 8) had it gone first.
  EXPECT_EQ(sample->queue_depth, 0);
}

TEST(EventCoreDifferential, ArrivalAtAFailureSeesTheFailedReplica) {
  const diff::DiffFixture fixture;
  // Two shared replicas, so replica 0 can fail without orphaning a tenant.
  ServeOptions options = diff::OptionsFor(diff::DiffConfig{});
  options.max_batch = 1;  // The arrival's batch dispatches at its stamp.
  options.adversity =
      AdversitySpec::Parse("replica-fail:at=0.5,down=0.5,replica=0");
  const ServeReport report = ServeStamps(
      fixture, fixture.registry.ReplicaSpecs(2, /*partitioned=*/false), {0.5},
      options, "arrival_at_failure.json");
  // Both replicas are idle, so a batch dispatched before the failure would
  // take replica 0 (lowest id), be aborted by the failure and re-dispatch
  // to replica 1 with a second batch index.
  ASSERT_EQ(report.dispatches.size(), 1u);
  EXPECT_EQ(report.dispatches[0].replica, 1);
  EXPECT_EQ(report.dispatches[0].batch_index, 0);
  bool failed = false;
  for (const PoolEvent& event : report.summary.timeline) {
    if (event.kind == PoolEventKind::kFault &&
        event.event.rfind("replica 0 failed", 0) == 0) {
      failed = true;
      EXPECT_NE(event.event.find(", 0 in-flight batch(es) re-enqueued"),
                std::string::npos)
          << event.event;
    }
  }
  EXPECT_TRUE(failed) << "replica 0 never failed";
}

// --------------------------------------------------- EventList ordering

TEST(EventListTest, SameInstantClassPriorityOrder) {
  EventList list;
  // Pushed in reverse priority: the pop order must be the class order,
  // not the push order.
  list.Push(1.0, EventClass::kDrain);
  list.Push(1.0, EventClass::kArrival);
  list.Push(1.0, EventClass::kAdmissionRetry);
  list.Push(1.0, EventClass::kAutoscalerTick);
  list.Push(1.0, EventClass::kAdversity);
  EXPECT_EQ(list.Pop().cls, EventClass::kAdversity);
  EXPECT_EQ(list.Pop().cls, EventClass::kAutoscalerTick);
  EXPECT_EQ(list.Pop().cls, EventClass::kAdmissionRetry);
  EXPECT_EQ(list.Pop().cls, EventClass::kArrival);
  EXPECT_EQ(list.Pop().cls, EventClass::kDrain);
  EXPECT_TRUE(list.empty());
}

TEST(EventListTest, TimeOrdersBeforeClass) {
  EventList list;
  list.Push(2.0, EventClass::kAdversity);
  list.Push(1.0, EventClass::kDrain);
  EXPECT_EQ(list.Pop().cls, EventClass::kDrain);
  EXPECT_EQ(list.Pop().cls, EventClass::kAdversity);
}

TEST(EventListTest, EqualKeyDrainsInPushOrder) {
  EventList list;
  for (std::int64_t i = 0; i < 64; ++i) {
    list.Push(3.5, EventClass::kArrival, /*payload=*/i);
  }
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(list.Pop().payload, i) << "FIFO violated at position " << i;
  }
}

// Property: over a randomized schedule with heavy (time, class)
// collisions, the drain order is exactly the sorted (t, class, seq)
// order — in particular, equal-key events leave in scheduling order.
TEST(EventListTest, RandomizedDrainIsTotallyOrdered) {
  std::mt19937 rng(20250808);
  std::uniform_int_distribution<int> time_draw(0, 7);    // Few distinct
  std::uniform_int_distribution<int> class_draw(0, 3);   // values force
  EventList list;                                        // collisions.
  const int kEvents = 4096;
  for (int i = 0; i < kEvents; ++i) {
    list.Push(0.125 * time_draw(rng),
              static_cast<EventClass>(class_draw(rng)));
  }
  std::vector<Event> drained;
  drained.reserve(kEvents);
  while (!list.empty()) {
    drained.push_back(list.Pop());
  }
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < drained.size(); ++i) {
    const Event& a = drained[i - 1];
    const Event& b = drained[i];
    const bool ordered =
        a.t_s < b.t_s ||
        (a.t_s == b.t_s &&
         (static_cast<int>(a.cls) < static_cast<int>(b.cls) ||
          (a.cls == b.cls && a.seq < b.seq)));
    ASSERT_TRUE(ordered) << "drain order violated at position " << i;
  }
}

// ------------------------------------------------------------- NodePool

struct TestNode {
  std::int64_t value = 0;
  explicit TestNode(std::int64_t v) : value(v) {}
};

TEST(NodePoolTest, ReleasedSlotIsReusedFirst) {
  NodePool<TestNode> pool(/*block_nodes=*/4);
  TestNode* a = pool.Acquire(1);
  TestNode* b = pool.Acquire(2);
  EXPECT_TRUE(pool.Owns(a));
  EXPECT_TRUE(pool.Owns(b));
  EXPECT_EQ(pool.live(), 2u);
  pool.Release(a);
  // LIFO freelist: the very next acquire reoccupies a's slot (same arena,
  // same address), not a fresh bump slot.
  TestNode* c = pool.Acquire(3);
  EXPECT_EQ(static_cast<void*>(c), static_cast<void*>(a));
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(pool.live(), 2u);
  pool.Release(b);
  pool.Release(c);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(NodePoolTest, GenerationGuardsAgainstAba) {
  NodePool<TestNode> pool(/*block_nodes=*/4);
  TestNode* node = pool.Acquire(7);
  const std::uint64_t born = pool.Generation(node);
  EXPECT_EQ(born, 0u);  // Never-released slot.
  pool.Release(node);
  TestNode* reused = pool.Acquire(8);
  ASSERT_EQ(static_cast<void*>(reused), static_cast<void*>(node));
  // The slot address repeats (the A-B-A shape) but the generation moved:
  // a handle that remembered `born` can detect its node was recycled.
  EXPECT_EQ(pool.Generation(reused), born + 1);
  pool.Release(reused);
  TestNode* again = pool.Acquire(9);
  EXPECT_EQ(pool.Generation(again), born + 2);
  pool.Release(again);
}

TEST(NodePoolTest, GrowsInCountedBlocks) {
  const std::int64_t before = event_core::allocation_count();
  NodePool<TestNode> pool(/*block_nodes=*/8);
  std::vector<TestNode*> nodes;
  for (std::int64_t i = 0; i < 24; ++i) {
    nodes.push_back(pool.Acquire(i));
  }
  EXPECT_EQ(pool.capacity(), 24u);  // Three 8-node arena blocks.
  EXPECT_EQ(event_core::allocation_count() - before, 3);
  for (TestNode* node : nodes) {
    pool.Release(node);
  }
}

// -------------------------------------------------- allocation contract

// The steady-state gate: once the spine is reserved and the arena has
// grown, a million push/pop + acquire/release cycles perform exactly zero
// counted allocations.
TEST(AllocationContract, MillionEventSteadyStateIsAllocationFree) {
  EventList list;
  list.Reserve(1024);
  NodePool<TestNode> pool(/*block_nodes=*/256);
  std::vector<TestNode*> warm;
  for (std::int64_t i = 0; i < 256; ++i) {
    warm.push_back(pool.Acquire(i));  // Grow the first arena block.
  }
  for (TestNode* node : warm) {
    pool.Release(node);
  }
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);

  const std::int64_t before = event_core::allocation_count();
  double clock = 0.0;
  std::size_t depth = 0;
  for (std::int64_t i = 0; i < 1'000'000; ++i) {
    if (depth < 512 && (depth == 0 || (i & 1) == 0)) {
      list.Push(clock + jitter(rng), EventClass::kArrival, i);
      ++depth;
    } else {
      TestNode* node = pool.Acquire(list.Pop().payload);  // Churn a node
      pool.Release(node);                                 // per pop.
      --depth;
      clock += 1e-6;
    }
  }
  while (!list.empty()) {
    list.Pop();
  }
  EXPECT_EQ(event_core::allocation_count() - before, 0)
      << "steady-state event scheduling allocated";
}

// Engine-level gate: a full event-driven serve run performs O(1) counted
// allocations — one heap reserve — no matter how many requests flow
// through (a million here). Anything per-request would show up as a
// request-count-scaled delta.
TEST(AllocationContract, EventEngineRunAllocationsAreConstant) {
  const diff::DiffFixture fixture;
  ServeOptions options;
  options.qps = 500000.0;
  options.duration_s = 2.0;
  options.max_batch = 8;
  options.seed = 42;
  const std::int64_t before = event_core::allocation_count();
  const ServeReport report = RunSyntheticServe(
      fixture.registry, fixture.replicas, fixture.mix, options);
  const std::int64_t delta = event_core::allocation_count() - before;
  EXPECT_GE(report.generated_requests, 900000);
  EXPECT_LE(delta, 2) << "event-core allocations scaled with the run";
}

}  // namespace
}  // namespace nsflow::serve
