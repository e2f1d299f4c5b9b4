// Serve-engine timeline: differential equivalence + same-instant ordering
// (docs/ENGINE.md).
//
// Two layers:
//
//   1. The differential matrix — golden digests recorded from the
//      pre-rewrite polling build, which every matrix row must reproduce
//      byte-for-byte (compared where the platform fingerprint matches),
//      plus a trace-replay slice whose digests compare on any toolchain.
//   2. The same-instant ordering contract, served end to end: the engine
//      takes its next event from the timeline's sources (the adversity
//      cursor, the autoscaler tick, the earliest admission retry, the
//      drain) and the arrival stream's cursor, by (time, class). Replayed
//      arrivals stamped exactly on a tick, a failure or a retry pin which
//      fires first, and that every retry due at one instant re-offers.
//
// Regenerate a golden file (only intentionally, and for the matrix only
// on a toolchain whose fingerprint matches) by running its test with
// NSFLOW_REGEN_GOLDEN=1 set, e.g.
//
//   NSFLOW_REGEN_GOLDEN=1 ./build/test_event_core_test
//       --gtest_filter='EventCoreDifferential.TraceSliceMatchesGolden'

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve_differential.h"

namespace nsflow::serve {
namespace {

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

// ------------------------------------------ arrivals beside the sources
//
// Arrivals ride a cursor beside the timeline's other sources, in class
// order: at one instant a fault, a tick and a retry fire before an
// arrival. Poisson stamps and the checked-in traces never land exactly on
// a tick, a fault instant or a retry, so no golden pins this; these
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

// ------------------------------------------------ retries on the timeline

/// The mlp tenant's admission row of a run.
const AdmissionTenantSummary& MlpRow(const ServeReport& report) {
  EXPECT_FALSE(report.admission.empty());
  EXPECT_EQ(report.admission.front().tenant, "mlp");
  return report.admission.front();
}

// Two retries due at one instant, each re-shed to a later one: both must
// re-offer there, so three equal stamps serve exactly as three stamps
// 100 ns apart. One token per second admits the first arrival; the other
// two shed to 0.2 s, shed again to 0.4 s, and shed for good there.
TEST(EventCoreDifferential, EveryRetryDueAtOneInstantReoffers) {
  const diff::DiffFixture fixture;
  ServeOptions options = diff::OptionsFor(diff::DiffConfig{});
  options.admission =
      AdmissionSpec::Parse("quota:rate=1,burst=1,retry=2,backoff=0.1");
  const ServeReport equal =
      ServeStamps(fixture, fixture.replicas, {0.1, 0.1, 0.1}, options,
                  "retries_at_one_instant.json");
  const ServeReport spread =
      ServeStamps(fixture, fixture.replicas, {0.1, 0.1 + 1e-7, 0.1 + 2e-7},
                  options, "retries_spread.json");
  for (const ServeReport* report : {&equal, &spread}) {
    const AdmissionTenantSummary& row = MlpRow(*report);
    EXPECT_EQ(row.offered, 7);  // Three arrivals and four re-offers.
    EXPECT_EQ(row.admitted, 1);
    EXPECT_EQ(row.retried, 4);
    EXPECT_EQ(row.shed_quota, 2);
    // A retry left pending at the drain would shed here instead.
    EXPECT_EQ(row.shed_overload, 0);
    EXPECT_EQ(report->summary.completed, 1);
  }
  ASSERT_EQ(equal.admission.size(), spread.admission.size());
  for (std::size_t w = 0; w < equal.admission.size(); ++w) {
    const AdmissionTenantSummary& a = equal.admission[w];
    const AdmissionTenantSummary& b = spread.admission[w];
    EXPECT_EQ(a.offered, b.offered) << a.tenant;
    EXPECT_EQ(a.admitted, b.admitted) << a.tenant;
    EXPECT_EQ(a.shed_quota, b.shed_quota) << a.tenant;
    EXPECT_EQ(a.shed_overload, b.shed_overload) << a.tenant;
    EXPECT_EQ(a.expired, b.expired) << a.tenant;
    EXPECT_EQ(a.retried, b.retried) << a.tenant;
  }
}

// A retry and an arrival due at one instant: the retry re-offers first.
// Ten tokens per second with a burst of one: the first 0.1 s arrival
// takes the token and the second sheds to 0.2 s (0.1 + 0.1 and 10 x 0.1
// are exact). At 0.2 s one token has refilled; the retry takes it and the
// 0.2 s arrival sheds to 0.3 s, where the next token admits it. Had the
// arrival gone first, the retry would find no token and, its one retry
// spent, shed for good.
TEST(EventCoreDifferential, RetryAtAnArrivalReoffersFirst) {
  const diff::DiffFixture fixture;
  ServeOptions options = diff::OptionsFor(diff::DiffConfig{});
  options.admission =
      AdmissionSpec::Parse("quota:rate=10,burst=1,retry=1,backoff=0.1");
  const ServeReport report =
      ServeStamps(fixture, fixture.replicas, {0.1, 0.1, 0.2}, options,
                  "retry_at_arrival.json");
  const AdmissionTenantSummary& row = MlpRow(report);
  EXPECT_EQ(row.offered, 5);
  EXPECT_EQ(row.admitted, 3);
  EXPECT_EQ(row.shed(), 0);
  EXPECT_EQ(row.retried, 2);
  EXPECT_EQ(report.summary.completed, 3);
}

}  // namespace
}  // namespace nsflow::serve
