// Shared fixture + digest machinery for the serve-engine differential
// harness (tests/event_core_test.cpp, docs/ENGINE.md).
//
// The event-core rewrite (ROADMAP item 4) replaced the engine's polling
// interleave with a discrete-event driver; the contract is that every
// fixed-seed run stays BYTE-identical — same stats table, same trace and
// metrics files, same exit code. This header pins that contract as data:
// each matrix configuration ({scenario} x {adversity} x {admission} x
// {autoscale} x {seed}) reduces a full serve run to one FNV-1a digest over
// every observable artifact, and the digests recorded from the pre-rewrite
// polling build are checked in under tests/golden/.
//
// Floating-point caveat: the digests cover double bit patterns, which are
// only portable across toolchains that evaluate libm (exp/log in the
// arrival draws) identically. `PlatformFingerprint` digests the fixture's
// arrival streams and cycle-model latencies; when it matches the recorded
// one, golden rows are compared strictly, otherwise the matrix leg is
// skipped. The trace-replay slice (`SliceConfigs`) reads its arrivals from
// checked-in files instead, so it compares strictly everywhere and no
// toolchain is left without an oracle.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/request.h"
#include "serve/serve_stats.h"
#include "serve/workload_registry.h"

namespace nsflow::serve::diff {

// ---------------------------------------------------------------- matrix

inline const std::vector<std::string>& MatrixScenarios() {
  static const std::vector<std::string> kScenarios = {
      "poisson", "diurnal", "bursty", "ramp", "spike", "closed"};
  return kScenarios;
}

inline const std::vector<std::string>& MatrixAdversities() {
  static const std::vector<std::string> kAdversities = {
      "replica-fail", "straggler", "churn", "flash"};
  return kAdversities;
}

inline const std::vector<std::uint64_t>& MatrixSeeds() {
  static const std::vector<std::uint64_t> kSeeds = {7, 42, 1234};
  return kSeeds;
}

struct DiffConfig {
  std::string scenario = "poisson";
  std::string adversity = "none";
  bool admission = false;
  bool autoscale = false;
  std::uint64_t seed = 42;
  /// Non-empty: replay this checked-in arrival trace (a file name under
  /// tests/golden/) instead of generating `scenario`.
  std::string trace;

  std::string Key() const {
    return (trace.empty() ? scenario : "trace:" + trace) + "|" + adversity +
           "|" + (admission ? "adm" : "noadm") + "|" +
           (autoscale ? "as" : "noas") + "|s" + std::to_string(seed);
  }
};

/// tests/golden/, resolved next to this header.
inline std::string GoldenDir() {
  const std::string self = __FILE__;
  return self.substr(0, self.find_last_of('/')) + "/golden";
}

/// The full differential matrix: {6 scenarios} x {4 adversity patterns} x
/// {admission on/off} x {autoscale on/off} x {3 seeds} = 288 rows, plus an
/// adversity-free slice (6 scenarios x on/off x on/off at seed 42) so the
/// fault-free fast path is pinned too.
inline std::vector<DiffConfig> MatrixConfigs() {
  std::vector<DiffConfig> configs;
  for (const std::string& scenario : MatrixScenarios()) {
    for (const std::string& adversity : MatrixAdversities()) {
      for (const bool admission : {false, true}) {
        for (const bool autoscale : {false, true}) {
          for (const std::uint64_t seed : MatrixSeeds()) {
            configs.push_back({scenario, adversity, admission, autoscale,
                               seed, ""});
          }
        }
      }
    }
    for (const bool admission : {false, true}) {
      for (const bool autoscale : {false, true}) {
        configs.push_back({scenario, "none", admission, autoscale, 42, ""});
      }
    }
  }
  return configs;
}

/// The portable slice: checked-in arrival traces replayed through
/// `trace:file=`, so no libm-drawn arrival enters the run. Each file was
/// written once by EmitArrivalTraceJson over SyntheticArrivals for the
/// fixture mix at 400 qps for 2 s (the scenario and seed are in its
/// name), re-dumped as compact JSON. Only adversity patterns with fixed
/// timelines compose (flash draws extra arrivals with std::log), and
/// autoscaling stays out (its replan runs the planner's Erlang-C).
inline const std::vector<std::string>& SliceTraces() {
  static const std::vector<std::string> kTraces = {
      "arrivals_poisson_s42.json", "arrivals_bursty_s7.json",
      "arrivals_diurnal_s1234.json"};
  return kTraces;
}

/// {3 traces} x {none, replica-fail, straggler, churn} x {admission
/// on/off}, autoscale off = 24 rows (tests/golden/trace_slice_golden.txt).
inline std::vector<DiffConfig> SliceConfigs() {
  std::vector<DiffConfig> configs;
  for (const std::string& trace : SliceTraces()) {
    for (const std::string adversity :
         {"none", "replica-fail", "straggler", "churn"}) {
      for (const bool admission : {false, true}) {
        DiffConfig config;
        config.adversity = adversity;
        config.admission = admission;
        config.trace = trace;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

// --------------------------------------------------------------- fixture

/// One registry + partitioned two-replica pool shared by every matrix row
/// (autoscaled rows require the partitioned shape). Building the registry
/// compiles both workloads once; the per-row ServerPool is constructed
/// inside RunSyntheticServe from the spec list.
struct DiffFixture {
  DiffFixture() {
    registry.RegisterBuiltin("mlp");
    registry.RegisterBuiltin("resnet18");
    replicas = registry.ReplicaSpecs(2, /*partitioned=*/true);
    mix = {{"mlp", 0.6}, {"resnet18", 0.4}};
  }

  WorkloadRegistry registry;
  std::vector<ReplicaSpec> replicas;
  std::vector<WorkloadShare> mix;
};

inline ServeOptions OptionsFor(const DiffConfig& config) {
  ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 2.0;
  options.max_batch = 8;
  options.seed = config.seed;
  options.scenario = ScenarioSpec::Parse(
      config.trace.empty() ? config.scenario
                           : "trace:file=" + GoldenDir() + "/" + config.trace);
  options.adversity = AdversitySpec::Parse(config.adversity);
  if (config.admission) {
    options.admission = AdmissionSpec::Parse("guard");
    options.tiers = {SlaTier::kCritical, SlaTier::kBatch};
  }
  options.autoscale = config.autoscale;
  options.trace.enabled = true;
  return options;
}

// ---------------------------------------------------------------- digest

inline std::uint64_t FnvMix(std::uint64_t hash, const char* data,
                            std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline std::uint64_t Fnv(const std::string& text) {
  return FnvMix(14695981039346656037ULL, text.data(), text.size());
}

inline std::string HexDigest(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

/// Full-precision double rendering: %.17g round-trips every finite bit
/// pattern, so two runs digest equal iff their doubles are bit-equal.
inline std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

/// The run's exit code under the CLI's admission contract — delegated to
/// serve::AdmissionExitCode (admission.h) so the harness digests exactly
/// what the CLI would exit with.
inline int AdmissionExitCodeOf(const ServeReport& report) {
  return AdmissionExitCode(report.admission);
}

/// Serializes every observable artifact of a run — the stats epilogue
/// table, per-batch dispatch records, autoscaler deltas, admission rows,
/// the Chrome trace and metrics JSON bytes, and the exit code — into the
/// digest source text. Byte-identical runs produce byte-identical text.
inline std::string SerializeReport(const ServeReport& report) {
  std::string out;
  out.reserve(1 << 20);
  out += "== stats\n";
  out += ServeStats::ToTable(report.summary);
  out += "generated=" + std::to_string(report.generated_requests) + "\n";
  out += "single=" + Num(report.single_request_by_workload.front()) + "\n";
  for (const double s : report.single_request_by_workload) {
    out += "single_w=" + Num(s) + "\n";
  }
  out += "replica_seconds=" + Num(report.replica_seconds) + "\n";
  out += "expired_dispatched=" + std::to_string(report.expired_dispatched) +
         "\n";
  out += "== dispatches\n";
  for (const DispatchRecord& d : report.dispatches) {
    out += std::to_string(d.batch_index) + " r" + std::to_string(d.replica) +
           " w" + std::to_string(d.workload) + " " + Num(d.start_s) + " " +
           Num(d.complete_s) + " n" + std::to_string(d.size) + "\n";
  }
  out += "== deltas\n";
  for (const PoolDelta& d : report.deltas) {
    out += std::to_string(static_cast<int>(d.kind)) + " " + Num(d.t_s) +
           " w" + std::to_string(d.workload) + " r" +
           std::to_string(d.replica) + " cap" +
           std::to_string(d.batch_cap) + " " + d.reason + "\n";
  }
  out += "== admission\n";
  for (const AdmissionTenantSummary& row : report.admission) {
    out += row.tenant + " " + TierName(row.tier) + " " +
           std::to_string(row.offered) + " " + std::to_string(row.admitted) +
           " " + std::to_string(row.shed_quota) + " " +
           std::to_string(row.shed_overload) + " " +
           std::to_string(row.expired) + " " + std::to_string(row.retried) +
           "\n";
  }
  out += "exit=" + std::to_string(AdmissionExitCodeOf(report)) + "\n";
  if (report.obs != nullptr) {
    out += "== trace\n";
    out += report.obs->ChromeTraceJson();
    out += "\n== metrics\n";
    out += report.obs->MetricsJson();
    out += "\n";
  }
  return out;
}

struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t nsft_digest = 0;  // The run's BinaryTrace() bytes alone.
  int exit_code = 0;
};

/// Runs one matrix row through the public engine entry point and reduces
/// it to (digests, exit code).
inline RunResult RunConfig(const DiffFixture& fixture,
                           const ServeOptions& options) {
  const ServeReport report = RunSyntheticServe(fixture.registry,
                                               fixture.replicas, fixture.mix,
                                               options);
  RunResult result;
  result.digest = Fnv(SerializeReport(report));
  if (report.obs != nullptr) {
    result.nsft_digest = Fnv(report.obs->BinaryTrace());
  }
  result.exit_code = AdmissionExitCodeOf(report);
  return result;
}

/// Digest of everything toolchain-dependent the matrix consumes: the
/// composed arrival streams (libm-driven RNG draws) for every scenario x
/// seed, and the fixture's cycle-model single-request latencies. Two
/// builds that agree on this fingerprint agree on every double entering
/// the pipeline, so their golden digests are comparable.
inline std::string PlatformFingerprint(const DiffFixture& fixture) {
  std::string out;
  out.reserve(1 << 20);
  const std::vector<double> shares = {0.6, 0.4};
  for (const std::string& scenario : MatrixScenarios()) {
    for (const std::uint64_t seed : MatrixSeeds()) {
      DiffConfig config;
      config.scenario = scenario;
      config.adversity = "flash";  // Exercises arrival-side superimposition.
      config.seed = seed;
      const ServeOptions options = OptionsFor(config);
      for (const Request& r :
           SyntheticArrivals(options, shares, fixture.registry.Names())) {
        out += Num(r.arrival_s) + ":" + std::to_string(r.workload) + "\n";
      }
    }
  }
  DiffConfig base;  // poisson/none/no-admission/no-autoscale, seed 42.
  ServeOptions options = OptionsFor(base);
  options.duration_s = 0.25;
  const ServeReport probe = RunSyntheticServe(fixture.registry,
                                              fixture.replicas, fixture.mix,
                                              options);
  for (const double s : probe.single_request_by_workload) {
    out += "lat=" + Num(s) + "\n";
  }
  return HexDigest(Fnv(out));
}

}  // namespace nsflow::serve::diff
