// Elastic-autoscaler tests: pinned scale-up/scale-down decision sequences
// per scenario, drain safety across retires, hysteresis quiet on
// stationary traffic, fixed-seed bit-determinism of autoscaled runs, the
// frontier-reusing replan entry point, and the headline efficiency gate —
// on the diurnal scenario an autoscaled pool meets the static plan's p99
// SLO with at most 70% of its replica-seconds (docs/AUTOSCALING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "serve/autoscaler.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "serve/server_pool.h"
#include "workloads/builders.h"

namespace nsflow::serve {
namespace {

/// The standard two-tenant pool of these tests: a fast latency tenant next
/// to the utilization-bound resnet18 group whose replica count actually
/// tracks the offered rate.
std::vector<WorkloadShare> StandardMix() {
  return {{"mlp", 0.2}, {"resnet18", 0.8}};
}

PoolPlan StandardPlan(WorkloadRegistry& registry, double qps,
                      const std::string& scenario) {
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  PlanOptions options;
  options.qps = qps;
  options.p99_slo_s = 50e-3;
  options.device = "u250";
  options.devices = 128;
  options.max_replicas_per_workload = 64;
  options.scenario = ScenarioSpec::Parse(scenario);
  return PlanCapacity(registry, StandardMix(), options);
}

ServeOptions StandardServe(const PoolPlan& plan, double qps,
                           const std::string& scenario, double duration_s) {
  ServeOptions options;
  options.qps = qps;
  options.duration_s = duration_s;
  options.seed = 42;
  options.max_batch = plan.max_batch;
  options.max_wait_s = plan.max_wait_s;
  options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  options.scenario = ScenarioSpec::Parse(scenario);
  return options;
}

/// The tuned control knobs of the efficiency gate (the bench_autoscale
/// section runs the same configuration — docs/AUTOSCALING.md).
void TunedAutoscale(ServeOptions& options, const PoolPlan& plan) {
  options.autoscale = true;
  options.autoscale_opts.p99_slo_s = plan.p99_slo_s;
  options.autoscale_opts.devices = plan.devices;
  options.autoscale_opts.max_replicas = 64;
  options.autoscale_opts.headroom = 0.10;
  options.autoscale_opts.up_band = 1.05;
  options.autoscale_opts.down_band = 0.85;
  options.autoscale_opts.cooldown_s = 0.5;
}

TEST(AutoscalerTest, FrontierReplanMatchesFullPlan) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  PlanOptions options;
  options.qps = 300.0;
  options.p99_slo_s = 50e-3;
  options.devices = 16;
  options.scenario = ScenarioSpec::Parse("diurnal:depth=0.8");

  const PoolPlan full = PlanCapacity(registry, StandardMix(), options);
  const PlanFrontier frontier =
      BuildPlanFrontier(registry, StandardMix(), options);
  const PoolPlan incremental =
      PlanCapacity(registry, StandardMix(), options, frontier);
  EXPECT_EQ(full.ToJson().Dump(2), incremental.ToJson().Dump(2));

  // A subset mix replans against the same frontier (the autoscaler's
  // one-workload-at-a-time pattern).
  const std::vector<WorkloadShare> solo = {{"resnet18", 1.0}};
  PlanOptions solo_options = options;
  solo_options.qps = 120.0;
  const PoolPlan replan =
      PlanCapacity(registry, solo, solo_options, frontier);
  ASSERT_EQ(replan.groups.size(), 1u);
  EXPECT_EQ(replan.groups[0].workload, "resnet18");
  EXPECT_GT(replan.groups[0].replicas, 0);
}

TEST(AutoscalerTest, ScenarioWindowMeanRateMatchesNumericIntegral) {
  const double qps = 100.0;
  const double duration = 10.0;
  const std::vector<std::string> scenarios = {
      "poisson", "diurnal:depth=0.8,period=4", "ramp:from=0.2,to=1.8",
      "spike:at=3,width=2,mult=5"};
  for (const std::string& text : scenarios) {
    const ScenarioSpec spec = ScenarioSpec::Parse(text);
    for (const auto& [t0, t1] :
         std::vector<std::pair<double, double>>{{0.0, 1.0},
                                                {2.5, 4.75},
                                                {0.0, 10.0}}) {
      // Numeric Riemann integral of the closed-form instantaneous rate.
      const int steps = 200000;
      double sum = 0.0;
      for (int i = 0; i < steps; ++i) {
        const double t = t0 + (t1 - t0) * (i + 0.5) / steps;
        sum += ScenarioRate(spec, qps, duration, t);
      }
      const double numeric = sum / steps;
      const double analytic =
          ScenarioWindowMeanRate(spec, qps, duration, t0, t1);
      EXPECT_NEAR(analytic, numeric, 1e-3 * qps) << text;
    }
  }
  // Whole-horizon window degenerates to the mean rate.
  const ScenarioSpec diurnal = ScenarioSpec::Parse("diurnal:depth=0.6");
  EXPECT_DOUBLE_EQ(
      ScenarioWindowMeanRate(diurnal, qps, duration, 0.0, duration),
      ScenarioMeanRate(diurnal, qps, duration));
}

TEST(AutoscalerTest, DrainSafetyAtPoolLevel) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const AcceleratorDesign design =
      registry.compiled(0).design();
  const std::vector<ReplicaSpec> specs = {
      {design, {0}, 0}, {design, {0}, 0}};
  ServerPool pool(specs, registry.Dataflows());

  Batch batch;
  batch.workload = 0;
  batch.formed_s = 0.0;
  batch.requests = {Request{0, 0.0, 0}};
  const DispatchRecord first = pool.Dispatch(batch);
  EXPECT_EQ(first.replica, 0);

  // Drain replica 0 while its batch is in flight: the batch completes on
  // it, but every later dispatch routes around it.
  pool.DrainReplica(0, 0.0);
  EXPECT_TRUE(pool.draining(0));
  EXPECT_DOUBLE_EQ(pool.RetiredAt(0), first.complete_s);
  for (int i = 1; i <= 4; ++i) {
    batch.requests = {Request{i, 0.0, 0}};
    EXPECT_EQ(pool.Dispatch(batch).replica, 1);
  }
  // Draining the last capable replica would orphan the workload.
  EXPECT_THROW(pool.DrainReplica(1, 0.0), std::exception);

  // Warm add: unavailable before its ready time, preferred after.
  const int added = pool.AddReplica({design, {0}, 0}, /*ready_s=*/100.0);
  EXPECT_EQ(added, 2);
  EXPECT_DOUBLE_EQ(pool.AddedAt(added), 100.0);
  batch.requests = {Request{9, 0.0, 0}};
  EXPECT_EQ(pool.Dispatch(batch).replica, 1);

  // Accounting: replica 0 active [0, first.complete_s), 1 active the whole
  // horizon, 2 active from t=100.
  EXPECT_EQ(pool.ActiveReplicas(0.0), 2);
  EXPECT_EQ(pool.ActiveReplicas(50.0), 1);
  EXPECT_EQ(pool.ActiveReplicas(100.0), 2);
  EXPECT_DOUBLE_EQ(pool.ReplicaSeconds(200.0),
                   first.complete_s + 200.0 + 100.0);
}

TEST(AutoscalerTest, StationaryHysteresisEmitsNoDeltas) {
  WorkloadRegistry registry;
  const PoolPlan plan = StandardPlan(registry, 1000.0, "poisson");
  ASSERT_TRUE(plan.feasible);
  ServeOptions options = StandardServe(plan, 1000.0, "poisson", 8.0);
  options.autoscale = true;  // Default (conservative) control knobs.
  options.autoscale_opts.p99_slo_s = plan.p99_slo_s;
  options.autoscale_opts.devices = plan.devices;
  options.autoscale_opts.max_replicas = 64;
  const ServeReport report =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);
  // A stationary load inside the hysteresis dead band never reconfigures:
  // no oscillation means literally zero deltas at this rate and window.
  EXPECT_TRUE(report.deltas.empty());
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  // The control loop still sampled the timeline every interval.
  EXPECT_GE(report.summary.timeline.size(), 30u);
  // Static pool throughout: replica-seconds == pool size x horizon.
  EXPECT_NEAR(report.replica_seconds,
              plan.TotalReplicas() * report.summary.horizon_s,
              1e-6 * report.replica_seconds);
}

TEST(AutoscalerTest, DiurnalMeetsSloWithinSeventyPercentReplicaSeconds) {
  // The acceptance gate: same p99 SLO as the PR 4 peak-provisioned static
  // plan, at most 70% of its replica-seconds. bench_plan_scenarios
  // publishes the same comparison in BENCH_plan.json (bench_autoscale).
  const std::string scenario = "diurnal:depth=0.8";
  WorkloadRegistry registry;
  const PoolPlan plan = StandardPlan(registry, 2000.0, scenario);
  ASSERT_TRUE(plan.feasible);

  ServeOptions options = StandardServe(plan, 2000.0, scenario, 16.0);
  const ServeReport fixed =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);
  EXPECT_LE(fixed.summary.p99_ms, plan.p99_slo_s * 1e3);
  // Per-replica summation vs one multiply: identical up to rounding.
  EXPECT_NEAR(fixed.replica_seconds,
              plan.TotalReplicas() * fixed.summary.horizon_s,
              1e-6 * fixed.replica_seconds);

  TunedAutoscale(options, plan);
  const ServeReport elastic =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);

  // Same SLO met, aggregate and per tenant.
  EXPECT_LE(elastic.summary.p99_ms, plan.p99_slo_s * 1e3);
  for (const WorkloadSummary& slice : elastic.summary.per_workload) {
    EXPECT_LE(slice.p99_ms, plan.p99_slo_s * 1e3) << slice.name;
  }
  // At most 70% of the static pool's FPGA time.
  EXPECT_LE(elastic.replica_seconds, 0.70 * fixed.replica_seconds);
  // Drain safety end to end: every generated request completes exactly
  // once across all the adds/retires (a lost request would shrink
  // `completed`, a double-served one would inflate it).
  EXPECT_EQ(elastic.summary.completed, elastic.generated_requests);
  EXPECT_EQ(elastic.generated_requests, fixed.generated_requests);

  // The diurnal cycle both grows and shrinks the pool.
  const PoolDeltaCounts counts = CountDeltas(elastic.deltas);
  EXPECT_GE(counts.adds, 1);
  EXPECT_GE(counts.retires, 1);
  // Decisions and the timeline agree on the final pool size.
  ASSERT_FALSE(elastic.summary.timeline.empty());
  EXPECT_GT(elastic.summary.timeline.back().t_s, 15.0);
}

TEST(AutoscalerTest, DiurnalDecisionSequenceIsBitDeterministic) {
  const std::string scenario = "diurnal:depth=0.8";
  WorkloadRegistry registry;
  const PoolPlan plan = StandardPlan(registry, 600.0, scenario);
  ASSERT_TRUE(plan.feasible);
  ServeOptions options = StandardServe(plan, 600.0, scenario, 16.0);
  TunedAutoscale(options, plan);

  const ServeReport a =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);
  const ServeReport b =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);

  ASSERT_EQ(a.deltas.size(), b.deltas.size());
  ASSERT_FALSE(a.deltas.empty());
  for (std::size_t i = 0; i < a.deltas.size(); ++i) {
    EXPECT_EQ(a.deltas[i].kind, b.deltas[i].kind) << i;
    EXPECT_EQ(a.deltas[i].replica, b.deltas[i].replica) << i;
    EXPECT_EQ(a.deltas[i].workload, b.deltas[i].workload) << i;
    EXPECT_DOUBLE_EQ(a.deltas[i].t_s, b.deltas[i].t_s) << i;
    EXPECT_EQ(a.deltas[i].reason, b.deltas[i].reason) << i;
  }
  EXPECT_EQ(a.dispatches.size(), b.dispatches.size());
  EXPECT_DOUBLE_EQ(a.summary.p99_ms, b.summary.p99_ms);
  EXPECT_DOUBLE_EQ(a.summary.mean_ms, b.summary.mean_ms);
  EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
  ASSERT_EQ(a.summary.timeline.size(), b.summary.timeline.size());
}

TEST(AutoscalerTest, SpikeScaleUpThenDownSequenceIsPinned) {
  // spike defaults: window [0.4, 0.5) x duration at 4x the baseline.
  const std::string scenario = "spike:mult=4";
  WorkloadRegistry registry;
  const PoolPlan plan = StandardPlan(registry, 600.0, scenario);
  ASSERT_TRUE(plan.feasible);
  ServeOptions options = StandardServe(plan, 600.0, scenario, 16.0);
  TunedAutoscale(options, plan);
  const ServeReport report =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);

  const double spike_start = 0.4 * 16.0;
  const double spike_end = 0.5 * 16.0;
  bool retired_before_spike = false;  // Peak-provisioned pool sheds first.
  bool grew_for_spike = false;
  bool shrank_after_spike = false;
  for (const PoolDelta& delta : report.deltas) {
    if (delta.kind == PoolDeltaKind::kRetireReplica &&
        delta.t_s < spike_start) {
      retired_before_spike = true;
    }
    if ((delta.kind == PoolDeltaKind::kAddReplica ||
         delta.kind == PoolDeltaKind::kRefitReplica) &&
        delta.t_s >= spike_start && delta.t_s <= spike_end + 1.0) {
      grew_for_spike = true;
    }
    if (delta.kind == PoolDeltaKind::kRetireReplica &&
        delta.t_s > spike_end) {
      shrank_after_spike = true;
    }
  }
  EXPECT_TRUE(retired_before_spike);
  EXPECT_TRUE(grew_for_spike);
  EXPECT_TRUE(shrank_after_spike);
}

TEST(AutoscalerTest, AggregateBudgetCapsScaleUps) {
  // Solo replans size one group at a time, so the autoscaler enforces the
  // aggregate devices x inventory budget itself: with exactly the boards
  // the peak-provisioned static plan needs, a flash crowd can re-grow the
  // pool back to the plan's size but never past it — further adds are
  // deferred with a "budget exhausted" timeline event.
  const std::string scenario = "spike:mult=4";
  WorkloadRegistry registry;
  const PoolPlan plan = StandardPlan(registry, 600.0, scenario);
  ASSERT_TRUE(plan.feasible);
  const FpgaDevice device = DeviceByName("u250");
  const int devices_needed = static_cast<int>(std::ceil(std::max(
      {plan.resources.dsp / static_cast<double>(device.dsp),
       plan.resources.lut / static_cast<double>(device.lut),
       plan.resources.ff / static_cast<double>(device.ff),
       plan.resources.bram18 / static_cast<double>(device.bram18),
       plan.resources.uram / static_cast<double>(device.uram)})));

  ServeOptions options = StandardServe(plan, 600.0, scenario, 16.0);
  TunedAutoscale(options, plan);
  options.autoscale_opts.devices = devices_needed;
  const ServeReport report =
      RunSyntheticServe(registry, plan.Replicas(), StandardMix(), options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);

  // Replica count over the delta sequence never exceeds the initial
  // (budget-maxed) pool.
  int live = plan.TotalReplicas();
  int peak = live;
  for (const PoolDelta& delta : report.deltas) {
    if (delta.kind == PoolDeltaKind::kAddReplica) {
      ++live;
    } else if (delta.kind == PoolDeltaKind::kRetireReplica) {
      --live;
    }
    peak = std::max(peak, live);
  }
  EXPECT_LE(peak, plan.TotalReplicas());
  // The spike wanted more than the budget allows — the deferral is
  // visible on the timeline.
  bool deferred = false;
  for (const PoolEvent& event : report.summary.timeline) {
    deferred = deferred ||
               event.event.find("budget exhausted") != std::string::npos;
  }
  EXPECT_TRUE(deferred);
}

TEST(AutoscalerTest, RefitAdoptsFreedReplicaAcrossTenants) {
  // Two registry names aliasing one compiled workload (the compile cache
  // hands both the same design), driven by an anti-correlated replayed
  // trace: "east" is hot in the first half, "west" in the second. When
  // east's scale-down and west's scale-up land in one decision, the freed
  // replica refits to the other tenant instead of a retire + cold add —
  // its hardware provably serves the adopter at the planned speed (here:
  // bit-identically).
  WorkloadRegistry registry;
  registry.Register("east", workloads::MakeResnet18Classifier());
  registry.Register("west", workloads::MakeResnet18Classifier());
  EXPECT_EQ(registry.cache().hits(), 1);
  const std::vector<WorkloadShare> mix = {{"east", 0.5}, {"west", 0.5}};

  std::vector<Request> arrivals;
  const auto burst = [&](double from, double to, double rate,
                         WorkloadId workload) {
    for (double t = from; t < to; t += 1.0 / rate) {
      arrivals.push_back(Request{0, t, workload});
    }
  };
  burst(0.0, 8.0, 360.0, 0);
  burst(0.0, 8.0, 40.0, 1);
  burst(8.0, 16.0, 40.0, 0);
  burst(8.0, 16.0, 360.0, 1);
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Request& a, const Request& b) {
              return a.arrival_s != b.arrival_s
                         ? a.arrival_s < b.arrival_s
                         : a.workload < b.workload;
            });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].id = static_cast<std::int64_t>(i);
  }
  const std::string trace_path =
      testing::TempDir() + "autoscaler_flip_trace.json";
  {
    std::ofstream out(trace_path, std::ios::binary);
    out << EmitArrivalTraceJson(arrivals, registry.Names());
  }

  PlanOptions plan_options;
  plan_options.qps = 400.0;
  plan_options.p99_slo_s = 50e-3;
  plan_options.devices = 64;
  plan_options.max_replicas_per_workload = 64;
  const PoolPlan plan = PlanCapacity(registry, mix, plan_options);
  ASSERT_TRUE(plan.feasible);

  ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 16.0;
  options.seed = 42;
  options.max_batch = plan.max_batch;
  options.max_wait_s = plan.max_wait_s;
  options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  options.scenario = ScenarioSpec::Parse("trace:file=" + trace_path);
  TunedAutoscale(options, plan);
  options.autoscale_opts.devices = 64;

  const ServeReport report =
      RunSyntheticServe(registry, plan.Replicas(), mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  const PoolDeltaCounts counts = CountDeltas(report.deltas);
  EXPECT_GE(counts.refits, 1);
  // The refits must point at the tenant that was scaling up.
  for (const PoolDelta& delta : report.deltas) {
    if (delta.kind == PoolDeltaKind::kRefitReplica) {
      ASSERT_EQ(delta.spec.workloads.size(), 1u);
      EXPECT_EQ(delta.spec.workloads[0], delta.workload);
    }
  }
  std::remove(trace_path.c_str());
}

TEST(AutoscalerTest, AutoscaleRequiresMultiTenantPartitionedPool) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  ServeOptions options;
  options.autoscale = true;
  // Shared (non-partitioned) replicas are rejected.
  const std::vector<ReplicaSpec> shared = {
      {registry.compiled(0).design(), {}, 0}};
  EXPECT_THROW(RunSyntheticServe(registry, shared, {{"mlp", 1.0}}, options),
               std::exception);
}

}  // namespace
}  // namespace nsflow::serve
