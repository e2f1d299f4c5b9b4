// Adversity-engine tests (serve/adversity.h): spec round-trips, the
// resolved event timeline, per-pattern bit-determinism under a fixed seed,
// the fault x scenario composition matrix, re-enqueue safety on replica
// failure (no lost or duplicated requests, batch composition preserved),
// straggler routing, churn-driven scale-to-floor + re-grow, and the
// headline hardening gate — a single replica loss at the diurnal peak with
// the tuned autoscaler still meets the 50 ms p99 SLO at <= 15% extra
// replica-seconds versus the fault-free run, bit-identically across two
// same-seed runs (docs/SCENARIOS.md "Adversity").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/observability.h"
#include "serve/adversity.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

namespace nsflow::serve {
namespace {

std::vector<std::string> AllAdversitySpecs() {
  return {"none",
          "replica-fail",
          "replica-fail:at=0.5,down=0.25,replica=0,count=2,warmup=0.1",
          "straggler",
          "straggler:at=0.2,duration=1,factor=2.5,replica=1",
          "churn",
          "churn:at=0.3,down=0.4,workload=1",
          "flash",
          "flash:at=0.5,width=0.25,mult=4"};
}

// ------------------------------------------------------------ spec parsing

TEST(AdversityTest, SpecParsesAndRoundTrips) {
  for (const std::string& text : AllAdversitySpecs()) {
    const AdversitySpec spec = AdversitySpec::Parse(text);
    const AdversitySpec again = AdversitySpec::Parse(spec.ToString());
    EXPECT_TRUE(spec == again) << text << " -> " << spec.ToString();
  }
  EXPECT_FALSE(AdversitySpec::Parse("none").enabled());
  EXPECT_TRUE(AdversitySpec::Parse("flash").enabled());
  EXPECT_EQ(AdversitySpec::Parse("replica-fail:at=2").Name(), "replica-fail");
  // High-precision values survive the canonical print bit-exactly (the
  // spec string is recorded in bench artifacts).
  AdversitySpec spec;
  spec.kind = AdversityKind::kStraggler;
  spec.params["at"] = 1.0 / 3.0;
  spec.params["factor"] = 2.0000000001;
  const AdversitySpec again = AdversitySpec::Parse(spec.ToString());
  EXPECT_EQ(again.params.at("at"), 1.0 / 3.0);
  EXPECT_EQ(again.params.at("factor"), 2.0000000001);
}

// ------------------------------------------------------- event timelines

TEST(AdversityTest, TimelineResolvesDurationRelativeDefaults) {
  // replica-fail defaults: at = 0.25 x D, down = 0.25 x D, one target
  // resolved at fire time.
  const auto fail =
      BuildAdversityTimeline(AdversitySpec::Parse("replica-fail"), 8.0);
  ASSERT_EQ(fail.size(), 1u);
  EXPECT_EQ(fail[0].kind, AdversityEventKind::kReplicaFail);
  EXPECT_DOUBLE_EQ(fail[0].t_s, 2.0);
  EXPECT_DOUBLE_EQ(fail[0].until_s, 4.0);
  EXPECT_EQ(fail[0].replica, -1);

  // count fans out; an explicit base target fans to consecutive ids.
  const auto pair = BuildAdversityTimeline(
      AdversitySpec::Parse("replica-fail:at=1,down=2,replica=3,count=2"), 8.0);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].replica, 3);
  EXPECT_EQ(pair[1].replica, 4);

  // churn emits its paired rejoin as a timeline event.
  const auto churn = BuildAdversityTimeline(
      AdversitySpec::Parse("churn:at=1,down=2,workload=1"), 8.0);
  ASSERT_EQ(churn.size(), 2u);
  EXPECT_EQ(churn[0].kind, AdversityEventKind::kChurnLeave);
  EXPECT_EQ(churn[1].kind, AdversityEventKind::kChurnRejoin);
  EXPECT_DOUBLE_EQ(churn[1].t_s, 3.0);
  EXPECT_EQ(churn[0].workload, 1);

  // Start events at or past the horizon are dropped (nothing can fire).
  EXPECT_TRUE(
      BuildAdversityTimeline(AdversitySpec::Parse("replica-fail:at=10"), 8.0)
          .empty());
  // The timeline itself is deterministic: no random draws.
  const auto a = BuildAdversityTimeline(AdversitySpec::Parse("flash"), 16.0);
  const auto b = BuildAdversityTimeline(AdversitySpec::Parse("flash"), 16.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
  }
}

// ------------------------------------------------- arrival-side patterns

TEST(AdversityTest, ChurnMasksOnlyTheTenantWindow) {
  ServeOptions options;
  options.qps = 2000.0;
  options.duration_s = 2.0;
  options.seed = 7;
  const std::vector<double> shares = {0.5, 0.5};
  const auto base = SyntheticArrivals(options, shares);
  options.adversity = AdversitySpec::Parse("churn:at=0.5,down=1,workload=1");
  const auto churned = SyntheticArrivals(options, shares);
  // Nothing of workload 1 inside [0.5, 1.5); everything else survives
  // bit-exactly in order.
  std::size_t kept = 0;
  for (const Request& r : base) {
    if (r.workload == 1 && r.arrival_s >= 0.5 && r.arrival_s < 1.5) {
      continue;
    }
    ASSERT_LT(kept, churned.size());
    EXPECT_EQ(churned[kept].arrival_s, r.arrival_s);
    EXPECT_EQ(churned[kept].workload, r.workload);
    ++kept;
  }
  EXPECT_EQ(kept, churned.size());
  EXPECT_LT(churned.size(), base.size());
  // Ids are the arrival index (engine invariant).
  for (std::size_t i = 0; i < churned.size(); ++i) {
    EXPECT_EQ(churned[i].id, static_cast<std::int64_t>(i));
  }
}

TEST(AdversityTest, FlashSuperimposesSeededExtraArrivals) {
  ServeOptions options;
  options.qps = 2000.0;
  options.duration_s = 2.0;
  options.seed = 7;
  const std::vector<double> shares = {0.5, 0.5};
  const auto base = SyntheticArrivals(options, shares);
  options.adversity = AdversitySpec::Parse("flash:at=0.5,width=0.5,mult=3");
  const auto a = SyntheticArrivals(options, shares);
  const auto b = SyntheticArrivals(options, shares);
  // Same seed: bit-identical superimposed trace.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival_s, b[i].arrival_s);
    ASSERT_EQ(a[i].workload, b[i].workload);
    ASSERT_EQ(a[i].id, static_cast<std::int64_t>(i));
  }
  // A different seed draws a different flash stream.
  const auto extras = [&](std::uint64_t seed) {
    return ArrivalAdversity(options.adversity, options.qps,
                            options.duration_s, seed, shares)
        .extras;
  };
  const std::vector<Request> c = extras(options.seed + 1);
  const std::vector<Request> d = extras(options.seed);
  bool differs = c.size() != d.size();
  for (std::size_t i = 0; !differs && i < d.size(); ++i) {
    differs = c[i].arrival_s != d[i].arrival_s;
  }
  EXPECT_TRUE(differs) << "different seeds gave the same flash stream";
  // The window carries ~mult x the base mass; the trace is the base and
  // the extras merged, base first on equal stamps.
  const auto in_window = [](const std::vector<Request>& trace) {
    double n = 0.0;
    for (const Request& r : trace) {
      n += (r.arrival_s >= 0.5 && r.arrival_s < 1.0) ? 1.0 : 0.0;
    }
    return n;
  };
  const double expected = in_window(base) * 3.0;
  EXPECT_NEAR(in_window(a), expected, 5.0 * std::sqrt(expected));
  ASSERT_EQ(a.size(), base.size() + d.size());
  std::size_t next_base = 0;
  std::size_t next_extra = 0;
  for (const Request& r : a) {
    const bool from_base =
        next_base < base.size() &&
        (next_extra == d.size() ||
         base[next_base].arrival_s <= d[next_extra].arrival_s);
    const Request& want = from_base ? base[next_base++] : d[next_extra++];
    ASSERT_EQ(r.arrival_s, want.arrival_s);
    ASSERT_EQ(r.workload, want.workload);
  }
}

// ------------------------------------- fault x scenario composition matrix

TEST(AdversityTest, EveryPatternComposesWithEveryScenarioDeterministically) {
  // Each fault pattern x three traffic scenarios, each run twice: the run
  // completes every generated request and is bit-identical under the fixed
  // seed (the determinism contract extends to composed runs).
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  for (const std::string& adversity :
       {std::string("replica-fail:at=0.1,down=0.2"),
        std::string("straggler:factor=3"), std::string("churn:workload=0"),
        std::string("flash:mult=3")}) {
    for (const std::string& scenario :
         {std::string("poisson"), std::string("diurnal:depth=0.8"),
          std::string("bursty")}) {
      ServeOptions options;
      options.qps = 400.0;
      options.duration_s = 0.5;
      options.seed = 11;
      options.scenario = ScenarioSpec::Parse(scenario);
      options.adversity = AdversitySpec::Parse(adversity);
      const ServeReport a =
          RunSyntheticServe(registry, replicas, mix, options);
      const ServeReport b =
          RunSyntheticServe(registry, replicas, mix, options);
      const std::string label = adversity + " x " + scenario;
      ASSERT_GT(a.summary.completed, 0) << label;
      EXPECT_EQ(a.summary.completed, a.generated_requests) << label;
      ASSERT_EQ(a.generated_requests, b.generated_requests) << label;
      ASSERT_EQ(a.summary.completed, b.summary.completed) << label;
      ASSERT_EQ(a.summary.p99_ms, b.summary.p99_ms) << label;
      ASSERT_EQ(a.summary.throughput_rps, b.summary.throughput_rps) << label;
      ASSERT_EQ(a.replica_seconds, b.replica_seconds) << label;
      ASSERT_EQ(a.dispatches.size(), b.dispatches.size()) << label;
    }
  }
}

// --------------------------------------------------- re-enqueue safety

TEST(AdversityTest, ReplicaFailureReEnqueuesInFlightWorkSafely) {
  // Two resnet18 replicas near saturation; replica 0 goes dark mid-run.
  // Every in-flight batch it held is re-enqueued: no request is lost or
  // served twice, batches keep their composition (consecutive arrival ids
  // — the per-workload FIFO), and nothing starts on the dark replica.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"resnet18", 1.0}};
  const double fail_s = 1.0;
  const double recover_s = 1.5;
  ServeOptions options;
  options.qps = 1600.0;
  options.duration_s = 2.0;
  options.seed = 42;
  options.adversity =
      AdversitySpec::Parse("replica-fail:at=1,down=0.5,replica=0");
  options.trace.enabled = true;
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);

  // The fault is on the pool timeline with the re-enqueue tally.
  bool failed_event = false;
  for (const PoolEvent& event : report.summary.timeline) {
    if (event.kind == PoolEventKind::kFault &&
        event.event.find("replica 0 failed") != std::string::npos) {
      failed_event = true;
      EXPECT_NE(event.event.find("re-enqueued"), std::string::npos)
          << event.event;
    }
  }
  EXPECT_TRUE(failed_event);

  ASSERT_NE(report.obs, nullptr);
  const obs::TraceData trace = report.obs->recorder.Drain();
  ASSERT_EQ(trace.requests.size(),
            static_cast<std::size_t>(report.generated_requests));

  // Every generated request completes exactly once.
  std::set<std::int64_t> ids;
  for (const obs::RequestSpan& span : trace.requests) {
    EXPECT_TRUE(ids.insert(span.request_id).second)
        << "request " << span.request_id << " served twice";
    EXPECT_GE(span.complete_s, span.start_s);
    // Nothing executes on the dark replica inside its outage.
    if (span.replica == 0) {
      EXPECT_FALSE(span.start_s >= fail_s && span.start_s < recover_s)
          << "request " << span.request_id << " started on the dark replica";
    }
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(report.generated_requests));
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), report.generated_requests - 1);

  // Batch composition survives the re-enqueue: one workload means each
  // batch holds consecutive arrival ids (the forming lane is FIFO and a
  // re-dispatched batch moves whole).
  std::map<std::int64_t, std::vector<std::int64_t>> by_batch;
  for (const obs::RequestSpan& span : trace.requests) {
    by_batch[span.batch_index].push_back(span.request_id);
  }
  bool re_enqueued_batch = false;
  for (auto& [batch_index, members] : by_batch) {
    std::sort(members.begin(), members.end());
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(members[i], members[i - 1] + 1)
          << "batch " << batch_index << " lost its FIFO composition";
    }
  }
  // At least one batch was actually re-enqueued — its formed stamp is the
  // fail instant (re-dispatch re-forms aborted batches at the failure) —
  // and no batch executes on the dark replica inside its outage.
  for (const obs::BatchSpan& span : trace.batches) {
    re_enqueued_batch =
        re_enqueued_batch || (span.formed_s == fail_s && span.replica != 0);
    if (span.replica == 0) {
      EXPECT_FALSE(span.start_s >= fail_s && span.start_s < recover_s)
          << "batch " << span.batch_index << " started on the dark replica";
    }
  }
  EXPECT_TRUE(re_enqueued_batch);

  // The whole traced run is byte-reproducible under the same seed.
  const ServeReport again =
      RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_NE(again.obs, nullptr);
  EXPECT_EQ(report.obs->ChromeTraceJson(), again.obs->ChromeTraceJson());
}

TEST(AdversityTest, ReplicaFailTimelineCountsCompletionsAsTheySettle) {
  // A replica-fail run settles its held batches at the watermark after
  // every arrival, so the metrics timeline counts completions as they
  // happen: serve.completed never falls, is positive before the failure,
  // keeps rising between the failure and the end, and ends at the
  // summary's count. An engine that settles only at failure instants and
  // at the end reads 0 until the failure and then stays flat, and fails
  // here.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(4, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.6}, {"resnet18", 0.4}};
  const double fail_s = 2.0;
  ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 4.0;
  options.seed = 7;
  options.adversity = AdversitySpec::Parse("replica-fail:at=2,down=1");
  options.trace.enabled = true;
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_NE(report.obs, nullptr);
  ASSERT_GT(report.summary.completed, 0);

  const Json metrics = Json::Parse(report.obs->MetricsJson());
  std::vector<std::pair<double, std::int64_t>> completed;
  for (const Json& snapshot : metrics.At("snapshots").AsArray()) {
    completed.emplace_back(snapshot.At("t_s").AsDouble(),
                           snapshot.At("values")
                               .At("counters")
                               .At("serve.completed")
                               .AsInt());
  }
  ASSERT_GE(completed.size(), 4u);
  std::int64_t before_failure = -1;
  std::int64_t first_after_failure = -1;
  for (std::size_t i = 0; i < completed.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(completed[i].second, completed[i - 1].second)
          << "serve.completed fell at t=" << completed[i].first;
    }
    if (completed[i].first < fail_s) {
      before_failure = completed[i].second;
    } else if (completed[i].first > fail_s && first_after_failure < 0) {
      first_after_failure = completed[i].second;
    }
  }
  EXPECT_GT(before_failure, 0) << "nothing counted before the failure";
  // The last snapshot before the final one still sits inside the run.
  EXPECT_GT(completed[completed.size() - 2].second, first_after_failure)
      << "serve.completed stayed flat after the failure";
  EXPECT_EQ(completed.back().second, report.summary.completed);
}

TEST(AdversityTest, FailureThatWouldOrphanAWorkloadIsSkipped) {
  // One replica serving the only workload: injecting its failure would
  // orphan the tenant, so the engine skips it and surfaces the skip as a
  // pool event instead of crashing or losing requests.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(1, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  ServeOptions options;
  options.qps = 200.0;
  options.duration_s = 1.0;
  options.seed = 5;
  options.adversity = AdversitySpec::Parse("replica-fail:at=0.25,down=0.25");
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  bool skipped = false;
  for (const PoolEvent& event : report.summary.timeline) {
    skipped = skipped || (event.kind == PoolEventKind::kFault &&
                          event.event.find("skipped") != std::string::npos);
  }
  EXPECT_TRUE(skipped);
}

// --------------------------------------------------- straggler routing

TEST(AdversityTest, PoolDerateMultipliesServiceInsideTheWindow) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> specs = registry.ReplicaSpecs(2, false);
  // Each dispatch is the first on a fresh pool whose replica 0 runs at half
  // clock inside [1, 2): every replica is free, so replica 0 takes it.
  const auto first_dispatch = [&](double formed_s) {
    ServerPool pool(specs, registry.Dataflows());
    pool.SetDerate(0, 2.0, 1.0, 2.0);
    Batch batch;
    batch.workload = 0;
    batch.formed_s = formed_s;
    batch.requests = {Request{0, 0.0, 0}};
    return pool.Dispatch(batch);
  };
  const DispatchRecord before = first_dispatch(0.0);
  EXPECT_EQ(before.replica, 0);
  const double clean = before.complete_s;
  ASSERT_GT(clean, 0.0);

  ServerPool pool(specs, registry.Dataflows());
  pool.SetDerate(0, 2.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(pool.DerateAt(0, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(pool.DerateAt(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(pool.DerateAt(0, 2.0), 1.0);
  EXPECT_EQ(pool.Health(0, 1.5), ServerPool::ReplicaHealth::kDerated);
  EXPECT_EQ(pool.Health(0, 0.5), ServerPool::ReplicaHealth::kUp);

  // Inside the window the modeled service doubles; outside it is exact.
  const DispatchRecord derated = first_dispatch(1.2);
  EXPECT_EQ(derated.replica, 0);
  // complete - start loses a few ulps against the large start stamp.
  EXPECT_NEAR(derated.complete_s - derated.start_s, 2.0 * clean,
              1e-9 * clean);
  const DispatchRecord after = first_dispatch(3.0);
  EXPECT_EQ(after.replica, 0);
  EXPECT_NEAR(after.complete_s - after.start_s, clean, 1e-9 * clean);
}

TEST(AdversityTest, StragglerDerateShiftsDispatchShareAway) {
  // Two replicas near saturation; replica 0 runs at half clock for most of
  // the run. The eager earliest-free schedule routes around it on its own:
  // a 2x derate cuts its dispatch share from ~1/2 to ~1/3.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"resnet18", 1.0}};
  ServeOptions options;
  options.qps = 200.0;  // ~80% of the two-replica capacity: busy enough
                        // that dispatch is a free-time race, stable enough
                        // that starts track the derate window.
  options.duration_s = 4.0;
  options.seed = 42;

  const auto replica0_share = [](const ServeReport& report, double from,
                                 double to) {
    double on0 = 0.0;
    double total = 0.0;
    for (const DispatchRecord& record : report.dispatches) {
      if (record.start_s < from || record.start_s >= to) {
        continue;
      }
      total += 1.0;
      on0 += record.replica == 0 ? 1.0 : 0.0;
    }
    return total == 0.0 ? 0.0 : on0 / total;
  };

  const ServeReport healthy =
      RunSyntheticServe(registry, replicas, mix, options);
  options.adversity =
      AdversitySpec::Parse("straggler:at=0.5,duration=3,factor=2,replica=0");
  const ServeReport derated =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_EQ(derated.summary.completed, derated.generated_requests);

  const double healthy_share = replica0_share(healthy, 0.5, 3.5);
  const double derated_share = replica0_share(derated, 0.5, 3.5);
  EXPECT_GT(healthy_share, 0.45);
  EXPECT_LT(derated_share, 0.45);
  EXPECT_LT(derated_share, healthy_share - 0.05);
  // The derate window is on the pool timeline.
  bool derate_event = false;
  for (const PoolEvent& event : derated.summary.timeline) {
    derate_event = derate_event ||
                   (event.kind == PoolEventKind::kFault &&
                    event.event.find("derated") != std::string::npos);
  }
  EXPECT_TRUE(derate_event);
}

// ------------------------------------------------------- churn + refit

TEST(AdversityTest, ChurnDrivesScaleToFloorAndRegrow) {
  // The big tenant churns out mid-run: the autoscaler sheds its replicas
  // toward the floor, then re-grows (warm adds / refits) when it rejoins.
  const std::string scenario = "poisson";
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<WorkloadShare> mix = {{"mlp", 0.2}, {"resnet18", 0.8}};
  PlanOptions plan_options;
  plan_options.qps = 600.0;
  plan_options.p99_slo_s = 50e-3;
  plan_options.device = "u250";
  plan_options.devices = 128;
  plan_options.max_replicas_per_workload = 64;
  const PoolPlan plan = PlanCapacity(registry, mix, plan_options);
  ASSERT_TRUE(plan.feasible);

  ServeOptions options;
  options.qps = 600.0;
  options.duration_s = 16.0;
  options.seed = 42;
  options.max_batch = plan.max_batch;
  options.max_wait_s = plan.max_wait_s;
  options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  options.autoscale = true;
  options.autoscale_opts.p99_slo_s = plan.p99_slo_s;
  options.autoscale_opts.devices = plan.devices;
  options.autoscale_opts.max_replicas = 64;
  options.autoscale_opts.headroom = 0.10;
  options.autoscale_opts.up_band = 1.05;
  options.autoscale_opts.down_band = 0.85;
  options.autoscale_opts.cooldown_s = 0.5;
  options.adversity = AdversitySpec::Parse("churn:at=4,down=6,workload=1");

  const ServeReport report = RunSyntheticServe(registry, plan.Replicas(),
                                               mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  // Shrink inside the churn window, grow after the rejoin — both for the
  // churned tenant.
  bool shed_in_window = false;
  bool regrew_after = false;
  for (const PoolDelta& delta : report.deltas) {
    if (delta.workload != 1) {
      continue;
    }
    if (delta.kind == PoolDeltaKind::kRetireReplica && delta.t_s >= 4.0 &&
        delta.t_s < 10.0) {
      shed_in_window = true;
    }
    if ((delta.kind == PoolDeltaKind::kAddReplica ||
         delta.kind == PoolDeltaKind::kRefitReplica) &&
        delta.t_s >= 10.0) {
      regrew_after = true;
    }
  }
  EXPECT_TRUE(shed_in_window);
  EXPECT_TRUE(regrew_after);
  // The churn window itself is on the pool timeline.
  bool churn_event = false;
  for (const PoolEvent& event : report.summary.timeline) {
    churn_event = churn_event ||
                  (event.kind == PoolEventKind::kFault &&
                   event.event.find("churned out") != std::string::npos);
  }
  EXPECT_TRUE(churn_event);
}

// ------------------------------------------------------- headline gate

TEST(AdversityTest, SingleReplicaLossAtPeakHoldsSloWithinOverheadBudget) {
  // The hardening gate (bench_plan_scenarios publishes the same run):
  // diurnal traffic with the tuned autoscaler, the busiest replica lost at
  // the crest (replica-fail defaults: at = 0.25 x D = the diurnal peak).
  // The autoscaled pool must still hold the 50 ms p99 SLO while spending
  // at most 15% more replica-seconds than the fault-free run, and the
  // whole decision/fault sequence must be bit-identical across two
  // same-seed runs.
  const std::string scenario = "diurnal:depth=0.8";
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<WorkloadShare> mix = {{"mlp", 0.2}, {"resnet18", 0.8}};
  PlanOptions plan_options;
  plan_options.qps = 2000.0;
  plan_options.p99_slo_s = 50e-3;
  plan_options.device = "u250";
  plan_options.devices = 128;
  plan_options.max_replicas_per_workload = 64;
  plan_options.scenario = ScenarioSpec::Parse(scenario);
  const PoolPlan plan = PlanCapacity(registry, mix, plan_options);
  ASSERT_TRUE(plan.feasible);

  ServeOptions options;
  options.qps = 2000.0;
  options.duration_s = 16.0;
  options.seed = 42;
  options.max_batch = plan.max_batch;
  options.max_wait_s = plan.max_wait_s;
  options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  options.scenario = ScenarioSpec::Parse(scenario);
  options.autoscale = true;
  options.autoscale_opts.p99_slo_s = plan.p99_slo_s;
  options.autoscale_opts.devices = plan.devices;
  options.autoscale_opts.max_replicas = 64;
  options.autoscale_opts.headroom = 0.10;
  options.autoscale_opts.up_band = 1.05;
  options.autoscale_opts.down_band = 0.85;
  options.autoscale_opts.cooldown_s = 0.5;

  const ServeReport no_fault = RunSyntheticServe(registry, plan.Replicas(),
                                                 mix, options);
  ASSERT_LE(no_fault.summary.p99_ms, plan.p99_slo_s * 1e3);

  options.adversity = AdversitySpec::Parse("replica-fail");
  const ServeReport fault = RunSyntheticServe(registry, plan.Replicas(),
                                              mix, options);
  // Identical offered trace (replica-side fault leaves arrivals alone),
  // every request still served exactly once through the loss.
  EXPECT_EQ(fault.generated_requests, no_fault.generated_requests);
  EXPECT_EQ(fault.summary.completed, fault.generated_requests);
  // SLO held through the outage, aggregate and per tenant.
  EXPECT_LE(fault.summary.p99_ms, plan.p99_slo_s * 1e3);
  for (const WorkloadSummary& slice : fault.summary.per_workload) {
    EXPECT_LE(slice.p99_ms, plan.p99_slo_s * 1e3) << slice.name;
  }
  // Replan-around-loss is efficient: at most 15% extra replica-seconds
  // versus the fault-free autoscaled run (the dead replica's dark time is
  // excluded from the bill, so recovery capacity is the only overhead).
  EXPECT_LE(fault.replica_seconds, 1.15 * no_fault.replica_seconds);
  // The loss actually registered: a fault event on the timeline, and the
  // autoscaler reacted after it.
  double fail_t = -1.0;
  for (const PoolEvent& event : fault.summary.timeline) {
    if (event.kind == PoolEventKind::kFault &&
        event.event.find("failed") != std::string::npos) {
      fail_t = event.t_s;
    }
  }
  ASSERT_GE(fail_t, 0.0);
  EXPECT_DOUBLE_EQ(fail_t, 4.0);  // at = 0.25 x 16 (the diurnal crest).

  // Bit-determinism of the hardened run: two same-seed runs agree delta
  // for delta and fault for fault.
  const ServeReport again = RunSyntheticServe(registry, plan.Replicas(),
                                              mix, options);
  ASSERT_EQ(fault.deltas.size(), again.deltas.size());
  for (std::size_t i = 0; i < fault.deltas.size(); ++i) {
    EXPECT_EQ(fault.deltas[i].kind, again.deltas[i].kind) << i;
    EXPECT_EQ(fault.deltas[i].replica, again.deltas[i].replica) << i;
    EXPECT_EQ(fault.deltas[i].workload, again.deltas[i].workload) << i;
    EXPECT_DOUBLE_EQ(fault.deltas[i].t_s, again.deltas[i].t_s) << i;
    EXPECT_EQ(fault.deltas[i].reason, again.deltas[i].reason) << i;
  }
  ASSERT_EQ(fault.summary.timeline.size(), again.summary.timeline.size());
  for (std::size_t i = 0; i < fault.summary.timeline.size(); ++i) {
    EXPECT_EQ(fault.summary.timeline[i].event,
              again.summary.timeline[i].event) << i;
    EXPECT_DOUBLE_EQ(fault.summary.timeline[i].t_s,
                     again.summary.timeline[i].t_s) << i;
  }
  EXPECT_DOUBLE_EQ(fault.summary.p99_ms, again.summary.p99_ms);
  EXPECT_DOUBLE_EQ(fault.replica_seconds, again.replica_seconds);
}

}  // namespace
}  // namespace nsflow::serve
