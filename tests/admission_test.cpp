// Admission-frontend tests (serve/admission.h): spec round-trips and
// strict-parse rejection, the token bucket against its closed form, the
// never-dispatched deadline invariant checked against the recorded trace,
// critical-over-batch dispatch preemption, retry-budget exhaustion,
// graceful-drain conservation (every offered request is accounted exactly
// once), fixed-seed bit-determinism of admission-controlled runs, and the
// flash-crowd x admission composition pin — superimposed flash arrivals
// route through the same per-tenant accounting as base traffic
// (docs/ADMISSION.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/observability.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/batch_former.h"
#include "serve/engine.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

namespace nsflow::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string> AllAdmissionSpecs() {
  return {"none",
          "quota",
          "quota:rate=120,burst=8,retry=2,backoff=0.02",
          "slo",
          "slo:deadline=0.05,retry=0",
          "overload",
          "overload:depth=32,live=0.5,backoff=0.005",
          "guard",
          "guard:rate=500,burst=16,deadline=0.04,depth=48,live=0.8,retry=3,"
          "backoff=0.01"};
}

// ------------------------------------------------------------ spec parsing

TEST(AdmissionTest, SpecParsesAndRoundTrips) {
  for (const std::string& text : AllAdmissionSpecs()) {
    const AdmissionSpec spec = AdmissionSpec::Parse(text);
    const AdmissionSpec again = AdmissionSpec::Parse(spec.ToString());
    EXPECT_TRUE(spec == again) << text << " -> " << spec.ToString();
  }
  EXPECT_FALSE(AdmissionSpec::Parse("none").enabled());
  EXPECT_TRUE(AdmissionSpec::Parse("guard").enabled());
  EXPECT_EQ(AdmissionSpec::Parse("quota:rate=10").Name(), "quota");
  // High-precision values survive the canonical print bit-exactly (bench
  // artifacts record the spec string).
  AdmissionSpec spec;
  spec.kind = AdmissionKind::kSlo;
  spec.params["deadline"] = 1.0 / 3.0;
  const AdmissionSpec again = AdmissionSpec::Parse(spec.ToString());
  EXPECT_EQ(again.params.at("deadline"), 1.0 / 3.0);
}

TEST(AdmissionTest, SpecRejectsUnknownAndOutOfRange) {
  // Unknown policy names and keys, malformed entries.
  EXPECT_THROW(AdmissionSpec::Parse("bogus"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:deadline=0.05"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("slo:rate=10"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("none:retry=1"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:rate"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:=1"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:rate=abc"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("slo:deadline=0.05s"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:rate=inf"), Error);
  // Out-of-range values are rejected at parse, not at first use.
  EXPECT_THROW(AdmissionSpec::Parse("quota:rate=0"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:rate=-5"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("quota:burst=0.5"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("slo:deadline=0"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("overload:depth=0"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("overload:depth=1.5"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("overload:live=1.5"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("overload:live=-0.1"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("guard:retry=-1"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("guard:retry=0.5"), Error);
  EXPECT_THROW(AdmissionSpec::Parse("guard:backoff=-0.01"), Error);
  // Tier names are strict too.
  EXPECT_THROW(TierFromName("gold"), Error);
  EXPECT_EQ(TierFromName("critical"), SlaTier::kCritical);
  EXPECT_EQ(std::string(TierName(SlaTier::kBatch)), "batch");
}

// ------------------------------------------------------------ token bucket

TEST(AdmissionTest, TokenBucketMatchesClosedForm) {
  // Uniform offers at interval dt with refill r and opening burst b, where
  // r*dt < 1 (the bucket never refills a whole token between offers) and
  // b >= 2 (the cap never re-binds after the first take): the bucket admits
  // exactly floor(b + r * dt * (N - 1)) of N offers. Verify the controller
  // against both that closed form and an independent float re-simulation.
  const struct {
    double rate, burst, dt;
    int offers;
  } cases[] = {{0.5, 2.0, 1.0, 101}, {3.0, 5.0, 0.1, 200}};
  for (const auto& c : cases) {
    const AdmissionSpec spec = AdmissionSpec::Parse(
        "quota:rate=" + std::to_string(c.rate) +
        ",burst=" + std::to_string(c.burst));
    // A batch-tier tenant sheds without the retry path, so every offer is a
    // pure bucket decision.
    AdmissionController controller(
        spec, {{"t0", SlaTier::kBatch, /*offered_rps=*/1.0}});
    std::int64_t admitted = 0;
    double tokens = c.burst;
    double last = 0.0;
    std::int64_t simulated = 0;
    for (int i = 0; i < c.offers; ++i) {
      const double now = static_cast<double>(i) * c.dt;
      Request request;
      request.id = i;
      request.arrival_s = now;
      admitted += controller.Offer(&request, /*backlog=*/0,
                                   /*live_fraction=*/1.0)
                      ? 1
                      : 0;
      tokens = std::min(c.burst, tokens + c.rate * (now - last));
      last = now;
      if (tokens >= 1.0) {
        tokens -= 1.0;
        ++simulated;
      }
    }
    const auto closed_form = static_cast<std::int64_t>(std::floor(
        c.burst + c.rate * c.dt * static_cast<double>(c.offers - 1)));
    EXPECT_EQ(admitted, simulated) << "rate=" << c.rate;
    EXPECT_EQ(admitted, closed_form) << "rate=" << c.rate;
    const auto rows = controller.Summaries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].offered, c.offers);
    EXPECT_EQ(rows[0].admitted, admitted);
    EXPECT_EQ(rows[0].shed_quota, c.offers - admitted);
    EXPECT_EQ(rows[0].expired, 0);
    EXPECT_EQ(rows[0].retried, 0);
    EXPECT_EQ(controller.removed(), c.offers - admitted);
  }
}

// ------------------------------------------------------- deadline expiry

TEST(AdmissionTest, ExpiredRequestsAreNeverDispatched) {
  // A 2 ms start deadline on the slow critical tenant at ~3x its capacity:
  // expiries must occur, and the recorded trace must show every dispatched
  // request starting inside its (recomputed) deadline. Tiers avoid
  // `standard` so no retry re-stamps `arrival_s` and the recomputation is
  // exact.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.2}, {"resnet18", 0.8}};
  ServeOptions options;
  options.qps = 600.0;
  options.duration_s = 2.0;
  options.seed = 42;
  options.admission = AdmissionSpec::Parse("slo:deadline=0.002");
  options.tiers = {SlaTier::kBatch, SlaTier::kCritical};
  options.trace.enabled = true;
  const ServeReport report = RunSyntheticServe(registry, replicas, mix,
                                               options);

  ASSERT_EQ(report.admission.size(), 2u);
  const AdmissionTenantSummary& batch_row = report.admission[0];
  const AdmissionTenantSummary& critical_row = report.admission[1];
  EXPECT_EQ(batch_row.tier, SlaTier::kBatch);
  EXPECT_EQ(critical_row.tier, SlaTier::kCritical);
  EXPECT_GT(critical_row.expired, 0) << "overdriven tenant never expired";
  EXPECT_EQ(batch_row.expired, 0) << "batch tier has no deadline";
  EXPECT_EQ(report.expired_dispatched, 0);

  // Conservation: what the pool completed is exactly what admission let
  // through minus what the sweeps removed.
  const std::int64_t admitted =
      batch_row.admitted + critical_row.admitted;
  const std::int64_t expired = batch_row.expired + critical_row.expired;
  EXPECT_EQ(report.summary.completed, admitted - expired);

  // The invariant against the independent record: no dispatched request
  // started past arrival + tier budget (critical 2 ms; batch exempt).
  ASSERT_NE(report.obs, nullptr);
  const obs::TraceData trace = report.obs->recorder.Drain();
  ASSERT_EQ(trace.requests.size(),
            static_cast<std::size_t>(report.summary.completed));
  for (const obs::RequestSpan& span : trace.requests) {
    const double budget = span.workload == 1 ? 0.002 : kInf;
    EXPECT_LE(span.start_s, span.arrival_s + budget)
        << "request " << span.request_id << " dispatched past its deadline";
  }
}

// ------------------------------------------------- dispatch preemption

TEST(AdmissionTest, CriticalLanesPreemptBatchLanesAtDispatch) {
  // Two lanes both past deadline at the same instant. Legacy (all-zero
  // priority) order closes the older head first; with tier priorities the
  // critical lane closes first even though its head arrived later.
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_s = 1e-3;
  const auto feed = [&](MultiBatchFormer* former) {
    Request a;  // Lane 0 head, the oldest request overall.
    a.id = 0;
    a.workload = 0;
    a.arrival_s = 0.0;
    Request b;  // Lane 1 head, younger.
    b.id = 1;
    b.workload = 1;
    b.arrival_s = 0.0005;
    const std::vector<double> idle = {0.0, 0.0};
    std::vector<Batch> closed;
    former->Add(a, idle, &closed);
    EXPECT_TRUE(closed.empty());
    former->Add(b, idle, &closed);
    EXPECT_TRUE(closed.empty());
    return former->Flush(0.01);
  };

  MultiBatchFormer legacy(policy, 2);
  const std::vector<Batch> legacy_order = feed(&legacy);
  ASSERT_EQ(legacy_order.size(), 2u);
  EXPECT_EQ(legacy_order[0].workload, 0) << "legacy order is oldest-head";

  MultiBatchFormer tiered(policy, 2);
  tiered.SetLanePriority(0, static_cast<int>(SlaTier::kBatch));
  tiered.SetLanePriority(1, static_cast<int>(SlaTier::kCritical));
  const std::vector<Batch> tiered_order = feed(&tiered);
  ASSERT_EQ(tiered_order.size(), 2u);
  EXPECT_EQ(tiered_order[0].workload, 1)
      << "critical lane must preempt the batch lane";
  EXPECT_EQ(tiered_order[1].workload, 0);
}

// --------------------------------------------------- retry exhaustion

TEST(AdmissionTest, RetryBudgetExhaustsIntoAFinalShed) {
  // A standard-tier tenant under sustained deep backlog: each shed
  // schedules a retry with doubling backoff until the budget runs out, then
  // the request finally sheds.
  const AdmissionSpec spec =
      AdmissionSpec::Parse("overload:depth=1,retry=2,backoff=0.5");
  AdmissionController controller(
      spec, {{"t0", SlaTier::kStandard, /*offered_rps=*/100.0}});
  Request request;
  request.id = 0;
  request.arrival_s = 0.0;
  EXPECT_FALSE(controller.Offer(&request, /*backlog=*/100,
                                /*live_fraction=*/1.0));
  EXPECT_DOUBLE_EQ(controller.NextRetryAt(), 0.5);  // backoff * 2^0

  Request retry1 = controller.PopRetry();
  EXPECT_EQ(retry1.attempt, 1);
  EXPECT_DOUBLE_EQ(retry1.arrival_s, 0.5);
  EXPECT_FALSE(controller.Offer(&retry1, /*backlog=*/100,
                                /*live_fraction=*/1.0));
  EXPECT_DOUBLE_EQ(controller.NextRetryAt(), 1.5);  // 0.5 + backoff * 2^1

  Request retry2 = controller.PopRetry();
  EXPECT_EQ(retry2.attempt, 2);
  EXPECT_FALSE(controller.Offer(&retry2, /*backlog=*/100,
                                /*live_fraction=*/1.0));
  EXPECT_EQ(controller.NextRetryAt(), kInf) << "budget spent, no more retries";

  auto rows = controller.Summaries();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].offered, 3);  // First offer + two re-offers.
  EXPECT_EQ(rows[0].admitted, 0);
  EXPECT_EQ(rows[0].retried, 2);
  EXPECT_EQ(rows[0].shed_overload, 1);  // Exactly one *final* shed.
  EXPECT_EQ(controller.removed(), 1);

  // A retry offered into a recovered pool admits normally.
  Request second;
  second.id = 1;
  second.arrival_s = 10.0;
  EXPECT_FALSE(controller.Offer(&second, /*backlog=*/100, 1.0));
  Request recovered = controller.PopRetry();
  EXPECT_TRUE(controller.Offer(&recovered, /*backlog=*/0, 1.0));
  // A retry still pending at shutdown finalizes as a shed.
  Request third;
  third.id = 2;
  third.arrival_s = 20.0;
  EXPECT_FALSE(controller.Offer(&third, /*backlog=*/100, 1.0));
  EXPECT_EQ(controller.CloseRetries(), 1);
  rows = controller.Summaries();
  EXPECT_EQ(rows[0].admitted, 1);
  EXPECT_EQ(rows[0].shed_overload, 2);
  EXPECT_EQ(controller.NextRetryAt(), kInf);
}

// ------------------------------------------------- graceful drain

TEST(AdmissionTest, GracefulDrainAccountsForEveryOfferedRequest) {
  // An overdriven guarded run: conservation must hold exactly — every
  // generated arrival is offered, every offer either admits or sheds, and
  // every admit either completes or expires. The drain retires the whole
  // pool on the decision timeline.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.3}, {"resnet18", 0.7}};
  ServeOptions options;
  options.qps = 700.0;
  options.duration_s = 2.0;
  options.seed = 7;
  options.admission = AdmissionSpec::Parse("guard:depth=8,deadline=0.02");
  options.tiers = {SlaTier::kCritical, SlaTier::kBatch};  // No retry path.
  const ServeReport report = RunSyntheticServe(registry, replicas, mix,
                                               options);

  ASSERT_EQ(report.admission.size(), 2u);
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t expired = 0;
  for (const AdmissionTenantSummary& row : report.admission) {
    EXPECT_EQ(row.offered, row.admitted + row.shed()) << row.tenant;
    EXPECT_LE(row.expired, row.admitted) << row.tenant;
    EXPECT_EQ(row.retried, 0) << row.tenant;
    offered += row.offered;
    admitted += row.admitted;
    expired += row.expired;
  }
  EXPECT_EQ(offered, report.generated_requests);
  EXPECT_EQ(report.summary.completed, admitted - expired);
  EXPECT_GT(report.admission[1].shed(), 0) << "overdrive never shed batch";
  EXPECT_EQ(report.expired_dispatched, 0);

  // The shutdown drain is on the pool timeline.
  bool drained = false;
  for (const PoolEvent& event : report.summary.timeline) {
    drained = drained ||
              (event.kind == PoolEventKind::kDecision &&
               event.event.find("graceful drain") != std::string::npos);
  }
  EXPECT_TRUE(drained);
}

TEST(AdmissionTest, ADarkReplicaCountsOnceAgainstTheLiveFraction) {
  // One of four replicas dark is a live fraction of 3/4. Subtracting the
  // failed replicas from ActiveReplicas, which already leaves them out,
  // read 2/3 and shed batch-tier traffic under `live=0.7` that the three
  // survivors carry.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(4, true);
  ServerPool pool(replicas, registry.Dataflows());
  pool.FailReplica(1, 1.0, 2.0);
  EXPECT_EQ(pool.ActiveReplicas(1.5), 3);
  EXPECT_DOUBLE_EQ(pool.LiveFraction(1.5), 0.75);
  EXPECT_DOUBLE_EQ(pool.LiveFraction(0.5), 1.0);
  EXPECT_DOUBLE_EQ(pool.LiveFraction(2.0), 1.0);

  // nsflow serve --mix mlp=0.5,resnet18=0.5 --replicas 4 --partition
  //   --qps 300 --duration 4 --seed 7 --adversity replica-fail
  //   --admission overload:live=0.7,depth=100000
  //   --tiers mlp=critical,resnet18=batch
  // shed 143 of 569 batch-tier offers while the double count stood.
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  ServeOptions options;
  options.qps = 300.0;
  options.duration_s = 4.0;
  options.seed = 7;
  options.adversity = AdversitySpec::Parse("replica-fail");
  options.admission = AdmissionSpec::Parse("overload:live=0.7,depth=100000");
  options.tiers = {SlaTier::kCritical, SlaTier::kBatch};
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_EQ(report.admission.size(), 2u);
  EXPECT_GT(report.admission[1].offered, 0);
  EXPECT_EQ(report.admission[1].shed(), 0);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
}

TEST(AdmissionTest, MemoizedLiveFractionMatchesABruteForceScan) {
  // LiveFraction reuses its last value between the breakpoints around it.
  // Random future-dated adds, drains, whole-pool drains and failures, each
  // followed by a few queries that mostly step forward and sometimes jump
  // back in time, must never let a stale value through: every query is
  // checked against a scan of the public accessors.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(4, false);
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    ServerPool pool(replicas, registry.Dataflows());
    std::mt19937_64 rng(seed);
    const auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto brute_force = [&](double t) {
      int provisioned = 0;
      int live = 0;
      for (int r = 0; r < pool.size(); ++r) {
        if (pool.AddedAt(r) <= t && t < pool.RetiredAt(r)) {
          ++provisioned;
          live += pool.Failed(r, t) ? 0 : 1;
        }
      }
      return provisioned > 0 ? static_cast<double>(live) / provisioned : 1.0;
    };
    // A failure may not overlap the replica's previous outage or warm-up.
    std::vector<double> up_at(replicas.size(), 0.0);
    double now = 0.0;  // The last query instant; pool changes date ahead.
    for (int op = 0; op < 200; ++op) {
      const double pick = uniform(0.0, 1.0);
      const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                  pool.size()));
      const double at = now + uniform(0.0, 0.2);
      // A drain or failure must leave another non-draining replica (and,
      // for a failure, one live at the failure instant).
      const auto others_left = [&](std::optional<double> live_at) {
        for (int o = 0; o < pool.size(); ++o) {
          if (o != r && !pool.draining(o) &&
              !(live_at.has_value() && pool.Failed(o, *live_at))) {
            return true;
          }
        }
        return false;
      };
      if (pick < 0.3) {
        pool.AddReplica(replicas[0], at);
        up_at.push_back(0.0);
      } else if (pick < 0.55) {
        if (!pool.draining(r) && others_left(std::nullopt)) {
          pool.DrainReplica(r, at);
        }
      } else if (pick < 0.95) {
        const double recover = at + uniform(2.0, 6.0);
        if (!pool.draining(r) && !pool.Failed(r, at) &&
            at >= up_at[static_cast<std::size_t>(r)] && others_left(at)) {
          const double warmup = uniform(0.0, 0.5);
          pool.FailReplica(r, at, recover, warmup);
          up_at[static_cast<std::size_t>(r)] = recover + warmup;
        }
      } else {
        pool.DrainAll(now + uniform(0.0, 0.05));
      }
      const int queries = 1 + static_cast<int>(rng() % 3);
      for (int q = 0; q < queries; ++q) {
        const double t = uniform(0.0, 1.0) < 0.95 ? now + uniform(0.0, 0.2)
                                                  : uniform(0.0, now + 0.2);
        ASSERT_EQ(pool.LiveFraction(t), brute_force(t))
            << "seed " << seed << " op " << op << " t " << t;
        now = t;
      }
    }
  }
}

// ------------------------------------------------- determinism + compose

TEST(AdmissionTest, AdmissionRunsAreBitDeterministicUnderAFixedSeed) {
  // Admission x adversity x scenario, run twice: identical seed, identical
  // bytes — summaries, dispatch log, and every admission counter.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  ServeOptions options;
  options.qps = 500.0;
  options.duration_s = 1.5;
  options.seed = 11;
  options.scenario = ScenarioSpec::Parse("diurnal:depth=0.6");
  options.adversity = AdversitySpec::Parse("replica-fail:at=0.5,down=0.3");
  options.admission = AdmissionSpec::Parse("guard:depth=16,deadline=0.03");
  options.tiers = {SlaTier::kCritical, SlaTier::kStandard};
  const ServeReport a = RunSyntheticServe(registry, replicas, mix, options);
  const ServeReport b = RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_GT(a.summary.completed, 0);
  EXPECT_EQ(a.generated_requests, b.generated_requests);
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_EQ(a.summary.p99_ms, b.summary.p99_ms);
  EXPECT_EQ(a.summary.throughput_rps, b.summary.throughput_rps);
  EXPECT_EQ(a.dispatches.size(), b.dispatches.size());
  ASSERT_EQ(a.admission.size(), b.admission.size());
  for (std::size_t i = 0; i < a.admission.size(); ++i) {
    EXPECT_EQ(a.admission[i].offered, b.admission[i].offered);
    EXPECT_EQ(a.admission[i].admitted, b.admission[i].admitted);
    EXPECT_EQ(a.admission[i].shed_quota, b.admission[i].shed_quota);
    EXPECT_EQ(a.admission[i].shed_overload, b.admission[i].shed_overload);
    EXPECT_EQ(a.admission[i].expired, b.admission[i].expired);
    EXPECT_EQ(a.admission[i].retried, b.admission[i].retried);
  }
  ASSERT_EQ(a.summary.per_tier.size(), b.summary.per_tier.size());
  for (std::size_t i = 0; i < a.summary.per_tier.size(); ++i) {
    EXPECT_EQ(a.summary.per_tier[i].p99_ms, b.summary.per_tier[i].p99_ms);
  }
}

TEST(AdmissionTest, FlashCrowdArrivalsRouteThroughTenantAccounting) {
  // The satellite-6 pin: flash-crowd extras are superimposed inside
  // SyntheticArrivals, so they hit the same admission path as base traffic
  // — the per-tenant offered tallies must sum to the generated total, with
  // and without the flash. Tiers avoid `standard` so no retry re-offers
  // inflate the tallies.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 1.0;
  options.seed = 21;
  options.admission = AdmissionSpec::Parse("quota:rate=150,burst=8");
  options.tiers = {SlaTier::kCritical, SlaTier::kBatch};
  const ServeReport calm = RunSyntheticServe(registry, replicas, mix,
                                             options);
  options.adversity = AdversitySpec::Parse("flash:at=0.25,width=0.5,mult=3");
  const ServeReport flash = RunSyntheticServe(registry, replicas, mix,
                                              options);
  const auto offered_sum = [](const ServeReport& report) {
    std::int64_t sum = 0;
    for (const AdmissionTenantSummary& row : report.admission) {
      sum += row.offered;
    }
    return sum;
  };
  EXPECT_EQ(offered_sum(calm), calm.generated_requests);
  EXPECT_EQ(offered_sum(flash), flash.generated_requests);
  EXPECT_GT(flash.generated_requests, calm.generated_requests)
      << "the flash window superimposed no extra arrivals";
  // The tightened bucket actually bites under the flash: quota sheds are
  // recorded against the tenants the extras targeted.
  std::int64_t quota_sheds = 0;
  for (const AdmissionTenantSummary& row : flash.admission) {
    quota_sheds += row.shed_quota;
  }
  EXPECT_GT(quota_sheds, 0);
}

}  // namespace
}  // namespace nsflow::serve
