// Tests for NSFlow-Serve: stat percentiles, batched cycle accounting,
// multi-replica dispatch determinism under a fixed RNG seed, and the
// dispatch index against the brute-force replica scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "dse/dse.h"
#include "nsflow/framework.h"
#include "runtime/host_runtime.h"
#include "serve/engine.h"
#include "serve/serve_stats.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"
#include "workloads/builders.h"

namespace nsflow::serve {
namespace {

Request At(std::int64_t id, double arrival_s) { return Request{id, arrival_s}; }

// ----------------------------------------------------------------- stats

TEST(ServeStatsTest, NearestRankPercentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile({5.0}, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(ServeStats::Percentile({}, 50.0), 0.0);
}

/// One committed batch of `arrivals` on `replica`, appended to `log`.
void Commit(obs::CompletionLog* log, WorkloadId workload, int replica,
            double start_s, double complete_s,
            const std::vector<double>& arrivals, double egress_s = 0.0) {
  obs::BatchSpan batch;
  batch.batch_index = static_cast<std::uint32_t>(log->batches.size());
  batch.workload = workload;
  batch.replica = replica;
  batch.start_s = start_s;
  batch.complete_s = complete_s;
  batch.egress_s = egress_s;
  batch.size = static_cast<std::int32_t>(arrivals.size());
  log->batches.push_back(batch);
  for (const double arrival_s : arrivals) {
    log->requests.push_back(
        {static_cast<std::uint32_t>(log->requests.size()), arrival_s});
  }
}

TEST(ServeStatsTest, SummarizesLatencyAndUtilization) {
  ServeStats stats(2);
  obs::CompletionLog log;
  Commit(&log, 0, 0, 0.020, 0.040, {0.030, 0.020, 0.010});
  stats.RecordBacklog(6);
  Commit(&log, 0, 1, 0.030, 0.040, {0.0});
  stats.RecordBacklog(2);

  const StatsSummary s = stats.Summarize(log, 100.0, 0.04);
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.batches, 2);
  EXPECT_DOUBLE_EQ(s.p50_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 40.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 25.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_batch, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_queue_depth, 4.0);
  EXPECT_EQ(s.max_queue_depth, 6);
  ASSERT_EQ(s.replica_utilization.size(), 2u);
  EXPECT_DOUBLE_EQ(s.replica_utilization[0], 0.5);
  EXPECT_DOUBLE_EQ(s.replica_utilization[1], 0.25);
  // The rendered table mentions the headline metrics.
  const std::string table = ServeStats::ToTable(s);
  EXPECT_NE(table.find("latency p99"), std::string::npos);
  EXPECT_NE(table.find("throughput"), std::string::npos);
}

// Summarize selects ranks in one grouped buffer instead of sorting each
// population. On random logs — tied latencies, empty and one-request
// workloads, random tier maps — every percentile it reports must equal
// PercentileInPlace over the same population.
TEST(ServeStatsTest, SelectedPercentilesMatchSortedPopulations) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int workloads = 1 + trial % 5;
    const bool tiered = trial % 2 == 1;
    ServeStats stats(3, workloads);
    std::vector<SlaTier> tier_of(static_cast<std::size_t>(workloads),
                                 SlaTier::kStandard);
    if (tiered) {
      for (WorkloadId w = 0; w < workloads; ++w) {
        tier_of[static_cast<std::size_t>(w)] =
            static_cast<SlaTier>(rng.UniformInt(0, 2));
        stats.SetWorkloadTier(w, tier_of[static_cast<std::size_t>(w)]);
      }
    }
    // Each workload gets 0, 1 or up to 300 requests on millisecond grids
    // in random batches, or 2 to 20,000 requests in single-request
    // batches with an exact latency drawn from one of six shapes.
    std::vector<std::int64_t> left(static_cast<std::size_t>(workloads));
    std::vector<std::vector<double>> exact(left.size());
    for (std::size_t w = 0; w < left.size(); ++w) {
      const std::int64_t shape = rng.UniformInt(0, 9);
      if (shape < 4) {
        left[w] = shape == 0 ? 0 : shape == 1 ? 1 : rng.UniformInt(2, 300);
        continue;
      }
      const std::int64_t n = rng.UniformInt(shape == 8 ? 2 : 2'000, 20'000);
      for (std::int64_t i = 0; i < n; ++i) {
        double latency = 0.0;
        switch (shape) {
          case 4:  // Continuous, a millisecond to a second.
            latency = 1e-3 * std::exp(rng.Uniform(0.0, 6.9));
            break;
          case 5:  // All equal.
            latency = 0.0123;
            break;
          case 6:  // 90% ties at the median, spread on either side.
            latency = rng.Bernoulli(0.9) ? 0.05 : rng.Uniform(0.001, 1.0);
            break;
          case 7:  // Two distinct values.
            latency = rng.Bernoulli(0.7) ? 0.002 : 0.25;
            break;
          case 8:  // Mostly +0.0.
            latency = rng.Bernoulli(0.8) ? 0.0 : rng.Uniform(0.0, 1e-3);
            break;
          case 9:  // From 1e-9 to 1e3 seconds.
            latency = std::pow(10.0, rng.Uniform(-9.0, 3.0));
            break;
        }
        exact[w].push_back(latency);
      }
    }
    std::vector<std::vector<double>> by_workload(left.size());
    obs::CompletionLog log;
    for (bool any = true; any;) {
      any = false;
      for (WorkloadId w = 0; w < workloads; ++w) {
        std::vector<double>& pending = exact[static_cast<std::size_t>(w)];
        if (!pending.empty()) {
          // Arriving at 0.0 and completing at the latency is exact.
          any = true;
          Commit(&log, w, static_cast<int>(rng.UniformInt(0, 2)), 0.0,
                 pending.back(), {0.0});
          by_workload[static_cast<std::size_t>(w)].push_back(pending.back());
          pending.pop_back();
          continue;
        }
        std::int64_t& n = left[static_cast<std::size_t>(w)];
        if (n == 0) {
          continue;
        }
        any = true;
        const std::int64_t size = std::min(n, rng.UniformInt(1, 8));
        n -= size;
        // Millisecond grids make ties common.
        const double complete_s = 0.001 * static_cast<double>(
                                              rng.UniformInt(20, 60));
        const double egress_s = rng.Bernoulli(0.2) ? 0.0005 : 0.0;
        std::vector<double> arrivals;
        for (std::int64_t i = 0; i < size; ++i) {
          arrivals.push_back(0.001 *
                             static_cast<double>(rng.UniformInt(0, 20)));
          by_workload[static_cast<std::size_t>(w)].push_back(
              complete_s + egress_s - arrivals.back());
        }
        Commit(&log, w, static_cast<int>(rng.UniformInt(0, 2)), 0.02,
               complete_s, arrivals, egress_s);
      }
    }

    const StatsSummary s = stats.Summarize(log, 0.0, 1.0);
    const auto expect_ranks = [](std::vector<double> population, double p50,
                                 double p95, double p99, double max,
                                 const std::string& where) {
      EXPECT_EQ(p50, ServeStats::PercentileInPlace(&population, 50.0) * 1e3)
          << where;
      EXPECT_EQ(p95, ServeStats::PercentileInPlace(&population, 95.0) * 1e3)
          << where;
      EXPECT_EQ(p99, ServeStats::PercentileInPlace(&population, 99.0) * 1e3)
          << where;
      EXPECT_EQ(max, ServeStats::PercentileInPlace(&population, 100.0) * 1e3)
          << where;
    };
    std::vector<double> all;
    std::vector<double> by_tier[3];
    for (WorkloadId w = 0; w < workloads; ++w) {
      const auto& population = by_workload[static_cast<std::size_t>(w)];
      const WorkloadSummary& slice =
          s.per_workload[static_cast<std::size_t>(w)];
      const std::string where =
          "trial " + std::to_string(trial) + " workload " + std::to_string(w);
      EXPECT_EQ(slice.completed, static_cast<std::int64_t>(population.size()))
          << where;
      expect_ranks(population, slice.p50_ms, slice.p95_ms, slice.p99_ms,
                   slice.max_ms, where);
      all.insert(all.end(), population.begin(), population.end());
      const SlaTier tier = tier_of[static_cast<std::size_t>(w)];
      by_tier[static_cast<int>(tier)].insert(
          by_tier[static_cast<int>(tier)].end(), population.begin(),
          population.end());
    }
    expect_ranks(all, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
                 "trial " + std::to_string(trial));
    if (!tiered) {
      EXPECT_TRUE(s.per_tier.empty());
      continue;
    }
    // One slice per tier that some workload maps to, empty or not.
    std::size_t mapped = 0;
    for (int t = 0; t < 3; ++t) {
      mapped += std::count(tier_of.begin(), tier_of.end(),
                           static_cast<SlaTier>(t)) > 0
                    ? 1
                    : 0;
    }
    EXPECT_EQ(s.per_tier.size(), mapped) << "trial " << trial;
    for (const TierSummary& slice : s.per_tier) {
      std::vector<double> population = by_tier[static_cast<int>(slice.tier)];
      const std::string where = "trial " + std::to_string(trial) + " tier " +
                                slice.name;
      EXPECT_EQ(slice.completed, static_cast<std::int64_t>(population.size()))
          << where;
      EXPECT_EQ(slice.p50_ms,
                ServeStats::PercentileInPlace(&population, 50.0) * 1e3)
          << where;
      EXPECT_EQ(slice.p99_ms,
                ServeStats::PercentileInPlace(&population, 99.0) * 1e3)
          << where;
    }
  }
}

// The autoscaler's rate window: each tick counts [t - min(1, t), t) and
// that lower edge never falls, so the stamps below it are dropped. Every
// count must still equal a count over all stamps, and a window reaching
// below a dropped edge must throw.
TEST(ServeStatsTest, RateWindowDropsOnlyStampsNoWindowReaches) {
  Rng rng(5);
  ServeStats stats(1, 2);
  std::vector<std::vector<double>> all(2);
  double t = 0.0;
  for (double tick = 0.25; tick <= 20.0; tick += 0.25) {
    // Bursts and lulls, ties on the tick itself included.
    const double rate = rng.Bernoulli(0.3) ? 4000.0 : 200.0;
    while (true) {
      const double next = rng.Bernoulli(0.02)
                              ? t
                              : t - std::log(1.0 - rng.Uniform()) / rate;
      if (next >= tick) {
        break;
      }
      t = next;
      const auto w = static_cast<WorkloadId>(rng.UniformInt(0, 1));
      stats.RecordArrival(w, t);
      all[static_cast<std::size_t>(w)].push_back(t);
    }
    t = tick;
    if (rng.Bernoulli(0.1)) {
      stats.RecordArrival(0, t);  // A stamp exactly on the window edge.
      all[0].push_back(t);
    }
    const double t0 = tick - std::min(1.0, tick);
    for (WorkloadId w = 0; w < 2; ++w) {
      const std::vector<double>& stamps = all[static_cast<std::size_t>(w)];
      const auto expected =
          std::lower_bound(stamps.begin(), stamps.end(), tick) -
          std::lower_bound(stamps.begin(), stamps.end(), t0);
      // Asked twice: a window edge keeps the stamps on it.
      ASSERT_EQ(stats.ArrivalsInWindow(w, t0, tick), expected)
          << "workload " << w << " at " << tick;
      ASSERT_EQ(stats.ArrivalsInWindow(w, t0, tick), expected)
          << "workload " << w << " at " << tick << ", asked again";
    }
    if (t0 > 0.0) {
      EXPECT_THROW(stats.ArrivalsInWindow(1, std::nextafter(t0, 0.0), tick),
                   Error);
    }
  }
}

// ------------------------------------------------------- batched kernels

struct Deployed {
  std::unique_ptr<OperatorGraph> graph;
  std::unique_ptr<DataflowGraph> dfg;
  DseResult dse;
};

Deployed CompileNvsa() {
  Deployed d;
  d.graph = std::make_unique<OperatorGraph>(workloads::MakeNvsa());
  d.dfg = std::make_unique<DataflowGraph>(*d.graph);
  d.dse = RunTwoPhaseDse(*d.dfg, {});
  return d;
}

TEST(BatchedKernelTest, GemmBatchMatchesGoldenAndAmortizesCycles) {
  const Deployed d = CompileNvsa();
  runtime::Accelerator accel(d.dse.design, *d.dfg);
  Rng rng(3);
  Tensor b({12, 6});
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b.at(i) = static_cast<float>(rng.Gaussian());
  }
  std::vector<Tensor> as;
  for (int r = 0; r < 4; ++r) {
    Tensor a({5, 12});
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      a.at(i) = static_cast<float>(rng.Gaussian());
    }
    as.push_back(std::move(a));
  }

  const runtime::BatchedKernelRun batched = accel.RunGemmBatched(as, b);
  ASSERT_EQ(batched.outputs.size(), 4u);
  for (std::size_t r = 0; r < as.size(); ++r) {
    const Tensor golden = MatMul(as[r], b);
    ASSERT_EQ(batched.outputs[r].numel(), golden.numel());
    for (std::int64_t i = 0; i < golden.numel(); ++i) {
      EXPECT_NEAR(batched.outputs[r].at(i), golden.at(i), 1e-3);
    }
  }

  // One batched launch is cheaper than four singles (shared pipeline fill).
  runtime::Accelerator solo(d.dse.design, *d.dfg);
  double single_cycles = 0.0;
  for (const auto& a : as) {
    single_cycles += solo.RunGemm(a, b).device_cycles;
  }
  EXPECT_GT(batched.device_cycles, 0.0);
  EXPECT_LT(batched.device_cycles, single_cycles);
}

TEST(BatchedKernelTest, WorkloadBatchAmortizesWeightTraffic) {
  const Deployed d = CompileNvsa();
  runtime::Accelerator accel(d.dse.design, *d.dfg);
  const double single = accel.RunWorkloadBatch(1);
  EXPECT_DOUBLE_EQ(single, accel.RunWorkload());
  const double batch4 = accel.RunWorkloadBatch(4);
  const double batch8 = accel.RunWorkloadBatch(8);
  // Batching amortizes: total grows with batch size but stays below the
  // pay-per-request total, and the marginal request is cheaper than the
  // first (which carries the pipeline fill and the weight load).
  EXPECT_GT(batch4, single);
  EXPECT_GT(batch8, batch4);
  EXPECT_LT(batch4, 4.0 * single);
  EXPECT_LT(batch8, 8.0 * single);
  EXPECT_LT(batch8 - batch4, 4.0 * single);
}

// -------------------------------------------------------------- dispatch

/// A single-workload pool is a one-entry registry, compiled once for the
/// suite.
const WorkloadRegistry& NvsaRegistry() {
  static const WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    r->RegisterBuiltin("nvsa");
    return r;
  }();
  return *registry;
}

const std::vector<WorkloadShare> kNvsaOnly = {{"nvsa", 1.0}};

/// `replicas` copies of the compiled design, each tuned for workload 0.
std::vector<ReplicaSpec> Pool(int replicas) {
  return std::vector<ReplicaSpec>(
      static_cast<std::size_t>(replicas),
      ReplicaSpec{NvsaRegistry().compiled(0).design(), {}, 0});
}

TEST(ServerPoolTest, DispatchIsDeterministicUnderFixedSeed) {
  const WorkloadRegistry& registry = NvsaRegistry();
  ServeOptions options;
  options.qps = 150.0;
  options.duration_s = 0.5;
  options.max_batch = 8;
  options.seed = 1234;

  const ServeReport first =
      RunSyntheticServe(registry, Pool(4), kNvsaOnly, options);
  const ServeReport second =
      RunSyntheticServe(registry, Pool(4), kNvsaOnly, options);

  ASSERT_EQ(first.dispatches.size(), second.dispatches.size());
  for (std::size_t i = 0; i < first.dispatches.size(); ++i) {
    EXPECT_EQ(first.dispatches[i].replica, second.dispatches[i].replica);
    EXPECT_DOUBLE_EQ(first.dispatches[i].start_s,
                     second.dispatches[i].start_s);
    EXPECT_DOUBLE_EQ(first.dispatches[i].complete_s,
                     second.dispatches[i].complete_s);
    EXPECT_EQ(first.dispatches[i].size, second.dispatches[i].size);
  }
  EXPECT_DOUBLE_EQ(first.summary.p99_ms, second.summary.p99_ms);
  EXPECT_DOUBLE_EQ(first.summary.throughput_rps,
                   second.summary.throughput_rps);

  // A different seed produces a different arrival trace.
  options.seed = 99;
  const ServeReport other =
      RunSyntheticServe(registry, Pool(4), kNvsaOnly, options);
  EXPECT_NE(other.generated_requests, 0);
  EXPECT_NE(other.summary.p99_ms, first.summary.p99_ms);
}

TEST(ServerPoolTest, EarliestAvailableDispatchBalancesReplicas) {
  // Four equal batches, all formed at t=0: each replica must take exactly
  // one (earliest-available with lowest-id tie-break = round robin here).
  ServerPool pool(Pool(4), NvsaRegistry().Dataflows());
  for (int b = 0; b < 4; ++b) {
    Batch batch;
    batch.formed_s = 0.0;
    batch.requests = {At(b, 0.0)};
    const DispatchRecord record = pool.Dispatch(batch);
    EXPECT_EQ(record.replica, b);
    EXPECT_DOUBLE_EQ(record.start_s, 0.0);
  }
}

TEST(ServerPoolTest, ReplicationScalesSaturatedThroughput) {
  const WorkloadRegistry& registry = NvsaRegistry();
  ServeOptions options;
  options.duration_s = 1.0;
  options.max_batch = 8;
  options.seed = 42;
  // Saturating load for even the largest pool.
  options.qps = 800.0;

  const double one = RunSyntheticServe(registry, Pool(1), kNvsaOnly, options)
                         .summary.throughput_rps;
  const double four = RunSyntheticServe(registry, Pool(4), kNvsaOnly, options)
                          .summary.throughput_rps;
  EXPECT_GT(one, 0.0);
  // Acceptance bar: 4 replicas at saturation >= 2x the single-replica
  // baseline (in practice close to 4x).
  EXPECT_GE(four, 2.0 * one);
}

TEST(ServerPoolTest, HeterogeneousParetoPoolServes) {
  const WorkloadRegistry& registry = NvsaRegistry();
  const auto frontier = ParetoDesigns(registry.dataflow(0), DseOptions{}, 3);
  ASSERT_GE(frontier.size(), 1u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    // Largest budget first, strictly shrinking area along the frontier.
    EXPECT_LT(frontier[i].pes, frontier[i - 1].pes);
  }

  std::vector<ReplicaSpec> replicas;
  for (std::size_t r = 0; r < 3; ++r) {
    replicas.push_back(
        ReplicaSpec{frontier[r % frontier.size()].design, {}, 0});
  }
  ServeOptions options;
  options.qps = 120.0;
  options.duration_s = 0.5;
  options.seed = 5;
  const ServeReport report =
      RunSyntheticServe(registry, replicas, kNvsaOnly, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  EXPECT_GT(report.summary.throughput_rps, 0.0);
  ASSERT_EQ(report.summary.replica_utilization.size(), 3u);
}

// --------------------------------------------------------- backlog count

TEST(ArrivedByTest, MatchesUpperBoundFromEveryHint) {
  // Runs of equal stamps, one all-equal vector, an empty one, and a longer
  // random stream with runs, so gallops cover several doublings.
  std::vector<std::vector<double>> inputs = {
      {0.0, 0.1, 0.1, 0.1, 0.25, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 0.7, 0.9,
       1.5, 1.5, 2.0},
      std::vector<double>(9, 0.5),
      {},
  };
  Rng rng(17);
  std::vector<double> stream;
  double t = 0.0;
  while (stream.size() < 300) {
    t += 0.01 * static_cast<double>(rng.UniformInt(1, 40));
    stream.insert(stream.end(),
                  static_cast<std::size_t>(rng.UniformInt(1, 6)), t);
  }
  inputs.push_back(stream);
  for (const std::vector<double>& stamps : inputs) {
    std::vector<Request> arrivals;
    for (const double stamp : stamps) {
      arrivals.push_back(Request{0, stamp, 0});
    }
    // Below the first stamp, above the last, every stamp and the midpoint
    // of every gap.
    std::vector<double> targets = {-1.0, 1e9};
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      targets.push_back(stamps[i]);
      if (i > 0 && stamps[i - 1] < stamps[i]) {
        targets.push_back(0.5 * (stamps[i - 1] + stamps[i]));
      }
    }
    for (const double target : targets) {
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(stamps.begin(), stamps.end(), target) -
          stamps.begin());
      for (std::size_t hint = 0; hint <= stamps.size(); ++hint) {
        ASSERT_EQ(ArrivedBy(arrivals, target, hint), expected)
            << stamps.size() << " stamps, target " << target << ", hint "
            << hint;
      }
    }
  }
}

// -------------------------------------------------------- dispatch index

/// The brute-force scan the dispatch index replaced, kept as its oracle:
/// the earliest-free non-draining replica deployed for `workload` (on
/// `node` when node >= 0), lowest id on ties; -1 when there is none.
int ScanEarliest(const ServerPool& pool, WorkloadId workload, int node) {
  int best = -1;
  for (int r = 0; r < pool.size(); ++r) {
    if (pool.draining(r) || !pool.CanServe(r, workload) ||
        (node >= 0 && pool.NodeOf(r) != node)) {
      continue;
    }
    if (best < 0 || pool.FreeAt(r) < pool.FreeAt(best)) {
      best = r;
    }
  }
  return best;
}

Batch OneRequestBatch(WorkloadId workload, double formed_s) {
  Batch batch;
  batch.workload = workload;
  batch.formed_s = formed_s;
  batch.requests = {Request{0, formed_s, workload}};
  return batch;
}

/// Every index query against the scan, for every workload, the pool-wide
/// view and each node up to `nodes` (one past the largest tag in use, so an
/// empty node is probed too). Dispatch runs on a copy of the pool.
void ExpectIndexMatchesScan(const ServerPool& pool, int nodes,
                            const std::string& step) {
  for (WorkloadId w = 0; w < pool.workloads(); ++w) {
    for (int node = -1; node <= nodes; ++node) {
      const int expected = ScanEarliest(pool, w, node);
      const std::string where = step + " w=" + std::to_string(w) +
                                " node=" + std::to_string(node);
      EXPECT_EQ(pool.EarliestFree(w, node),
                expected < 0 ? std::numeric_limits<double>::infinity()
                             : pool.FreeAt(expected))
          << where;
      EXPECT_EQ(pool.NodeCanServe(w, node), node >= 0 && expected >= 0)
          << where;
      ServerPool probe = pool;
      const Batch batch = OneRequestBatch(w, 0.0);
      if (expected < 0) {
        EXPECT_THROW(probe.Dispatch(batch, node), Error) << where;
      } else {
        EXPECT_EQ(probe.Dispatch(batch, node).replica, expected)
            << where;
      }
    }
  }
}

TEST(DispatchIndexTest, MatchesBruteForceScanUnderRandomReconfiguration) {
  WorkloadRegistry registry;
  for (const char* name : {"mlp", "resnet18", "nvsa"}) {
    registry.RegisterBuiltin(name);
  }
  const int workloads = registry.size();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    // A random workload set (empty = all) on a random tenant's design,
    // provisioned for every tenant so any refit can serve any workload.
    const auto random_spec = [&] {
      ReplicaSpec spec;
      const auto tenant =
          static_cast<WorkloadId>(rng.UniformInt(0, workloads - 1));
      spec.design = registry.ProvisionDesign(tenant);
      spec.tuned_for = tenant;
      for (WorkloadId w = 0; w < workloads; ++w) {
        if (rng.Bernoulli(0.4)) {
          spec.workloads.push_back(w);
        }
      }
      return spec;
    };
    std::vector<ReplicaSpec> specs;
    const int initial = static_cast<int>(rng.UniformInt(2, 9));
    for (int r = 0; r < initial; ++r) {
      specs.push_back(random_spec());
    }
    for (WorkloadId w = 0; w < workloads; ++w) {
      specs[static_cast<std::size_t>(w % initial)].workloads.push_back(w);
    }
    ServerPool pool(specs, registry.Dataflows());
    // Everything is free at t = 0 and the batch clock moves in coarse
    // steps, so equal free_at values (ties) are everywhere.
    const int cluster_nodes = static_cast<int>(rng.UniformInt(1, 4));
    int nodes = 1;
    const auto pin = [&](int replica, int node) {
      pool.SetReplicaNode(replica, node);
      nodes = std::max(nodes, node + 1);
    };
    for (int r = 0; r < pool.size(); ++r) {
      pin(r, r % cluster_nodes);
    }
    double t = 0.0;
    ExpectIndexMatchesScan(pool, nodes, "seed " + std::to_string(seed));
    for (int step = 0; step < 120; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      const int replica = static_cast<int>(rng.UniformInt(0, pool.size() - 1));
      const std::string label = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " op " +
                                std::to_string(op);
      if (rng.Bernoulli(0.3)) {
        // Jump to a replica's free time: batches formed there start
        // together with it.
        t = std::max(t, pool.FreeAt(replica));
      }
      try {
        if (op < 45) {
          const auto w =
              static_cast<WorkloadId>(rng.UniformInt(0, workloads - 1));
          const int node = static_cast<int>(rng.UniformInt(-1, nodes - 1));
          const int expected = ScanEarliest(pool, w, node);
          if (expected >= 0) {
            EXPECT_EQ(pool.Dispatch(OneRequestBatch(w, t), node).replica,
                      expected)
                << label;
          }
        } else if (op < 55) {
          pool.DrainReplica(replica, t);
        } else if (op < 65) {
          pool.FailReplica(replica, t, t + 0.01 * rng.UniformInt(1, 5),
                           rng.Bernoulli(0.5) ? 0.0 : 0.01);
        } else if (op < 75) {
          pool.RefitInPlace(replica, random_spec(), t);
        } else if (op < 87) {
          pin(pool.AddReplica(random_spec(), t),
              static_cast<int>(rng.UniformInt(0, cluster_nodes - 1)));
        } else if (op < 99) {
          pin(replica, static_cast<int>(rng.UniformInt(0, cluster_nodes)));
        } else {
          pool.DrainAll(t);
        }
      } catch (const Error&) {
        // A refused reconfiguration (it would orphan a workload, the
        // replica is draining or already dark) leaves the pool unchanged.
      }
      ExpectIndexMatchesScan(pool, nodes, label);
    }
  }
}

}  // namespace
}  // namespace nsflow::serve
