// Tests for the traffic-scenario suite (serve/scenario.h): fixed-seed
// bit-determinism per pattern, rate envelopes against their closed forms,
// JSON trace-replay round-trips and label resolution, and spec parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "serve/adversity.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "serve_differential.h"

namespace nsflow::serve {
namespace {

const std::vector<double> kOneWorkload = {1.0};

std::vector<std::string> AllScenarioSpecs() {
  return {"poisson",
          "diurnal",
          "diurnal:period=0.25,depth=0.5,phase=0.25",
          "bursty",
          "bursty:on=0.02,off=0.08,idle=0.2",
          "ramp",
          "ramp:from=0.5,to=1.5",
          "spike",
          "spike:at=0.2,width=0.2,mult=3",
          "closed",
          "closed:clients=8,think_ms=5,service_ms=2"};
}

// ------------------------------------------------------------ determinism

TEST(ScenarioTest, FixedSeedIsBitDeterministicPerPattern) {
  for (const std::string& text : AllScenarioSpecs()) {
    const ScenarioSpec spec = ScenarioSpec::Parse(text);
    const auto a = GenerateArrivals(spec, 500.0, 1.0, 7, {0.6, 0.3, 0.1});
    const auto b = GenerateArrivals(spec, 500.0, 1.0, 7, {0.6, 0.3, 0.1});
    ASSERT_EQ(a.size(), b.size()) << text;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << text;
      // Bit-exact, not approximately equal.
      ASSERT_EQ(a[i].arrival_s, b[i].arrival_s) << text;
      ASSERT_EQ(a[i].workload, b[i].workload) << text;
    }
    const auto c = GenerateArrivals(spec, 500.0, 1.0, 8, {0.6, 0.3, 0.1});
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
      differs = c[i].arrival_s != a[i].arrival_s;
    }
    EXPECT_TRUE(differs) << text << ": different seeds gave the same trace";
  }
}

TEST(ScenarioTest, ArrivalsAreOrderedInWindowAndDenselyNumbered) {
  for (const std::string& text : AllScenarioSpecs()) {
    const ScenarioSpec spec = ScenarioSpec::Parse(text);
    const auto arrivals = GenerateArrivals(spec, 800.0, 0.5, 11, kOneWorkload);
    ASSERT_FALSE(arrivals.empty()) << text;
    double previous = 0.0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      EXPECT_EQ(arrivals[i].id, static_cast<std::int64_t>(i)) << text;
      EXPECT_GE(arrivals[i].arrival_s, previous) << text;
      EXPECT_LT(arrivals[i].arrival_s, 0.5) << text;
      previous = arrivals[i].arrival_s;
    }
  }
}

TEST(ScenarioTest, DefaultPoissonMatchesLegacyEngineStream) {
  // The scenario layer must reproduce the pre-scenario arrival stream
  // bit-for-bit: ServeOptions' default scenario is stationary Poisson.
  ServeOptions options;
  options.qps = 300.0;
  options.duration_s = 1.0;
  options.seed = 42;
  const auto via_engine = SyntheticArrivals(options, {0.5, 0.5});
  const auto direct = GenerateArrivals(ScenarioSpec{}, options.qps,
                                       options.duration_s, options.seed,
                                       {0.5, 0.5});
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(via_engine[i].arrival_s, direct[i].arrival_s);
    ASSERT_EQ(via_engine[i].workload, direct[i].workload);
  }
}

// -------------------------------------------------------- rate envelopes

// Expected-count checks: the generated count must sit within ~5 standard
// deviations of ScenarioMeanRate * duration (Poisson sd = sqrt(mean)).
void ExpectCountNearClosedForm(const std::string& text, double qps,
                               double duration_s) {
  const ScenarioSpec spec = ScenarioSpec::Parse(text);
  const auto arrivals = GenerateArrivals(spec, qps, duration_s, 123,
                                         kOneWorkload);
  const double expected = ScenarioMeanRate(spec, qps, duration_s) * duration_s;
  const double slack = 5.0 * std::sqrt(expected);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected, slack) << text;
}

TEST(ScenarioTest, MeanCountsMatchClosedForms) {
  ExpectCountNearClosedForm("poisson", 2000.0, 2.0);
  ExpectCountNearClosedForm("diurnal", 2000.0, 2.0);
  ExpectCountNearClosedForm("diurnal:period=0.5,depth=0.9", 2000.0, 2.0);
  // Half a period of pure crest: mean = qps * (1 + 2*depth/pi).
  ExpectCountNearClosedForm("diurnal:period=4,depth=0.5", 2000.0, 2.0);
  ExpectCountNearClosedForm("ramp", 2000.0, 2.0);
  ExpectCountNearClosedForm("ramp:from=1,to=3", 2000.0, 2.0);
  ExpectCountNearClosedForm("spike", 2000.0, 2.0);
  ExpectCountNearClosedForm("spike:at=0.5,width=1,mult=4", 2000.0, 2.0);
  ExpectCountNearClosedForm("closed:clients=32,think_ms=20,service_ms=5",
                            0.0, 2.0);
}

TEST(ScenarioTest, DiurnalMeanRateIntegralIsExactForFullPeriods) {
  const ScenarioSpec spec = ScenarioSpec::Parse("diurnal:period=0.5,depth=0.9");
  // Whole number of periods -> the sinusoid integrates to zero.
  EXPECT_NEAR(ScenarioMeanRate(spec, 100.0, 2.0), 100.0, 1e-9);
  // Quarter period from the trough-to-crest rise keeps a positive excess.
  const ScenarioSpec quarter = ScenarioSpec::Parse("diurnal:period=4,depth=0.5");
  EXPECT_NEAR(ScenarioMeanRate(quarter, 100.0, 1.0),
              100.0 * (1.0 + 0.5 * 2.0 / 3.141592653589793), 1e-6);
}

TEST(ScenarioTest, RampQuartersFollowTheLinearEnvelope) {
  // rate(t) = qps * 2t/D: quarter k (0-based) holds (2k+1)/16 of the mass.
  const ScenarioSpec spec = ScenarioSpec::Parse("ramp");
  const double qps = 4000.0;
  const double duration = 2.0;
  const auto arrivals = GenerateArrivals(spec, qps, duration, 99, kOneWorkload);
  double counts[4] = {0, 0, 0, 0};
  for (const Request& request : arrivals) {
    counts[static_cast<int>(request.arrival_s / (duration / 4.0))] += 1.0;
  }
  const double total = qps * duration;  // Expected grand total (from=0,to=2).
  for (int k = 0; k < 4; ++k) {
    const double expected = total * (2.0 * k + 1.0) / 16.0;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected)) << "quarter "
                                                                << k;
  }
}

TEST(ScenarioTest, SpikeWindowCarriesTheMultiplier) {
  const ScenarioSpec spec = ScenarioSpec::Parse("spike:at=0.5,width=0.5,mult=6");
  const double qps = 3000.0;
  const auto arrivals = GenerateArrivals(spec, qps, 2.0, 5, kOneWorkload);
  double inside = 0.0;
  double outside = 0.0;
  for (const Request& request : arrivals) {
    (request.arrival_s >= 0.5 && request.arrival_s < 1.0 ? inside : outside) +=
        1.0;
  }
  const double expected_inside = qps * 6.0 * 0.5;
  const double expected_outside = qps * 1.5;
  EXPECT_NEAR(inside, expected_inside, 5.0 * std::sqrt(expected_inside));
  EXPECT_NEAR(outside, expected_outside, 5.0 * std::sqrt(expected_outside));
}

TEST(ScenarioTest, BurstyKeepsLongRunMeanAndPeakRate) {
  const ScenarioSpec spec = ScenarioSpec::Parse("bursty:on=0.02,off=0.06,idle=0.1");
  const double qps = 2000.0;
  const double duration = 8.0;  // Many dwell cycles for the long-run mean.
  const auto arrivals = GenerateArrivals(spec, qps, duration, 17, kOneWorkload);
  const double expected = qps * duration;
  // Dwell-cycle variance dominates the Poisson variance; allow ~10%.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected, 0.10 * expected);
  // The on-state rate the planner provisions for exceeds the mean.
  EXPECT_GT(ScenarioPeakRate(spec, qps, duration), qps * 2.0);

  // Burstiness shows up as index of dispersion > 1: slice into windows and
  // compare var/mean of window counts against a Poisson stream's ~1.
  const auto window_dispersion = [&](const std::vector<Request>& trace) {
    const int windows = 200;
    std::vector<double> counts(windows, 0.0);
    for (const Request& request : trace) {
      counts[std::min(windows - 1,
                      static_cast<int>(request.arrival_s / duration *
                                       windows))] += 1.0;
    }
    double mean = 0.0;
    for (const double c : counts) mean += c;
    mean /= windows;
    double var = 0.0;
    for (const double c : counts) var += (c - mean) * (c - mean);
    var /= windows;
    return var / mean;
  };
  const auto poisson = GenerateArrivals(ScenarioSpec{}, qps, duration, 17,
                                        kOneWorkload);
  EXPECT_GT(window_dispersion(arrivals), 3.0 * window_dispersion(poisson));
}

TEST(ScenarioTest, ClosedLoopRespectsClientConcurrency) {
  // With think >> 0 and a residence estimate, no client can have two
  // requests closer than service_ms apart; the offered rate follows the
  // renewal formula clients / (think + service).
  const ScenarioSpec spec =
      ScenarioSpec::Parse("closed:clients=4,think_ms=10,service_ms=5");
  const auto arrivals = GenerateArrivals(spec, 0.0, 4.0, 3, kOneWorkload);
  const double expected = 4.0 / 0.015 * 4.0;
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected,
              5.0 * std::sqrt(expected));
  EXPECT_NEAR(ScenarioMeanRate(spec, 0.0, 4.0), 4.0 / 0.015, 1e-9);
}

TEST(ScenarioTest, MixSharesApplyAcrossScenarios) {
  const ScenarioSpec spec = ScenarioSpec::Parse("diurnal:depth=0.5");
  const auto arrivals =
      GenerateArrivals(spec, 4000.0, 1.0, 21, {0.75, 0.25});
  double first = 0.0;
  for (const Request& request : arrivals) {
    if (request.workload == 0) {
      first += 1.0;
    }
  }
  const double share = first / static_cast<double>(arrivals.size());
  EXPECT_NEAR(share, 0.75, 0.05);
}

// ------------------------------------------------------------ trace replay

TEST(ScenarioTest, TraceRoundTripsThroughJson) {
  ServeOptions options;
  options.qps = 400.0;
  options.duration_s = 0.5;
  options.seed = 9;
  const auto original = SyntheticArrivals(options, {0.6, 0.4});
  const std::vector<std::string> names = {"mlp", "nvsa"};
  const std::string json = EmitArrivalTraceJson(original, names);
  const auto replayed = ParseArrivalTraceJson(json, names, options.duration_s);
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(replayed[i].id, original[i].id);
    ASSERT_EQ(replayed[i].arrival_s, original[i].arrival_s);  // Bit-exact.
    ASSERT_EQ(replayed[i].workload, original[i].workload);
  }
}

TEST(ScenarioTest, TraceReplayDropsArrivalsPastTheHorizon) {
  const std::string json =
      R"({"arrivals": [{"t_s": 0.1}, {"t_s": 0.4}, {"t_s": 0.9}]})";
  const auto replayed = ParseArrivalTraceJson(json, {}, 0.5);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].arrival_s, 0.4);
}

TEST(ScenarioTest, EngineResolvesTraceLabelsOnlyForSeveralWorkloads) {
  // The checked-in trace labels every arrival mlp or resnet18.
  ServeOptions options;
  options.duration_s = 2.0;
  options.scenario = ScenarioSpec::Parse(
      "trace:file=" + diff::GoldenDir() + "/arrivals_poisson_s42.json");
  // Serving one workload ignores the labels: every arrival is served.
  WorkloadRegistry one;
  one.RegisterBuiltin("mlp");
  const ServeReport report = RunSyntheticServe(
      one, one.ReplicaSpecs(2, false), {{"mlp", 1.0}}, options);
  EXPECT_GT(report.generated_requests, 0);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  // Several workloads resolve labels by name: a missing one throws.
  WorkloadRegistry two;
  two.RegisterBuiltin("mlp");
  two.RegisterBuiltin("nvsa");
  EXPECT_THROW(RunSyntheticServe(two, two.ReplicaSpecs(2, true),
                                 {{"mlp", 0.5}, {"nvsa", 0.5}}, options),
               Error);
}

TEST(ScenarioTest, TraceReplayValidates) {
  EXPECT_THROW(ParseArrivalTraceJson(
                   R"({"arrivals": [{"t_s": 0.4}, {"t_s": 0.1}]})", {}, 1.0),
               Error);
  EXPECT_THROW(
      ParseArrivalTraceJson(R"({"arrivals": [{"t_s": -0.1}]})", {}, 1.0),
      Error);
  EXPECT_THROW(
      ParseArrivalTraceJson(
          R"({"arrivals": [{"t_s": 0.1, "workload": "unknown"}]})",
          {"mlp"}, 1.0),
      Error);
  // Labels are ignored when the caller serves no named workloads.
  const auto unlabeled = ParseArrivalTraceJson(
      R"({"arrivals": [{"t_s": 0.1, "workload": "whatever"}]})", {}, 1.0);
  ASSERT_EQ(unlabeled.size(), 1u);
  EXPECT_EQ(unlabeled[0].workload, 0);
}

// ------------------------------------------------------------ pull stream

TEST(ArrivalStreamTest, PullsAndCountsMatchTheDrainedTrace) {
  // Every source — the generators, the buffered closed loop and a replayed
  // golden trace — with churn and flash applied at the stream's head: the
  // engine's pull-and-count protocol must see exactly the drained trace
  // while the stream drops what lies behind its floor.
  const std::vector<double> shares = {0.6, 0.4};
  const std::vector<std::string> names = {"mlp", "resnet18"};
  const std::string replay =
      "trace:file=" + diff::GoldenDir() + "/arrivals_poisson_s42.json";
  for (const std::string& source : {std::string("poisson"),
                                    std::string("diurnal"),
                                    std::string("bursty"), std::string("ramp"),
                                    std::string("spike"),
                                    std::string("closed"), replay}) {
    for (const char* adversity : {"none", "churn:workload=1", "flash"}) {
      for (const std::uint64_t seed : {7u, 42u, 1234u}) {
        ServeOptions options;
        // The golden trace was recorded at 400 qps; the flash extras
        // follow the offered rate.
        options.qps = source == replay ? 400.0 : 2000.0;
        options.duration_s = 2.0;
        options.seed = seed;
        options.scenario = ScenarioSpec::Parse(source);
        options.adversity = AdversitySpec::Parse(adversity);
        const std::string label = source + " x " + adversity + " s" +
                                  std::to_string(seed);
        const std::vector<Request> whole =
            SyntheticArrivals(options, shares, names);
        ASSERT_GT(whole.size(), 500u) << label;
        ArrivalStream stream(options, shares, names);
        // The completion log reserves this much: exact for a buffered
        // source, a four-sigma bound otherwise.
        if (source == "closed" || source == replay) {
          EXPECT_EQ(stream.capacity(), whole.size()) << label;
        } else {
          EXPECT_GE(stream.capacity(), whole.size()) << label;
        }

        Rng rng(seed);
        double floor = -std::numeric_limits<double>::infinity();
        std::size_t pulled = 0;
        for (const Request* next; (next = stream.Peek()) != nullptr;
             stream.Pop()) {
          ASSERT_LT(pulled, whole.size()) << label;
          const Request& want = whole[pulled++];
          ASSERT_EQ(next->id, want.id) << label;
          ASSERT_EQ(next->arrival_s, want.arrival_s) << label;
          ASSERT_EQ(next->workload, want.workload) << label;
          // Like the engine's watermark: never above the clock, up to a
          // few forming waits behind it, never falling.
          const double now = next->arrival_s;
          floor = std::max(floor, now - 3.0 * options.max_wait_s *
                                            rng.Uniform());
          stream.SetFloor(floor);
          for (int k = 0; k < 2; ++k) {
            const double t =
                floor + (now - floor + 4.0 * options.max_wait_s) *
                            rng.Uniform();
            const auto expected = static_cast<std::size_t>(
                std::upper_bound(whole.begin(), whole.end(), t,
                                 [](double v, const Request& r) {
                                   return v < r.arrival_s;
                                 }) -
                whole.begin());
            ASSERT_EQ(stream.ArrivedBy(t), expected)
                << label << " at t=" << t << ", floor " << floor;
          }
          if (pulled % 97 == 0) {
            EXPECT_THROW(
                stream.ArrivedBy(std::nextafter(
                    floor, -std::numeric_limits<double>::infinity())),
                Error)
                << label;
          }
        }
        EXPECT_EQ(pulled, whole.size()) << label;
        EXPECT_EQ(stream.drawn(), whole.size()) << label;
        EXPECT_EQ(stream.ArrivedBy(options.duration_s), whole.size())
            << label;
      }
    }
  }
}

// ------------------------------------------------------------ spec parsing

TEST(ScenarioTest, SpecParsesAndRoundTrips) {
  for (const std::string& text : AllScenarioSpecs()) {
    const ScenarioSpec spec = ScenarioSpec::Parse(text);
    const ScenarioSpec again = ScenarioSpec::Parse(spec.ToString());
    EXPECT_TRUE(spec == again) << text << " -> " << spec.ToString();
  }
  const ScenarioSpec trace = ScenarioSpec::Parse("trace:file=arrivals.json");
  EXPECT_EQ(trace.kind, ScenarioKind::kTrace);
  EXPECT_EQ(trace.trace_path, "arrivals.json");
  EXPECT_TRUE(ScenarioSpec::Parse(trace.ToString()) == trace);
}

TEST(ScenarioTest, SpecRejectsUnknownNamesAndParameters) {
  EXPECT_THROW(ScenarioSpec::Parse("tsunami"), Error);
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:depht=0.5"), Error);  // Typo.
  EXPECT_THROW(ScenarioSpec::Parse("poisson:rate=5"), Error);
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:depth="), Error);
  EXPECT_THROW(ScenarioSpec::Parse("trace"), Error);  // Needs file=.
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:depth=1.5"), Error);
  // Off-state alone exceeding the mean rate has no valid on-state rate —
  // rejected at parse time, and the peak-rate query agrees.
  EXPECT_THROW(ScenarioSpec::Parse("bursty:idle=7"), Error);
  // A value must be one finite number, whole token.
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:depth=0.5x"), Error);
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:depth= 0.5"), Error);
  EXPECT_THROW(ScenarioSpec::Parse("diurnal:period=inf"), Error);
  EXPECT_THROW(ScenarioSpec::Parse("spike:mult=inf"), Error);

  // AdversitySpec shares the strict-parse contract (serve/adversity.h):
  // unknown patterns and keys, malformed k=v entries, and out-of-range
  // values all throw instead of silently falling back to defaults.
  EXPECT_THROW(AdversitySpec::Parse("meteor"), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:donw=2"), Error);  // Typo.
  EXPECT_THROW(AdversitySpec::Parse("none:at=1"), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:at="), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:at=soon"), Error);
  EXPECT_THROW(AdversitySpec::Parse("straggler:at"), Error);  // No '='.
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:down=0"), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:count=0"), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:replica=-2"), Error);
  EXPECT_THROW(AdversitySpec::Parse("straggler:factor=0.5"), Error);
  EXPECT_THROW(AdversitySpec::Parse("churn:workload=1.5"), Error);
  EXPECT_THROW(AdversitySpec::Parse("churn:workload=-1"), Error);
  EXPECT_THROW(AdversitySpec::Parse("flash:mult=0.9"), Error);
  EXPECT_THROW(AdversitySpec::Parse("flash:width=-1"), Error);
  EXPECT_THROW(AdversitySpec::Parse("replica-fail:at=1junk"), Error);
  EXPECT_THROW(AdversitySpec::Parse("straggler:factor=inf"), Error);
  EXPECT_THROW(AdversitySpec::Parse("flash:mult=inf"), Error);
}

TEST(ScenarioTest, ToStringRoundTripsHighPrecisionParams) {
  // The canonical string is recorded in plan JSON: values with more
  // precision than a fixed 6-decimal print must survive bit-exactly.
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kBursty;
  spec.params["on"] = 5e-7;
  spec.params["off"] = 1.0 / 3.0;
  const ScenarioSpec again = ScenarioSpec::Parse(spec.ToString());
  EXPECT_EQ(again.params.at("on"), 5e-7);
  EXPECT_EQ(again.params.at("off"), 1.0 / 3.0);
}

TEST(ScenarioTest, EngineRunsEveryScenarioDeterministically) {
  // End-to-end: a tiny pool under each pattern, twice, bit-identical stats.
  // (Workload compile is the expensive part; do it once.)
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  for (const std::string& text :
       {std::string("diurnal"), std::string("bursty"), std::string("ramp"),
        std::string("spike:mult=3"), std::string("closed:clients=8")}) {
    ServeOptions options;
    options.qps = 300.0;
    options.duration_s = 0.2;
    options.seed = 4;
    options.scenario = ScenarioSpec::Parse(text);
    const ServeReport a = RunSyntheticServe(registry, replicas, mix, options);
    const ServeReport b = RunSyntheticServe(registry, replicas, mix, options);
    ASSERT_EQ(a.generated_requests, b.generated_requests) << text;
    ASSERT_GT(a.summary.completed, 0) << text;
    ASSERT_EQ(a.summary.p99_ms, b.summary.p99_ms) << text;
    ASSERT_EQ(a.summary.throughput_rps, b.summary.throughput_rps) << text;
  }
}

}  // namespace
}  // namespace nsflow::serve
