// The spec grammar (common/spec.h) under hostile input: one table of
// malformed shapes fed to all six grammars built on it — the scenario,
// adversity, admission and cluster specs, `--mix` (ParseMix) and `--tiers`
// (ParseTiers) — plus canonical-form round trips, the error wording each
// grammar keeps, integer keys bounded by their type, and the strict integer
// parser behind the CLI's flags.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/number.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "serve/workload_registry.h"

namespace nsflow::serve {
namespace {

/// One grammar and the pieces its hostile inputs are built from.
struct Grammar {
  const char* label;
  std::function<void(const std::string&)> parse;
  std::string head;     // "diurnal:" for a named spec, "" for a bare list.
  std::string key;      // An accepted key...
  std::string value;    // ...and a valid value for it.
  std::string unknown;  // A name the grammar does not know.
};

std::vector<Grammar> Grammars() {
  // ParseMix takes any workload name; the CLI then resolves each one
  // against the registry's built-ins, as this does.
  const auto mix = [](const std::string& text) {
    const std::vector<std::string> builtins =
        WorkloadRegistry::BuiltinNames();
    for (const WorkloadShare& share : ParseMix(text)) {
      if (std::find(builtins.begin(), builtins.end(), share.workload) ==
          builtins.end()) {
        throw Error("unknown built-in workload '" + share.workload + "'");
      }
    }
  };
  return {
      {"scenario", [](const std::string& t) { ScenarioSpec::Parse(t); },
       "diurnal:", "depth", "0.5", "tsunami"},
      {"adversity", [](const std::string& t) { AdversitySpec::Parse(t); },
       "straggler:", "factor", "2", "meteor"},
      {"admission", [](const std::string& t) { AdmissionSpec::Parse(t); },
       "guard:", "depth", "64", "bouncer"},
      {"cluster", [](const std::string& t) { ClusterSpec::Parse(t); },
       "hash:", "nodes", "2", "mesh"},
      {"mix", mix, "", "mlp", "0.6", "gpt=1"},
      {"tiers",
       [](const std::string& t) { ParseTiers(t, {"mlp", "resnet18"}); }, "",
       "mlp", "critical", "gpt=critical"},
  };
}

/// A malformed shape, built from one grammar's pieces.
struct Shape {
  const char* label;
  std::string (*build)(const Grammar& g);
};

const Shape kShapes[] = {
    {"empty entry",
     [](const Grammar& g) { return g.head + "," + g.key + "=" + g.value; }},
    {"trailing comma",
     [](const Grammar& g) { return g.head + g.key + "=" + g.value + ","; }},
    // A bare list has no name; its lone separator is the same mistake.
    {"name: alone",
     [](const Grammar& g) { return g.head.empty() ? "," : g.head; }},
    {"missing '='", [](const Grammar& g) { return g.head + g.key; }},
    {"empty key", [](const Grammar& g) { return g.head + "=" + g.value; }},
    {"empty value", [](const Grammar& g) { return g.head + g.key + "="; }},
    {"repeated key",
     [](const Grammar& g) {
       const std::string entry = g.key + "=" + g.value;
       return g.head + entry + "," + entry;
     }},
    {"inf", [](const Grammar& g) { return g.head + g.key + "=inf"; }},
    {"nan", [](const Grammar& g) { return g.head + g.key + "=nan"; }},
    {"trailing junk",
     [](const Grammar& g) { return g.head + g.key + "=" + g.value + "x"; }},
    {"leading space",
     [](const Grammar& g) { return g.head + g.key + "= " + g.value; }},
    {"unknown name", [](const Grammar& g) { return g.unknown; }},
    {"unknown key",
     [](const Grammar& g) { return g.head + "bogus=" + g.value; }},
};

std::string ErrorOf(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Fails unless `parse` refuses `input` as malformed: an `Error`, not a
/// `CheckError` from an internal check.
void ExpectRefused(const std::function<void(const std::string&)>& parse,
                   const std::string& input) {
  try {
    parse(input);
    ADD_FAILURE() << "accepted";
  } catch (const CheckError& e) {
    ADD_FAILURE() << "an internal check fired instead of a parse error: "
                  << e.what();
  } catch (const Error&) {
    // Refused as malformed input.
  }
}

TEST(SpecGrammarTest, EveryGrammarRefusesEveryHostileShape) {
  for (const Grammar& g : Grammars()) {
    // The pieces themselves are well-formed: each refusal below is the
    // shape's doing.
    EXPECT_NO_THROW(g.parse(g.head + g.key + "=" + g.value)) << g.label;
    for (const Shape& shape : kShapes) {
      const std::string input = shape.build(g);
      SCOPED_TRACE(std::string(g.label) + ", " + shape.label + ": '" +
                   input + "'");
      ExpectRefused(g.parse, input);
    }
  }
}

TEST(SpecGrammarTest, IntegerKeysMustFitTheirType) {
  const auto scenario = [](const std::string& t) { ScenarioSpec::Parse(t); };
  const auto adversity = [](const std::string& t) {
    AdversitySpec::Parse(t);
  };
  const auto admission = [](const std::string& t) {
    AdmissionSpec::Parse(t);
  };
  const auto cluster = [](const std::string& t) { ClusterSpec::Parse(t); };
  // Every integer key, under each name that takes it. A value past the
  // key's type cannot be cast to it, so it is refused like any other
  // value out of range.
  const std::vector<std::pair<std::function<void(const std::string&)>,
                              std::vector<std::string>>>
      keys = {
          {scenario, {"closed:clients"}},
          {adversity,
           {"replica-fail:count", "replica-fail:replica", "replica-fail:node",
            "straggler:count", "straggler:replica", "churn:workload"}},
          {admission,
           {"quota:retry", "slo:retry", "overload:depth", "overload:retry",
            "guard:depth", "guard:retry"}},
          {cluster,
           {"hash:nodes", "hash:hops", "least-loaded:nodes",
            "least-loaded:hops"}},
      };
  for (const auto& [parse, names] : keys) {
    for (const std::string& key : names) {
      for (const char* value : {"1e12", "1e30", "-1e12"}) {
        const std::string input = key + "=" + value;
        SCOPED_TRACE("'" + input + "'");
        ExpectRefused(parse, input);
      }
    }
  }
  ExpectRefused(scenario, "closed:clients=2.5");
  // An explicit target fans out to ids replica .. replica + count - 1.
  ExpectRefused(adversity, "replica-fail:replica=2147483647,count=2");
  EXPECT_NO_THROW(adversity("replica-fail:replica=2147483646,count=2"));
  EXPECT_NO_THROW(admission("guard:depth=2147483647,retry=2147483647"));
  EXPECT_EQ(ErrorOf([] { AdmissionSpec::Parse("guard:depth=1e30"); }),
            "admission 'guard': depth must be an integer in [1, "
            "2147483647]");
}

TEST(SpecGrammarTest, ChurnWorkloadPastTheMixIsAnError) {
  // Only the run knows its mix, so this check happens at use.
  EXPECT_EQ(ErrorOf([] {
              ArrivalAdversity(AdversitySpec::Parse("churn:workload=2"),
                               100.0, 1.0, 7, {0.5, 0.5});
            }),
            "adversity 'churn': workload 2 is past this run's 2-workload "
            "mix");
}

TEST(SpecGrammarTest, EmptyListsAreRefused) {
  EXPECT_THROW(ParseMix(""), Error);
  EXPECT_THROW(ParseTiers("", {"mlp"}), Error);
}

TEST(SpecGrammarTest, ParseOfToStringRoundTrips) {
  for (const char* text :
       {"poisson", "diurnal:period=0.5,depth=0.3333333333333333,phase=0.25",
        "bursty:on=0.02,off=0.06,idle=0.1", "ramp:from=0.5,to=2",
        "spike:at=1,width=0.5,mult=6",
        "closed:clients=8,think_ms=10,service_ms=1.5",
        "trace:file=arrivals.json"}) {
    const ScenarioSpec spec = ScenarioSpec::Parse(text);
    EXPECT_TRUE(ScenarioSpec::Parse(spec.ToString()) == spec) << text;
  }
  for (const char* text :
       {"none", "replica-fail:at=1,down=2,count=2,warmup=0.1",
        "replica-fail:node=1", "straggler:factor=2.5,replica=3,duration=1",
        "churn:workload=1,at=0.5", "flash:mult=4,width=0.25"}) {
    const AdversitySpec spec = AdversitySpec::Parse(text);
    EXPECT_TRUE(AdversitySpec::Parse(spec.ToString()) == spec) << text;
  }
  for (const char* text :
       {"none", "quota:rate=100,burst=25", "slo:deadline=0.02,retry=2",
        "overload:depth=16,live=0.75", "guard:rate=5000,live=0,depth=256"}) {
    const AdmissionSpec spec = AdmissionSpec::Parse(text);
    EXPECT_TRUE(AdmissionSpec::Parse(spec.ToString()) == spec) << text;
  }
  for (const char* text :
       {"none", "hash:nodes=3,gbps=25",
        "least-loaded:nodes=4,hops=2,hop_us=10,affinity=0.5"}) {
    const ClusterSpec spec = ClusterSpec::Parse(text);
    EXPECT_EQ(ClusterSpec::Parse(spec.ToString()).params, spec.params)
        << text;
    EXPECT_EQ(ClusterSpec::Parse(spec.ToString()).policy, spec.policy)
        << text;
  }
  // The canonical form lists keys in order, values at their shortest.
  EXPECT_EQ(ScenarioSpec::Parse("diurnal:phase=0.25,depth=0.80").ToString(),
            "diurnal:depth=0.8,phase=0.25");
  EXPECT_EQ(ScenarioSpec::Parse("trace:file=a.json").ToString(),
            "trace:file=a.json");
  EXPECT_EQ(ClusterSpec::Parse("hash").ToString(), "hash");
}

TEST(SpecGrammarTest, ErrorsNameTheirGrammar) {
  EXPECT_EQ(ErrorOf([] { ScenarioSpec::Parse("tsunami"); }),
            "unknown scenario 'tsunami' (known: poisson, diurnal, bursty, "
            "ramp, spike, closed, trace)");
  EXPECT_EQ(ErrorOf([] { ScenarioSpec::Parse("trace:depth=1"); }),
            "scenario 'trace' has no parameter 'depth' (known: file)");
  EXPECT_EQ(ErrorOf([] { ScenarioSpec::Parse("poisson:rate=5"); }),
            "scenario 'poisson' has no parameter 'rate'");
  EXPECT_EQ(ErrorOf([] { AdversitySpec::Parse("straggler:at"); }),
            "bad adversity parameter 'at' (expected key=value)");
  EXPECT_EQ(ErrorOf([] { AdversitySpec::Parse("flash:width=-1"); }),
            "adversity 'flash': width must be positive");
  EXPECT_EQ(ErrorOf([] { AdmissionSpec::Parse("slo:depth=4"); }),
            "admission policy 'slo' has no parameter 'depth' (known: "
            "deadline, retry, backoff)");
  EXPECT_EQ(ErrorOf([] { AdmissionSpec::Parse("guard:live=0.5x"); }),
            "bad numeric value for admission parameter 'live': '0.5x'");
  EXPECT_EQ(ErrorOf([] { ClusterSpec::Parse("mesh"); }),
            "unknown cluster router 'mesh' (known: none, hash, "
            "least-loaded)");
  EXPECT_EQ(ErrorOf([] { ClusterSpec::Parse("hash:nodes=2,nodes=3"); }),
            "duplicate cluster parameter 'nodes'");
  EXPECT_EQ(ErrorOf([] { ParseMix("mlp=1,"); }),
            "bad mix entry '' (expected name=share, e.g. mlp=0.6)");
  EXPECT_EQ(ErrorOf([] { ParseTiers("mlp=", {"mlp"}); }),
            "bad --tiers entry 'mlp=' (expected name=tier, e.g. "
            "mlp=critical)");
  EXPECT_EQ(ErrorOf([] { ParseTiers("nvsa=batch", {"mlp", "resnet18"}); }),
            "--tiers names unknown workload 'nvsa' (this run serves: mlp, "
            "resnet18)");
}

TEST(SpecGrammarTest, ParseTiersMapsNamesToWorkloadIds) {
  const std::vector<SlaTier> tiers =
      ParseTiers("resnet18=batch,mlp=critical", {"mlp", "nvsa", "resnet18"});
  EXPECT_EQ(tiers, (std::vector<SlaTier>{
                       SlaTier::kCritical, SlaTier::kStandard,
                       SlaTier::kBatch}));
}

TEST(ParseIntegerTest, AcceptsOnlyWholeTokensInRange) {
  EXPECT_EQ(ParseInteger<int>("0", "n"), 0);
  EXPECT_EQ(ParseInteger<int>("-7", "n"), -7);
  EXPECT_EQ(ParseInteger<int>("2147483647", "n"), 2147483647);
  EXPECT_EQ(ParseInteger<std::int64_t>("9223372036854775807", "n"),
            INT64_MAX);
  EXPECT_EQ(ParseInteger<std::uint64_t>("18446744073709551615", "n"),
            UINT64_MAX);
  for (const char* bad : {"", " 5", "5 ", "+5", "1e3", "4.9", "5abc", "0x10",
                          "2147483648", "-2147483649", "inf", "nan"}) {
    EXPECT_THROW(ParseInteger<int>(bad, "n"), Error) << "'" << bad << "'";
  }
  EXPECT_THROW(ParseInteger<std::uint64_t>("-1", "n"), Error);
  EXPECT_THROW(ParseInteger<std::uint64_t>("18446744073709551616", "n"),
               Error);
  EXPECT_THROW(ParseInteger<std::int64_t>("9223372036854775808", "n"),
               Error);
  EXPECT_EQ(ErrorOf([] { ParseInteger<int>("1e3", "--replicas"); }),
            "bad integer value for --replicas: '1e3' (expected a whole "
            "number in [-2147483648, 2147483647])");
}

}  // namespace
}  // namespace nsflow::serve
