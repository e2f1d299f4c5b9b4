#include "serve/adversity.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/number.h"
#include "common/rng.h"

namespace nsflow::serve {
namespace {

// Indexed by AdversityKind.
constexpr SpecName kKinds[] = {
    {"none", {}, {}},
    {"replica-fail",
     {"at", "down", "replica", "count", "warmup", "node"},
     {}},
    {"straggler", {"at", "duration", "factor", "replica", "count"}, {}},
    {"churn", {"at", "down", "workload"}, {}},
    {"flash", {"at", "width", "mult"}, {}},
};

constexpr SpecGrammar kGrammar{"adversity", "adversity pattern", kKinds};

}  // namespace

AdversitySpec AdversitySpec::Parse(const std::string& text) {
  ParsedSpec parsed = kGrammar.Parse(text);
  const AdversitySpec spec{static_cast<AdversityKind>(parsed.name),
                           std::move(parsed.params)};

  // Range validation of the provided parameters (defaults are always
  // valid; duration-relative defaults are resolved at timeline build time).
  const auto require = [&](bool ok, const char* message) {
    kGrammar.Require(ok, parsed.name, message);
  };
  switch (spec.kind) {
    case AdversityKind::kReplicaFail:
      require(spec.Param("at", 0.0) >= 0.0, "at must be non-negative");
      require(spec.Param("down", 1.0) > 0.0, "down must be positive");
      require(spec.Param("warmup", 0.0) >= 0.0,
              "warmup must be non-negative");
      require(spec.Param("count", 1.0) >= 1.0 &&
                  IsWholeNumber(spec.Param("count", 1.0)),
              "count must be a positive integer");
      require(spec.Param("replica", -1.0) >= -1.0 &&
                  IsWholeNumber(spec.Param("replica", -1.0)),
              "replica must be an integer >= -1 (-1 picks the busiest)");
      require(spec.Param("node", -1.0) >= -1.0 &&
                  IsWholeNumber(spec.Param("node", -1.0)),
              "node must be an integer >= -1 (-1 targets replicas, not a "
              "cluster node)");
      break;
    case AdversityKind::kStraggler:
      require(spec.Param("at", 0.0) >= 0.0, "at must be non-negative");
      require(spec.Param("duration", 1.0) > 0.0,
              "duration must be positive");
      require(spec.Param("factor", 2.0) >= 1.0,
              "factor must be >= 1 (a clock derate slows, never speeds up)");
      require(spec.Param("count", 1.0) >= 1.0 &&
                  IsWholeNumber(spec.Param("count", 1.0)),
              "count must be a positive integer");
      require(spec.Param("replica", -1.0) >= -1.0 &&
                  IsWholeNumber(spec.Param("replica", -1.0)),
              "replica must be an integer >= -1 (-1 picks the busiest)");
      break;
    case AdversityKind::kChurn:
      require(spec.Param("at", 0.0) >= 0.0, "at must be non-negative");
      require(spec.Param("down", 1.0) > 0.0, "down must be positive");
      require(spec.Param("workload", 0.0) >= 0.0 &&
                  IsWholeNumber(spec.Param("workload", 0.0)),
              "workload must be a non-negative integer id");
      break;
    case AdversityKind::kFlash:
      require(spec.Param("at", 0.0) >= 0.0, "at must be non-negative");
      require(spec.Param("width", 1.0) > 0.0, "width must be positive");
      require(spec.Param("mult", 3.0) >= 1.0, "mult must be >= 1");
      break;
    case AdversityKind::kNone:
      break;
  }
  return spec;
}

std::string AdversitySpec::Name() const {
  return std::string(kKinds[static_cast<std::size_t>(kind)].name);
}

std::string AdversitySpec::ToString() const {
  return kGrammar.Format(static_cast<std::size_t>(kind), params);
}

std::vector<AdversityEvent> BuildAdversityTimeline(const AdversitySpec& spec,
                                                   double duration_s) {
  NSF_CHECK_MSG(duration_s > 0.0, "adversity timeline needs a positive run");
  std::vector<AdversityEvent> events;
  switch (spec.kind) {
    case AdversityKind::kNone:
      break;
    case AdversityKind::kReplicaFail: {
      const double at = spec.Param("at", 0.25 * duration_s);
      const double down = spec.Param("down", 0.25 * duration_s);
      const double warmup = spec.Param("warmup", 0.05);
      const int count = static_cast<int>(spec.Param("count", 1.0));
      const int replica = static_cast<int>(spec.Param("replica", -1.0));
      const int node = static_cast<int>(spec.Param("node", -1.0));
      if (node >= 0) {
        // Whole-node outage: one event carrying the node id; the engine
        // expands it to every replica pinned there at fire time (so
        // autoscaler-added replicas on the node fail too). `count` and
        // `replica` are meaningless alongside `node`.
        AdversityEvent e;
        e.t_s = at;
        e.kind = AdversityEventKind::kReplicaFail;
        e.node = node;
        e.until_s = at + down;
        e.warmup_s = warmup;
        events.push_back(e);
        break;
      }
      for (int i = 0; i < count; ++i) {
        AdversityEvent e;
        e.t_s = at;
        e.kind = AdversityEventKind::kReplicaFail;
        // An explicit target fans out to consecutive ids; -1 resolves to
        // the busiest eligible replica per event (already-failed replicas
        // are ineligible, so simultaneous events pick distinct targets).
        e.replica = replica < 0 ? -1 : replica + i;
        e.until_s = at + down;
        e.warmup_s = warmup;
        events.push_back(e);
      }
      break;
    }
    case AdversityKind::kStraggler: {
      const double at = spec.Param("at", 0.25 * duration_s);
      const double window = spec.Param("duration", 0.5 * duration_s);
      const double factor = spec.Param("factor", 2.0);
      const int count = static_cast<int>(spec.Param("count", 1.0));
      const int replica = static_cast<int>(spec.Param("replica", -1.0));
      for (int i = 0; i < count; ++i) {
        AdversityEvent e;
        e.t_s = at;
        e.kind = AdversityEventKind::kDerateStart;
        e.replica = replica < 0 ? -1 : replica + i;
        e.factor = factor;
        e.until_s = at + window;
        events.push_back(e);
      }
      break;
    }
    case AdversityKind::kChurn: {
      const double at = spec.Param("at", 0.3 * duration_s);
      const double down = spec.Param("down", 0.4 * duration_s);
      const WorkloadId workload =
          static_cast<WorkloadId>(spec.Param("workload", 0.0));
      AdversityEvent leave;
      leave.t_s = at;
      leave.kind = AdversityEventKind::kChurnLeave;
      leave.workload = workload;
      leave.until_s = at + down;
      events.push_back(leave);
      AdversityEvent rejoin;
      rejoin.t_s = at + down;
      rejoin.kind = AdversityEventKind::kChurnRejoin;
      rejoin.workload = workload;
      events.push_back(rejoin);
      break;
    }
    case AdversityKind::kFlash: {
      const double at = spec.Param("at", 0.4 * duration_s);
      const double width = spec.Param("width", 0.1 * duration_s);
      const double mult = spec.Param("mult", 3.0);
      AdversityEvent open;
      open.t_s = at;
      open.kind = AdversityEventKind::kFlashStart;
      open.factor = mult;
      open.until_s = at + width;
      events.push_back(open);
      AdversityEvent close;
      close.t_s = at + width;
      close.kind = AdversityEventKind::kFlashEnd;
      events.push_back(close);
      break;
    }
  }
  // Start events at or past the horizon can never fire; end events past it
  // simply stay unfired (the pool clamps dead time to the horizon itself).
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const AdversityEvent& e) {
                                return e.t_s >= duration_s;
                              }),
               events.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const AdversityEvent& a, const AdversityEvent& b) {
                     return a.t_s < b.t_s;
                   });
  return events;
}

void ApplyAdversityArrivals(const AdversitySpec& spec,
                            std::vector<Request>* arrivals, double qps,
                            double duration_s, std::uint64_t seed,
                            const std::vector<double>& shares) {
  NSF_CHECK(arrivals != nullptr);
  switch (spec.kind) {
    case AdversityKind::kNone:
    case AdversityKind::kReplicaFail:
    case AdversityKind::kStraggler:
      return;  // Replica-side patterns leave the trace bit-identical.
    case AdversityKind::kChurn: {
      const double at = spec.Param("at", 0.3 * duration_s);
      const double down = spec.Param("down", 0.4 * duration_s);
      const WorkloadId workload =
          static_cast<WorkloadId>(spec.Param("workload", 0.0));
      NSF_CHECK_MSG(
          workload < static_cast<WorkloadId>(shares.size()),
          "churn workload index out of range for this mix");
      arrivals->erase(
          std::remove_if(arrivals->begin(), arrivals->end(),
                         [&](const Request& r) {
                           return r.workload == workload &&
                                  r.arrival_s >= at &&
                                  r.arrival_s < at + down;
                         }),
          arrivals->end());
      break;
    }
    case AdversityKind::kFlash: {
      const double at = spec.Param("at", 0.4 * duration_s);
      const double width = spec.Param("width", 0.1 * duration_s);
      const double mult = spec.Param("mult", 3.0);
      const double lo = std::min(at, duration_s);
      const double hi = std::min(at + width, duration_s);
      double total_share = 0.0;
      for (const double share : shares) {
        NSF_CHECK_MSG(share >= 0.0, "workload shares must be non-negative");
        total_share += share;
      }
      NSF_CHECK_MSG(total_share > 0.0, "at least one share must be positive");
      // Superimposed Poisson: rate(flash) = mult*rate(base), and the sum of
      // independent Poisson streams is Poisson, so drawing the extra
      // (mult-1)*qps*share arrivals from a dedicated derived-seed stream
      // leaves the base trace bit-untouched while hitting the target rate.
      Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
      std::vector<Request> extra;
      for (std::size_t w = 0; w < shares.size(); ++w) {
        const double rate = (mult - 1.0) * qps * shares[w] / total_share;
        if (rate <= 0.0) {
          continue;
        }
        double now = lo;
        while (true) {
          now += -std::log(1.0 - rng.Uniform()) / rate;
          if (now >= hi) {
            break;
          }
          extra.push_back(Request{0, now, static_cast<WorkloadId>(w)});
        }
      }
      std::stable_sort(extra.begin(), extra.end(),
                       [](const Request& a, const Request& b) {
                         return std::tie(a.arrival_s, a.workload) <
                                std::tie(b.arrival_s, b.workload);
                       });
      std::vector<Request> merged;
      merged.reserve(arrivals->size() + extra.size());
      // Base arrivals win ties so the unperturbed prefix stays in order.
      std::merge(arrivals->begin(), arrivals->end(), extra.begin(),
                 extra.end(),
                 std::back_inserter(merged),
                 [](const Request& a, const Request& b) {
                   return a.arrival_s < b.arrival_s;
                 });
      *arrivals = std::move(merged);
      break;
    }
  }
  // The trace changed — re-densify ids to 0..n-1 in time order (engine
  // invariants: ids are the arrival index).
  for (std::size_t i = 0; i < arrivals->size(); ++i) {
    (*arrivals)[i].id = static_cast<std::int64_t>(i);
  }
}

}  // namespace nsflow::serve
