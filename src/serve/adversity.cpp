#include "serve/adversity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/spec.h"

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
  // No range check depends on the duration, and every default is valid
  // for any positive one.
  spec.Resolve(1.0);
  return spec;
}

AdversityParams AdversitySpec::Resolve(double duration_s) const {
  const SpecReader read{kGrammar, static_cast<std::size_t>(kind), params};
  AdversityParams p;
  // Where the fault sits on the run: each pattern's default start and
  // length are shares of the duration.
  switch (kind) {
    case AdversityKind::kNone:
      break;
    case AdversityKind::kReplicaFail:
      p.at_s = read.Number("at", 0.25 * duration_s);
      p.length_s = read.Number("down", 0.25 * duration_s);
      read.Require(p.length_s > 0.0, "down must be positive");
      break;
    case AdversityKind::kStraggler:
      p.at_s = read.Number("at", 0.25 * duration_s);
      p.length_s = read.Number("duration", 0.5 * duration_s);
      read.Require(p.length_s > 0.0, "duration must be positive");
      break;
    case AdversityKind::kChurn:
      p.at_s = read.Number("at", 0.3 * duration_s);
      p.length_s = read.Number("down", 0.4 * duration_s);
      read.Require(p.length_s > 0.0, "down must be positive");
      break;
    case AdversityKind::kFlash:
      p.at_s = read.Number("at", 0.4 * duration_s);
      p.length_s = read.Number("width", 0.1 * duration_s);
      read.Require(p.length_s > 0.0, "width must be positive");
      break;
  }
  read.Require(p.at_s >= 0.0, "at must be non-negative");
  p.warmup_s = read.Number("warmup", 0.05);
  read.Require(p.warmup_s >= 0.0, "warmup must be non-negative");
  p.count = read.Integer("count", 1, 1);
  p.replica = read.Integer("replica", -1, -1, " (-1 picks the busiest)");
  // An explicit target fans out to ids replica .. replica + count - 1.
  read.Require(p.replica + (p.count - 1.0) <=
                   std::numeric_limits<int>::max(),
               "replica + count - 1 (the last replica targeted) must be at "
               "most 2147483647");
  p.node = read.Integer("node", -1, -1,
                        " (-1 targets replicas, not a cluster node)");
  p.factor = read.Number("factor", 2.0);
  read.Require(p.factor >= 1.0,
               "factor must be >= 1 (a clock derate slows, never speeds up)");
  p.workload = read.Integer("workload", 0, 0, " (a tenant's workload id)");
  p.mult = read.Number("mult", 3.0);
  read.Require(p.mult >= 1.0, "mult must be >= 1");
  return p;
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
  const AdversityParams p = spec.Resolve(duration_s);
  std::vector<AdversityEvent> events;
  switch (spec.kind) {
    case AdversityKind::kNone:
      break;
    case AdversityKind::kReplicaFail: {
      if (p.node >= 0) {
        // Whole-node outage: one event carrying the node id; the engine
        // expands it to every replica pinned there at fire time (so
        // autoscaler-added replicas on the node fail too). `count` and
        // `replica` are meaningless alongside `node`.
        AdversityEvent e;
        e.t_s = p.at_s;
        e.kind = AdversityEventKind::kReplicaFail;
        e.node = p.node;
        e.until_s = p.at_s + p.length_s;
        e.warmup_s = p.warmup_s;
        events.push_back(e);
        break;
      }
      for (int i = 0; i < p.count; ++i) {
        AdversityEvent e;
        e.t_s = p.at_s;
        e.kind = AdversityEventKind::kReplicaFail;
        // An explicit target fans out to consecutive ids; -1 resolves to
        // the busiest eligible replica per event (already-failed replicas
        // are ineligible, so simultaneous events pick distinct targets).
        e.replica = p.replica < 0 ? -1 : p.replica + i;
        e.until_s = p.at_s + p.length_s;
        e.warmup_s = p.warmup_s;
        events.push_back(e);
      }
      break;
    }
    case AdversityKind::kStraggler:
      for (int i = 0; i < p.count; ++i) {
        AdversityEvent e;
        e.t_s = p.at_s;
        e.kind = AdversityEventKind::kDerateStart;
        e.replica = p.replica < 0 ? -1 : p.replica + i;
        e.factor = p.factor;
        e.until_s = p.at_s + p.length_s;
        events.push_back(e);
      }
      break;
    case AdversityKind::kChurn: {
      AdversityEvent leave;
      leave.t_s = p.at_s;
      leave.kind = AdversityEventKind::kChurnLeave;
      leave.workload = p.workload;
      leave.until_s = p.at_s + p.length_s;
      events.push_back(leave);
      AdversityEvent rejoin;
      rejoin.t_s = p.at_s + p.length_s;
      rejoin.kind = AdversityEventKind::kChurnRejoin;
      rejoin.workload = p.workload;
      events.push_back(rejoin);
      break;
    }
    case AdversityKind::kFlash: {
      AdversityEvent open;
      open.t_s = p.at_s;
      open.kind = AdversityEventKind::kFlashStart;
      open.factor = p.mult;
      open.until_s = p.at_s + p.length_s;
      events.push_back(open);
      AdversityEvent close;
      close.t_s = p.at_s + p.length_s;
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

ArrivalAdversity::ArrivalAdversity(const AdversitySpec& spec, double qps,
                                   double duration_s, std::uint64_t seed,
                                   const std::vector<double>& shares) {
  const AdversityParams p = spec.Resolve(duration_s);
  switch (spec.kind) {
    case AdversityKind::kNone:
    case AdversityKind::kReplicaFail:
    case AdversityKind::kStraggler:
      return;  // Replica-side patterns leave the stream bit-identical.
    case AdversityKind::kChurn:
      if (p.workload >= static_cast<WorkloadId>(shares.size())) {
        throw Error("adversity 'churn': workload " +
                    std::to_string(p.workload) + " is past this run's " +
                    std::to_string(shares.size()) + "-workload mix");
      }
      masked_workload = p.workload;
      masked_from_s = p.at_s;
      masked_until_s = p.at_s + p.length_s;
      return;
    case AdversityKind::kFlash: {
      const double lo = std::min(p.at_s, duration_s);
      const double hi = std::min(p.at_s + p.length_s, duration_s);
      double total_share = 0.0;
      for (const double share : shares) {
        NSF_CHECK_MSG(share >= 0.0, "workload shares must be non-negative");
        total_share += share;
      }
      NSF_CHECK_MSG(total_share > 0.0, "at least one share must be positive");
      // Superimposed Poisson: rate(flash) = mult*rate(base), and the sum of
      // independent Poisson streams is Poisson, so drawing the extra
      // (mult-1)*qps*share arrivals from a dedicated derived-seed stream
      // leaves the base stream bit-untouched while hitting the target
      // rate. Each tenant draws its whole window before the next one, so
      // the extras are drawn up front and sorted.
      Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
      for (std::size_t w = 0; w < shares.size(); ++w) {
        const double rate = (p.mult - 1.0) * qps * shares[w] / total_share;
        if (rate <= 0.0) {
          continue;
        }
        double now = lo;
        while (true) {
          now += -std::log(1.0 - rng.Uniform()) / rate;
          if (now >= hi) {
            break;
          }
          extras.push_back(Request{0, now, static_cast<WorkloadId>(w)});
        }
      }
      std::stable_sort(extras.begin(), extras.end(),
                       [](const Request& a, const Request& b) {
                         return std::tie(a.arrival_s, a.workload) <
                                std::tie(b.arrival_s, b.workload);
                       });
      return;
    }
  }
}

}  // namespace nsflow::serve
