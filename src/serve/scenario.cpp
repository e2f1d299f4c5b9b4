#include "serve/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/spec.h"

namespace nsflow::serve {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Indexed by ScenarioKind.
constexpr SpecName kKinds[] = {
    {"poisson", {}, {}},
    {"diurnal", {"period", "depth", "phase"}, {}},
    {"bursty", {"on", "off", "idle"}, {}},
    {"ramp", {"from", "to"}, {}},
    {"spike", {"at", "width", "mult"}, {}},
    {"closed", {"clients", "think_ms", "service_ms"}, {}},
    {"trace", {"file"}, "file"},
};

constexpr SpecGrammar kGrammar{"scenario", "scenario", kKinds};

/// The workload draw shared by every generator: same distribution, same
/// fallback rule as the original engine sampler (see engine.cpp history) —
/// FP rounding can leave `pick` non-negative after subtracting every share,
/// so the fallback is the last *positive-share* workload, never a
/// zero-share tenant. Consumes one uniform iff there are >= 2 shares.
WorkloadId DrawWorkload(Rng& rng, const std::vector<double>& shares,
                        double total_share) {
  WorkloadId workload = 0;
  if (shares.size() > 1) {
    for (std::size_t w = shares.size(); w-- > 0;) {
      if (shares[w] > 0.0) {
        workload = static_cast<WorkloadId>(w);
        break;
      }
    }
    double pick = rng.Uniform() * total_share;
    for (std::size_t w = 0; w < shares.size(); ++w) {
      pick -= shares[w];
      if (pick < 0.0) {
        workload = static_cast<WorkloadId>(w);
        break;
      }
    }
  }
  return workload;
}

/// The bursty on-state rate, normalized so the long-run mean stays `qps`:
///   (rate_on * on + rate_off * off) / (on + off) = qps.
/// Resolve requires (on + off) - idle * off > 0, which keeps it positive
/// for any qps.
double BurstyOnRate(const ScenarioParams& p, double qps) {
  return (qps * (p.on_s + p.off_s) - p.idle * qps * p.off_s) / p.on_s;
}

double CheckedTotalShare(const std::vector<double>& shares) {
  NSF_CHECK_MSG(!shares.empty(), "need at least one workload share");
  double total = 0.0;
  for (const double share : shares) {
    NSF_CHECK_MSG(share >= 0.0, "workload shares must be non-negative");
    total += share;
  }
  NSF_CHECK_MSG(total > 0.0, "at least one share must be positive");
  return total;
}

/// Room for an arrival count with mean `mean` and variance `variance` (a
/// Poisson count's equals its mean) plus four standard deviations of
/// slack, so a vector reserved for the stream almost never regrows.
std::size_t ArrivalCapacity(double mean, double variance) {
  return mean > 0.0 ? static_cast<std::size_t>(
                          mean + 4.0 * std::sqrt(variance) + 16.0)
                    : 0;
}

/// Closed-loop sessions: each client issues its next request an exponential
/// think time plus a fixed residence estimate after the previous one (no
/// completion feedback — the residence estimate stands in for the service
/// round-trip, keeping the trace pre-computable and bit-deterministic).
std::vector<Request> GenerateClosedLoop(const ScenarioParams& p,
                                        double duration_s, Rng& rng,
                                        const std::vector<double>& shares,
                                        double total_share) {
  // Per-client generation in client order (deterministic), then one sort by
  // (time, client, sequence) to interleave the sessions on the timeline.
  struct Pending {
    double t;
    int client;
    std::int64_t seq;
    WorkloadId workload;
  };
  std::vector<Pending> pending;
  for (int c = 0; c < p.clients; ++c) {
    double now = 0.0;
    std::int64_t seq = 0;
    while (true) {
      now += -std::log(1.0 - rng.Uniform()) * p.think_s;
      if (seq > 0) {
        now += p.service_s;  // The previous request's residence.
      }
      if (now >= duration_s) {
        break;
      }
      const WorkloadId workload = DrawWorkload(rng, shares, total_share);
      pending.push_back(Pending{now, c, seq++, workload});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return std::tie(a.t, a.client, a.seq) <
                     std::tie(b.t, b.client, b.seq);
            });
  std::vector<Request> arrivals;
  arrivals.reserve(pending.size());
  std::int64_t next_id = 0;
  for (const Pending& entry : pending) {
    arrivals.push_back(Request{next_id++, entry.t, entry.workload});
  }
  return arrivals;
}

/// The rate of a scenario resolved for one run at instant `t`. The
/// thinning generator evaluates it for every candidate arrival, and
/// ScenarioRate at a single instant.
double RateAt(ScenarioKind kind, const ScenarioParams& p, double qps,
              double duration_s, double t) {
  switch (kind) {
    case ScenarioKind::kDiurnal:
      return qps *
             (1.0 + p.depth * std::sin(kTwoPi * (t / p.period_s + p.phase)));
    case ScenarioKind::kRamp:
      return qps * (p.from + (p.to - p.from) * t / duration_s);
    case ScenarioKind::kSpike:
      return (t >= p.at_s && t < p.at_s + p.width_s) ? qps * p.mult : qps;
    default:
      return qps;
  }
}

/// A scenario resolved for one run: its parameters plus the run's qps and
/// duration.
struct RateFunction {
  double operator()(double t) const {
    return RateAt(kind, p, qps, duration_s, t);
  }

  ScenarioKind kind;
  ScenarioParams p;
  double qps;
  double duration_s;
};

/// ScenarioMeanRate over a resolved scenario.
double MeanRate(const RateFunction& f) {
  const ScenarioParams& p = f.p;
  switch (f.kind) {
    case ScenarioKind::kPoisson:
      return f.qps;
    case ScenarioKind::kDiurnal: {
      // Analytic integral of the sinusoid over [0, duration_s).
      const double integral =
          p.period_s / kTwoPi *
          (std::cos(kTwoPi * p.phase) -
           std::cos(kTwoPi * (f.duration_s / p.period_s + p.phase)));
      return f.qps * (1.0 + p.depth * integral / f.duration_s);
    }
    case ScenarioKind::kBursty:
      return f.qps;  // Normalized by construction (long-run mean).
    case ScenarioKind::kRamp:
      return f.qps * (p.from + p.to) / 2.0;
    case ScenarioKind::kSpike: {
      const double lo = std::clamp(p.at_s, 0.0, f.duration_s);
      const double hi = std::clamp(p.at_s + p.width_s, 0.0, f.duration_s);
      return f.qps * (1.0 + (p.mult - 1.0) * (hi - lo) / f.duration_s);
    }
    case ScenarioKind::kClosedLoop:
      // Renewal-reward: each client cycles think + residence per request.
      return p.clients / (p.think_s + p.service_s);
    case ScenarioKind::kTrace:
      throw Error("trace scenarios have no closed-form rate (count the "
                  "replayed arrivals instead)");
  }
  throw Error("unknown scenario kind");
}

/// ScenarioPeakRate over a resolved scenario.
double PeakRate(const RateFunction& f) {
  const ScenarioParams& p = f.p;
  switch (f.kind) {
    case ScenarioKind::kPoisson:
      return f.qps;
    case ScenarioKind::kDiurnal:
      return f.qps * (1.0 + p.depth);
    case ScenarioKind::kBursty:
      // idle > 1 makes the "off" state the hot one; the pool must absorb
      // whichever state runs faster.
      return std::max(BurstyOnRate(p, f.qps), p.idle * f.qps);
    case ScenarioKind::kRamp:
      return f.qps * std::max(p.from, p.to);
    case ScenarioKind::kSpike:
      return f.qps * std::max(1.0, p.mult);
    case ScenarioKind::kClosedLoop:
      return MeanRate(f);
    case ScenarioKind::kTrace:
      return f.qps;
  }
  throw Error("unknown scenario kind");
}

}  // namespace

ScenarioSpec ScenarioSpec::Parse(const std::string& text) {
  ParsedSpec parsed = kGrammar.Parse(text);
  const ScenarioSpec spec{static_cast<ScenarioKind>(parsed.name),
                          std::move(parsed.params), std::move(parsed.text)};
  if (spec.kind == ScenarioKind::kTrace && spec.trace_path.empty()) {
    throw Error("trace scenario needs file=<path> (e.g. "
                "trace:file=arrivals.json)");
  }
  // No range check depends on the duration, and every default is valid
  // for any positive one.
  spec.Resolve(1.0);
  return spec;
}

ScenarioParams ScenarioSpec::Resolve(double duration_s) const {
  const SpecReader read{kGrammar, static_cast<std::size_t>(kind), params};
  ScenarioParams p;
  p.period_s = read.Number("period", duration_s);
  p.depth = read.Number("depth", 0.8);
  p.phase = read.Number("phase", 0.0);
  read.Require(p.depth >= 0.0 && p.depth < 1.0, "depth must be in [0, 1)");
  read.Require(p.period_s > 0.0, "period must be positive");

  p.on_s = read.Number("on", 0.05);
  p.off_s = read.Number("off", 0.15);
  p.idle = read.Number("idle", 0.1);
  read.Require(p.on_s > 0.0, "on-dwell must be positive");
  read.Require(p.off_s >= 0.0, "off-dwell must be non-negative");
  read.Require(p.idle >= 0.0, "idle fraction must be non-negative");
  // The on-state rate is positive for every qps: (on + off) - idle*off > 0.
  read.Require(p.on_s + p.off_s - p.idle * p.off_s > 0.0,
               "idle fraction too large for the dwell ratio (the off-state "
               "alone would exceed the target mean rate)");

  p.from = read.Number("from", 0.0);
  p.to = read.Number("to", 2.0);
  read.Require(p.from >= 0.0 && p.to >= 0.0,
               "endpoints must be non-negative");
  read.Require(p.from > 0.0 || p.to > 0.0,
               "at least one endpoint must be positive");

  p.at_s = read.Number("at", 0.4 * duration_s);
  p.width_s = read.Number("width", 0.1 * duration_s);
  p.mult = read.Number("mult", 5.0);
  read.Require(p.width_s >= 0.0, "width must be non-negative");
  read.Require(p.mult >= 0.0, "mult must be non-negative");

  p.clients = read.Integer("clients", 4, 1);
  p.think_s = read.Number("think_ms", 10.0) * 1e-3;
  p.service_s = read.Number("service_ms", 1.0) * 1e-3;
  read.Require(p.think_s > 0.0, "think time must be positive");
  read.Require(p.service_s >= 0.0, "service estimate must be non-negative");
  return p;
}

std::string ScenarioSpec::Name() const {
  return std::string(kKinds[static_cast<std::size_t>(kind)].name);
}

std::string ScenarioSpec::ToString() const {
  // The canonical string must round-trip bit-exactly (plan JSON records
  // it).
  return kGrammar.Format(static_cast<std::size_t>(kind), params, trace_path);
}

double ScenarioRate(const ScenarioSpec& spec, double qps, double duration_s,
                    double t) {
  switch (spec.kind) {
    case ScenarioKind::kBursty:
      throw Error(
          "bursty is stochastic-rate (MMPP); it has no deterministic rate "
          "function — use ScenarioMeanRate");
    case ScenarioKind::kClosedLoop:
    case ScenarioKind::kTrace:
      throw Error("scenario '" + spec.Name() +
                  "' has no open-loop rate function");
    default:
      return RateFunction{spec.kind, spec.Resolve(duration_s), qps,
                          duration_s}(t);
  }
}

double ScenarioMeanRate(const ScenarioSpec& spec, double qps,
                        double duration_s) {
  return MeanRate(
      RateFunction{spec.kind, spec.Resolve(duration_s), qps, duration_s});
}

double ScenarioWindowMeanRate(const ScenarioSpec& spec, double qps,
                              double duration_s, double t0, double t1) {
  NSF_CHECK_MSG(t1 > t0 && t0 >= 0.0 && t1 <= duration_s,
                "rate window must be a non-empty slice of [0, duration)");
  const RateFunction f{spec.kind, spec.Resolve(duration_s), qps,
                       duration_s};
  const ScenarioParams& p = f.p;
  const double width = t1 - t0;
  switch (spec.kind) {
    case ScenarioKind::kDiurnal: {
      // ∫ sin(2π(t/period + phase)) dt over [t0, t1).
      const double integral =
          p.period_s / kTwoPi *
          (std::cos(kTwoPi * (t0 / p.period_s + p.phase)) -
           std::cos(kTwoPi * (t1 / p.period_s + p.phase)));
      return qps * (1.0 + p.depth * integral / width);
    }
    case ScenarioKind::kRamp:
      // Linear rate: the window mean is the rate at the window midpoint.
      return f((t0 + t1) / 2.0);
    case ScenarioKind::kSpike: {
      const double lo = std::clamp(p.at_s, t0, t1);
      const double hi = std::clamp(p.at_s + p.width_s, t0, t1);
      return qps * (1.0 + (p.mult - 1.0) * (hi - lo) / width);
    }
    default:
      // Poisson and bursty: the long-run mean (bursty windows are
      // stochastic, MMPP); closed loop: the renewal rate.
      return MeanRate(f);
  }
}

double ScenarioPeakRate(const ScenarioSpec& spec, double qps,
                        double duration_s) {
  return PeakRate(
      RateFunction{spec.kind, spec.Resolve(duration_s), qps, duration_s});
}

ScenarioStream::ScenarioStream(const ScenarioSpec& spec, double qps,
                               double duration_s, std::uint64_t seed,
                               const std::vector<double>& shares)
    : kind_(spec.kind),
      qps_(qps),
      duration_s_(duration_s),
      shares_(shares),
      rng_(seed) {
  NSF_CHECK_MSG(duration_s > 0.0, "duration must be positive");
  if (kind_ != ScenarioKind::kClosedLoop) {
    NSF_CHECK_MSG(qps > 0.0, "qps must be positive");
  }
  total_share_ = CheckedTotalShare(shares);
  p_ = spec.Resolve(duration_s);
  const RateFunction f{kind_, p_, qps, duration_s};
  switch (kind_) {
    case ScenarioKind::kPoisson:
      rate_ = qps;
      capacity_ = ArrivalCapacity(qps * duration_s, qps * duration_s);
      return;
    case ScenarioKind::kBursty: {
      // The on/off modulation spreads the count far wider than a Poisson
      // one: per second of run its variance tends to the mean rate plus
      // 2 (rate_on - rate_off)^2 (on off)^2 / (on + off)^3.
      const double swing = BurstyOnRate(p_, qps) - p_.idle * qps;
      const double dwells = p_.on_s * p_.off_s;
      const double spread = 2.0 * swing * swing * dwells * dwells /
                            std::pow(p_.on_s + p_.off_s, 3.0);
      capacity_ =
          ArrivalCapacity(qps * duration_s, (qps + spread) * duration_s);
      return;  // Each window sets its own rate.
    }
    case ScenarioKind::kDiurnal:
    case ScenarioKind::kRamp:
    case ScenarioKind::kSpike:
      // Thinning against the peak rate; the candidate test reads the
      // resolved rate function.
      rate_ = PeakRate(f);
      NSF_CHECK_MSG(rate_ > 0.0, "scenario rate ceiling must be positive");
      capacity_ = ArrivalCapacity(MeanRate(f) * duration_s,
                                  MeanRate(f) * duration_s);
      return;
    case ScenarioKind::kClosedLoop:
      buffered_ = GenerateClosedLoop(p_, duration_s, rng_, shares_,
                                     total_share_);
      capacity_ = buffered_.size();
      done_ = true;
      return;
    case ScenarioKind::kTrace:
      throw Error(
          "trace scenarios replay a file — resolve workload names and call "
          "ParseArrivalTraceJson (the engine does this when --scenario "
          "trace:file=... is given)");
  }
  throw Error("unknown scenario kind");
}

ScenarioStream::ScenarioStream(std::vector<Request> arrivals)
    : done_(true), buffered_(std::move(arrivals)) {
  capacity_ = buffered_.size();
}

std::size_t ScenarioStream::Append(std::vector<Request>* out,
                                   std::size_t room) {
  if (done_) {
    // A buffered source copies out its next slice; a generator at the
    // horizon has none left.
    const std::size_t n = std::min(room, buffered_.size() - read_);
    const auto from = buffered_.begin() + static_cast<std::ptrdiff_t>(read_);
    out->insert(out->end(), from, from + static_cast<std::ptrdiff_t>(n));
    read_ += n;
    return n;
  }
  // Each generator keeps its state in members between calls and in locals
  // inside one, and draws the same words in the same order as one
  // uninterrupted loop would.
  std::size_t n = 0;
  const double horizon = duration_s_;
  double now = now_;
  const auto emit = [&] {
    out->push_back(
        Request{next_id_++, now, DrawWorkload(rng_, shares_, total_share_)});
    ++n;
  };
  switch (kind_) {
    case ScenarioKind::kPoisson: {
      // Bit-identical to the original PR 1/2 generator: one uniform per
      // gap, one per workload draw (when mixing).
      const double rate = rate_;
      while (n < room) {
        now += -std::log(1.0 - rng_.Uniform()) / rate;
        if (now >= horizon) {
          done_ = true;
          break;
        }
        emit();
      }
      break;
    }
    case ScenarioKind::kDiurnal:
    case ScenarioKind::kRamp:
    case ScenarioKind::kSpike: {
      // Lewis–Shedler thinning against the ceiling: candidates arrive as a
      // homogeneous Poisson at the ceiling, and candidate t survives with
      // probability rate(t)/ceiling. Two uniforms per candidate plus the
      // workload draw per accepted arrival — a fixed order, so the (seed,
      // spec) pair pins the trace.
      const double ceiling = rate_;
      while (n < room) {
        now += -std::log(1.0 - rng_.Uniform()) / ceiling;
        if (now >= horizon) {
          done_ = true;
          break;
        }
        if (rng_.Uniform() * ceiling < RateAt(kind_, p_, qps_, horizon, now)) {
          emit();
        }
      }
      break;
    }
    case ScenarioKind::kBursty:
      // MMPP-style on/off modulation: alternating exponential dwell
      // windows, a homogeneous Poisson at the window's state rate inside
      // each. Restarting the gap draw at every window boundary is exact
      // (memorylessness), so the count in a window of length L at rate r
      // is Poisson(r*L). Runs open in a burst so short horizons see one.
      while (n < room) {
        if (in_window_) {
          now += -std::log(1.0 - rng_.Uniform()) / rate_;
          if (now < window_end_) {
            emit();
            continue;
          }
          in_window_ = false;
        }
        // The next window opens where the last one closed.
        const double window_start = window_end_;
        if (window_start >= horizon) {
          done_ = true;
          break;
        }
        const double dwell =
            -std::log(1.0 - rng_.Uniform()) * (on_ ? p_.on_s : p_.off_s);
        window_end_ = std::min(window_start + dwell, horizon);
        rate_ = on_ ? BurstyOnRate(p_, qps_) : p_.idle * qps_;
        on_ = !on_;
        if (rate_ > 0.0) {
          now = window_start;
          in_window_ = true;
        }
      }
      break;
    case ScenarioKind::kClosedLoop:
    case ScenarioKind::kTrace:
      break;  // Buffered: done from the start.
  }
  now_ = now;
  return n;
}

std::vector<Request> GenerateArrivals(const ScenarioSpec& spec, double qps,
                                      double duration_s, std::uint64_t seed,
                                      const std::vector<double>& shares) {
  ScenarioStream stream(spec, qps, duration_s, seed, shares);
  std::vector<Request> arrivals;
  arrivals.reserve(stream.capacity());
  stream.Append(&arrivals, std::numeric_limits<std::size_t>::max());
  return arrivals;
}

std::string EmitArrivalTraceJson(
    const std::vector<Request>& arrivals,
    const std::vector<std::string>& workload_names) {
  JsonArray entries;
  entries.reserve(arrivals.size());
  for (const Request& request : arrivals) {
    JsonObject entry;
    entry["t_s"] = Json(request.arrival_s);
    if (!workload_names.empty()) {
      const auto w = static_cast<std::size_t>(request.workload);
      NSF_CHECK_MSG(w < workload_names.size(),
                    "arrival workload id out of range of workload_names");
      entry["workload"] = Json(workload_names[w]);
    }
    entries.push_back(Json(std::move(entry)));
  }
  JsonObject root;
  root["arrivals"] = Json(std::move(entries));
  return Json(std::move(root)).Dump(2);
}

std::vector<Request> ParseArrivalTraceJson(
    const std::string& json_text,
    const std::vector<std::string>& workload_names, double duration_s) {
  const Json root = Json::Parse(json_text);
  const JsonArray& entries = root.At("arrivals").AsArray();
  std::vector<Request> arrivals;
  arrivals.reserve(entries.size());
  double previous = 0.0;
  std::int64_t next_id = 0;
  for (const Json& entry : entries) {
    const double t = entry.At("t_s").AsDouble();
    if (t < 0.0) {
      throw Error("arrival trace has a negative timestamp");
    }
    if (t < previous) {
      throw Error("arrival trace timestamps must be ascending");
    }
    previous = t;
    if (t >= duration_s) {
      continue;  // Past the engine's flush horizon — dropped.
    }
    WorkloadId workload = 0;
    // Workload labels are resolved only when the caller serves named
    // workloads; single-workload replays ignore them.
    if (entry.is_object() && entry.Contains("workload") &&
        !workload_names.empty()) {
      const std::string& name = entry.At("workload").AsString();
      const auto it =
          std::find(workload_names.begin(), workload_names.end(), name);
      if (it == workload_names.end()) {
        throw Error("arrival trace references unknown workload '" + name +
                    "'");
      }
      workload = static_cast<WorkloadId>(it - workload_names.begin());
    }
    arrivals.push_back(Request{next_id++, t, workload});
  }
  return arrivals;
}

}  // namespace nsflow::serve
