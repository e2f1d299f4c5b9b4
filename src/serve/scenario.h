// Traffic scenarios — arrival-trace generators beyond stationary Poisson.
//
// NSFlow-Serve's engine pulls its arrivals from a seeded stream (virtual
// timestamps; see request.h), which keeps every run bit-reproducible under a
// fixed seed. A `ScenarioSpec` names the arrival *pattern* that stream is
// drawn from:
//
//   poisson   stationary Poisson at `qps` (the PR 1 default — the generator
//             here reproduces the original stream bit-for-bit).
//   diurnal   sinusoidal rate: qps * (1 + depth * sin(2π(t/period + phase))).
//             Models the day/night cycle compressed onto the run horizon.
//   bursty    MMPP-style two-state on/off modulation: exponential dwell
//             times, a hot on-state rate and a trickle off-state rate,
//             normalized so the long-run mean stays `qps`.
//   ramp      linearly growing rate qps*(from + (to-from)*t/duration) —
//             a load ramp (or drain when to < from).
//   spike     flash crowd: baseline qps, multiplied by `mult` inside the
//             window [at, at+width).
//   closed    closed-loop clients: `clients` independent sessions, each
//             issuing its next request `think` (exponential) + `service`
//             (fixed residence estimate) after the previous one. Offered
//             load derives from the client count, not `qps`.
//   trace     replay a recorded arrival trace from a JSON file
//             (see ParseArrivalTraceJson for the schema).
//
// Every inhomogeneous-rate pattern samples by Lewis–Shedler thinning against
// the pattern's rate ceiling, drawing from one seeded RNG stream in a fixed
// order, so a (seed, spec) pair pins the whole (time, workload) trace.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/request.h"

namespace nsflow::serve {

enum class ScenarioKind {
  kPoisson,
  kDiurnal,
  kBursty,
  kRamp,
  kSpike,
  kClosedLoop,
  kTrace,
};

/// A scenario's parameters with every default applied and every range
/// checked (ScenarioSpec::Resolve). Each pattern reads only its own fields.
struct ScenarioParams {
  double period_s = 0.0;  // diurnal
  double depth = 0.0;
  double phase = 0.0;
  double on_s = 0.0;  // bursty
  double off_s = 0.0;
  double idle = 0.0;
  double from = 0.0;  // ramp
  double to = 0.0;
  double at_s = 0.0;  // spike
  double width_s = 0.0;
  double mult = 0.0;
  int clients = 0;  // closed
  double think_s = 0.0;
  double service_s = 0.0;
};

/// A parsed `--scenario` value: the pattern plus the numeric parameters
/// given, in the spec grammar (common/spec.h). Resolve() supplies the
/// defaults documented in docs/SCENARIOS.md.
struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kPoisson;
  std::map<std::string, double> params;  // Deterministic iteration order.
  std::string trace_path;                // kTrace only.

  /// Parse "name" or "name:key=value,key=value" (e.g.
  /// "diurnal:period=0.5,depth=0.8", "trace:file=arrivals.json") and
  /// range-check the values given by resolving them. Throws `Error` on
  /// malformed input.
  static ScenarioSpec Parse(const std::string& text);

  /// The parameters for a run of `duration_s` (some defaults scale with
  /// it). The only reader of `params`: each default and range check is
  /// written here once. Throws `Error` on a value out of range.
  ScenarioParams Resolve(double duration_s) const;

  /// Canonical form ("diurnal:depth=0.8,period=0.5"):
  /// Parse(ToString()) == *this.
  std::string ToString() const;

  /// The scenario's name without parameters ("diurnal").
  std::string Name() const;

  bool operator==(const ScenarioSpec& other) const {
    return kind == other.kind && params == other.params &&
           trace_path == other.trace_path;
  }
};

/// Instantaneous arrival rate of `spec` at virtual time `t` for a run driven
/// at `qps` over `duration_s` — the closed form the generators sample from
/// and the tests integrate against. Closed-loop and trace scenarios have no
/// open-loop rate function and throw.
double ScenarioRate(const ScenarioSpec& spec, double qps, double duration_s,
                    double t);

/// Mean of `ScenarioRate` over [0, duration_s) (analytic, not numeric):
/// the expected request count is this times `duration_s`. Closed-loop
/// returns the renewal rate clients/(think + service); trace throws.
double ScenarioMeanRate(const ScenarioSpec& spec, double qps,
                        double duration_s);

/// Mean of `ScenarioRate` over the window [t0, t1) ⊆ [0, duration_s)
/// (analytic, not numeric): the expected arrival count in the window is
/// this times (t1 - t0). This is the closed form the autoscaler's windowed
/// rate observations converge to — tests compare the two. Bursty returns
/// the long-run mean `qps` (the MMPP state sequence is stochastic, so a
/// window has no deterministic rate); closed-loop returns the renewal
/// rate; trace throws.
double ScenarioWindowMeanRate(const ScenarioSpec& spec, double qps,
                              double duration_s, double t0, double t1);

/// The scenario's rate ceiling — the instantaneous rate a pool must absorb
/// to hold a tail-latency SLO through the pattern's worst moment (diurnal
/// crest, burst on-state, ramp end, spike window). The capacity planner
/// provisions against this, not the mean. Closed-loop returns the renewal
/// rate (its arrivals are self-limiting); trace returns `qps` (a replayed
/// file has no closed form — drive planning with an explicit --qps).
double ScenarioPeakRate(const ScenarioSpec& spec, double qps,
                        double duration_s);

/// One scenario's arrivals, drawn a slice at a time: virtual timestamps in
/// [0, duration_s), ids in time order, each arrival's workload drawn from
/// `shares` (normalized weights indexed by workload id) on the same RNG
/// stream. Bit-deterministic for a fixed (spec, qps, duration_s, seed,
/// shares) tuple; `{1.0}` is the single-workload share vector. The
/// Poisson, thinned (diurnal, ramp, spike) and bursty generators keep
/// their state between calls, so a stream holds no arrival, however long
/// the run. The closed loop sorts its per-client draws, so it generates
/// its whole trace up front, and a replayed trace is whole too: both are
/// buffered sources.
class ScenarioStream {
 public:
  /// A generated scenario. A `trace` spec throws: its file is parsed by the
  /// caller (ParseArrivalTraceJson) into a buffered source.
  ScenarioStream(const ScenarioSpec& spec, double qps, double duration_s,
                 std::uint64_t seed, const std::vector<double>& shares);
  /// A buffered source replaying `arrivals` (time-ordered, ids their index).
  explicit ScenarioStream(std::vector<Request> arrivals);

  /// Appends the next arrivals, at most `room`, to `*out` and returns how
  /// many; 0 once the stream is exhausted.
  std::size_t Append(std::vector<Request>* out, std::size_t room);

  /// Room for every arrival the stream emits: the exact count for a
  /// buffered source; otherwise the scenario's expected count plus four
  /// standard deviations (a Poisson count's, or the bursty modulation's
  /// wider one), which it almost never exceeds.
  std::size_t capacity() const { return capacity_; }
  /// A buffered source's whole trace; empty for a generated one.
  std::span<const Request> buffered() const { return buffered_; }

 private:
  ScenarioKind kind_ = ScenarioKind::kTrace;
  ScenarioParams p_;
  double qps_ = 0.0;
  double duration_s_ = 0.0;
  std::vector<double> shares_;
  double total_share_ = 0.0;
  Rng rng_;
  double now_ = 0.0;
  double rate_ = 0.0;         // The candidates' rate: qps, the thinning
                              // ceiling, or the bursty window's state rate.
  double window_end_ = 0.0;   // Bursty: the current window's end.
  bool on_ = true;            // Bursty: the next window's state.
  bool in_window_ = false;    // Bursty: drawing inside a window.
  bool done_ = false;         // Generated to the horizon, or buffered.
  std::int64_t next_id_ = 0;
  std::vector<Request> buffered_;
  std::size_t read_ = 0;  // The next buffered arrival to append.
  std::size_t capacity_ = 0;
};

/// Generate the arrival trace for `spec`: ScenarioStream drained into a
/// vector.
std::vector<Request> GenerateArrivals(const ScenarioSpec& spec, double qps,
                                      double duration_s, std::uint64_t seed,
                                      const std::vector<double>& shares);

/// Serialize an arrival trace to the replayable JSON form. `workload_names`
/// (indexed by WorkloadId) labels each arrival; pass an empty vector to
/// omit workload labels (single-workload traces).
std::string EmitArrivalTraceJson(const std::vector<Request>& arrivals,
                                 const std::vector<std::string>& workload_names);

/// Parse the replayable JSON trace:
///   {"arrivals": [{"t_s": 0.0012, "workload": "mlp"}, ...]}
/// `workload` is optional (defaults to id 0) and is resolved through
/// `workload_names` (its index is the WorkloadId); an unknown name throws.
/// Arrivals must be non-negative and ascending in time. Entries at or past
/// `duration_s` are dropped (the engine's flush horizon ends there);
/// pass an infinite duration to keep everything.
std::vector<Request> ParseArrivalTraceJson(
    const std::string& json_text,
    const std::vector<std::string>& workload_names, double duration_s);

}  // namespace nsflow::serve
