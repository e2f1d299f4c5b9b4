// Adversity engine — seeded environment-fault injection for NSFlow-Serve.
//
// Traffic scenarios (scenario.h) perturb *demand*; the adversity engine
// perturbs the *environment* on the same deterministic virtual timeline, so
// every fault pattern composes with every traffic scenario and the whole run
// stays bit-reproducible under a fixed seed. An `AdversitySpec` names one
// fault pattern:
//
//   none          healthy hardware (the default — byte-identical runs to a
//                 build without the adversity layer).
//   replica-fail  `count` replicas fail at `at`, recover `down` seconds
//                 later, then spend `warmup` seconds re-warming before they
//                 accept work. In-flight batches on a failed replica are
//                 re-enqueued (no lost or duplicated requests) and the
//                 autoscaler sees the lost capacity as demand pressure.
//                 `node=K` (clustered runs, docs/CLUSTER.md) fails every
//                 replica pinned to cluster node K instead — the whole-node
//                 outage the cluster bench gate drives.
//   straggler     `count` replicas derate by `factor` (2 = half speed) for
//                 `duration` seconds starting at `at`. The derate multiplies
//                 ServingModel batch latencies at dispatch time, so the
//                 eager scheduler routes around the slowdown on its own.
//   churn         tenant `workload` leaves at `at` and rejoins `down`
//                 seconds later — its arrivals vanish for the window, which
//                 drives the autoscaler's scale-to-floor + warm-refit path.
//   flash         a correlated cross-tenant flash crowd: every tenant's
//                 arrival rate is multiplied by `mult` inside
//                 [at, at+width) (extra arrivals drawn from a dedicated
//                 seeded stream, so the base trace is untouched).
//
// Fault targets default to `replica=-1`: resolve at fire time to the
// busiest eligible replica (max scheduled-free time, ties to the lowest
// id). A failure that would orphan a workload (no surviving capable
// replica) is skipped and surfaced as a pool event instead of crashing the
// run — the engine never injects an unservable topology.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/request.h"

namespace nsflow::serve {

enum class AdversityKind {
  kNone,
  kReplicaFail,
  kStraggler,
  kChurn,
  kFlash,
};

/// An adversity spec's parameters with every default applied and every
/// range checked (AdversitySpec::Resolve). Each pattern reads only its own
/// fields.
struct AdversityParams {
  double at_s = 0.0;      // When the fault starts (every pattern).
  double length_s = 0.0;  // How long it lasts: `down` (replica-fail,
                          // churn), `duration` (straggler) or `width`
                          // (flash).
  double warmup_s = 0.0;  // replica-fail: re-warm time after recovery.
  int count = 0;          // replica-fail, straggler: replicas hit.
  int replica = 0;        // replica-fail, straggler: first target, -1 for
                          // the busiest at fire time.
  int node = 0;           // replica-fail: whole cluster node, -1 for none.
  double factor = 0.0;    // straggler: clock derate multiplier.
  int workload = 0;       // churn: the tenant that leaves.
  double mult = 0.0;      // flash: rate multiplier.
};

/// A parsed `--adversity` value: the fault pattern plus the numeric
/// parameters given, in the spec grammar (common/spec.h). Resolve()
/// supplies the defaults documented in docs/SCENARIOS.md.
struct AdversitySpec {
  AdversityKind kind = AdversityKind::kNone;
  std::map<std::string, double> params;  // Deterministic iteration order.

  /// Parse "name" or "name:key=value,key=value" (e.g.
  /// "replica-fail:at=4,down=2", "straggler:factor=2,count=1") and
  /// range-check the values given by resolving them. Throws `Error` on
  /// malformed input.
  static AdversitySpec Parse(const std::string& text);

  /// The parameters for a run of `duration_s` (the time-like defaults are
  /// shares of it). The only reader of `params`: each default and range
  /// check is written here once. Throws `Error` on a value out of range.
  AdversityParams Resolve(double duration_s) const;

  /// Canonical form ("replica-fail:at=4,down=2"):
  /// Parse(ToString()) == *this.
  std::string ToString() const;

  /// The pattern's name without parameters ("replica-fail").
  std::string Name() const;

  bool enabled() const { return kind != AdversityKind::kNone; }
  bool operator==(const AdversitySpec& other) const {
    return kind == other.kind && params == other.params;
  }
};

/// One entry in the resolved environment-event timeline. Start events
/// carry their paired end time (`until_s`) so the engine can schedule the
/// recovery against the replica it resolves at fire time.
enum class AdversityEventKind {
  kReplicaFail,     // replica goes dark at t_s, recovers at until_s.
  kReplicaRecover,  // replica back up (resolved replica, emitted by engine).
  kDerateStart,     // replica derated by `factor` until until_s.
  kDerateEnd,       // derate window over (resolved replica).
  kChurnLeave,      // tenant `workload` unregisters (arrivals masked).
  kChurnRejoin,     // tenant `workload` re-registers.
  kFlashStart,      // correlated flash crowd window opens.
  kFlashEnd,        // flash crowd window closes.
};

struct AdversityEvent {
  double t_s = 0.0;
  AdversityEventKind kind = AdversityEventKind::kReplicaFail;
  int replica = -1;         // -1: resolve to the busiest eligible at fire.
  WorkloadId workload = -1; // churn only.
  double factor = 1.0;      // straggler derate multiplier.
  double until_s = 0.0;     // paired end time for start events.
  double warmup_s = 0.0;    // replica-fail post-recovery warm-up.
  int node = -1;            // >= 0: fail the whole cluster node instead of
                            // a single replica (docs/CLUSTER.md).
};

/// Expand `spec` into the time-sorted environment-event timeline for a run
/// of `duration_s` virtual seconds.
/// Events at or past `duration_s` are dropped (nothing can fire after the
/// horizon); paired end times may extend past it and simply never fire
/// (the pool clamps dead time to its accounting horizon). Deterministic —
/// contains no random draws.
std::vector<AdversityEvent> BuildAdversityTimeline(const AdversitySpec& spec,
                                                   double duration_s);

/// The arrival-side patterns (churn, flash) of `spec` resolved for one
/// run, which the arrival stream applies at its head (engine.h's
/// ArrivalStream): churn masks one tenant's arrivals inside its window, and
/// flash superimposes `extras` at (mult-1) x qps x share per tenant, drawn
/// from a seed derived from `seed` (the base stream is bit-untouched).
/// Replica-side patterns (replica-fail, straggler) leave the stream
/// bit-identical. `shares` is the per-WorkloadId weight vector of the run
/// ({1.0} for a single-workload run); a churn `workload` past it throws
/// `Error`.
struct ArrivalAdversity {
  ArrivalAdversity(const AdversitySpec& spec, double qps, double duration_s,
                   std::uint64_t seed, const std::vector<double>& shares);

  /// Whether churn removes `r` from the stream.
  bool Masks(const Request& r) const {
    return r.workload == masked_workload && r.arrival_s >= masked_from_s &&
           r.arrival_s < masked_until_s;
  }

  WorkloadId masked_workload = -1;  // -1: churn masks nothing.
  double masked_from_s = 0.0;
  double masked_until_s = 0.0;
  /// The flash crowd's extra arrivals, sorted by (time, workload); ids are
  /// left to the stream. The stream merges them in, and on equal stamps
  /// the base arrival goes first.
  std::vector<Request> extras;
};

}  // namespace nsflow::serve
