// Admission frontend for NSFlow-Serve: per-tenant token-bucket rate
// limits, SLA tiers with per-request deadlines, load-aware overload
// shedding, a bounded retry/backoff path for shed standard requests, and
// the accounting behind the graceful-drain shutdown (docs/ADMISSION.md).
//
// The controller sits between arrival generation and the batch former:
// every generated arrival is *offered* to it, and only admitted requests
// enter the forming lanes. Like everything else in serve/, it runs on the
// virtual timeline — decisions are pure functions of the offer time, the
// admitted backlog, and the pool's live fraction, so a fixed seed pins the
// full admit/shed/retry sequence bit-exactly, composed with any scenario
// and adversity pattern.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "serve/request.h"

namespace nsflow::obs {
class Counter;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

/// Which admission policy bundle is active (see kKinds in admission.cpp).
enum class AdmissionKind {
  kNone = 0,      // Admit everything — byte-identical to no controller.
  kQuota = 1,     // Per-tenant token buckets only.
  kSlo = 2,       // Tier deadlines + expiry sweeps only.
  kOverload = 3,  // Load-aware lowest-tier-first shedding only.
  kGuard = 4,     // All mechanisms together (the production shape).
};

/// An admission spec's parameters for one tenant, with every default
/// applied and every range checked (AdmissionSpec::Resolve). Each is read
/// only where its mechanism is active.
struct AdmissionParams {
  double rate = 0.0;        // Token refill rate, requests/second.
  double burst = 0.0;       // Token-bucket capacity, requests.
  double deadline_s = 0.0;  // Critical-tier start deadline.
  int depth = 0;            // Admitted-backlog overload threshold.
  double live = 0.0;        // Live-fraction overload threshold.
  int retry = 0;            // Retry budget for shed standard requests.
  double backoff_s = 0.0;   // Base retry backoff, doubling per attempt.
};

/// Admission policy spec, `name[:key=value,...]` in the spec grammar
/// (common/spec.h); Parse range-checks the values given by resolving them.
///
/// Parameters (each only where its mechanism is active; Resolve supplies
/// the defaults):
///   rate F      per-tenant token refill rate, requests/second
///               (default: the tenant's share of the offered qps)
///   burst F     token-bucket capacity, requests (default max(1, rate/4))
///   deadline F  critical-tier start deadline, seconds (default 0.05;
///               standard gets 4x, batch is exempt)
///   depth N     admitted-backlog threshold: at `depth` requests waiting
///               to execute (forming lanes + dispatched-but-not-started)
///               batch-tier offers shed, at 4x standard too (default 64)
///   live F      live-replica fraction in [0,1] below which the pool is
///               treated as overloaded (default 0.75)
///   retry N     retry budget for shed standard requests (default 1)
///   backoff F   base retry backoff, seconds, doubling per attempt
///               (default 0.01)
struct AdmissionSpec {
  AdmissionKind kind = AdmissionKind::kNone;
  std::map<std::string, double> params;

  static AdmissionSpec Parse(const std::string& text);

  /// The parameters for a tenant offered `tenant_rps` (the `rate`
  /// default). The only reader of `params`: each default and range check
  /// is written here once. A given `rate` must be positive; the default
  /// may be 0, for a tenant with no share of the mix. Throws `Error` on a
  /// value out of range.
  AdmissionParams Resolve(double tenant_rps) const;

  std::string ToString() const;  // Canonical round-trippable form.
  std::string Name() const;
  bool enabled() const { return kind != AdmissionKind::kNone; }

  bool operator==(const AdmissionSpec& other) const {
    return kind == other.kind && params == other.params;
  }
};

/// Parse `--tiers` text ("mlp=critical,resnet18=batch") against the run's
/// workload names into a per-WorkloadId tier vector; unlisted workloads
/// stay `standard`. The entries follow the spec grammar (common/spec.h):
/// a malformed or repeated entry, an unknown tier and an unknown workload
/// all throw `Error`.
std::vector<SlaTier> ParseTiers(const std::string& text,
                                const std::vector<std::string>& workloads);

/// Per-tenant admission accounting, one row per workload (tenant), carried
/// on `ServeReport::admission` and printed as the CLI epilogue table.
struct AdmissionTenantSummary {
  std::string tenant;
  SlaTier tier = SlaTier::kStandard;
  std::int64_t offered = 0;        // Arrivals offered (incl. retry offers).
  std::int64_t admitted = 0;       // Offers that entered the forming lanes.
  std::int64_t shed_quota = 0;     // Final sheds by the token bucket.
  std::int64_t shed_overload = 0;  // Final sheds by overload/deadline.
  std::int64_t expired = 0;        // Admitted but swept before dispatch.
  std::int64_t retried = 0;        // Re-offers scheduled (not final sheds).

  std::int64_t shed() const { return shed_quota + shed_overload; }
};

/// The run's admission exit code, computed over the report's tenant rows:
/// 4 when the critical tier shed or expired anything, 5 when only standard
/// did, 0 otherwise — batch-only shedding is the designed overload
/// response, not a failure. Shared by the CLI epilogue and the
/// differential harness so the contract lives in exactly one place.
int AdmissionExitCode(const std::vector<AdmissionTenantSummary>& rows);

/// The admission controller. Single-threaded, driven by the engine's
/// consumer loop in virtual-time order:
///
///   while (retry ready before next arrival) Offer(retry)
///   Offer(arrival)              -> admit | shed | schedule retry
///   ...
///   SweepExpired(batch, start)  -> drop members that missed their deadline
///
/// A request the controller admits is stamped with its tenant tier and
/// deadline; a request it sheds never reaches the queue. The
/// never-dispatched invariant — no request whose deadline passed before
/// its batch start ever executes — is enforced by the sweep and verified
/// against the recorded trace in tests.
class AdmissionController {
 public:
  struct TenantConfig {
    std::string name;
    SlaTier tier = SlaTier::kStandard;
    double offered_rps = 0.0;  // The tenant's share of the run's qps.
  };

  AdmissionController(const AdmissionSpec& spec,
                      std::vector<TenantConfig> tenants);

  /// Offers one request at its arrival (or retry) time. Returns true when
  /// the request was admitted — the caller then owns pushing it onward,
  /// with `request->tier` / `request->deadline_s` stamped. On false the
  /// request was shed (possibly into the retry heap; see NextRetryAt).
  ///
  /// `backlog` is the admitted-but-not-yet-executing count at the offer
  /// instant — forming-lane depth plus requests in dispatched batches
  /// whose virtual start is still ahead of the offer clock — and
  /// `live_fraction` the pool's live-replica share (1 when no adversity).
  bool Offer(Request* request, std::int64_t backlog, double live_fraction);

  /// Earliest scheduled retry time, or +infinity when none is pending.
  double NextRetryAt() const;

  /// Pops the earliest pending retry (caller checked NextRetryAt). The
  /// returned request carries its original id/workload/deadline, a bumped
  /// attempt count, and `arrival_s` = the retry time.
  Request PopRetry();

  /// Shutdown: finalize every still-pending retry as an overload shed
  /// (nothing is admitted past the drain point). Returns how many closed.
  std::int64_t CloseRetries();

  /// Start-deadline budget for a tier (infinity for batch, or whenever
  /// deadlines are off for this policy).
  double DeadlineBudget(SlaTier tier) const;

  /// Drops batch members whose deadline passed before `start_s`, counting
  /// them per tenant. Returns the number of members removed. The engine
  /// calls this immediately before every dispatch; a batch emptied here is
  /// simply not dispatched.
  std::int64_t SweepExpired(Batch* batch, double start_s);

  /// Requests permanently removed from the stream so far (final sheds +
  /// expiries) — the engine subtracts this from its backlog accounting.
  std::int64_t removed() const { return removed_; }

  /// Tier configured for a tenant (workload id order = tenant order).
  SlaTier TierOf(WorkloadId workload) const;

  std::vector<AdmissionTenantSummary> Summaries() const;

  /// Registers per-tenant admitted/shed/expired/retried counters
  /// (`admission.<what>.<tenant>`); nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

  const AdmissionSpec& spec() const { return spec_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    double rate = 0.0;   // Tokens/second refill.
    double burst = 0.0;  // Capacity.
    double refilled_s = 0.0;
  };
  struct PendingRetry {
    double retry_at_s = 0.0;
    Request request;
    bool operator>(const PendingRetry& other) const {
      // Min-heap order: (time, id, attempt) — deterministic for any mix.
      if (retry_at_s != other.retry_at_s) {
        return retry_at_s > other.retry_at_s;
      }
      if (request.id != other.request.id) {
        return request.id > other.request.id;
      }
      return request.attempt > other.request.attempt;
    }
  };
  struct Counters {
    obs::Counter* admitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* retried = nullptr;
  };

  bool TakeToken(WorkloadId workload, double now_s);
  // Final shed vs retry decision for a request that failed admission.
  bool ShedOrRetry(Request* request, bool quota, double now_s);
  void CountFinalShed(const Request& request, bool quota);

  AdmissionSpec spec_;
  AdmissionParams params_;  // Shared fields; rate and burst are per bucket.
  std::vector<TenantConfig> tenants_;
  std::vector<AdmissionTenantSummary> stats_;
  std::vector<Bucket> buckets_;
  std::vector<Counters> counters_;
  std::priority_queue<PendingRetry, std::vector<PendingRetry>,
                      std::greater<PendingRetry>>
      retries_;
  std::int64_t removed_ = 0;
  bool quota_on_ = false;
  bool deadline_on_ = false;
  bool overload_on_ = false;
};

}  // namespace nsflow::serve
