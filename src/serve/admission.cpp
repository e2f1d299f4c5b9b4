#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/spec.h"
#include "obs/metrics.h"

namespace nsflow::serve {

const char* TierName(SlaTier tier) {
  switch (tier) {
    case SlaTier::kCritical: return "critical";
    case SlaTier::kStandard: return "standard";
    case SlaTier::kBatch: return "batch";
  }
  throw Error("unknown SLA tier");
}

SlaTier TierFromName(const std::string& name) {
  if (name == "critical") {
    return SlaTier::kCritical;
  }
  if (name == "standard") {
    return SlaTier::kStandard;
  }
  if (name == "batch") {
    return SlaTier::kBatch;
  }
  throw Error("unknown SLA tier '" + name +
              "' (known: critical, standard, batch)");
}

std::vector<SlaTier> ParseTiers(const std::string& text,
                                const std::vector<std::string>& workloads) {
  std::vector<SlaTier> tiers(workloads.size(), SlaTier::kStandard);
  const std::string shape = "name=tier, e.g. mlp=critical";
  ForEachSpecEntry(
      text, "--tiers entry", shape,
      [&](const std::string& name, const std::string& tier) {
        if (tier.empty()) {
          throw Error("bad --tiers entry '" + name + "=' (expected " + shape +
                      ")");
        }
        const SlaTier parsed = TierFromName(tier);
        const auto it = std::find(workloads.begin(), workloads.end(), name);
        if (it == workloads.end()) {
          std::string served;
          for (const std::string& w : workloads) {
            served += (served.empty() ? "" : ", ") + w;
          }
          throw Error("--tiers names unknown workload '" + name +
                      "' (this run serves: " + served + ")");
        }
        tiers[static_cast<std::size_t>(it - workloads.begin())] = parsed;
      });
  return tiers;
}

namespace {

// Indexed by AdmissionKind.
constexpr SpecName kKinds[] = {
    {"none", {}, {}},
    {"quota", {"rate", "burst", "retry", "backoff"}, {}},
    {"slo", {"deadline", "retry", "backoff"}, {}},
    {"overload", {"depth", "live", "retry", "backoff"}, {}},
    {"guard",
     {"rate", "burst", "deadline", "depth", "live", "retry", "backoff"},
     {}},
};

constexpr SpecGrammar kGrammar{"admission", "admission policy", kKinds};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

AdmissionSpec AdmissionSpec::Parse(const std::string& text) {
  ParsedSpec parsed = kGrammar.Parse(text);
  const AdmissionSpec spec{static_cast<AdmissionKind>(parsed.name),
                           std::move(parsed.params)};
  // No range check depends on the tenant's rate, and every default is
  // valid for any positive one.
  spec.Resolve(1.0);
  return spec;
}

AdmissionParams AdmissionSpec::Resolve(double tenant_rps) const {
  const SpecReader read{kGrammar, static_cast<std::size_t>(kind), params};
  AdmissionParams p;
  // An explicit rate is an absolute per-tenant contract; the default is
  // the tenant's share of the run's offered rate (a bucket sized for the
  // traffic actually aimed at it, so steady runs never quota-shed).
  p.rate = read.Number("rate", tenant_rps);
  read.Require(p.rate > 0.0 || !params.contains("rate"),
               "rate must be positive");
  p.burst = read.Number("burst", std::max(1.0, 0.25 * p.rate));
  read.Require(p.burst >= 1.0, "burst must be >= 1");
  p.deadline_s = read.Number("deadline", 0.05);
  read.Require(p.deadline_s > 0.0, "deadline must be positive");
  p.depth = read.Integer("depth", 64, 1);
  p.live = read.Number("live", 0.75);
  read.Require(p.live >= 0.0 && p.live <= 1.0,
               "live must be a fraction in [0, 1]");
  p.retry = read.Integer("retry", 1, 0);
  p.backoff_s = read.Number("backoff", 0.01);
  read.Require(p.backoff_s >= 0.0, "backoff must be non-negative");
  return p;
}

std::string AdmissionSpec::Name() const {
  return std::string(kKinds[static_cast<std::size_t>(kind)].name);
}

std::string AdmissionSpec::ToString() const {
  return kGrammar.Format(static_cast<std::size_t>(kind), params);
}

AdmissionController::AdmissionController(const AdmissionSpec& spec,
                                         std::vector<TenantConfig> tenants)
    : spec_(spec), tenants_(std::move(tenants)) {
  NSF_CHECK_MSG(!tenants_.empty(), "admission needs at least one tenant");
  quota_on_ = spec_.kind == AdmissionKind::kQuota ||
              spec_.kind == AdmissionKind::kGuard;
  deadline_on_ = spec_.kind == AdmissionKind::kSlo ||
                 spec_.kind == AdmissionKind::kGuard;
  overload_on_ = spec_.kind == AdmissionKind::kOverload ||
                 spec_.kind == AdmissionKind::kGuard;

  stats_.reserve(tenants_.size());
  buckets_.reserve(tenants_.size());
  counters_.resize(tenants_.size());
  for (const TenantConfig& tenant : tenants_) {
    AdmissionTenantSummary stat;
    stat.tenant = tenant.name;
    stat.tier = tenant.tier;
    stats_.push_back(std::move(stat));

    params_ = spec_.Resolve(tenant.offered_rps);
    Bucket bucket;
    bucket.rate = params_.rate;
    bucket.burst = params_.burst;
    bucket.tokens = bucket.burst;  // Opens full: bursts up to `burst` pass.
    // A zero-share tenant (listed in the registry, absent from the mix)
    // keeps a zero refill rate: it admits its opening burst and then
    // quota-sheds — it has no traffic contract, so any arrivals that reach
    // it (e.g. a replayed trace) are treated as over quota.
    buckets_.push_back(bucket);
  }
}

double AdmissionController::DeadlineBudget(SlaTier tier) const {
  if (!deadline_on_ || tier == SlaTier::kBatch) {
    return kInf;  // Batch is throughput traffic: no start deadline.
  }
  return tier == SlaTier::kCritical ? params_.deadline_s
                                    : 4.0 * params_.deadline_s;
}

bool AdmissionController::TakeToken(WorkloadId workload, double now_s) {
  Bucket& bucket = buckets_[static_cast<std::size_t>(workload)];
  bucket.tokens = std::min(
      bucket.burst, bucket.tokens + bucket.rate * (now_s - bucket.refilled_s));
  bucket.refilled_s = now_s;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  return false;
}

void AdmissionController::CountFinalShed(const Request& request, bool quota) {
  const auto w = static_cast<std::size_t>(request.workload);
  if (quota) {
    ++stats_[w].shed_quota;
  } else {
    ++stats_[w].shed_overload;
  }
  ++removed_;
  if (counters_[w].shed != nullptr) {
    counters_[w].shed->Increment();
  }
}

bool AdmissionController::ShedOrRetry(Request* request, bool quota,
                                      double now_s) {
  const auto w = static_cast<std::size_t>(request->workload);
  if (request->tier == SlaTier::kStandard &&
      request->attempt < params_.retry) {
    // Exponential backoff from the *current* offer time; the deadline
    // stays anchored at the original arrival (the client's contract).
    PendingRetry retry;
    retry.retry_at_s =
        now_s + params_.backoff_s * std::ldexp(1.0, request->attempt);
    retry.request = *request;
    retry.request.arrival_s = retry.retry_at_s;
    ++retry.request.attempt;
    retries_.push(std::move(retry));
    ++stats_[w].retried;
    if (counters_[w].retried != nullptr) {
      counters_[w].retried->Increment();
    }
    return false;
  }
  CountFinalShed(*request, quota);
  return false;
}

bool AdmissionController::Offer(Request* request, std::int64_t backlog,
                                double live_fraction) {
  NSF_CHECK(request != nullptr);
  const auto w = static_cast<std::size_t>(request->workload);
  NSF_CHECK_MSG(w < tenants_.size(), "offer for an unknown tenant");
  ++stats_[w].offered;
  request->tier = tenants_[w].tier;
  if (request->attempt == 0) {
    request->deadline_s = request->arrival_s + DeadlineBudget(request->tier);
  }
  // A retry re-offered at or past its original deadline can no longer
  // start in time: shed it instead of admitting doomed work.
  if (request->arrival_s > request->deadline_s) {
    CountFinalShed(*request, /*quota=*/false);
    return false;
  }
  if (quota_on_ && !TakeToken(request->workload, request->arrival_s)) {
    return ShedOrRetry(request, /*quota=*/true, request->arrival_s);
  }
  if (overload_on_) {
    // Lowest tier first: batch sheds at the first overload signal (deep
    // backlog *or* degraded pool), standard only under 4x-deep backlog,
    // critical never load-sheds.
    const bool overloaded =
        backlog >= params_.depth || live_fraction < params_.live;
    if (overloaded && request->tier == SlaTier::kBatch) {
      CountFinalShed(*request, /*quota=*/false);
      return false;
    }
    if (backlog >= 4 * std::int64_t{params_.depth} &&
        request->tier == SlaTier::kStandard) {
      return ShedOrRetry(request, /*quota=*/false, request->arrival_s);
    }
  }
  ++stats_[w].admitted;
  if (counters_[w].admitted != nullptr) {
    counters_[w].admitted->Increment();
  }
  return true;
}

double AdmissionController::NextRetryAt() const {
  return retries_.empty() ? kInf : retries_.top().retry_at_s;
}

Request AdmissionController::PopRetry() {
  NSF_CHECK_MSG(!retries_.empty(), "no pending retry to pop");
  Request request = retries_.top().request;
  retries_.pop();
  return request;
}

std::int64_t AdmissionController::CloseRetries() {
  std::int64_t closed = 0;
  while (!retries_.empty()) {
    // Shutdown: the frontend stops admitting, so a pending retry can never
    // re-enter — it finalizes as an overload shed.
    CountFinalShed(retries_.top().request, /*quota=*/false);
    retries_.pop();
    ++closed;
  }
  return closed;
}

std::int64_t AdmissionController::SweepExpired(Batch* batch, double start_s) {
  NSF_CHECK(batch != nullptr);
  auto& requests = batch->requests;
  std::int64_t removed = 0;
  const auto expired = [&](const Request& request) {
    if (start_s <= request.deadline_s) {
      return false;
    }
    const auto w = static_cast<std::size_t>(request.workload);
    ++stats_[w].expired;
    ++removed_;
    if (counters_[w].expired != nullptr) {
      counters_[w].expired->Increment();
    }
    ++removed;
    return true;
  };
  requests.erase(std::remove_if(requests.begin(), requests.end(), expired),
                 requests.end());
  return removed;
}

SlaTier AdmissionController::TierOf(WorkloadId workload) const {
  NSF_CHECK(workload >= 0 &&
            static_cast<std::size_t>(workload) < tenants_.size());
  return tenants_[static_cast<std::size_t>(workload)].tier;
}

std::vector<AdmissionTenantSummary> AdmissionController::Summaries() const {
  return stats_;
}

int AdmissionExitCode(const std::vector<AdmissionTenantSummary>& rows) {
  bool critical_loss = false;
  bool standard_loss = false;
  for (const AdmissionTenantSummary& row : rows) {
    if (row.shed() > 0 || row.expired > 0) {
      if (row.tier == SlaTier::kCritical) {
        critical_loss = true;
      } else if (row.tier == SlaTier::kStandard) {
        standard_loss = true;
      }
    }
  }
  if (critical_loss) {
    return 4;
  }
  return standard_loss ? 5 : 0;
}

void AdmissionController::AttachMetrics(obs::MetricsRegistry* registry) {
  for (std::size_t w = 0; w < tenants_.size(); ++w) {
    if (registry == nullptr) {
      counters_[w] = Counters{};
      continue;
    }
    const std::string& tenant = tenants_[w].name;
    counters_[w].admitted = registry->GetCounter("admission.admitted." + tenant);
    counters_[w].shed = registry->GetCounter("admission.shed." + tenant);
    counters_[w].expired = registry->GetCounter("admission.expired." + tenant);
    counters_[w].retried = registry->GetCounter("admission.retried." + tenant);
  }
}

}  // namespace nsflow::serve
