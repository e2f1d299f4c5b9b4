// The repository benchmark driver (perfbench/README.md).
//
// One process runs one workload for a wall-clock budget through the front
// door `nsflow plan` / `nsflow serve` use — WorkloadRegistry,
// BuildPlanFrontier / PlanCapacity, RunSyntheticServe and the
// Observability exports — checks every run's output, and prints one JSON
// line:
//
//   --trace 0  the end-to-end metrics: repeated set-up + serve iterations,
//              host times reported as their 5th percentile (FastQuantile).
//   --trace 1  the per-layer metrics: each front-door call timed from
//              outside, a replica sweep, and one-layer-off ablations of
//              the planned workload.
//
// usage: nsflow_bench --workload NAME --seed N --seconds S --trace 0|1
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/observability.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

// ------------------------------------------------------------ allocations
// A counting global operator new: the benchmark measures the serve path's
// allocation rate from outside the library (engine.allocs_per_request).

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
// Out of line, so GCC does not pair an inlined free() with a new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using nsflow::Error;
using nsflow::Json;
using nsflow::JsonArray;
using nsflow::JsonObject;
namespace obs = nsflow::obs;
namespace serve = nsflow::serve;

// -------------------------------------------------------------- workloads

constexpr const char* kMix = "mlp=0.6,resnet18=0.3,nvsa=0.1";
constexpr double kSloS = 50e-3;  // The SLO sim_slo_attainment counts.

struct WorkloadSpec {
  const char* name;
  int replicas;       // Shared pool size; 0 = the planned elastic pool.
  double qps;         // Offered load (the scenario's mean rate).
  double duration_s;  // Virtual arrival-trace length of a timed serve.
  double reference_s = 0.0;  // Reference run length (sim_*, per layer).
};

// Open loop, virtual time, the same mix everywhere (README.md says why).
// A timed serve is short (10k-30k requests, milliseconds of host time) so
// that one run holds hundreds to thousands of them (see FastQuantile). The
// reference run is long (600k-2M requests): the sim_* metrics and the
// per-layer rows come from it, and its tail percentiles vary little with
// the seed.
constexpr WorkloadSpec kWorkloads[] = {
    {"pool12-steady", 12, 2000.0, 5.0, 1000.0},
    {"pool768-steady", 768, 128000.0, 0.08, 5.0},
    {"planned-elastic-traced", 0, 2000.0, 15.0, 300.0},
};
constexpr const char* kPlanned = "planned-elastic-traced";

// The planned workload's `nsflow plan` flags and `nsflow serve --plan`
// flags. `live=0` and `depth=256` keep the whole admission path running
// (Offer still counts failed replicas per arrival) without shedding
// batch-tier requests through the node outage or the backlog a short
// diurnal cycle builds, so no request fails.
constexpr const char* kPlanFlags =
    "--p99-ms 50 --budget u250 --devices 32 --nodes 2 --qps 2000 "
    "--scenario diurnal";
constexpr const char* kAdmission = "guard:rate=5000,live=0,depth=256";
constexpr const char* kTiers = "mlp=critical,resnet18=standard,nvsa=batch";

const WorkloadSpec& FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  throw Error("unknown workload '" + name + "'");
}

// The node-0 outage: a third of the way in, lasting a tenth of the run.
std::string AdversityFor(double duration_s) {
  char text[96];
  std::snprintf(text, sizeof(text), "replica-fail:node=0,at=%g,down=%g",
                duration_s / 3.0, duration_s / 10.0);
  return text;
}

std::string Describe(const WorkloadSpec& w) {
  char text[384];
  if (w.replicas > 0) {
    std::snprintf(text, sizeof(text),
                  "shared pool replicas=%d qps=%g duration_s=%g "
                  "reference_s=%g mix=%s max_batch=8 max_wait_ms=5 "
                  "scenario=poisson",
                  w.replicas, w.qps, w.duration_s, w.reference_s, kMix);
  } else {
    std::snprintf(text, sizeof(text),
                  "plan[%s mix=%s] serve[--autoscale --admission %s --tiers "
                  "%s --adversity %s duration_s=%g reference_s=%g "
                  "trace=nsft+metrics]",
                  kPlanFlags, kMix, kAdmission, kTiers,
                  AdversityFor(w.duration_s).c_str(), w.duration_s,
                  w.reference_s);
  }
  return text;
}

// ------------------------------------------------------------------ timing

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The nearest-rank 5th percentile: the host time of a repeated step when
// the shared host is not slowing it down. On a few cores of a shared
// machine neighbours contend for the shared caches in bursts, slowing the
// serve path by up to 1.8x; how much of a run they cover moves from run to
// run, and the median with it. Serves of a few milliseconds fall between
// the bursts often enough that the 5th percentile of thousands of them
// stays on the undisturbed speed.
double FastQuantile(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 20];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// --------------------------------------------------------------- set-up

// Everything the driver builds before RunSyntheticServe, with the time of
// each front-door call.
struct Deployment {
  std::unique_ptr<serve::WorkloadRegistry> registry;
  std::vector<serve::WorkloadShare> mix;
  std::vector<serve::ReplicaSpec> replicas;
  serve::ServeOptions options;
  serve::PoolPlan plan;  // Planned workload only.
  double compile_s = 0.0;
  double frontier_s = 0.0;
  double plan_s = 0.0;
};

Deployment Deploy(const WorkloadSpec& w, std::uint64_t seed,
                  double duration_s) {
  Deployment d;
  d.registry = std::make_unique<serve::WorkloadRegistry>();
  d.mix = serve::ParseMix(kMix);
  auto start = Clock::now();
  for (const serve::WorkloadShare& entry : d.mix) {
    d.registry->RegisterBuiltin(entry.workload);
  }
  d.compile_s = Since(start);

  serve::ServeOptions& o = d.options;
  o.qps = w.qps;
  o.duration_s = duration_s;
  o.seed = seed;
  if (w.replicas > 0) {
    d.replicas = d.registry->ReplicaSpecs(w.replicas, /*partitioned=*/false);
    return d;
  }

  serve::PlanOptions p;
  p.qps = w.qps;
  p.p99_slo_s = kSloS;
  p.device = "u250";
  p.devices = 32;
  p.nodes = 2;
  p.scenario = serve::ScenarioSpec::Parse("diurnal");
  start = Clock::now();
  const serve::PlanFrontier frontier =
      serve::BuildPlanFrontier(*d.registry, d.mix, p);
  d.frontier_s = Since(start);
  start = Clock::now();
  d.plan = serve::PlanCapacity(*d.registry, d.mix, p, frontier);
  d.plan_s = Since(start);
  if (!d.plan.feasible) {
    throw Error("planned-elastic-traced: infeasible plan: " + d.plan.note);
  }
  d.replicas = d.plan.Replicas();

  // What `nsflow serve --plan plan.json --autoscale ...` derives from the
  // plan.
  o.max_batch = d.plan.max_batch;
  o.per_workload_max_batch = d.plan.PerWorkloadMaxBatch();
  o.max_wait_s = d.plan.max_wait_s;
  o.scenario = d.plan.scenario;
  o.cluster = serve::ClusterSpec::Parse("least-loaded:nodes=" +
                                        std::to_string(d.plan.nodes));
  o.cluster_nodes = d.plan.Placement();
  o.autoscale = true;
  serve::AutoscaleOptions& a = o.autoscale_opts;
  a.p99_slo_s = d.plan.p99_slo_s;
  a.device = d.plan.device_name;
  a.devices = d.plan.devices;
  a.dse.clock_hz = d.plan.dse_clock_hz;
  a.dse.enable_phase2 = d.plan.dse_enable_phase2;
  a.dse.max_pes = d.plan.dse_max_pes;
  a.dictionary_bytes = d.plan.dictionary_bytes;
  o.admission = serve::AdmissionSpec::Parse(kAdmission);
  o.tiers.assign(static_cast<std::size_t>(d.registry->size()),
                 serve::SlaTier::kStandard);
  o.tiers[static_cast<std::size_t>(d.registry->IdOf("mlp"))] =
      serve::SlaTier::kCritical;
  o.tiers[static_cast<std::size_t>(d.registry->IdOf("nvsa"))] =
      serve::SlaTier::kBatch;
  o.adversity = serve::AdversitySpec::Parse(AdversityFor(duration_s));
  o.trace.enabled = true;
  return d;
}

serve::ServeReport Serve(const Deployment& d) {
  return serve::RunSyntheticServe(*d.registry, d.replicas, d.mix, d.options);
}

// ------------------------------------------------------------- checking

// FNV-1a over every virtual (seed-determined) field of a report: two runs
// of one configuration must agree bit for bit, traced or not.
class Digest {
 public:
  template <typename T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::uint64_t VirtualDigest(const serve::ServeReport& r) {
  Digest h;
  const serve::StatsSummary& s = r.summary;
  h.Add(r.generated_requests);
  h.Add(s.completed);
  h.Add(s.batches);
  for (const double v : {s.horizon_s, s.throughput_rps, s.offered_qps,
                         s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms,
                         s.mean_batch, s.mean_queue_depth}) {
    h.Add(v);
  }
  h.Add(s.max_queue_depth);
  for (const double u : s.replica_utilization) {
    h.Add(u);
  }
  for (const serve::WorkloadSummary& w : s.per_workload) {
    h.Add(w.completed);
    h.Add(w.batches);
    for (const double v : {w.p50_ms, w.p95_ms, w.p99_ms, w.mean_ms,
                           w.max_ms, w.mean_batch}) {
      h.Add(v);
    }
  }
  for (const serve::TierSummary& t : s.per_tier) {
    h.Add(t.completed);
    h.Add(t.p50_ms);
    h.Add(t.p99_ms);
  }
  for (const serve::NodeSummary& n : s.per_node) {
    h.Add(n.replicas);
    h.Add(n.batches);
    h.Add(n.remote_batches);
    h.Add(n.bytes_in);
    h.Add(n.bytes_out);
    h.Add(n.network_s);
  }
  for (const serve::PoolEvent& e : s.timeline) {
    h.Add(e.t_s);
    h.Add(e.active_replicas);
    h.Add(e.window_rate_rps);
    h.Add(e.queue_depth);
  }
  for (const serve::DispatchRecord& d : r.dispatches) {
    h.Add(d.batch_index);
    h.Add(d.replica);
    h.Add(d.workload);
    h.Add(d.start_s);
    h.Add(d.complete_s);
    h.Add(d.size);
  }
  for (const serve::PoolDelta& d : r.deltas) {
    h.Add(static_cast<int>(d.kind));
    h.Add(d.t_s);
    h.Add(d.workload);
    h.Add(d.replica);
    h.Add(d.batch_cap);
    h.Add(d.node);
  }
  for (const serve::AdmissionTenantSummary& a : r.admission) {
    h.Add(a.offered);
    h.Add(a.admitted);
    h.Add(a.shed_quota);
    h.Add(a.shed_overload);
    h.Add(a.expired);
    h.Add(a.retried);
  }
  h.Add(r.replica_seconds);
  h.Add(r.expired_dispatched);
  return h.value();
}

// One serve run's correctness verdict. A failed request is shed, expired
// or lost; a violated invariant fails the whole run.
struct Audit {
  std::int64_t generated = 0;
  std::int64_t failed = 0;
  std::vector<std::string> violations;
};

Audit AuditRun(const std::string& label, const serve::ServeReport& r,
               const obs::TraceData* trace) {
  Audit audit;
  audit.generated = r.generated_requests;
  auto violate = [&](const std::string& what) {
    audit.violations.push_back(label + ": " + what);
  };
  const serve::StatsSummary& s = r.summary;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  for (const serve::AdmissionTenantSummary& a : r.admission) {
    shed += a.shed();
    expired += a.expired;
  }
  audit.failed = std::max<std::int64_t>(0, r.generated_requests - s.completed);
  if (r.generated_requests != s.completed + shed + expired) {
    violate("conservation: generated " +
            std::to_string(r.generated_requests) + " != completed " +
            std::to_string(s.completed) + " + shed " + std::to_string(shed) +
            " + expired " + std::to_string(expired));
  }
  if (r.expired_dispatched != 0) {
    violate(std::to_string(r.expired_dispatched) +
            " expired request(s) dispatched");
  }

  std::int64_t dispatched = 0;
  std::vector<std::tuple<int, double, double>> intervals;
  intervals.reserve(r.dispatches.size());
  for (const serve::DispatchRecord& d : r.dispatches) {
    dispatched += d.size;
    intervals.emplace_back(d.replica, d.start_s, d.complete_s);
  }
  if (dispatched != s.completed) {
    violate("dispatch sizes sum to " + std::to_string(dispatched) +
            ", completed " + std::to_string(s.completed));
  }
  std::sort(intervals.begin(), intervals.end());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto& [replica, start, complete] = intervals[i];
    if (complete < start) {
      violate("batch completes before it starts on replica " +
              std::to_string(replica));
      break;
    }
    if (i > 0 && std::get<0>(intervals[i - 1]) == replica &&
        start < std::get<2>(intervals[i - 1])) {
      violate("overlapping dispatch intervals on replica " +
              std::to_string(replica));
      break;
    }
  }

  if (trace != nullptr) {
    if (trace->dropped == 0 &&
        static_cast<std::int64_t>(trace->requests.size()) != s.completed) {
      violate(std::to_string(trace->requests.size()) +
              " request spans for " + std::to_string(s.completed) +
              " completed requests");
    }
    for (const obs::RequestSpan& span : trace->requests) {
      if (!(span.arrival_s <= span.formed_s && span.formed_s <= span.start_s &&
            span.start_s <= span.complete_s)) {
        violate("span stamps out of order for request " +
                std::to_string(span.request_id));
        break;
      }
    }
  }
  return audit;
}

// Share of offered requests whose span (complete - arrival) meets the SLO.
// Shed and expired requests have no span, so they count as misses. Spans
// end at compute completion: the cluster response tail is not included.
double SloAttainment(const obs::TraceData& trace, std::int64_t generated) {
  std::int64_t met = 0;
  for (const obs::RequestSpan& span : trace.requests) {
    met += span.complete_s - span.arrival_s <= kSloS ? 1 : 0;
  }
  return generated > 0 ? static_cast<double>(met) /
                             static_cast<double>(generated)
                       : 0.0;
}

// ------------------------------------------------------------------ result

// Accumulates metrics, request counts and check failures for the final
// JSON line.
struct Result {
  JsonObject metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> violations;

  void Add(const std::string& name, double value, const char* unit) {
    metrics[name] = Json(JsonObject{{"value", value}, {"unit", unit}});
  }
  // A run of the workload itself: its requests and its violations count.
  void Count(Audit audit) {
    attempted += audit.generated;
    failed += audit.failed;
    Check(std::move(audit));
  }
  // A run of a changed configuration (an ablation): only its invariants
  // count. Sheds there are that configuration's behaviour, not failures.
  void Check(Audit audit) {
    for (std::string& v : audit.violations) {
      violations.push_back(std::move(v));
    }
  }
  void Violation(std::string what) { violations.push_back(std::move(what)); }
};

// One serve: its report, the host seconds of the RunSyntheticServe call and
// the allocations that call made.
struct Timed {
  serve::ServeReport report;
  double serve_s = 0.0;
  std::int64_t allocations = 0;

  double NsPerRequest() const {
    return serve_s * 1e9 /
           static_cast<double>(std::max<std::int64_t>(
               1, report.generated_requests));
  }
};

Timed TimeServe(const Deployment& d) {
  Timed t;
  const std::int64_t allocs = g_allocations.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  t.report = Serve(d);
  t.serve_s = Since(start);
  t.allocations = g_allocations.load(std::memory_order_relaxed) - allocs;
  return t;
}

// ------------------------------------------------------------ end to end

// Iterations rotate over this many arrival seeds derived from --seed, so
// the host times do not hang on one seed's autoscaling trajectory.
constexpr int kSubSeeds = 3;
// A set-up takes milliseconds: each iteration times this many, spread over
// the run like the serves.
constexpr int kSetupsPerIteration = 2;

// Sub-seed 0 is --seed itself.
std::uint64_t SubSeed(std::uint64_t seed, int sub) {
  return seed ^ (static_cast<std::uint64_t>(sub) * 0x9E3779B97F4A7C15ull);
}

void RunEndToEnd(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                 Result* result) {
  const bool product_traced = w.replicas == 0;
  const auto run_start = Clock::now();

  // The reference run: --seed at the reference length, product-traced and
  // untimed. It gives the sim_* metrics (its spans the SLO attainment) and
  // sets peak_rss_mb; it also warms the allocator before the timed serves.
  {
    Deployment d = Deploy(w, seed, w.reference_s);
    d.options.trace.enabled = true;
    const serve::ServeReport report = Serve(d);
    const obs::TraceData trace = report.obs->recorder.Drain();
    result->Count(AuditRun("reference run", report, &trace));
    result->Add("sim_p99_ms", report.summary.p99_ms, "ms");
    result->Add("sim_slo_attainment",
                SloAttainment(trace, report.generated_requests), "share");
    result->Add("sim_replica_seconds", report.replica_seconds, "FPGA-s");
  }

  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> ns_per_request;
  std::uint64_t digests[kSubSeeds] = {};
  double reserve_s = 0.0;  // Kept back for the traced validation run.
  for (int iteration = 0;; ++iteration) {
    const int sub = iteration % kSubSeeds;
    const std::uint64_t sub_seed = SubSeed(seed, sub);
    for (int i = 1; i < kSetupsPerIteration; ++i) {
      const auto start = Clock::now();
      const Deployment d = Deploy(w, sub_seed, w.duration_s);
      setup_s.push_back(Since(start));
    }
    const auto start = Clock::now();
    const Deployment d = Deploy(w, sub_seed, w.duration_s);
    setup_s.push_back(Since(start));
    const Timed t = TimeServe(d);
    std::size_t exported = 0;
    if (t.report.obs != nullptr) {
      exported += t.report.obs->BinaryTrace().size();
      exported += t.report.obs->MetricsJson().size();
    }
    const double wall = Since(start);
    ns_per_request.push_back(t.NsPerRequest());
    wall_s.push_back(wall);

    // Checks, outside the timed region.
    const std::string label = "iteration " + std::to_string(iteration);
    if (product_traced) {
      const obs::TraceData trace = t.report.obs->recorder.Drain();
      result->Count(AuditRun(label, t.report, &trace));
      if (exported == 0) {
        result->Violation(label + ": empty trace export");
      }
    } else {
      result->Count(AuditRun(label, t.report, nullptr));
    }
    const std::uint64_t h = VirtualDigest(t.report);
    if (iteration == 0 && !product_traced) {
      reserve_s = 1.8 * t.serve_s;
    }
    if (iteration < kSubSeeds) {
      digests[sub] = h;
    } else if (h != digests[sub]) {
      result->Violation(label + ": virtual summary differs from iteration " +
                        std::to_string(sub));
    }
    if (iteration >= 2 && Since(run_start) + wall + reserve_s > seconds) {
      break;
    }
  }
  result->Add("peak_rss_mb", PeakRssMb(), "MB");

  if (!product_traced) {
    // One product-traced run of iteration 0's configuration: its virtual
    // summary must equal the untraced one.
    Deployment d = Deploy(w, seed, w.duration_s);
    d.options.trace.enabled = true;
    const serve::ServeReport report = Serve(d);
    const obs::TraceData trace = report.obs->recorder.Drain();
    result->Count(AuditRun("traced validation run", report, &trace));
    if (VirtualDigest(report) != digests[0]) {
      result->Violation("traced run's virtual summary differs from untraced");
    }
  }
  result->Add("wall_s", FastQuantile(wall_s), "s");
  result->Add("setup_s", FastQuantile(setup_s), "s");
  result->Add("ns_per_request", FastQuantile(ns_per_request), "ns");
}

// -------------------------------------------------------------- per layer

// Nearest-rank percentile of `values` (sorted in place), milliseconds.
double PercentileMs(std::vector<double>* values, double p) {
  return values->empty()
             ? 0.0
             : serve::ServeStats::PercentileInPlace(values, p) * 1e3;
}

// Forming / queueing / service / batch-close breakdown from product spans.
void SpanMetrics(const obs::TraceData& trace, const serve::StatsSummary& s,
                 Result* result) {
  std::vector<double> forming;
  std::vector<double> queueing;
  std::vector<double> service;
  forming.reserve(trace.requests.size());
  queueing.reserve(trace.requests.size());
  service.reserve(trace.requests.size());
  for (const obs::RequestSpan& span : trace.requests) {
    forming.push_back(span.formed_s - span.arrival_s);
    queueing.push_back(span.start_s - span.formed_s);
    service.push_back(span.complete_s - span.start_s);
  }
  result->Add("batch_former.forming_wait_ms.p50", PercentileMs(&forming, 50),
              "ms");
  result->Add("batch_former.forming_wait_ms.p99", PercentileMs(&forming, 99),
              "ms");
  result->Add("server_pool.queue_wait_ms.p50", PercentileMs(&queueing, 50),
              "ms");
  result->Add("server_pool.queue_wait_ms.p99", PercentileMs(&queueing, 99),
              "ms");
  result->Add("server_pool.service_ms.p50", PercentileMs(&service, 50), "ms");
  result->Add("server_pool.service_ms.p99", PercentileMs(&service, 99), "ms");

  double closes[4] = {0, 0, 0, 0};  // Indexed by obs::BatchClose.
  for (const obs::BatchSpan& batch : trace.batches) {
    closes[static_cast<int>(batch.close) & 3] += 1.0;
  }
  const double batches =
      std::max<double>(1.0, static_cast<double>(trace.batches.size()));
  result->Add("batch_former.close_share.size_cap",
              closes[static_cast<int>(obs::BatchClose::kSizeCap)] / batches,
              "share");
  result->Add("batch_former.close_share.deadline",
              closes[static_cast<int>(obs::BatchClose::kDeadline)] / batches,
              "share");
  result->Add("batch_former.close_share.flush",
              closes[static_cast<int>(obs::BatchClose::kFlush)] / batches,
              "share");
  result->Add("server_pool.mean_batch", s.mean_batch, "requests");

  const std::vector<double>& u = s.replica_utilization;
  double sum = 0.0;
  for (const double v : u) {
    sum += v;
  }
  result->Add("server_pool.utilization.min",
              u.empty() ? 0.0 : *std::min_element(u.begin(), u.end()),
              "share");
  result->Add("server_pool.utilization.mean",
              u.empty() ? 0.0 : sum / static_cast<double>(u.size()), "share");
  result->Add("server_pool.utilization.max",
              u.empty() ? 0.0 : *std::max_element(u.begin(), u.end()),
              "share");
}

// Admission, cluster, autoscaler and planner-accuracy rows of the planned
// workload's report.
void ReportMetrics(const serve::ServeReport& r, const serve::PoolPlan& plan,
                   Result* result) {
  std::int64_t offered = 0, admitted = 0, shed = 0, retried = 0, expired = 0;
  for (const serve::AdmissionTenantSummary& a : r.admission) {
    offered += a.offered;
    admitted += a.admitted;
    shed += a.shed();
    retried += a.retried;
    expired += a.expired;
  }
  result->Add("admission.offered", static_cast<double>(offered), "count");
  result->Add("admission.admitted", static_cast<double>(admitted), "count");
  result->Add("admission.shed", static_cast<double>(shed), "count");
  result->Add("admission.retried", static_cast<double>(retried), "count");
  result->Add("admission.expired", static_cast<double>(expired), "count");
  result->Add("admission.admit_ratio",
              offered > 0 ? static_cast<double>(admitted) /
                                static_cast<double>(offered)
                          : 1.0,
              "share");

  double batches = 0.0, remote = 0.0, bytes = 0.0, network_s = 0.0;
  for (const serve::NodeSummary& n : r.summary.per_node) {
    batches += static_cast<double>(n.batches);
    remote += static_cast<double>(n.remote_batches);
    bytes += n.bytes_in + n.bytes_out;
    network_s += n.network_s;
  }
  result->Add("cluster.remote_share", batches > 0 ? remote / batches : 0.0,
              "share");
  result->Add("cluster.bytes_moved", bytes, "bytes");
  result->Add("cluster.network_ms", network_s * 1e3, "ms");

  const serve::PoolDeltaCounts deltas = serve::CountDeltas(r.deltas);
  result->Add("autoscaler.adds", deltas.adds, "count");
  result->Add("autoscaler.retires", deltas.retires, "count");
  result->Add("autoscaler.refits", deltas.refits, "count");
  result->Add("autoscaler.batch_caps", deltas.batch_caps, "count");

  for (const serve::GroupPlan& group : plan.groups) {
    double measured_ms = 0.0;
    for (const serve::WorkloadSummary& w : r.summary.per_workload) {
      if (w.name == group.workload) {
        measured_ms = w.p99_ms;
      }
    }
    result->Add("capacity_planner.p99_meas_over_pred." + group.workload,
                measured_ms / (group.predicted_p99_s * 1e3), "ratio");
  }
}

// Observability record counts and export costs of one traced report;
// returns the drained trace.
obs::TraceData ObsMetrics(const serve::ServeReport& r, Result* result) {
  auto start = Clock::now();
  const obs::TraceData trace = r.obs->recorder.Drain();
  result->Add("obs.drain_s", Since(start), "s");
  result->Add("obs.request_spans", static_cast<double>(trace.requests.size()),
              "count");
  result->Add("obs.batch_spans", static_cast<double>(trace.batches.size()),
              "count");
  result->Add("obs.instants", static_cast<double>(trace.instants.size()),
              "count");
  start = Clock::now();
  const std::size_t binary = r.obs->BinaryTrace().size();
  result->Add("obs.binary_export_s", Since(start), "s");
  result->Add("obs.binary_export_bytes", static_cast<double>(binary),
              "bytes");
  start = Clock::now();
  const std::size_t metrics = r.obs->MetricsJson().size();
  result->Add("obs.metrics_export_s", Since(start), "s");
  result->Add("obs.metrics_export_bytes", static_cast<double>(metrics),
              "bytes");
  return trace;
}

// The planned workload with one optional layer set to none / off.
struct Ablation {
  const char* layer;
  std::function<void(serve::ServeOptions*)> disable;
};

const std::vector<Ablation>& Ablations() {
  static const std::vector<Ablation> ablations = {
      {"admission",
       [](serve::ServeOptions* o) {
         o->admission = serve::AdmissionSpec{};
         o->tiers.clear();
       }},
      {"cluster",
       [](serve::ServeOptions* o) {
         o->cluster = serve::ClusterSpec{};
         o->cluster_nodes.clear();
       }},
      {"adversity",
       [](serve::ServeOptions* o) { o->adversity = serve::AdversitySpec{}; }},
      {"autoscaler", [](serve::ServeOptions* o) { o->autoscale = false; }},
      {"obs", [](serve::ServeOptions* o) { o->trace.enabled = false; }},
  };
  return ablations;
}

void RunLayers(const WorkloadSpec& w, std::uint64_t seed, double seconds,
               Result* result) {
  const auto run_start = Clock::now();
  const WorkloadSpec& planned = FindWorkload(kPlanned);

  // Set-up layers: the planned workload's compile, frontier and plan.
  {
    std::vector<double> compile_s, frontier_s, plan_s;
    Deployment d;
    for (int i = 0; i < 5; ++i) {
      d = Deploy(planned, seed, planned.duration_s);
      compile_s.push_back(d.compile_s);
      frontier_s.push_back(d.frontier_s);
      plan_s.push_back(d.plan_s);
    }
    result->Add("workload_registry.compile_s", Median(compile_s), "s");
    result->Add("workload_registry.compiles",
                static_cast<double>(d.registry->cache().misses()), "count");
    result->Add("workload_registry.cache_hits",
                static_cast<double>(d.registry->cache().hits()), "count");
    result->Add("capacity_planner.frontier_s", Median(frontier_s), "s");
    result->Add("capacity_planner.plan_s", Median(plan_s), "s");
    result->Add("capacity_planner.planned_replicas",
                d.plan.TotalReplicas(), "count");
  }

  // This workload's arrival generation and pool build + warm-up, at the
  // reference length.
  Deployment own = Deploy(w, seed, w.reference_s);
  {
    // Per-id shares, as RunSyntheticServe resolves the mix.
    std::vector<double> shares(static_cast<std::size_t>(own.registry->size()),
                               0.0);
    for (const serve::WorkloadShare& entry : own.mix) {
      shares[static_cast<std::size_t>(own.registry->IdOf(entry.workload))] =
          entry.share;
    }
    std::vector<double> generate_s, build_s;
    std::size_t arrivals = 0;
    for (int i = 0; i < 3; ++i) {
      auto start = Clock::now();
      arrivals = serve::SyntheticArrivals(own.options, shares,
                                          own.registry->Names())
                     .size();
      generate_s.push_back(Since(start));
      start = Clock::now();
      serve::ServerPool pool(own.replicas, own.registry->Dataflows());
      pool.WarmBatchSizes(own.options.max_batch);
      build_s.push_back(Since(start));
    }
    result->Add("scenario.generate_s", Median(generate_s), "s");
    result->Add("scenario.arrivals", static_cast<double>(arrivals), "count");
    result->Add("server_pool.build_warm_s", Median(build_s), "s");
  }

  // This workload served twice untraced and once traced: bit-equal
  // virtual summaries, allocations per request, and the span breakdown.
  {
    own.options.trace.enabled = false;
    const Timed first = TimeServe(own);
    result->Count(AuditRun("untraced run 1", first.report, nullptr));
    result->Add("engine.allocs_per_request",
                static_cast<double>(first.allocations) /
                    static_cast<double>(first.report.generated_requests),
                "allocs/req");
    const std::uint64_t digest = VirtualDigest(first.report);
    {
      const Timed second = TimeServe(own);
      result->Count(AuditRun("untraced run 2", second.report, nullptr));
      if (VirtualDigest(second.report) != digest) {
        result->Violation("two untraced runs differ");
      }
    }
    own.options.trace.enabled = true;
    const Timed traced = TimeServe(own);
    const obs::TraceData trace = traced.report.obs->recorder.Drain();
    result->Count(AuditRun("traced run", traced.report, &trace));
    if (VirtualDigest(traced.report) != digest) {
      result->Violation("traced run's virtual summary differs from untraced");
    }
    SpanMetrics(trace, traced.report.summary, result);
  }

  // Replica sweep: rate proportional to R, equal request counts.
  {
    constexpr int kSweep[] = {12, 48, 192, 768};
    constexpr double kRequests = 200000.0;
    std::vector<double> xs, ys;
    for (const int replicas : kSweep) {
      const WorkloadSpec point{"sweep", replicas, 2000.0 * replicas / 12.0,
                               0.0};
      const Deployment d =
          Deploy(point, seed, kRequests / point.qps);
      const Timed t = TimeServe(d);
      result->Check(AuditRun("sweep r" + std::to_string(replicas), t.report,
                             nullptr));
      result->Add("engine.ns_per_request.r" + std::to_string(replicas),
                  t.NsPerRequest(), "ns");
      xs.push_back(replicas);
      ys.push_back(t.NsPerRequest());
    }
    // Least squares ns = fixed + slope * R.
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      mx += xs[i] / static_cast<double>(xs.size());
      my += ys[i] / static_cast<double>(xs.size());
    }
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sxy += (xs[i] - mx) * (ys[i] - my);
      sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    const double slope = sxy / sxx;
    result->Add("engine.fixed_ns_per_request", my - slope * mx, "ns");
    result->Add("server_pool.scan_ns_per_replica", slope, "ns");
  }

  // The planned workload's admission, cluster, autoscaler, planner-accuracy
  // and observability rows, from one reference-length run.
  {
    const Deployment d = Deploy(planned, seed, planned.reference_s);
    const serve::ServeReport report = Serve(d);
    ReportMetrics(report, d.plan, result);
    const obs::TraceData trace = ObsMetrics(report, result);
    result->Check(AuditRun("planned report run", report, &trace));
  }

  // Ablations of the planned workload: rounds of (all layers on, one layer
  // off) pairs while the budget lasts. Each pair runs back to back, in
  // alternating order, so the slower first run after a large free does
  // not bias either side. A layer's marginal cost is the median over
  // rounds of (on - off) per request.
  {
    auto serve_ns = [&](const Ablation* ablation) {
      Deployment d = Deploy(planned, seed, planned.duration_s);
      if (ablation != nullptr) {
        ablation->disable(&d.options);
      }
      const Timed t = TimeServe(d);
      const std::string label =
          ablation == nullptr ? std::string("planned, all layers on")
                              : std::string("planned without ") +
                                    ablation->layer;
      obs::TraceData trace;
      if (t.report.obs != nullptr) {
        trace = t.report.obs->recorder.Drain();
      }
      result->Check(AuditRun(label, t.report,
                             t.report.obs != nullptr ? &trace : nullptr));
      return t.NsPerRequest();
    };
    std::vector<std::vector<double>> marginal_ns(Ablations().size());
    for (int round = 0; round < 20; ++round) {
      const auto round_start = Clock::now();
      for (std::size_t a = 0; a < Ablations().size(); ++a) {
        const Ablation* off = &Ablations()[a];
        double on_ns = 0.0;
        double off_ns = 0.0;
        if ((round + a) % 2 == 0) {
          on_ns = serve_ns(nullptr);
          off_ns = serve_ns(off);
        } else {
          off_ns = serve_ns(off);
          on_ns = serve_ns(nullptr);
        }
        marginal_ns[a].push_back(on_ns - off_ns);
      }
      if (round >= 2 && Since(run_start) + Since(round_start) > seconds) {
        break;
      }
    }
    for (std::size_t a = 0; a < Ablations().size(); ++a) {
      result->Add(std::string(Ablations()[a].layer) +
                      ".marginal_ns_per_request",
                  Median(marginal_ns[a]), "ns");
    }
  }

  // The Chrome JSON export, on one timed-length planned serve (at the
  // reference length it takes seconds and gigabytes).
  {
    const Deployment d = Deploy(planned, seed, planned.duration_s);
    const serve::ServeReport report = Serve(d);
    const auto start = Clock::now();
    const std::size_t bytes = report.obs->ChromeTraceJson().size();
    result->Add("obs.chrome_export_s", Since(start), "s");
    result->Add("obs.chrome_export_bytes", static_cast<double>(bytes),
                "bytes");
  }
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw Error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    throw Error(
        "usage: nsflow_bench --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  return args;
}

Json Fingerprint(const Args& args, const WorkloadSpec& w) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Json(JsonObject{
      {"nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", compiler},
      {"build_type", NSFLOW_BENCH_BUILD_TYPE},
      {"workload", w.name},
      {"workload_params", Describe(w)},
      {"seed", static_cast<std::int64_t>(args.seed)},
      {"seconds", args.seconds},
      {"trace", args.trace},
  });
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    const WorkloadSpec& w = FindWorkload(args.workload);
    Result result;
    if (args.trace == 0) {
      RunEndToEnd(w, args.seed, args.seconds, &result);
    } else {
      RunLayers(w, args.seed, args.seconds, &result);
    }
    const bool correct = result.violations.empty();
    JsonObject out{
        {"fingerprint", Fingerprint(args, w)},
        {"correct", correct},
        {"attempted", result.attempted},
        {"failed", correct ? result.failed : result.attempted},
        {"metrics", Json(std::move(result.metrics))},
    };
    JsonArray violations;
    for (const std::string& v : result.violations) {
      violations.emplace_back(v);
    }
    out["violations"] = Json(std::move(violations));
    std::printf("%s\n", Json(std::move(out)).Dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsflow_bench: %s\n", e.what());
    return 2;
  }
}
