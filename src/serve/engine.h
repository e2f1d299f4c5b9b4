// NSFlow-Serve engine — the end-to-end serving loop.
//
//   Arrival generator (scenario patterns, virtual timestamps, per-workload
//   mix sampling)
//     └─> timeline (engine.cpp: each source keeps its own next instant —
//         the next fault, autoscaler tick, admission retry and arrival,
//         and the drain — and the earliest by (time, class) fires)
//           └─> MultiBatchFormer (max-batch / max-wait coalescing, one
//               lane per workload — batches never mix workloads)
//                 └─> ServerPool (N accelerator replicas, per-replica
//                     workload sets, flat latency table)
//                       └─> CompletionLog (one record per committed batch
//                           and request; ServeStats' p50/p95/p99,
//                           throughput, util and the trace read it)
//
// The engine turns the paper's one-shot `RunWorkload` accelerator into a
// throughput-oriented service: an open-loop synthetic trace with exponential
// inter-arrival times drives the pipeline for `duration_s` virtual seconds,
// and the report captures tail latency and saturation behavior. Every run
// serves a `WorkloadRegistry`: each arrival draws its workload from the
// requested QPS mix with the same RNG stream as the inter-arrival times, so
// with a fixed seed the whole run is bit-reproducible (see request.h on
// virtual time). A single-workload run is a one-entry registry and mix.
// One thread drives the whole timeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dse/dse.h"
#include "obs/observability.h"
#include "serve/admission.h"
#include "serve/adversity.h"
#include "serve/cluster.h"
#include "serve/request.h"
#include "serve/scenario.h"
#include "serve/server_pool.h"
#include "serve/serve_stats.h"
#include "serve/workload_registry.h"

namespace nsflow::serve {

/// Elastic-autoscaler knobs (docs/AUTOSCALING.md). All times are virtual
/// seconds; every decision is a pure function of windowed arrival counts
/// and forming-lane depths, so an autoscaled run stays bit-deterministic
/// under a fixed seed. The replan target fields mirror PlanOptions — the
/// control loop re-runs the capacity search (against a cached frontier)
/// at the observed rate; when serving a PoolPlan, the CLI copies these
/// from the plan.
struct AutoscaleOptions {
  // Control loop (its cadence, window and reconfiguration delay are fixed;
  // see autoscaler.cpp).
  double headroom = 0.25;    // Provision for observed * (1 + headroom).
  // Hysteresis bands around each group's provisioned (headroom-inclusive)
  // rate: replan up above up_band x provisioned, down below down_band x
  // provisioned. up_band < 1 + headroom keeps undetected drift inside the
  // provisioned capacity (docs/AUTOSCALING.md derives the invariant).
  double up_band = 1.10;
  double down_band = 0.60;
  double cooldown_s = 2.0;     // Min gap after any delta before a group
                               // may scale *down* (ups are never delayed).
  int min_replicas = 1;        // Per-workload floor.
  int max_replicas = 16;       // Per-workload ceiling (replan bound).
  // Replan target (PlanCapacity re-run per decision; the utilization cap
  // and frontier size stay at the PlanOptions defaults).
  double p99_slo_s = 50e-3;
  std::string device = "u250";
  int devices = 16;
  DseOptions dse;              // Frontier build only (one DSE, up front).
  double dictionary_bytes = 512.0 * 1024.0;
};

struct ServeOptions {
  double qps = 100.0;          // Open-loop offered load (Poisson arrivals).
  double duration_s = 1.0;     // Virtual length of the arrival trace.
  std::int64_t max_batch = 8;  // Forming-lane size cap.
  double max_wait_s = 5e-3;    // Forming-lane wait cap.
  std::uint64_t seed = 42;     // Arrival-process RNG seed.
  /// Arrival pattern (scenario.h). The default stationary Poisson
  /// reproduces the pre-scenario arrival stream bit-for-bit.
  ScenarioSpec scenario;
  /// Per-workload batch-size caps, indexed by WorkloadId (empty = every
  /// lane uses `max_batch`; entries of 0 also fall back to it). The
  /// capacity planner sets these so a latency-critical tenant can run
  /// unbatched (cap 1 — batches close at their own arrival, no forming
  /// wait) next to a throughput tenant that keeps coalescing.
  std::vector<std::int64_t> per_workload_max_batch;
  /// Elastic autoscaling (docs/AUTOSCALING.md): the engine runs an
  /// online control loop that samples windowed arrival rates,
  /// replans against a cached DSE frontier, and applies PoolDeltas (warm
  /// add / drain-retire / refit / batch-cap change) mid-run. Requires a
  /// partitioned pool — every replica dedicated to exactly one workload.
  bool autoscale = false;
  AutoscaleOptions autoscale_opts;
  /// Environment-fault injection (adversity.h): a seed-deterministic
  /// fault/straggler/churn/flash timeline composed with the traffic
  /// scenario. The default `none` pattern leaves every run bit-identical
  /// to a build without the adversity layer.
  AdversitySpec adversity;
  /// Admission frontend (docs/ADMISSION.md): with an enabled spec, every
  /// generated arrival is offered to an AdmissionController before it can
  /// enter the forming lanes — per-tenant token buckets, SLA-tier
  /// deadlines with pre-dispatch expiry sweeps, load-aware overload
  /// shedding, bounded retry/backoff, and a whole-pool graceful drain at
  /// shutdown. The default `none` spec constructs no controller and leaves
  /// every run byte-identical to a build without the admission layer.
  AdmissionSpec admission;
  /// SLA tier per WorkloadId (empty = every tenant `standard`). Only
  /// consulted when `admission` is enabled; must then be empty or have one
  /// entry per registry workload. The CLI parses `--tiers
  /// mlp=critical,resnet18=batch` into this.
  std::vector<SlaTier> tiers;
  /// Multi-node cluster serving (docs/CLUSTER.md): with an enabled spec the
  /// engine shards the pool's replicas over N nodes, routes
  /// every formed batch through the cluster router, and prices cross-node
  /// dispatch with the modeled interconnect. The default `none` spec builds
  /// no cluster and leaves every run byte-identical to a build without the
  /// cluster layer; so does an explicit one-node cluster (all routing is
  /// then local and no cluster instruments register).
  ClusterSpec cluster;
  /// Initial replica -> node placement, indexed like the replica list
  /// (empty = replica r on node r % nodes). `nsflow serve --plan` fills
  /// this from the plan's recorded placement.
  std::vector<int> cluster_nodes;
  /// Observability (docs/OBSERVABILITY.md): with `trace.enabled` the engine
  /// records every request/batch lifecycle span, autoscaler decision, and
  /// replica transition on the virtual timeline into `ServeReport::obs`,
  /// and the components publish aggregate metrics snapshotted every
  /// `obs::kSnapshotIntervalS`. Off by default: the pipeline then pays
  /// only a null check per record site.
  obs::ObsOptions trace;
};

/// One entry of a multi-tenant QPS mix: `share` of the total offered load
/// goes to the named registry workload. Shares are normalized, so
/// {mlp=0.6, nvsa=0.2} and {mlp=3, nvsa=1} describe the same mix.
struct WorkloadShare {
  std::string workload;
  double share = 0.0;
};

/// Parse a CLI mix spec "mlp=0.6,resnet18=0.3,nvsa=0.1" into shares.
std::vector<WorkloadShare> ParseMix(const std::string& spec);

struct ServeReport {
  StatsSummary summary;
  /// The run's completion log (obs/completion_log.h): every committed
  /// batch and request, in commit order. The summary, the metrics and the
  /// trace spans are all views over it.
  std::shared_ptr<const obs::CompletionLog> log;
  /// The log's batch records.
  std::span<const DispatchRecord> dispatches;
  std::int64_t generated_requests = 0;
  /// Single-request latency of each registered workload on its first
  /// capable replica — the no-batching baseline the throughput numbers are
  /// judged against.
  std::vector<double> single_request_by_workload;
  /// Autoscaler actions in decision order (empty when autoscaling is off).
  std::vector<PoolDelta> deltas;
  /// FPGA time the pool consumed: the integral of the provisioned-replica
  /// count over the run horizon. A static pool uses replicas x horizon;
  /// the elastic-vs-static efficiency ratio divides the two
  /// (docs/AUTOSCALING.md).
  double replica_seconds = 0.0;
  /// Per-tenant admission accounting (empty unless `ServeOptions::admission`
  /// enabled a controller): offered/admitted/shed/expired/retried, one row
  /// per registry workload. The CLI epilogue table and exit codes read it.
  std::vector<AdmissionTenantSummary> admission;
  /// Defensive invariant counter: requests dispatched with their start past
  /// their deadline. The pre-dispatch expiry sweep keeps this at exactly 0;
  /// the headline bench gates on it.
  std::int64_t expired_dispatched = 0;
  /// The run's observability bundle (null unless `ServeOptions::trace`
  /// enabled it): drained spans export via ChromeTraceJson()/BinaryTrace(),
  /// the metrics timeline via MetricsJson() (docs/OBSERVABILITY.md).
  std::shared_ptr<obs::Observability> obs;
};

/// A run's arrivals as a pull stream, which the engine draws from one at a
/// time (docs/ENGINE.md, "The cursor protocol"). Its source is the
/// scenario's generator (ScenarioStream), or for `trace:file=...` the
/// replayed file. `options.adversity`'s arrival-side patterns apply at the
/// stream's head: churn masks its tenant's window, and the flash crowd's
/// extras merge in, base arrivals first on equal stamps. There is exactly
/// one arrival path, so flash extras can never bypass per-tenant admission
/// accounting. Ids are the emitted index. Each arrival's workload id is
/// sampled from `shares` (normalized weights indexed by workload id) with
/// the same RNG stream; `workload_names` (indexed by id) resolves the
/// labels of a replayed trace — pass {} to ignore the labels (everything
/// then maps to workload 0), as a run serving one workload does. Every
/// arrival is stamped before `options.duration_s` (checked).
///
/// The stream buffers only what the engine may still read: arrivals from
/// the floor (SetFloor) or the cursor, whichever is earlier, up to the
/// latest time ArrivedBy has counted to. That is O(backlog), not O(run).
class ArrivalStream {
 public:
  ArrivalStream(const ServeOptions& options, const std::vector<double>& shares,
                const std::vector<std::string>& workload_names = {});

  /// The arrival at the cursor, or null after the last one. The pointer
  /// stays valid until the next call on the stream.
  const Request* Peek() {
    if (cursor_ == base_ + buffer_.size() && !Refill()) {
      return nullptr;
    }
    return &buffer_[cursor_ - base_];
  }
  /// Move the cursor past the arrival Peek returned.
  void Pop() { ++cursor_; }

  /// How many arrivals are stamped at or before `t`: std::upper_bound's
  /// answer over the whole stream, drawing ahead as far as `t` needs and
  /// galloping from the previous answer (ArrivedBy below). `t` must be at
  /// or above the floor (checked).
  std::size_t ArrivedBy(double t);

  /// No later ArrivedBy asks below `floor_s` (the engine passes its
  /// settlement watermark), so arrivals behind the cursor and stamped
  /// before it may leave the buffer. The floor never falls.
  void SetFloor(double floor_s) { floor_s_ = std::max(floor_s_, floor_s); }

  /// Room for every arrival the stream emits: exact when the source is
  /// buffered (a replayed trace or the closed loop), otherwise the
  /// scenario's expected count with four standard deviations of slack
  /// (scenario.h), plus the flash extras.
  std::size_t capacity() const { return capacity_; }
  /// Arrivals drawn so far: the stream's length once Peek returned null.
  std::size_t drawn() const { return base_ + buffer_.size(); }

  /// Every arrival, in order, as one vector (SyntheticArrivals).
  std::vector<Request> Drain() &&;

 private:
  /// Appends the next arrivals, up to a chunk, to the buffer; false when
  /// the stream is exhausted.
  bool Refill();

  ScenarioStream source_;
  ArrivalAdversity adversity_;
  double horizon_s_ = 0.0;
  std::vector<Request> staged_;  // Source arrivals churn and flash compose.
  std::size_t staged_next_ = 0;
  std::size_t next_extra_ = 0;
  std::size_t capacity_ = 0;

  std::vector<Request> buffer_;  // Arrivals base_ .. drawn() - 1.
  std::size_t base_ = 0;         // The index of buffer_[0] in the stream.
  std::size_t cursor_ = 0;       // The index Peek returns.
  std::size_t hint_ = 0;         // The previous ArrivedBy answer.
  double floor_s_ = -std::numeric_limits<double>::infinity();
};

/// Generate the arrival trace for `options`: the ArrivalStream drained
/// into a vector. Exposed for tests and for replaying the same trace
/// against different pools. The arrivals come back sorted by time.
std::vector<Request> SyntheticArrivals(const ServeOptions& options,
                                       const std::vector<double>& shares,
                                       const std::vector<std::string>&
                                           workload_names = {});

/// How many of `arrivals` (sorted by time) are stamped at or before `t`:
/// std::upper_bound's answer, found by galloping from `hint` (any index
/// in [0, arrivals.size()]) in doubling steps and binary-searching the
/// bracket, so it costs O(log |answer - hint|). ArrivalStream passes the
/// previous answer.
std::size_t ArrivedBy(std::span<const Request> arrivals, double t,
                      std::size_t hint);

/// The offered load a run actually carried: `options.qps` for rate-driven
/// scenarios, the renewal rate for closed loops (which ignore qps), and
/// the replayed count over the horizon for traces. This is what the
/// summary's `offered_qps` records and the CLI headers print.
double EffectiveOfferedRps(const ServeOptions& options,
                           std::int64_t generated_requests);

/// Run the full pipeline: every arrival draws its workload from `mix`
/// (names resolved through `registry`, which must outlive the call), the
/// former keeps one lane per workload, and each batch routes to an
/// earliest-available replica deployed for its workload. A single-workload
/// run registers its one graph and passes one `ReplicaSpec{design, {}, 0}`
/// per replica.
ServeReport RunSyntheticServe(const WorkloadRegistry& registry,
                              const std::vector<ReplicaSpec>& replicas,
                              const std::vector<WorkloadShare>& mix,
                              const ServeOptions& options);

}  // namespace nsflow::serve
