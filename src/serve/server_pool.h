// ServerPool — N deployed accelerator replicas serving batches.
//
// Each replica is an `AcceleratorDesign` plus a declared workload set.
// Replicas may share a single design (homogeneous pool) or carry different
// designs from the DSE pareto set (heterogeneous pool: a few large
// low-latency replicas plus many small high-throughput ones). A pool serves
// one or more compiled workloads (dataflow graphs, usually a
// WorkloadRegistry's), each replica is deployed for a declared workload set
// (empty = all), and batches route only to replicas able to serve their
// workload.
//
// Dispatch splits into two concerns:
//   1. Cycle-model evaluation — one estimate per distinct (design kind,
//      workload, batch size) triple, held in a flat [kind][workload][batch]
//      table. Each (kind, workload) row is filled from one
//      `arch::ServingModel`: the loop equations run once per pair and every
//      batch size derives from the model in O(1) flops. The model is the
//      timing-only fast path — no `Accelerator`, no tensor movement —
//      bit-matching what a functional `RunWorkloadBatch` on a deployed
//      replica would report (tests/fastpath_test.cpp).
//   2. A deterministic schedule assigns each formed batch to the
//      earliest-available *capable* replica, ties broken by the lowest
//      replica id, and stamps per-request completion times on the virtual
//      timeline. The engine interleaves this with batch forming so
//      `EarliestFree(workload)` can stretch the forming wait while every
//      capable replica is busy.
//      The argmin lives in a dispatch index: one tournament tree over
//      `free_at` per workload for the whole pool and one per (workload,
//      cluster node). A leaf is a replica slot, empty when the replica is
//      draining, does not serve the workload, or sits on another node; an
//      internal slot holds the smaller (free_at, replica id) of its two
//      children, so `EarliestFree`, `NodeCanServe` and `Dispatch` each read
//      one root in O(1) with the lowest-id tie-break exact. A dispatch or a
//      failure re-walks only the trees of the workloads that replica
//      serves, O(W log R); a refit, drain, add or `SetReplicaNode` re-seats
//      that replica's leaves at the same cost. Construction, `DrainAll`,
//      an add past the tree capacity (which then doubles; all trees share
//      one vector) and the first replica pinned to a new node rebuild
//      every tree bottom-up — all leaves, then the internal slots from the
//      last to the root — in O(W R nodes). While every replica sits on
//      node 0 the node-0 trees are the pool-wide ones, so a single-node
//      pool keeps one tree per workload.
// Like the engine that drives it, the pool is single-threaded: same
// designs + same batch stream -> same dispatch.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arch/fastpath.h"
#include "graph/dataflow_graph.h"
#include "model/accel_model.h"
#include "obs/completion_log.h"
#include "serve/request.h"

namespace nsflow::obs {
class Counter;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

/// Sentinel for "this design's per-kernel allocation was not tuned for any
/// workload this pool serves" (always refit).
inline constexpr WorkloadId kTunedForNone = -1;

/// One replica's deployment: the accelerator design, the set of registry
/// workload ids it is provisioned to serve (empty = every workload the
/// pool knows), and which workload's DSE produced the design.
/// `tuned_for` is provenance, not preference: serving that workload keeps
/// the design's Phase II per-kernel allocation verbatim, while every other
/// workload gets a refit allocation (`RefitDesign`) — matching vector
/// sizes are *not* proof of tuning.
struct ReplicaSpec {
  AcceleratorDesign design;
  std::vector<WorkloadId> workloads;
  WorkloadId tuned_for = kTunedForNone;
};

/// One warm-reconfiguration action on a running pool — the autoscaler's
/// output unit (docs/AUTOSCALING.md). Deltas are decisions on the virtual
/// timeline: the engine applies them between arrivals, so a fixed seed
/// pins the whole (decision, action) sequence bit-exactly.
enum class PoolDeltaKind {
  kAddReplica,     // Provision a new replica for `workload` (spec payload).
  kRetireReplica,  // Drain-then-remove `replica` (in-flight work finishes).
  kRefitReplica,   // Reassign `replica` to `workload`, keeping its hardware
                   // (the per-kernel allocation is refit — RefitDesign).
  kSetBatchCap,    // Change `workload`'s forming-lane batch cap.
};

struct PoolDelta {
  PoolDeltaKind kind = PoolDeltaKind::kAddReplica;
  double t_s = 0.0;        // Virtual decision time.
  WorkloadId workload = 0; // The tenant the delta serves.
  int replica = -1;        // Target replica (retire/refit; -1 for add).
  std::int64_t batch_cap = 0;  // kSetBatchCap payload.
  ReplicaSpec spec;        // kAddReplica / kRefitReplica payload.
  std::string reason;      // Human-readable trigger ("rate 212 rps > ...").
  int node = -1;           // Cluster node the delta lands on (-1 = single
                           // box / not clustered; docs/CLUSTER.md).
};

/// Per-kind tally of a delta log — shared by the CLI epilogue, the bench
/// artifact, and the tests.
struct PoolDeltaCounts {
  int adds = 0;
  int retires = 0;
  int refits = 0;
  int batch_caps = 0;
  int total() const { return adds + retires + refits + batch_caps; }
};
PoolDeltaCounts CountDeltas(const std::vector<PoolDelta>& deltas);

/// Where one batch executed on the virtual timeline: the completion log's
/// batch record. ServerPool::Dispatch fills the schedule fields; the
/// engine fills the rest at commit.
using DispatchRecord = obs::BatchSpan;

class ServerPool {
 public:
  /// One replica per spec; `workload_dfgs[w]` is workload `w`'s compiled
  /// dataflow graph (all must outlive the pool; a WorkloadRegistry's
  /// `Dataflows()` is the usual source). Every workload must be servable by
  /// at least one replica.
  ServerPool(const std::vector<ReplicaSpec>& specs,
             std::vector<const DataflowGraph*> workload_dfgs);

  int size() const { return static_cast<int>(designs_.size()); }
  int workloads() const { return static_cast<int>(dfgs_.size()); }
  const AcceleratorDesign& design(int replica) const;
  /// Whether `replica` is deployed for `workload`.
  bool CanServe(int replica, WorkloadId workload) const;

  /// Batched service seconds for `batch_size` requests of `workload` on
  /// `replica`: a table hit, or on a miss one O(1) derivation from the
  /// (kind, workload) serving model. Counts one cache hit or miss.
  double BatchSeconds(int replica, WorkloadId workload,
                      std::int64_t batch_size);

  /// Pre-fill every (replica kind, served workload, batch size <=
  /// max_batch) entry, so later dispatches are pure table hits. A fill
  /// counts no hits or misses.
  void WarmBatchSizes(std::int64_t max_batch);

  /// One workload's warm-up as of now: the kinds deployed for it and the
  /// batch sizes up to `max_batch`. Filling it later (the overload below)
  /// fills exactly these rows, whatever replicas were added or refit in
  /// between, so a workload can warm at its first use — idle tenants
  /// never fill.
  struct WarmRows {
    WorkloadId workload = 0;
    std::int64_t max_batch = 0;
    std::vector<int> kinds;
  };
  WarmRows RowsFor(WorkloadId workload, std::int64_t max_batch) const;
  void WarmBatchSizes(const WarmRows& rows);

  /// Earliest virtual time a non-draining replica able to serve `workload`
  /// is free under the current schedule — the batch former's
  /// wait-extension signal. `node` >= 0 narrows it to replicas pinned to
  /// that cluster node (the cluster router's per-node schedule probe).
  double EarliestFree(WorkloadId workload, int node = -1) const;

  // ---- Cluster node tags (serve/cluster.h). Every replica belongs to
  // node 0 until a ClusterPool pins it elsewhere; the tags only narrow
  // dispatch when a caller passes an explicit node, so non-clustered use
  // is untouched.

  /// Pin `replica` to cluster `node` (>= 0).
  void SetReplicaNode(int replica, int node);
  /// The cluster node `replica` is pinned to (0 by default).
  int NodeOf(int replica) const;
  /// Whether `node` holds at least one non-draining replica able to serve
  /// `workload`. (Failed replicas still count — their schedule already
  /// carries the outage, so the least-loaded router prices them out while
  /// the hash router deliberately stays sticky through faults.)
  bool NodeCanServe(WorkloadId workload, int node) const;

  // ---- Warm reconfiguration (the autoscaler's PoolDelta surface). All
  // times are virtual seconds; every operation is safe mid-flight: batches
  // already dispatched complete on their replica, and future dispatch
  // routes around draining replicas.

  /// Provision a new replica per `spec`, free (and billed) from `ready_s`
  /// onward — decision time plus the warm-reconfiguration delay. Returns
  /// the new replica's index (indices are stable; retired replicas keep
  /// theirs).
  int AddReplica(const ReplicaSpec& spec, double ready_s);

  /// Begin draining `replica` at `now_s`: it takes no new batches, its
  /// in-flight batch (if any) finishes, and it retires at
  /// max(now_s, current busy horizon). Refuses to orphan a workload: every
  /// workload the replica serves must keep at least one other non-draining
  /// capable replica.
  void DrainReplica(int replica, double now_s);

  /// Whole-process graceful drain (engine shutdown, docs/ADMISSION.md):
  /// every still-active replica begins draining at `now_s` exactly as in
  /// DrainReplica, but without the no-orphan guard — nothing new is
  /// admitted past the drain point, so losing the last capable replica is
  /// the goal, not a hazard. Returns how many replicas were retired here.
  int DrainAll(double now_s);

  /// Redeploy `replica` per `spec` (typically: same hardware, a different
  /// tenant's workload set — the refit allocation applies automatically
  /// via the tuned_for provenance). The replica is unavailable until
  /// max(ready_s, its busy horizon): the in-flight batch finishes on the
  /// old deployment first. Refuses to orphan a workload, like DrainReplica.
  void RefitInPlace(int replica, const ReplicaSpec& spec, double ready_s);

  /// Whether `replica` is draining (or already retired).
  bool draining(int replica) const;
  /// When `replica` joined the pool (0 for the initial replicas).
  double AddedAt(int replica) const;
  /// When `replica` retired (+inf while active).
  double RetiredAt(int replica) const;
  /// Replicas provisioned and live at virtual time `t`: added, not yet
  /// retired, and not dark inside a failure window.
  int ActiveReplicas(double t) const;
  /// Share of the replicas provisioned at `t` (added <= t < retired) that
  /// are live there (not dark) — admission's capacity signal. 1 when none
  /// are provisioned. Memoized: the value only changes at added, retired,
  /// fail and recover instants, so it is reused for every query between
  /// the two breakpoints around the last O(R) evaluation.
  double LiveFraction(double t) const;
  /// FPGA time the pool consumed over [0, horizon_s): the integral of the
  /// active-replica count — the elastic-vs-static efficiency metric
  /// (docs/AUTOSCALING.md).
  double ReplicaSeconds(double horizon_s) const;

  // ---- Environment faults (the adversity engine's surface; adversity.h).
  // Fault state is deterministic virtual-time intervals, so health is a
  // pure function of (replica, t) and a seeded run stays bit-reproducible.

  enum class ReplicaHealth { kUp, kDerated, kFailed, kRecovering };

  /// Fail `replica` at `fail_s`: dark until `recover_s`, then `warmup_s`
  /// seconds of re-warming before it takes new work (its schedule jumps to
  /// recover_s + warmup_s, so dispatch routes around the outage on its
  /// own). Refuses to orphan a workload: everything it serves must keep
  /// another live, non-draining capable replica. The engine re-enqueues
  /// the in-flight batches it had scheduled here (no lost requests).
  void FailReplica(int replica, double fail_s, double recover_s,
                   double warmup_s = 0.0);

  /// Derate `replica`'s clock by `factor` (service times multiply) inside
  /// [from_s, until_s) — the straggler pattern. Cached cycle-model
  /// latencies stay exact; the multiplier applies at dispatch time.
  void SetDerate(int replica, double factor, double from_s, double until_s);

  /// Whether `replica` is dark at `t` (inside a [fail, recover) window).
  bool Failed(int replica, double t) const;
  /// The derate multiplier in effect on `replica` at `t` (1.0 when none).
  double DerateAt(int replica, double t) const;
  /// Health state at `t`: kFailed in [fail, recover), kRecovering in
  /// [recover, recover + warmup), kDerated inside a derate window, kUp
  /// otherwise.
  ReplicaHealth Health(int replica, double t) const;
  /// The replica's scheduled-free time (the dispatch argmin key).
  double FreeAt(int replica) const;

  /// Resolve a fault target at virtual time `t`: `requested` if it is a
  /// live (added, not retired/draining/failed) replica — additionally one
  /// whose loss orphans no workload when `for_failure` — else -1. Pass
  /// requested = -1 to pick the busiest eligible replica (max FreeAt, ties
  /// to the lowest id); returns -1 when no replica is eligible.
  int ResolveFaultTarget(int requested, double t, bool for_failure) const;

  /// Dispatch one formed batch to the earliest-available replica able to
  /// serve its workload (ties to the lowest id), advancing the schedule.
  /// `node` >= 0 narrows the candidate set to that cluster node's
  /// replicas. Only schedules: the record carries the batch index,
  /// replica, workload, start, completion and size, and recording it is
  /// the caller's commit.
  DispatchRecord Dispatch(const Batch& batch, int node = -1);

  /// Publish the latency-table hit/miss tallies into `registry`
  /// (`pool.cache_hits` / `pool.cache_misses`). Null detaches. The hot
  /// BatchSeconds path only bumps plain tallies; the counters are flushed
  /// here and on each PublishCacheMetrics call.
  void AttachMetrics(obs::MetricsRegistry* registry);
  /// Copy the current tallies into the attached counters (no-op when
  /// detached). The engine calls this at each metrics snapshot.
  void PublishCacheMetrics();
  std::int64_t cache_hits() const { return cache_hits_; }
  std::int64_t cache_misses() const { return cache_misses_; }

 private:
  /// One (kind, workload) row of the latency table. Replicas sharing a
  /// design share rows; the workload completes the key because the cycle
  /// model is a function of (design, dataflow graph, batch size).
  struct LatencyRow {
    std::optional<arch::ServingModel> model;  // Built on first fill.
    std::vector<double> seconds;  // [batch_size - 1]; < 0 = not filled.
  };

  /// Append one replica (shared by the constructor and AddReplica):
  /// design/kind bookkeeping and workload-set expansion.
  void AppendReplica(const ReplicaSpec& spec, double ready_s);
  /// Validate `spec` (tuned_for + workload ids) and expand its workload
  /// set into the per-workload coverage vector (empty set = all). Shared
  /// by AppendReplica and RefitInPlace.
  std::vector<bool> BuildServes(const ReplicaSpec& spec) const;
  /// Whether losing `replica` leaves some workload it serves (outside
  /// `keep`, when given) without another non-draining capable replica.
  /// With `live_at` set, replicas dark at that instant do not count.
  bool LossOrphans(int replica, const std::vector<bool>* keep,
                   std::optional<double> live_at) const;
  /// Kind index for `spec` (dedup against existing kinds, else a new one
  /// with an empty row per workload).
  int KindFor(const ReplicaSpec& spec);
  /// Whether a design with provenance `tuned_for` carries a tuned
  /// allocation for `workload` (same id, or two ids aliasing the same
  /// dataflow graph instance).
  bool IsTunedFor(WorkloadId tuned_for, WorkloadId workload) const;
  /// Whether some replica of `kind` is deployed for `workload`.
  bool KindServes(int kind, WorkloadId workload) const;
  LatencyRow& Row(int kind, WorkloadId workload) {
    return latency_[static_cast<std::size_t>(kind) * dfgs_.size() +
                    static_cast<std::size_t>(workload)];
  }
  /// The stored (kind, workload, batch_size) entry, or null before it is
  /// filled.
  const double* Cached(int kind, WorkloadId workload,
                       std::int64_t batch_size);
  /// Derive and store the (kind, workload, batch_size) entry, building the
  /// row's serving model on first use. Counts nothing.
  double Fill(int kind, WorkloadId workload, std::int64_t batch_size);
  /// Fill the entry unless it is already stored. Counts nothing.
  void Warm(int kind, WorkloadId workload, std::int64_t batch_size);

  // ---- Dispatch index (dispatch concern 2 in the file comment).
  /// Offset in `index_` of the tree answering (workload, node); node < 0,
  /// or any node while the index spans one node, is the pool-wide tree.
  std::size_t Tree(WorkloadId workload, int node) const;
  /// The earliest-free eligible replica of the (workload, node) tree,
  /// lowest id on ties; -1 when it has none.
  int IndexRoot(WorkloadId workload, int node) const;
  /// Tournament winner of two slots (-1 = empty): the smaller free_at,
  /// the left (lower-id) slot on ties.
  int Winner(int a, int b) const;
  /// Calls `visit(offset)` for every tree `replica` has a leaf in while
  /// seated: the pool-wide tree of each workload it serves and, once the
  /// index spans several nodes, that workload's tree for its node.
  template <typename Visit>
  void ForEachTreeOf(std::size_t replica, Visit&& visit) const;
  /// Write `replica`'s leaf in every tree it belongs to (itself when
  /// `seated`, empty otherwise) and re-walk each to the root. Call with
  /// seated = false before changing a replica's workload set, node or
  /// drain mark and seated = true after, or with seated = true alone after
  /// its free_at changed. A draining replica holds no leaves.
  void Reseat(int replica, bool seated);
  /// Size the trees for the current pool (capacity doubles until it
  /// covers every replica; node range from the tags) and fill them
  /// bottom-up with every non-draining replica.
  void RebuildIndex();

  std::vector<const DataflowGraph*> dfgs_;           // Per workload.
  std::vector<AcceleratorDesign> designs_;           // Per replica.
  std::vector<int> kind_;                            // Per replica.
  std::vector<std::vector<bool>> serves_;            // [replica][workload].
  std::vector<AcceleratorDesign> distinct_designs_;  // Per kind.
  std::vector<WorkloadId> kind_tuned_for_;           // Per kind provenance.
  std::vector<LatencyRow> latency_;                  // [kind][workload].
  std::vector<double> free_at_;                      // Per replica schedule.
  std::vector<bool> draining_;                       // No new batches.
  std::vector<double> added_at_;                     // Provisioning time.
  std::vector<double> retired_at_;                   // +inf while active.
  std::vector<int> node_of_;                         // Cluster node tag.

  /// Dispatch index storage: every tree is 2 * index_capacity_ slots of
  /// replica ids (slot 1 the root, leaves from index_capacity_ on),
  /// laid out [workload][pool-wide, node 0, node 1, ...] — W * (nodes + 1)
  /// trees once replicas span several nodes, W trees before.
  std::vector<int> index_;
  int index_capacity_ = 0;  // Leaves per tree: a power of two >= size().
  int index_nodes_ = 1;     // Node tags covered: 1 + the largest tag.

  /// Environment-fault intervals (adversity engine). Time-ordered and
  /// non-overlapping per replica; empty vectors on healthy pools keep the
  /// fast paths branch-free (`has_derates_` gates the dispatch multiply so
  /// fault-free runs stay bit-identical to pre-adversity builds).
  struct DeadSpan {
    double fail_s;     // Replica goes dark.
    double recover_s;  // Back from the dead...
    double up_s;       // ...but warming until here (recover + warmup).
  };
  struct DerateSpan {
    double from_s;
    double until_s;
    double factor;  // >= 1: service-time multiplier.
  };
  std::vector<std::vector<DeadSpan>> dead_;          // Per replica.
  std::vector<std::vector<DerateSpan>> derates_;     // Per replica.
  /// LiveFraction's last value, valid for queries in [from_s, until_s).
  /// The default interval is empty; every change to an added, retired or
  /// dead-span instant resets it.
  struct LiveMemo {
    double from_s = std::numeric_limits<double>::infinity();
    double until_s = -std::numeric_limits<double>::infinity();
    double value = 1.0;
  };
  mutable LiveMemo live_memo_;
  bool has_derates_ = false;
  std::int64_t dispatched_batches_ = 0;

  /// BatchSeconds tallies (warm fills count neither).
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  obs::Counter* cache_hit_counter_ = nullptr;     // Set by AttachMetrics.
  obs::Counter* cache_miss_counter_ = nullptr;
  std::int64_t published_hits_ = 0;    // Tally already flushed to the
  std::int64_t published_misses_ = 0;  // counters (delta publishing).
};

/// Equality on the design fields that determine serving latency (used to
/// deduplicate replica kinds).
bool SameServingDesign(const AcceleratorDesign& a, const AcceleratorDesign& b);

/// Adapt `design` to run `dfg` when the design was DSE'd for a different
/// workload: the hardware (array, memory, SIMD, clock) is fixed, but the
/// per-kernel sub-array allocation (`nl`/`nv`) is a software schedule sized
/// to the origin workload's layer list, so it is discarded and rebuilt from
/// the design's static Phase I partition resized to `dfg` (full array per
/// kernel in sequential mode, or when the graph has no VSA work to hold
/// the fold). Callers that know the design was tuned for `dfg` (see
/// `ReplicaSpec::tuned_for`) should skip the call and keep the tuned
/// allocation — matching vector sizes alone do not prove tuning.
AcceleratorDesign RefitDesign(AcceleratorDesign design,
                              const DataflowGraph& dfg);

}  // namespace nsflow::serve
