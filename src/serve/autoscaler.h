// Elastic autoscaler — online replanning and warm replica reconfiguration
// for NSFlow-Serve (docs/AUTOSCALING.md).
//
// PR 4's capacity planner provisions a *static* pool against a scenario's
// peak rate, which wastes most of the FPGA budget through the troughs of
// the very diurnal/spike/bursty patterns the scenario suite models. The
// autoscaler is the runtime counterpart: a control loop that, every
// 0.25 s of virtual time,
//
//   1. samples each workload's trailing-window arrival rate and forming
//      backlog from `ServeStats`,
//   2. compares the headroom-inflated demand against the rate the group is
//      currently provisioned for, inside hysteresis bands (scale up above
//      `up_band` x provisioned, down below `down_band` x provisioned, with
//      a cool-down on scale-downs so diurnal ramps don't thrash),
//   3. when a band is crossed, re-runs the deterministic `PlanCapacity`
//      search against a pre-built `PlanFrontier` (no DSE per decision —
//      the frontier is swept once, up front) at the observed rate, and
//   4. turns the target layout into `PoolDelta`s — warm `AddReplica`,
//      drain-then-retire, cross-tenant `RefitInPlace` (a replica freed by
//      one tenant's scale-down redeploys for a scaling-up tenant when its
//      hardware serves the new tenant at least as fast as the planned
//      design — checked against the bit-exact fast-path model), and
//      forming-lane batch-cap changes — applied to the live pool.
//
// Everything runs on the virtual timeline and every decision is a pure
// function of windowed arrival counts and lane depths, so an autoscaled
// run is bit-reproducible under a fixed seed: tests pin exact
// scale-up/scale-down sequences per scenario (tests/autoscaler_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/batch_former.h"
#include "serve/capacity_planner.h"
#include "serve/engine.h"
#include "serve/serve_stats.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"

namespace nsflow::obs {
class Counter;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

class ClusterPool;

class Autoscaler {
 public:
  /// `pool` supplies the initial layout and receives the deltas; it must
  /// be partitioned (every replica dedicated to exactly one mix workload).
  /// Construction runs the only DSE the autoscaler ever pays — the
  /// `BuildPlanFrontier` sweep over the mix workloads. `registry`, `pool`
  /// must outlive the autoscaler.
  Autoscaler(const WorkloadRegistry& registry,
             const std::vector<WorkloadShare>& mix, ServerPool& pool,
             const ServeOptions& options);

  /// Virtual time of the next control decision.
  double next_tick_s() const { return next_tick_s_; }

  /// Run the decision scheduled at `next_tick_s()`: sample `stats`,
  /// replan crossed groups, apply the deltas to the pool and `former`,
  /// record the timeline point(s) into `stats`, advance the tick clock,
  /// and return the applied deltas (often empty — inside the bands the
  /// loop only samples).
  std::vector<PoolDelta> Tick(MultiBatchFormer& former, ServeStats& stats);

  /// Publish control-loop tallies into `registry` (`autoscaler.ticks`,
  /// per-kind delta counters, deferred adds). Null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Make deltas node-aware (clustered runs, docs/CLUSTER.md): warm adds
  /// land on the cluster's least-populated node and every delta records
  /// the node it touched, so a drain on node A plus an add on node B reads
  /// as the cross-node migration it is. Null detaches (the default —
  /// deltas then carry node -1 and the pool stays single-box).
  void SetCluster(ClusterPool* cluster) { cluster_ = cluster; }

 private:
  struct Group {
    std::string workload;
    WorkloadId id = 0;
    double share = 0.0;           // Normalized mix share.
    double provisioned_rps = 0.0; // Headroom-inclusive rate the group's
                                  // current layout was sized for.
    int point_index = -1;         // Frontier point of the current design.
    std::int64_t batch_cap = 1;
    double last_delta_s = 0.0;    // Cool-down anchor.
    std::vector<int> members;     // Active replica indices, ascending.
  };

  /// What a replan decided for one group.
  struct Target {
    int group = -1;
    int replicas = 0;
    std::int64_t batch_cap = 1;
    int planned_batch = 1;  // b* of the replan (the refit admission batch).
    int point_index = -1;
    double target_rate = 0.0;
    std::string trigger;  // "rate 212.0 rps > band of 180.0 rps".
  };

  /// Re-run the capacity search for `group` at `target_rate` against the
  /// cached frontier (restricted to the group's current design point —
  /// design selection stays a planning-time decision; the control loop
  /// adjusts count, cap, and assignment).
  Target ReplanGroup(int group, double target_rate);

  /// Whether the (donor origin, frontier point) hardware serves workload
  /// `to` at least as fast as `to`'s own planned design at `batch` — the
  /// refit admission test (memoized; bit-exact fast-path latencies).
  bool RefitKeepsSlo(int donor_replica, int to_group, int batch);

  /// Whether provisioning hardware with `report`'s resources keeps the
  /// whole pool inside the aggregate `devices` x inventory budget — the
  /// invariant the static plan enforced jointly. Solo replans size one
  /// group at a time, so without this admission check simultaneous
  /// per-group spikes could overcommit the FPGA inventory.
  bool FitsBudget(const ResourceReport& report) const;

  const PlanFrontier::WorkloadEntry& EntryById(WorkloadId id) const;

  /// Members of `group` actually serving at `t` — dark (failed) replicas
  /// stay on the roster but count for nothing, so lost capacity reads as
  /// demand pressure in the band checks (replan-around-loss,
  /// docs/AUTOSCALING.md).
  int LiveMembers(const Group& group, double t) const;

  const WorkloadRegistry& registry_;
  ServerPool& pool_;
  ClusterPool* cluster_ = nullptr;  // Set by SetCluster (clustered runs).
  AutoscaleOptions opts_;
  ServeOptions serve_;       // qps/scenario/batching the run was driven at.
  PlanFrontier frontier_;
  std::vector<Group> groups_;
  /// Replica -> (origin workload id, frontier point) — the DSE provenance
  /// of its hardware, unchanged across refits.
  std::vector<std::pair<WorkloadId, int>> origin_;
  /// Replica -> its hardware's resource report (budget accounting).
  std::vector<ResourceReport> replica_resources_;
  /// Aggregate resources of the provisioned replicas. A draining
  /// replica's hardware stays counted until its actual retire time —
  /// `pending_frees_` settles at the first tick past it — so a same-tick
  /// add cannot transiently overcommit the inventory.
  PlanResources used_;
  std::vector<std::pair<double, ResourceReport>> pending_frees_;
  /// (origin workload, origin point, target workload) -> serving model of
  /// that hardware running the target (refit allocation), or nullopt when
  /// the hardware cannot run the target at all (e.g. the target's largest
  /// filter does not fit the donor's memory sizing).
  std::map<std::tuple<WorkloadId, int, WorkloadId>,
           std::optional<arch::ServingModel>>
      refit_models_;
  double next_tick_s_ = 0.0;

  // Resolved by AttachMetrics; null = metrics off.
  obs::Counter* tick_counter_ = nullptr;
  obs::Counter* add_counter_ = nullptr;
  obs::Counter* retire_counter_ = nullptr;
  obs::Counter* refit_counter_ = nullptr;
  obs::Counter* batch_cap_counter_ = nullptr;
  obs::Counter* deferred_counter_ = nullptr;
};

}  // namespace nsflow::serve
