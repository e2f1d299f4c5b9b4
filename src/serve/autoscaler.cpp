#include "serve/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "arch/fastpath.h"
#include "common/error.h"
#include "fpga/resource_model.h"
#include "obs/metrics.h"
#include "serve/cluster.h"

namespace nsflow::serve {
namespace {

// Control-loop timing, virtual seconds (docs/AUTOSCALING.md).
constexpr double kIntervalS = 0.25;  // Decision cadence.
constexpr double kWindowS = 1.0;     // Trailing rate-observation window.
constexpr double kReconfigS = 0.02;  // Warm add/refit readiness delay.

std::string Rps(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", rate);
  return buf;
}

void Account(PlanResources& used, const ResourceReport& report,
             double sign) {
  used.dsp += sign * report.dsp;
  used.lut += sign * report.lut;
  used.ff += sign * report.ff;
  used.bram18 += sign * report.bram18;
  used.uram += sign * report.uram;
}

}  // namespace

Autoscaler::Autoscaler(const WorkloadRegistry& registry,
                       const std::vector<WorkloadShare>& mix,
                       ServerPool& pool, const ServeOptions& options)
    : registry_(registry),
      pool_(pool),
      opts_(options.autoscale_opts),
      serve_(options) {
  NSF_CHECK_MSG(!mix.empty(), "autoscaler needs a workload mix");
  NSF_CHECK_MSG(opts_.headroom > 0.0, "autoscale headroom must be positive");
  NSF_CHECK_MSG(opts_.down_band > 0.0 && opts_.down_band < opts_.up_band,
                "hysteresis bands need 0 < down_band < up_band");
  NSF_CHECK_MSG(opts_.up_band < 1.0 + opts_.headroom,
                "up_band must stay below 1 + headroom, or drift inside the "
                "dead band can exceed the provisioned capacity "
                "(docs/AUTOSCALING.md)");
  NSF_CHECK_MSG(opts_.cooldown_s >= 0.0, "cool-down must be non-negative");
  NSF_CHECK_MSG(opts_.min_replicas >= 1 &&
                    opts_.min_replicas <= opts_.max_replicas,
                "need 1 <= min_replicas <= max_replicas");

  // The only DSE the autoscaler ever runs: the frontier sweep, up front.
  PlanOptions frontier_options;
  frontier_options.device = opts_.device;
  frontier_options.devices = opts_.devices;
  frontier_options.dse = opts_.dse;
  frontier_options.dictionary_bytes = opts_.dictionary_bytes;
  frontier_ = BuildPlanFrontier(registry, mix, frontier_options);

  double total_share = 0.0;
  for (const WorkloadShare& entry : mix) {
    NSF_CHECK_MSG(entry.share > 0.0, "mix shares must be positive");
    total_share += entry.share;
  }
  // Groups start provisioned for the scenario's peak share — the static
  // plan's sizing — so a run opening in a trough scales down, and a
  // peak-provisioned pool never scales up past what the plan deployed
  // until observed demand actually exceeds it.
  const double peak_rate =
      ScenarioPeakRate(serve_.scenario, serve_.qps, serve_.duration_s);
  for (const WorkloadShare& entry : mix) {
    Group group;
    group.workload = entry.workload;
    group.id = registry.IdOf(entry.workload);
    group.share = entry.share / total_share;
    group.provisioned_rps =
        peak_rate * group.share * (1.0 + opts_.headroom);
    const auto cap_index = static_cast<std::size_t>(group.id);
    group.batch_cap =
        cap_index < serve_.per_workload_max_batch.size() &&
                serve_.per_workload_max_batch[cap_index] > 0
            ? serve_.per_workload_max_batch[cap_index]
            : serve_.max_batch;
    group.last_delta_s = -std::numeric_limits<double>::infinity();
    groups_.push_back(std::move(group));
  }

  // Adopt the live pool's layout: every replica must be dedicated to
  // exactly one mix workload (partitioned pool — `nsflow plan` emits one).
  origin_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int r = 0; r < pool_.size(); ++r) {
    WorkloadId served = kTunedForNone;
    for (int w = 0; w < pool_.workloads(); ++w) {
      if (pool_.CanServe(r, w)) {
        NSF_CHECK_MSG(served == kTunedForNone,
                      "autoscaling needs a partitioned pool — replica " +
                          std::to_string(r) +
                          " serves more than one workload");
        served = w;
      }
    }
    Group* group = nullptr;
    for (Group& candidate : groups_) {
      if (candidate.id == served) {
        group = &candidate;
        break;
      }
    }
    NSF_CHECK_MSG(group != nullptr,
                  "replica " + std::to_string(r) +
                      " serves a workload outside the autoscaled mix");
    group->members.push_back(r);

    // Resolve the replica's hardware to its workload's frontier point (the
    // deployed design came from the same deterministic DSE the frontier
    // re-ran, so planned pools always match).
    const PlanFrontier::WorkloadEntry& entry = EntryById(served);
    int point = -1;
    for (std::size_t p = 0; p < entry.points.size(); ++p) {
      if (SameServingDesign(entry.points[p].design, pool_.design(r))) {
        point = static_cast<int>(p);
        break;
      }
    }
    origin_.emplace_back(served, point);
    // Budget accounting: frontier-resolved hardware reuses the swept
    // resource report; off-frontier hardware is estimated once here.
    replica_resources_.push_back(
        point >= 0
            ? entry.resources[static_cast<std::size_t>(point)]
            : EstimateResources(pool_.design(r), frontier_.device));
    Account(used_, replica_resources_.back(), +1.0);
  }
  for (Group& group : groups_) {
    NSF_CHECK_MSG(!group.members.empty(),
                  "workload '" + group.workload +
                      "' has no replica in the initial pool");
    group.point_index = origin_[static_cast<std::size_t>(
                                    group.members.front())]
                            .second;
    for (const int member : group.members) {
      if (origin_[static_cast<std::size_t>(member)].second !=
          group.point_index) {
        group.point_index = -1;  // Mixed designs: let the replan choose.
        break;
      }
    }
  }

  next_tick_s_ = kIntervalS;
}

bool Autoscaler::FitsBudget(const ResourceReport& report) const {
  const FpgaDevice& device = frontier_.device;
  const auto budget = static_cast<double>(opts_.devices);
  return used_.dsp + report.dsp <=
             budget * static_cast<double>(device.dsp) &&
         used_.lut + report.lut <=
             budget * static_cast<double>(device.lut) &&
         used_.ff + report.ff <= budget * static_cast<double>(device.ff) &&
         used_.bram18 + report.bram18 <=
             budget * static_cast<double>(device.bram18) &&
         used_.uram + report.uram <=
             budget * static_cast<double>(device.uram);
}

const PlanFrontier::WorkloadEntry& Autoscaler::EntryById(
    WorkloadId id) const {
  for (const PlanFrontier::WorkloadEntry& entry : frontier_.workloads) {
    if (entry.workload_id == id) {
      return entry;
    }
  }
  throw Error("no frontier entry for workload id " + std::to_string(id));
}

Autoscaler::Target Autoscaler::ReplanGroup(int group_index,
                                           double target_rate) {
  Group& group = groups_[static_cast<std::size_t>(group_index)];
  Target target;
  target.group = group_index;
  target.target_rate = target_rate;
  if (target_rate <= 0.0) {
    // A silent tenant parks at the floor on its current design.
    target.replicas = opts_.min_replicas;
    target.batch_cap = group.batch_cap;
    target.point_index = group.point_index;
    return target;
  }

  // The capacity search at the observed rate. The scenario is stationary
  // Poisson on purpose: the windowed rate *is* the instantaneous demand —
  // peak-shaping already happened in the observation.
  PlanOptions replan;
  replan.qps = target_rate;
  replan.p99_slo_s = opts_.p99_slo_s;
  replan.device = opts_.device;
  replan.devices = opts_.devices;
  replan.max_replicas_per_workload = opts_.max_replicas;
  replan.max_batch = serve_.max_batch;
  replan.max_wait_s = serve_.max_wait_s;

  // Design selection stays a planning-time decision: the replan is
  // restricted to the group's current frontier point (count, batch cap,
  // and assignment are the control loop's degrees of freedom), except
  // when the current design is off-frontier — then the full sweep picks.
  const PlanFrontier::WorkloadEntry& entry = EntryById(group.id);
  PlanFrontier restricted;
  restricted.device = frontier_.device;
  if (group.point_index >= 0) {
    PlanFrontier::WorkloadEntry one;
    one.workload = entry.workload;
    one.workload_id = entry.workload_id;
    const auto p = static_cast<std::size_t>(group.point_index);
    one.points = {entry.points[p]};
    one.models = {entry.models[p]};
    one.resources = {entry.resources[p]};
    restricted.workloads.push_back(std::move(one));
  } else {
    restricted.workloads.push_back(entry);
  }

  const std::vector<WorkloadShare> solo = {{group.workload, 1.0}};
  const PoolPlan plan = PlanCapacity(registry_, solo, replan, restricted);
  const GroupPlan& planned = plan.groups.front();
  if (planned.replicas <= 0) {
    // No frontier design fits the budget device at all — impossible for a
    // deployed group, but keep the pool as-is rather than acting blind.
    target.replicas = static_cast<int>(group.members.size());
    target.batch_cap = group.batch_cap;
    target.point_index = group.point_index;
    return target;
  }
  target.replicas =
      std::clamp(planned.replicas, opts_.min_replicas, opts_.max_replicas);
  target.batch_cap = planned.batch_cap;
  target.planned_batch = planned.planned_batch;
  target.point_index = group.point_index;
  for (std::size_t p = 0; p < entry.points.size(); ++p) {
    if (entry.points[p].pe_budget == planned.pe_budget) {
      target.point_index = static_cast<int>(p);
      break;
    }
  }
  return target;
}

bool Autoscaler::RefitKeepsSlo(int donor_replica, int to_group, int batch) {
  const auto [origin_workload, origin_point] =
      origin_[static_cast<std::size_t>(donor_replica)];
  const Group& to = groups_[static_cast<std::size_t>(to_group)];
  if (origin_point < 0 || to.point_index < 0) {
    return false;  // Off-frontier hardware: no model to admit against.
  }
  const auto key = std::make_tuple(origin_workload, origin_point, to.id);
  auto it = refit_models_.find(key);
  if (it == refit_models_.end()) {
    const PlanFrontier::WorkloadEntry& donor_entry =
        EntryById(origin_workload);
    const DataflowGraph& dfg = registry_.dataflow(to.id);
    // Two registry names aliasing one compiled graph keep the tuned
    // allocation (the pool applies the same rule — IsTunedFor).
    const bool tuned = &registry_.dataflow(origin_workload) == &dfg;
    std::optional<arch::ServingModel> model;
    try {
      model = arch::BuildServingModel(
          donor_entry.points[static_cast<std::size_t>(origin_point)].design,
          dfg, tuned);
    } catch (const std::exception&) {
      // The donor hardware cannot run the target at all (its memory
      // sizing was DSE'd for a different workload) — simply inadmissible.
      model = std::nullopt;
    }
    it = refit_models_.emplace(key, std::move(model)).first;
  }
  if (!it->second.has_value()) {
    return false;
  }
  // Admit only when the homogeneous queueing bound stays conservative:
  // the refit replica must serve the target at least as fast as the
  // design the replan sized the group with.
  const PlanFrontier::WorkloadEntry& to_entry = EntryById(to.id);
  return it->second->BatchSeconds(batch) <=
         to_entry.models[static_cast<std::size_t>(to.point_index)]
             .BatchSeconds(batch);
}

void Autoscaler::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tick_counter_ = nullptr;
    add_counter_ = nullptr;
    retire_counter_ = nullptr;
    refit_counter_ = nullptr;
    batch_cap_counter_ = nullptr;
    deferred_counter_ = nullptr;
    return;
  }
  tick_counter_ = registry->GetCounter("autoscaler.ticks");
  add_counter_ = registry->GetCounter("autoscaler.adds");
  retire_counter_ = registry->GetCounter("autoscaler.retires");
  refit_counter_ = registry->GetCounter("autoscaler.refits");
  batch_cap_counter_ = registry->GetCounter("autoscaler.batch_caps");
  deferred_counter_ = registry->GetCounter("autoscaler.deferred_adds");
}

int Autoscaler::LiveMembers(const Group& group, double t) const {
  int live = 0;
  for (const int member : group.members) {
    if (!pool_.Failed(member, t)) {
      ++live;
    }
  }
  return live;
}

std::vector<PoolDelta> Autoscaler::Tick(MultiBatchFormer& former,
                                        ServeStats& stats) {
  const double t = next_tick_s_;
  next_tick_s_ += kIntervalS;
  const double window = std::min(kWindowS, t);
  if (tick_counter_ != nullptr) {
    tick_counter_->Increment();
  }

  // Settle the budget of drained replicas that have now actually retired.
  for (std::size_t i = 0; i < pending_frees_.size();) {
    if (pending_frees_[i].first <= t) {
      Account(used_, pending_frees_[i].second, -1.0);
      pending_frees_.erase(pending_frees_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // 1. Sample every group's trailing window; collect band crossings.
  std::vector<Target> targets;
  double total_rate = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    const double rate =
        window > 0.0
            ? static_cast<double>(
                  stats.ArrivalsInWindow(group.id, t - window, t)) /
                  window
            : 0.0;
    total_rate += rate;
    // Backlog folds into demand as "drain it within one window".
    const double demand =
        rate + static_cast<double>(former.pending(group.id)) / kWindowS;
    const double target_rate = demand * (1.0 + opts_.headroom);
    // Lost capacity is demand pressure: a dark member serves nothing, so
    // the hysteresis bands center on the surviving share of the
    // provisioned rate. All-live groups keep the exact fault-free math.
    const int live = LiveMembers(group, t);
    const double provisioned =
        group.members.empty() ||
                live == static_cast<int>(group.members.size())
            ? group.provisioned_rps
            : group.provisioned_rps * static_cast<double>(live) /
                  static_cast<double>(group.members.size());
    const bool up = target_rate > opts_.up_band * provisioned;
    const bool down =
        target_rate < opts_.down_band * provisioned &&
        t - group.last_delta_s >= opts_.cooldown_s;
    if (!up && !down) {
      continue;  // Inside the dead band: sample only.
    }
    Target target = ReplanGroup(static_cast<int>(g), target_rate);
    target.trigger =
        "'" + group.workload + "' demand " + Rps(target_rate) + " rps " +
        (up ? "above" : "below") + " band of provisioned " +
        Rps(provisioned) + " rps";
    // Re-center the hysteresis bands on what we just sized for, even when
    // the integer replica count ends up unchanged.
    group.provisioned_rps = target_rate;
    group.point_index = target.point_index;
    targets.push_back(std::move(target));
  }

  // Periodic timeline sample (pre-delta state).
  PoolEvent sample;
  sample.t_s = t;
  sample.active_replicas = pool_.ActiveReplicas(t);
  sample.window_rate_rps = total_rate;
  sample.queue_depth = former.total_pending();
  stats.RecordPoolEvent(sample);

  if (targets.empty()) {
    return {};
  }

  // 2. Free the excess of every scaling-down group first (newest members
  // shed first), so scaling-up groups can adopt the freed hardware.
  struct Freed {
    int replica;
    int group;
  };
  std::vector<Freed> freed;
  for (const Target& target : targets) {
    Group& group = groups_[static_cast<std::size_t>(target.group)];
    // Shed the newest *live* members — a dark replica is not hardware we
    // can hand to another tenant (it stays on the roster until recovery).
    int live = LiveMembers(group, t);
    for (std::size_t i = group.members.size();
         i-- > 0 && live > target.replicas;) {
      const int member = group.members[i];
      if (pool_.Failed(member, t)) {
        continue;
      }
      freed.push_back(Freed{member, target.group});
      group.members.erase(group.members.begin() +
                          static_cast<std::ptrdiff_t>(i));
      --live;
    }
  }

  std::vector<PoolDelta> applied;
  const auto record = [&](PoolDelta delta) {
    obs::Counter* counter = nullptr;
    switch (delta.kind) {
      case PoolDeltaKind::kAddReplica: counter = add_counter_; break;
      case PoolDeltaKind::kRetireReplica: counter = retire_counter_; break;
      case PoolDeltaKind::kRefitReplica: counter = refit_counter_; break;
      case PoolDeltaKind::kSetBatchCap: counter = batch_cap_counter_; break;
    }
    if (counter != nullptr) {
      counter->Increment();
    }
    PoolEvent event;
    event.t_s = t;
    event.kind = PoolEventKind::kDecision;
    event.event = delta.reason;
    event.active_replicas = pool_.ActiveReplicas(t);
    event.window_rate_rps = total_rate;
    event.queue_depth = former.total_pending();
    stats.RecordPoolEvent(std::move(event));
    applied.push_back(std::move(delta));
  };

  // 3. Fulfill scale-ups: refit freed hardware when it keeps the SLO,
  // provision fresh replicas otherwise.
  for (const Target& target : targets) {
    Group& group = groups_[static_cast<std::size_t>(target.group)];
    bool deferred = false;
    // Size against serving members: a dark replica contributes nothing, so
    // single-replica loss re-triggers an add here one tick after the fault.
    while (!deferred && LiveMembers(group, t) < target.replicas) {
      PoolDelta delta;
      delta.t_s = t;
      delta.workload = group.id;

      int donor = -1;
      for (std::size_t f = 0; f < freed.size(); ++f) {
        if (RefitKeepsSlo(freed[f].replica, target.group,
                          target.planned_batch)) {
          donor = static_cast<int>(f);
          break;
        }
      }
      if (donor >= 0) {
        const Freed from = freed[static_cast<std::size_t>(donor)];
        freed.erase(freed.begin() + donor);
        delta.kind = PoolDeltaKind::kRefitReplica;
        delta.replica = from.replica;
        if (cluster_ != nullptr && cluster_->nodes() > 1) {
          delta.node = pool_.NodeOf(from.replica);
        }
        delta.spec.design = pool_.design(from.replica);
        delta.spec.workloads = {group.id};
        delta.spec.tuned_for =
            origin_[static_cast<std::size_t>(from.replica)].first;
        delta.reason =
            "refit replica " + std::to_string(from.replica) + " from '" +
            groups_[static_cast<std::size_t>(from.group)].workload +
            "': " + target.trigger;
        pool_.RefitInPlace(from.replica, delta.spec, t + kReconfigS);
        group.members.insert(
            std::lower_bound(group.members.begin(), group.members.end(),
                             from.replica),
            from.replica);
        // The donation *is* the donor's scale-down — anchor its cool-down
        // exactly like a retire would.
        groups_[static_cast<std::size_t>(from.group)].last_delta_s = t;
      } else {
        const PlanFrontier::WorkloadEntry& entry = EntryById(group.id);
        const int point = target.point_index >= 0 ? target.point_index : 0;
        const ResourceReport& needed =
            entry.resources[static_cast<std::size_t>(point)];
        if (!FitsBudget(needed)) {
          // The aggregate inventory is spoken for — the same wall the
          // static planner would have hit. Park at the current size; the
          // next band crossing retries with whatever freed up by then.
          PoolEvent capped;
          capped.t_s = t;
          capped.kind = PoolEventKind::kDeferred;
          capped.event = "budget exhausted, add deferred: " + target.trigger;
          capped.active_replicas = pool_.ActiveReplicas(t);
          capped.window_rate_rps = total_rate;
          capped.queue_depth = former.total_pending();
          stats.RecordPoolEvent(std::move(capped));
          if (deferred_counter_ != nullptr) {
            deferred_counter_->Increment();
          }
          deferred = true;
          continue;
        }
        delta.kind = PoolDeltaKind::kAddReplica;
        delta.spec.design =
            entry.points[static_cast<std::size_t>(point)].design;
        delta.spec.workloads = {group.id};
        delta.spec.tuned_for = group.id;
        // Cross-node placement (docs/CLUSTER.md): pick the warm-add's node
        // before the add so the new replica's own default tag (node 0)
        // cannot bias the population count. A drain on one node plus this
        // add on the emptiest one is the cluster's migration primitive.
        // One-node clusters skip all of it — their reason strings (and
        // with them the stats timeline and trace) must stay byte-identical
        // to a cluster-free run.
        const bool multi_node = cluster_ != nullptr && cluster_->nodes() > 1;
        const int add_node =
            multi_node ? cluster_->LeastPopulatedNode() : -1;
        delta.replica = pool_.AddReplica(delta.spec, t + kReconfigS);
        if (multi_node) {
          cluster_->AssignReplica(delta.replica, add_node);
          delta.node = add_node;
        }
        delta.reason =
            "add replica " + std::to_string(delta.replica) +
            (multi_node ? " on node " + std::to_string(add_node) : "") +
            ": " + target.trigger;
        stats.AddReplicaSlot();
        origin_.emplace_back(group.id, point);
        replica_resources_.push_back(needed);
        Account(used_, needed, +1.0);
        group.members.push_back(delta.replica);  // Highest index so far.
      }
      group.last_delta_s = t;
      record(std::move(delta));
    }
    if (deferred && target.replicas > 0) {
      // The group is sized for less than the target: re-center the bands
      // on the capacity actually achieved, so steady demand keeps
      // re-triggering the up-replan and the add retries as soon as the
      // budget frees.
      group.provisioned_rps =
          target.target_rate *
          static_cast<double>(group.members.size()) /
          static_cast<double>(target.replicas);
    }
  }

  // 4. Retire whatever freed hardware nobody adopted (drain-then-remove).
  for (const Freed& from : freed) {
    Group& group = groups_[static_cast<std::size_t>(from.group)];
    PoolDelta delta;
    delta.kind = PoolDeltaKind::kRetireReplica;
    delta.t_s = t;
    delta.workload = group.id;
    delta.replica = from.replica;
    if (cluster_ != nullptr && cluster_->nodes() > 1) {
      delta.node = pool_.NodeOf(from.replica);
    }
    for (const Target& target : targets) {
      if (target.group == from.group) {
        delta.reason = "retire replica " + std::to_string(from.replica) +
                       ": " + target.trigger;
        break;
      }
    }
    pool_.DrainReplica(from.replica, t);
    // The hardware stays occupied until the in-flight batch finishes.
    pending_frees_.emplace_back(
        pool_.RetiredAt(from.replica),
        replica_resources_[static_cast<std::size_t>(from.replica)]);
    group.last_delta_s = t;
    record(std::move(delta));
  }

  // 5. Forming-lane batch-cap changes.
  for (const Target& target : targets) {
    Group& group = groups_[static_cast<std::size_t>(target.group)];
    if (target.batch_cap == group.batch_cap) {
      continue;
    }
    PoolDelta delta;
    delta.kind = PoolDeltaKind::kSetBatchCap;
    delta.t_s = t;
    delta.workload = group.id;
    delta.batch_cap = target.batch_cap;
    delta.reason = "batch cap " + std::to_string(group.batch_cap) + " -> " +
                   std::to_string(target.batch_cap) + ": " + target.trigger;
    former.SetPolicy(group.id,
                     BatchPolicy{target.batch_cap, serve_.max_wait_s});
    group.batch_cap = target.batch_cap;
    group.last_delta_s = t;
    record(std::move(delta));
  }

  return applied;
}

}  // namespace nsflow::serve
