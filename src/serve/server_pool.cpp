#include "serve/server_pool.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "arch/fastpath.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace nsflow::serve {

namespace {
constexpr double kUnfilled = -1.0;  // Latency-table slot not derived yet.
}  // namespace

bool SameServingDesign(const AcceleratorDesign& a,
                       const AcceleratorDesign& b) {
  // Every field the cycle model reads must participate: the memory sizing
  // (cache capacity gates output-spill AXI traffic) as much as the array.
  return a.array.height == b.array.height && a.array.width == b.array.width &&
         a.array.count == b.array.count &&
         a.sequential_mode == b.sequential_mode && a.nl == b.nl &&
         a.nv == b.nv && a.simd_width == b.simd_width &&
         a.clock_hz == b.clock_hz && a.dram_bandwidth == b.dram_bandwidth &&
         a.memory.mem_a1_bytes == b.memory.mem_a1_bytes &&
         a.memory.mem_a2_bytes == b.memory.mem_a2_bytes &&
         a.memory.mem_b_bytes == b.memory.mem_b_bytes &&
         a.memory.mem_c_bytes == b.memory.mem_c_bytes &&
         a.memory.cache_bytes == b.memory.cache_bytes;
}

PoolDeltaCounts CountDeltas(const std::vector<PoolDelta>& deltas) {
  PoolDeltaCounts counts;
  for (const PoolDelta& delta : deltas) {
    switch (delta.kind) {
      case PoolDeltaKind::kAddReplica: ++counts.adds; break;
      case PoolDeltaKind::kRetireReplica: ++counts.retires; break;
      case PoolDeltaKind::kRefitReplica: ++counts.refits; break;
      case PoolDeltaKind::kSetBatchCap: ++counts.batch_caps; break;
    }
  }
  return counts;
}

AcceleratorDesign RefitDesign(AcceleratorDesign design,
                              const DataflowGraph& dfg) {
  // The allocation policy (whole array per kernel in sequential/all-NN
  // execution, the static Phase I split otherwise) lives in
  // arch::RefitAlloc — the same source the fast-path latency cache reads —
  // so a deployed refit replica and its cached estimate cannot diverge.
  const arch::LoopAlloc alloc = arch::RefitAlloc(design, dfg);
  design.nl.assign(dfg.layers().size(), alloc.uniform_nl);
  design.nv.assign(dfg.vsa_ops().size(), alloc.uniform_nv);
  return design;
}

ServerPool::ServerPool(const std::vector<ReplicaSpec>& specs,
                       std::vector<const DataflowGraph*> workload_dfgs)
    : dfgs_(std::move(workload_dfgs)) {
  NSF_CHECK_MSG(!dfgs_.empty(), "a pool needs at least one workload");
  for (const DataflowGraph* dfg : dfgs_) {
    NSF_CHECK_MSG(dfg != nullptr, "workload dataflow graph is null");
  }
  NSF_CHECK_MSG(!specs.empty(), "a pool needs at least one replica");
  kind_.reserve(specs.size());
  designs_.reserve(specs.size());
  serves_.reserve(specs.size());
  free_at_.reserve(specs.size());
  for (const ReplicaSpec& spec : specs) {
    AppendReplica(spec, /*ready_s=*/0.0);
  }

  for (int w = 0; w < workloads(); ++w) {
    bool covered = false;
    for (int r = 0; r < size() && !covered; ++r) {
      covered = serves_[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(w)];
    }
    NSF_CHECK_MSG(covered, "workload has no replica able to serve it");
  }
  RebuildIndex();
}

int ServerPool::KindFor(const ReplicaSpec& spec) {
  // Kind dedup is a cache-sharing optimization, so a kind merges only
  // replicas that agree on both the design *and* its provenance — two
  // tenants' DSE winners converging on identical hardware still get
  // separate kinds, because their tuned allocations mean different
  // things. Ids aliasing one compiled graph (registry compile-cache
  // hit) count as the same provenance.
  for (std::size_t k = 0; k < distinct_designs_.size(); ++k) {
    const WorkloadId prev = kind_tuned_for_[k];
    if (SameServingDesign(distinct_designs_[k], spec.design) &&
        (prev == spec.tuned_for || IsTunedFor(spec.tuned_for, prev))) {
      return static_cast<int>(k);
    }
  }
  distinct_designs_.push_back(spec.design);
  kind_tuned_for_.push_back(spec.tuned_for);
  latency_.resize(distinct_designs_.size() * dfgs_.size());
  return static_cast<int>(distinct_designs_.size()) - 1;
}

std::vector<bool> ServerPool::BuildServes(const ReplicaSpec& spec) const {
  NSF_CHECK_MSG(spec.tuned_for == kTunedForNone ||
                    (spec.tuned_for >= 0 && spec.tuned_for < workloads()),
                "tuned_for must name a pool workload or kTunedForNone");
  // Empty workload set = deployed for every workload the pool knows.
  std::vector<bool> serves(dfgs_.size(), spec.workloads.empty());
  for (const WorkloadId w : spec.workloads) {
    NSF_CHECK_MSG(w >= 0 && w < workloads(),
                  "replica declares an unknown workload id");
    serves[static_cast<std::size_t>(w)] = true;
  }
  return serves;
}

void ServerPool::AppendReplica(const ReplicaSpec& spec, double ready_s) {
  std::vector<bool> serves = BuildServes(spec);
  designs_.push_back(spec.design);
  kind_.push_back(KindFor(spec));
  serves_.push_back(std::move(serves));
  free_at_.push_back(ready_s);
  draining_.push_back(false);
  added_at_.push_back(ready_s);
  retired_at_.push_back(std::numeric_limits<double>::infinity());
  node_of_.push_back(0);
  dead_.emplace_back();
  derates_.emplace_back();
  live_memo_ = {};
}

bool ServerPool::IsTunedFor(WorkloadId tuned_for, WorkloadId workload) const {
  if (tuned_for == kTunedForNone || workload == kTunedForNone) {
    return false;
  }
  // Same id, or two registry names aliasing one compiled graph (the
  // registry's compile cache hands both the same DataflowGraph instance).
  return tuned_for == workload ||
         dfgs_[static_cast<std::size_t>(tuned_for)] ==
             dfgs_[static_cast<std::size_t>(workload)];
}

const AcceleratorDesign& ServerPool::design(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return designs_[static_cast<std::size_t>(replica)];
}

bool ServerPool::CanServe(int replica, WorkloadId workload) const {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK(workload >= 0 && workload < workloads());
  return serves_[static_cast<std::size_t>(replica)]
                [static_cast<std::size_t>(workload)];
}

double ServerPool::BatchSeconds(int replica, WorkloadId workload,
                                std::int64_t batch_size) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK(workload >= 0 && workload < workloads());
  NSF_CHECK_MSG(batch_size >= 1, "batch size must be positive");
  const int kind = kind_[static_cast<std::size_t>(replica)];
  if (const double* hit = Cached(kind, workload, batch_size)) {
    ++cache_hits_;
    return *hit;
  }
  ++cache_misses_;
  return Fill(kind, workload, batch_size);
}

const double* ServerPool::Cached(int kind, WorkloadId workload,
                                 std::int64_t batch_size) {
  const std::vector<double>& seconds = Row(kind, workload).seconds;
  const auto slot = static_cast<std::size_t>(batch_size - 1);
  return slot < seconds.size() && seconds[slot] != kUnfilled ? &seconds[slot]
                                                             : nullptr;
}

void ServerPool::Warm(int kind, WorkloadId workload,
                      std::int64_t batch_size) {
  if (Cached(kind, workload, batch_size) == nullptr) {
    Fill(kind, workload, batch_size);
  }
}

double ServerPool::Fill(int kind, WorkloadId workload,
                        std::int64_t batch_size) {
  LatencyRow& row = Row(kind, workload);
  if (!row.model.has_value()) {
    // Timing-only fast path: the cycle model is a pure function of
    // (design, dfg, batch size), so no Accelerator and no tensor data are
    // needed. Provenance decides the allocation: the workload the design
    // was DSE'd for keeps its Phase II tuned nl/nv, every other tenant
    // gets the RefitDesign schedule.
    const auto k = static_cast<std::size_t>(kind);
    row.model = arch::BuildServingModel(
        distinct_designs_[k], *dfgs_[static_cast<std::size_t>(workload)],
        IsTunedFor(kind_tuned_for_[k], workload));
  }
  if (row.seconds.size() < static_cast<std::size_t>(batch_size)) {
    row.seconds.resize(static_cast<std::size_t>(batch_size), kUnfilled);
  }
  double& entry = row.seconds[static_cast<std::size_t>(batch_size - 1)];
  entry = row.model->BatchSeconds(static_cast<int>(batch_size));
  return entry;
}

void ServerPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    cache_hit_counter_ = nullptr;
    cache_miss_counter_ = nullptr;
    return;
  }
  cache_hit_counter_ = registry->GetCounter("pool.cache_hits");
  cache_miss_counter_ = registry->GetCounter("pool.cache_misses");
  PublishCacheMetrics();
}

void ServerPool::PublishCacheMetrics() {
  if (cache_hit_counter_ == nullptr || cache_miss_counter_ == nullptr) {
    return;
  }
  cache_hit_counter_->Increment(cache_hits_ - published_hits_);
  cache_miss_counter_->Increment(cache_misses_ - published_misses_);
  published_hits_ = cache_hits_;
  published_misses_ = cache_misses_;
}

bool ServerPool::KindServes(int kind, WorkloadId workload) const {
  for (int r = 0; r < size(); ++r) {
    if (kind_[static_cast<std::size_t>(r)] == kind && CanServe(r, workload)) {
      return true;
    }
  }
  return false;
}

void ServerPool::WarmBatchSizes(std::int64_t max_batch) {
  for (int w = 0; w < workloads(); ++w) {
    WarmBatchSizes(RowsFor(w, max_batch));
  }
}

ServerPool::WarmRows ServerPool::RowsFor(WorkloadId workload,
                                         std::int64_t max_batch) const {
  NSF_CHECK_MSG(max_batch >= 1, "max_batch must be positive");
  NSF_CHECK(workload >= 0 && workload < workloads());
  WarmRows rows{workload, max_batch, {}};
  rows.kinds.reserve(distinct_designs_.size());
  for (int k = 0; k < static_cast<int>(distinct_designs_.size()); ++k) {
    if (KindServes(k, workload)) {
      rows.kinds.push_back(k);
    }
  }
  return rows;
}

void ServerPool::WarmBatchSizes(const WarmRows& rows) {
  for (const int k : rows.kinds) {
    for (std::int64_t s = 1; s <= rows.max_batch; ++s) {
      Warm(k, rows.workload, s);
    }
  }
}

std::size_t ServerPool::Tree(WorkloadId workload, int node) const {
  const auto per_workload =
      static_cast<std::size_t>(index_nodes_ > 1 ? index_nodes_ + 1 : 1);
  const auto slot =
      static_cast<std::size_t>(node < 0 || index_nodes_ == 1 ? 0 : node + 1);
  return (static_cast<std::size_t>(workload) * per_workload + slot) * 2 *
         static_cast<std::size_t>(index_capacity_);
}

int ServerPool::IndexRoot(WorkloadId workload, int node) const {
  return node < index_nodes_ ? index_[Tree(workload, node) + 1] : -1;
}

int ServerPool::Winner(int a, int b) const {
  if (a < 0 || b < 0) {
    return a < 0 ? b : a;
  }
  return free_at_[static_cast<std::size_t>(b)] <
                 free_at_[static_cast<std::size_t>(a)]
             ? b
             : a;
}

template <typename Visit>
void ServerPool::ForEachTreeOf(std::size_t replica, Visit&& visit) const {
  for (std::size_t w = 0; w < dfgs_.size(); ++w) {
    if (!serves_[replica][w]) {
      continue;
    }
    const auto workload = static_cast<WorkloadId>(w);
    visit(Tree(workload, -1));
    if (index_nodes_ > 1) {
      visit(Tree(workload, node_of_[replica]));
    }
  }
}

void ServerPool::Reseat(int replica, bool seated) {
  const auto r = static_cast<std::size_t>(replica);
  if (draining_[r]) {
    return;
  }
  const int leaf = seated ? replica : -1;
  const auto capacity = static_cast<std::size_t>(index_capacity_);
  ForEachTreeOf(r, [&](std::size_t base) {
    int* tree = index_.data() + base;
    tree[capacity + r] = leaf;
    for (std::size_t pos = (capacity + r) / 2; pos > 0; pos /= 2) {
      tree[pos] = Winner(tree[2 * pos], tree[2 * pos + 1]);
    }
  });
}

void ServerPool::RebuildIndex() {
  index_capacity_ = std::max(index_capacity_, 1);
  while (index_capacity_ < size()) {
    index_capacity_ *= 2;
  }
  index_nodes_ = 1 + *std::max_element(node_of_.begin(), node_of_.end());
  // Tree(workloads(), -1) is the offset one past the last tree; assign()
  // keeps the vector's storage whenever it is large enough.
  index_.assign(Tree(workloads(), -1), -1);
  // Bottom-up: every leaf first, then each tree's internal slots from the
  // last to the root, O(W R nodes). These are the trees seating replica by
  // replica would leave: there each internal slot is last written by a
  // walk that already sees its final children.
  const auto capacity = static_cast<std::size_t>(index_capacity_);
  for (int replica = 0; replica < size(); ++replica) {
    const auto r = static_cast<std::size_t>(replica);
    if (!draining_[r]) {
      ForEachTreeOf(r, [&](std::size_t base) {
        index_[base + capacity + r] = replica;
      });
    }
  }
  for (std::size_t base = 0; base < index_.size(); base += 2 * capacity) {
    int* tree = index_.data() + base;
    for (std::size_t pos = capacity - 1; pos > 0; --pos) {
      tree[pos] = Winner(tree[2 * pos], tree[2 * pos + 1]);
    }
  }
}

double ServerPool::EarliestFree(WorkloadId workload, int node) const {
  NSF_CHECK(workload >= 0 && workload < workloads());
  const int earliest = IndexRoot(workload, node);
  return earliest < 0 ? std::numeric_limits<double>::infinity()
                      : free_at_[static_cast<std::size_t>(earliest)];
}

void ServerPool::SetReplicaNode(int replica, int node) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK_MSG(node >= 0, "cluster node must be non-negative");
  if (node >= index_nodes_) {
    // A new node: the per-node trees gain a slot per workload.
    node_of_[static_cast<std::size_t>(replica)] = node;
    RebuildIndex();
    return;
  }
  Reseat(replica, /*seated=*/false);
  node_of_[static_cast<std::size_t>(replica)] = node;
  Reseat(replica, /*seated=*/true);
}

int ServerPool::NodeOf(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return node_of_[static_cast<std::size_t>(replica)];
}

bool ServerPool::NodeCanServe(WorkloadId workload, int node) const {
  NSF_CHECK(workload >= 0 && workload < workloads());
  return node >= 0 && IndexRoot(workload, node) >= 0;
}

int ServerPool::AddReplica(const ReplicaSpec& spec, double ready_s) {
  NSF_CHECK_MSG(ready_s >= 0.0, "replica ready time must be non-negative");
  AppendReplica(spec, ready_s);
  if (size() > index_capacity_) {
    RebuildIndex();
  } else {
    Reseat(size() - 1, /*seated=*/true);
  }
  return size() - 1;
}

bool ServerPool::LossOrphans(int replica, const std::vector<bool>* keep,
                             std::optional<double> live_at) const {
  const auto rs = static_cast<std::size_t>(replica);
  for (std::size_t w = 0; w < dfgs_.size(); ++w) {
    if (!serves_[rs][w] || (keep != nullptr && (*keep)[w])) {
      continue;  // Not losing this workload's coverage.
    }
    bool covered = false;
    for (int other = 0; other < size() && !covered; ++other) {
      covered = other != replica &&
                !draining_[static_cast<std::size_t>(other)] &&
                !(live_at.has_value() && Failed(other, *live_at)) &&
                serves_[static_cast<std::size_t>(other)][w];
    }
    if (!covered) {
      return true;
    }
  }
  return false;
}

void ServerPool::DrainReplica(int replica, double now_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(!draining_[r], "replica is already draining");
  NSF_CHECK_MSG(!LossOrphans(replica, nullptr, std::nullopt),
                "reconfiguration would leave a workload with no replica "
                "able to serve it");
  Reseat(replica, /*seated=*/false);
  draining_[r] = true;
  // In-flight work finishes; an idle replica retires at the decision time.
  retired_at_[r] = std::max(now_s, free_at_[r]);
  live_memo_ = {};
}

int ServerPool::DrainAll(double now_s) {
  int drained = 0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (draining_[i]) {
      continue;  // Already drained (autoscaler retire or a repeat call).
    }
    draining_[i] = true;
    // In-flight work finishes; an idle replica retires at the drain point.
    retired_at_[i] = std::max(now_s, free_at_[i]);
    ++drained;
  }
  live_memo_ = {};
  RebuildIndex();  // Every tree is empty now.
  return drained;
}

void ServerPool::RefitInPlace(int replica, const ReplicaSpec& spec,
                              double ready_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(!draining_[r], "cannot refit a draining replica");
  std::vector<bool> serves = BuildServes(spec);
  NSF_CHECK_MSG(!LossOrphans(replica, &serves, std::nullopt),
                "reconfiguration would leave a workload with no replica "
                "able to serve it");

  Reseat(replica, /*seated=*/false);
  designs_[r] = spec.design;
  kind_[r] = KindFor(spec);
  serves_[r] = std::move(serves);
  // The in-flight batch (if any) finishes on the old deployment before the
  // refit replica comes up.
  free_at_[r] = std::max(free_at_[r], ready_s);
  Reseat(replica, /*seated=*/true);
}

bool ServerPool::draining(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return draining_[static_cast<std::size_t>(replica)];
}

double ServerPool::AddedAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return added_at_[static_cast<std::size_t>(replica)];
}

double ServerPool::RetiredAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return retired_at_[static_cast<std::size_t>(replica)];
}

int ServerPool::ActiveReplicas(double t) const {
  int active = 0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (added_at_[i] <= t && t < retired_at_[i] && !Failed(r, t)) {
      ++active;
    }
  }
  return active;
}

double ServerPool::LiveFraction(double t) const {
  if (live_memo_.from_s <= t && t < live_memo_.until_s) {
    return live_memo_.value;
  }
  // Every term below is a half-open [begin, end) test, so the fraction is
  // constant between consecutive breakpoints: the same pass brackets `t`
  // with the nearest breakpoints around it, and queries inside that
  // interval reuse the value.
  LiveMemo memo;
  memo.from_s = -std::numeric_limits<double>::infinity();
  memo.until_s = std::numeric_limits<double>::infinity();
  const auto bracket = [&](double breakpoint) {
    if (breakpoint <= t) {
      memo.from_s = std::max(memo.from_s, breakpoint);
    } else {
      memo.until_s = std::min(memo.until_s, breakpoint);
    }
  };
  int provisioned = 0;
  int live = 0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    bracket(added_at_[i]);
    bracket(retired_at_[i]);
    bool dark = false;
    for (const DeadSpan& span : dead_[i]) {
      bracket(span.fail_s);
      bracket(span.recover_s);
      dark = dark || (t >= span.fail_s && t < span.recover_s);
    }
    if (added_at_[i] <= t && t < retired_at_[i]) {
      ++provisioned;
      live += dark ? 0 : 1;
    }
  }
  memo.value = provisioned > 0 ? static_cast<double>(live) /
                                     static_cast<double>(provisioned)
                               : 1.0;
  live_memo_ = memo;
  return memo.value;
}

double ServerPool::ReplicaSeconds(double horizon_s) const {
  double total = 0.0;
  for (int r = 0; r < size(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double from = std::min(added_at_[i], horizon_s);
    const double to = std::min(retired_at_[i], horizon_s);
    total += std::max(0.0, to - from);
    // Dead time is not billed: a dark replica consumes no FPGA seconds
    // (docs/AUTOSCALING.md — the adversity overhead gate compares the
    // surviving fleet plus replacements against the fault-free run).
    for (const DeadSpan& span : dead_[i]) {
      const double dead_from = std::max(span.fail_s, from);
      const double dead_to = std::min(span.recover_s, to);
      total -= std::max(0.0, dead_to - dead_from);
    }
  }
  return total;
}

void ServerPool::FailReplica(int replica, double fail_s, double recover_s,
                             double warmup_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  const auto r = static_cast<std::size_t>(replica);
  NSF_CHECK_MSG(recover_s > fail_s, "recovery must follow the failure");
  NSF_CHECK_MSG(warmup_s >= 0.0, "warmup must be non-negative");
  NSF_CHECK_MSG(!draining_[r], "cannot fail a draining replica");
  NSF_CHECK_MSG(!Failed(replica, fail_s), "replica is already dark");
  NSF_CHECK_MSG(dead_[r].empty() || dead_[r].back().up_s <= fail_s,
                "failure overlaps the previous outage's warm-up");
  // Never inject an unservable topology: every workload this replica
  // serves must survive on another live replica.
  NSF_CHECK_MSG(!LossOrphans(replica, nullptr, fail_s),
                "replica failure would leave a workload with no live "
                "replica able to serve it");
  dead_[r].push_back(DeadSpan{fail_s, recover_s, recover_s + warmup_s});
  live_memo_ = {};
  // The schedule jumps past the outage: dispatch's argmin then routes
  // around the dark replica (or correctly books post-recovery work on it
  // when every survivor is busier).
  free_at_[r] = std::max(free_at_[r], recover_s + warmup_s);
  Reseat(replica, /*seated=*/true);
}

void ServerPool::SetDerate(int replica, double factor, double from_s,
                           double until_s) {
  NSF_CHECK(replica >= 0 && replica < size());
  NSF_CHECK_MSG(factor >= 1.0, "derate factor must be >= 1");
  NSF_CHECK_MSG(until_s > from_s, "derate window must be non-empty");
  derates_[static_cast<std::size_t>(replica)].push_back(
      DerateSpan{from_s, until_s, factor});
  has_derates_ = true;
}

bool ServerPool::Failed(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DeadSpan& span : dead_[static_cast<std::size_t>(replica)]) {
    if (t >= span.fail_s && t < span.recover_s) {
      return true;
    }
  }
  return false;
}

double ServerPool::DerateAt(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DerateSpan& span : derates_[static_cast<std::size_t>(replica)]) {
    if (t >= span.from_s && t < span.until_s) {
      return span.factor;
    }
  }
  return 1.0;
}

ServerPool::ReplicaHealth ServerPool::Health(int replica, double t) const {
  NSF_CHECK(replica >= 0 && replica < size());
  for (const DeadSpan& span : dead_[static_cast<std::size_t>(replica)]) {
    if (t >= span.fail_s && t < span.recover_s) {
      return ReplicaHealth::kFailed;
    }
    if (t >= span.recover_s && t < span.up_s) {
      return ReplicaHealth::kRecovering;
    }
  }
  if (DerateAt(replica, t) > 1.0) {
    return ReplicaHealth::kDerated;
  }
  return ReplicaHealth::kUp;
}

double ServerPool::FreeAt(int replica) const {
  NSF_CHECK(replica >= 0 && replica < size());
  return free_at_[static_cast<std::size_t>(replica)];
}

int ServerPool::ResolveFaultTarget(int requested, double t,
                                   bool for_failure) const {
  const auto eligible = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    // A failure target must orphan no workload (the FailReplica check, so
    // a resolved target never throws there).
    return !draining_[i] && !Failed(r, t) && added_at_[i] <= t &&
           t < retired_at_[i] && !(for_failure && LossOrphans(r, nullptr, t));
  };
  if (requested >= 0) {
    return requested < size() && eligible(requested) ? requested : -1;
  }
  int choice = -1;
  for (int r = 0; r < size(); ++r) {
    if (eligible(r) &&
        (choice < 0 || free_at_[static_cast<std::size_t>(r)] >
                           free_at_[static_cast<std::size_t>(choice)])) {
      choice = r;
    }
  }
  return choice;
}

DispatchRecord ServerPool::Dispatch(const Batch& batch, int node) {
  NSF_CHECK_MSG(batch.size() > 0, "cannot dispatch an empty batch");
  NSF_CHECK(batch.workload >= 0 && batch.workload < workloads());
  // Earliest-available replica among those deployed for the batch's
  // workload, ties to the lowest id. Draining replicas take no new work —
  // their in-flight batch is the last thing they run. A non-negative
  // `node` further narrows to that cluster node's replicas.
  const int choice = IndexRoot(batch.workload, node);
  NSF_CHECK_MSG(choice >= 0, "no replica serves the batch's workload");
  DispatchRecord record;
  record.batch_index =
      obs::LogField<std::uint32_t>(dispatched_batches_++, "batch_index");
  record.replica = choice;
  record.workload = batch.workload;
  record.start_s =
      std::max(batch.formed_s, free_at_[static_cast<std::size_t>(choice)]);
  // A straggler's derate multiplies the modeled service time at the start
  // instant; the guard keeps derate-free runs bit-identical (no *1.0).
  double service = BatchSeconds(choice, batch.workload, batch.size());
  if (has_derates_) {
    service *= DerateAt(choice, record.start_s);
  }
  record.complete_s = record.start_s + service;
  record.size = obs::LogField<std::int32_t>(batch.size(), "size");
  free_at_[static_cast<std::size_t>(choice)] = record.complete_s;
  Reseat(choice, /*seated=*/true);
  return record;
}

}  // namespace nsflow::serve
