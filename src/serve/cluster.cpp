#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/spec.h"
#include "obs/metrics.h"
#include "serve/server_pool.h"

namespace nsflow::serve {
namespace {

// Indexed by ClusterRouterPolicy.
constexpr SpecName kPolicies[] = {
    {"none", {}, {}},
    {"hash", {"nodes", "hops", "hop_us", "gbps"}, {}},
    {"least-loaded", {"nodes", "hops", "hop_us", "gbps", "affinity"}, {}},
};

constexpr SpecGrammar kGrammar{"cluster", "cluster router", kPolicies};

/// SplitMix64 — the router's stateless mixer. Strong enough to spread
/// (workload, lead id) pairs uniformly over the capable nodes, and a pure
/// function of its input, so hash routing is seedless and bit-stable.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ClusterSpec ClusterSpec::Parse(const std::string& text) {
  ParsedSpec parsed = kGrammar.Parse(text);
  const ClusterSpec spec{static_cast<ClusterRouterPolicy>(parsed.name),
                         std::move(parsed.params)};
  spec.Resolve();
  return spec;
}

ClusterParams ClusterSpec::Resolve() const {
  const SpecReader read{kGrammar, static_cast<std::size_t>(policy), params};
  ClusterParams p;
  p.nodes = read.Integer("nodes", 2, 1);
  p.hops = read.Integer("hops", 1, 0);
  const double hop_us = read.Number("hop_us", 5.0);
  read.Require(hop_us >= 0.0, "hop_us must be non-negative");
  p.hop_s = hop_us * 1e-6;
  p.gigabits_per_s = read.Number("gbps", 100.0);
  read.Require(p.gigabits_per_s > 0.0, "gbps must be positive");
  p.affinity = read.Number("affinity", 1.0);
  read.Require(p.affinity >= 0.0, "affinity must be non-negative");
  return p;
}

std::string ClusterSpec::Name() const {
  return std::string(kPolicies[static_cast<std::size_t>(policy)].name);
}

std::string ClusterSpec::ToString() const {
  return kGrammar.Format(static_cast<std::size_t>(policy), params);
}

NetworkModel::NetworkModel(const ClusterSpec& spec,
                           const std::vector<const DataflowGraph*>& dfgs) {
  const ClusterParams p = spec.Resolve();
  hop_total_s_ = p.hops * p.hop_s;
  bytes_per_s_ = p.gigabits_per_s * 1e9 / 8.0;
  footprints_.reserve(dfgs.size());
  for (const DataflowGraph* dfg : dfgs) {
    NSF_CHECK(dfg != nullptr);
    footprints_.push_back(Footprint(*dfg));
  }
}

WorkloadFootprint NetworkModel::Footprint(const DataflowGraph& dfg) {
  constexpr double kElemBytes = 4.0;  // fp32/int32 activation elements.
  WorkloadFootprint fp;
  const std::vector<LayerNode>& layers = dfg.layers();
  const std::vector<VsaNode>& vsa = dfg.vsa_ops();
  // The SIMD element stream is the payload of last resort (graphs with
  // neither NN nor VSA kernels); never zero, so every remote dispatch
  // prices at least the hop latency plus one element.
  const double simd_bytes =
      kElemBytes * std::max(1.0, dfg.TotalSimdElems());
  if (!layers.empty()) {
    const GemmDims& gemm = layers.front().gemm;
    fp.request_bytes = kElemBytes * static_cast<double>(gemm.m) *
                       static_cast<double>(gemm.n);
  } else if (!vsa.empty()) {
    const VsaDims& dims = vsa.front().vsa;
    fp.request_bytes = kElemBytes * static_cast<double>(dims.count) *
                       static_cast<double>(dims.dim);
  } else {
    fp.request_bytes = simd_bytes;
  }
  if (!vsa.empty()) {
    // Symbolic output: the final op's result hypervector.
    fp.response_bytes =
        kElemBytes * static_cast<double>(vsa.back().vsa.dim);
  } else if (!layers.empty()) {
    fp.response_bytes = layers.back().output_bytes;
  } else {
    fp.response_bytes = simd_bytes;
  }
  return fp;
}

double NetworkModel::RequestBytes(WorkloadId workload,
                                  std::int64_t batch_size) const {
  NSF_CHECK(workload >= 0 &&
            workload < static_cast<WorkloadId>(footprints_.size()));
  return footprints_[static_cast<std::size_t>(workload)].request_bytes *
         static_cast<double>(batch_size);
}

double NetworkModel::ResponseBytes(WorkloadId workload,
                                   std::int64_t batch_size) const {
  NSF_CHECK(workload >= 0 &&
            workload < static_cast<WorkloadId>(footprints_.size()));
  return footprints_[static_cast<std::size_t>(workload)].response_bytes *
         static_cast<double>(batch_size);
}

double NetworkModel::TransferSeconds(double bytes) const {
  return hop_total_s_ + bytes / bytes_per_s_;
}

ClusterPool::ClusterPool(const ClusterSpec& spec, ServerPool& pool,
                         const std::vector<const DataflowGraph*>& dfgs,
                         const std::vector<int>& placement)
    : spec_(spec),
      params_(spec.Resolve()),
      pool_(pool),
      network_(spec, dfgs) {
  NSF_CHECK_MSG(spec.enabled(), "ClusterPool needs an enabled ClusterSpec");
  NSF_CHECK_MSG(placement.empty() ||
                    placement.size() == static_cast<std::size_t>(pool.size()),
                "cluster placement must cover every initial replica");
  for (int r = 0; r < pool.size(); ++r) {
    const int node = placement.empty()
                         ? r % params_.nodes
                         : placement[static_cast<std::size_t>(r)];
    NSF_CHECK_MSG(node >= 0 && node < params_.nodes,
                  "cluster placement names a node outside the cluster");
    pool_.SetReplicaNode(r, node);
  }
  accounts_.resize(static_cast<std::size_t>(params_.nodes));
  for (int n = 0; n < params_.nodes; ++n) {
    accounts_[static_cast<std::size_t>(n)].node = n;
  }
  // Home nodes: where each tenant's arrivals ingress — the node holding
  // most of its capable replicas at construction, ties to the lowest id.
  home_.assign(static_cast<std::size_t>(pool.workloads()), 0);
  for (WorkloadId w = 0; w < pool.workloads(); ++w) {
    int best = 0;
    int best_count = -1;
    for (int n = 0; n < params_.nodes; ++n) {
      int count = 0;
      for (int r = 0; r < pool.size(); ++r) {
        if (pool.NodeOf(r) == n && pool.CanServe(r, w)) {
          ++count;
        }
      }
      if (count > best_count) {
        best = n;
        best_count = count;
      }
    }
    home_[static_cast<std::size_t>(w)] = best;
  }
}

int ClusterPool::HomeNode(WorkloadId workload) const {
  NSF_CHECK(workload >= 0 &&
            workload < static_cast<WorkloadId>(home_.size()));
  return home_[static_cast<std::size_t>(workload)];
}

RouteDecision ClusterPool::Route(const Batch& batch) {
  RouteDecision route;
  route.home = HomeNode(batch.workload);
  route.node = route.home;
  if (params_.nodes > 1) {
    // Candidate nodes: the ones holding at least one live capable replica
    // right now (a fully failed/drained node drops out of the rotation).
    // No candidate at all — e.g. mid-outage — falls back to home, where
    // ServerPool's own schedule stretches the wait.
    capable_.clear();
    for (int n = 0; n < params_.nodes; ++n) {
      if (pool_.NodeCanServe(batch.workload, n)) {
        capable_.push_back(n);
      }
    }
    if (!capable_.empty()) {
      if (spec_.policy == ClusterRouterPolicy::kHash) {
        // Sticky, schedule-oblivious spread over the capable nodes keyed
        // by (workload, lead request id) — the consistent-hash policy.
        const std::uint64_t lead =
            batch.requests.empty()
                ? 0
                : static_cast<std::uint64_t>(batch.requests.front().id);
        const std::uint64_t key =
            Mix64((static_cast<std::uint64_t>(batch.workload) << 32) ^ lead);
        route.node = capable_[key % capable_.size()];
      } else {
        // Least-loaded: earliest projected start including the request
        // transfer a remote choice must wait for, plus the locality-
        // affinity penalty on leaving home. Ties to the lowest node id.
        const double in_s = network_.TransferSeconds(
            network_.RequestBytes(batch.workload, batch.size()));
        int best = capable_.front();
        double best_score = 0.0;
        bool first = true;
        for (const int n : capable_) {
          const bool remote = n != route.home;
          const double ready =
              batch.formed_s + (remote ? in_s : 0.0);
          double score =
              std::max(ready, pool_.EarliestFree(batch.workload, n));
          if (remote) {
            score += params_.affinity * in_s;
          }
          if (first || score < best_score) {
            best = n;
            best_score = score;
            first = false;
          }
        }
        route.node = best;
      }
    }
  }
  route.remote = route.node != route.home;
  if (route.remote) {
    route.request_bytes =
        network_.RequestBytes(batch.workload, batch.size());
    route.response_bytes =
        network_.ResponseBytes(batch.workload, batch.size());
    route.ingress_s = network_.TransferSeconds(route.request_bytes);
    route.egress_s = network_.TransferSeconds(route.response_bytes);
  }
  return route;
}

void ClusterPool::RecordDispatch(const RouteDecision& route) {
  NodeSummary& account = accounts_[static_cast<std::size_t>(route.node)];
  account.batches += 1;
  if (route.remote) {
    account.remote_batches += 1;
    account.bytes_in += route.request_bytes;
    account.bytes_out += route.response_bytes;
    account.network_s += route.ingress_s + route.egress_s;
    if (remote_counter_ != nullptr) {
      remote_counter_->Increment();
      bytes_counter_->Increment(static_cast<std::int64_t>(
          std::llround(route.request_bytes + route.response_bytes)));
      transfer_hist_->Observe(route.ingress_s + route.egress_s);
    }
  } else if (local_counter_ != nullptr) {
    local_counter_->Increment();
  }
}

void ClusterPool::AssignReplica(int replica, int node) {
  NSF_CHECK_MSG(node >= 0 && node < params_.nodes,
                "AssignReplica names a node outside the cluster");
  pool_.SetReplicaNode(replica, node);
}

int ClusterPool::LeastPopulatedNode() const {
  int best = 0;
  int best_count = -1;
  for (int n = 0; n < params_.nodes; ++n) {
    int count = 0;
    for (int r = 0; r < pool_.size(); ++r) {
      if (pool_.NodeOf(r) == n && !pool_.draining(r)) {
        ++count;
      }
    }
    if (best_count < 0 || count < best_count) {
      best = n;
      best_count = count;
    }
  }
  return best;
}

std::vector<NodeSummary> ClusterPool::Snapshot() const {
  std::vector<NodeSummary> out = accounts_;
  for (int r = 0; r < pool_.size(); ++r) {
    if (std::isinf(pool_.RetiredAt(r))) {
      out[static_cast<std::size_t>(pool_.NodeOf(r))].replicas += 1;
    }
  }
  return out;
}

void ClusterPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    local_counter_ = nullptr;
    remote_counter_ = nullptr;
    bytes_counter_ = nullptr;
    transfer_hist_ = nullptr;
    return;
  }
  local_counter_ = registry->GetCounter("cluster.local_dispatches");
  remote_counter_ = registry->GetCounter("cluster.remote_dispatches");
  bytes_counter_ = registry->GetCounter("cluster.bytes_moved");
  transfer_hist_ = registry->GetHistogram("cluster.transfer_s");
}

}  // namespace nsflow::serve
