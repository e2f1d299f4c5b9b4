// Multi-node cluster serving — sharded pools over a modeled interconnect
// (docs/CLUSTER.md).
//
// A `ClusterPool` promotes the single-box `ServerPool` to N nodes: every
// replica is pinned to a node (its own FPGA inventory slice), each tenant
// has a *home* node (where its arrivals ingress — the node holding most of
// its capable replicas), and a cluster router decides per formed batch
// which node executes it. Cross-node dispatch is priced, never free: a
// `NetworkModel` charges per-hop latency plus payload bytes over a modeled
// interconnect bandwidth, with request/response payload sizes derived from
// the workload's dataflow-graph tensor footprints. The request transfer
// delays the batch's dispatch (it cannot start remotely before it arrives
// there); the response transfer extends only the client-observed latency
// (the replica frees at compute completion — the NIC, not the array,
// carries the reply).
//
// Everything runs on the engine's virtual timeline: routing is a pure
// function of (batch, schedule), the network model is closed-form, and a
// fixed seed pins the whole routed run bit-exactly. A one-node cluster
// routes every batch locally with zero transfers, so its output is
// byte-identical to a build without the cluster layer (the single-node
// bit-identity contract, enforced in tests/cluster_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/dataflow_graph.h"
#include "serve/request.h"
#include "serve/serve_stats.h"

namespace nsflow::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

class ServerPool;

/// Which policy routes formed batches to nodes.
enum class ClusterRouterPolicy {
  kNone = 0,         // No cluster — the default single-box pipeline.
  kHash = 1,         // Consistent hash of (workload, lead request id) over
                     // the capable nodes: sticky, schedule-oblivious.
  kLeastLoaded = 2,  // Earliest projected start across capable nodes, with
                     // a locality-affinity penalty on leaving home.
};

/// A cluster spec's parameters with every default applied and every range
/// checked (ClusterSpec::Resolve).
struct ClusterParams {
  int nodes = 0;                // Node count.
  int hops = 0;                 // Interconnect hops per transfer.
  double hop_s = 0.0;           // Per-hop latency.
  double gigabits_per_s = 0.0;  // Interconnect bandwidth.
  double affinity = 0.0;        // Least-loaded locality-affinity weight.
};

/// Cluster spec, `name[:k=v,...]` in the spec grammar (common/spec.h;
/// docs/CLUSTER.md); Parse range-checks the values given by resolving
/// them.
///
/// Names: `none` | `hash` | `least-loaded`. Parameters (both routers):
///   nodes=N      node count (default 2, >= 1)
///   hops=N       interconnect hops per transfer (default 1, >= 0)
///   hop_us=F     per-hop latency, microseconds (default 5, >= 0)
///   gbps=F       interconnect bandwidth, gigabits/s (default 100, > 0)
///   affinity=F   locality-affinity weight on the least-loaded score
///                (default 1; 0 = pure earliest-start routing)
struct ClusterSpec {
  ClusterRouterPolicy policy = ClusterRouterPolicy::kNone;
  /// Provided parameters only (std::map: deterministic iteration order for
  /// canonical ToString round-trips).
  std::map<std::string, double> params;

  static ClusterSpec Parse(const std::string& text);
  /// The only reader of `params`: each default and range check is written
  /// here once. Throws `Error` on a value out of range.
  ClusterParams Resolve() const;
  std::string Name() const;
  /// Canonical spec string that parses back to *this (report JSON, docs).
  std::string ToString() const;

  bool enabled() const { return policy != ClusterRouterPolicy::kNone; }
};

/// Per-request network payload of one workload, derived from its dataflow
/// graph (docs/CLUSTER.md gives the closed forms):
///   request  — the model input: the first NN layer's activation matrix
///              A[m, n] (the GEMM convention is C[m,k] = A[m,n]·B[n,k]);
///              VSA-only graphs ship the first VSA node's hypervector
///              block (count × dim); pure-SIMD graphs ship their element
///              stream. 4 bytes per element throughout.
///   response — the model output: the last VSA op's result hypervector
///              (dim elements) when symbolic work exists, else the last NN
///              layer's output footprint, else the SIMD stream.
struct WorkloadFootprint {
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};

/// Closed-form interconnect cost: transfer_s = hops · hop_s + bytes / BW.
/// Payload bytes scale linearly with batch size (a batch ships its
/// members' tensors back to back; the hop latency is paid once per
/// transfer, not per request).
class NetworkModel {
 public:
  NetworkModel() = default;
  NetworkModel(const ClusterSpec& spec,
               const std::vector<const DataflowGraph*>& dfgs);

  /// Per-request payloads of one workload's graph. Exposed for the
  /// closed-form checks in tests/cluster_test.cpp.
  static WorkloadFootprint Footprint(const DataflowGraph& dfg);

  double RequestBytes(WorkloadId workload, std::int64_t batch_size) const;
  double ResponseBytes(WorkloadId workload, std::int64_t batch_size) const;
  double TransferSeconds(double bytes) const;

 private:
  double hop_total_s_ = 0.0;   // hops × hop_s, paid once per transfer.
  double bytes_per_s_ = 1.0;   // gbps × 1e9 / 8.
  std::vector<WorkloadFootprint> footprints_;  // Per workload id.
};

/// One routing decision for a formed batch. A local dispatch (the batch's
/// home node serves it) moves zero bytes; a remote one prices the request
/// transfer into the dispatch time and the response transfer into the
/// recorded client latency.
struct RouteDecision {
  int node = 0;
  int home = 0;
  bool remote = false;
  double ingress_s = 0.0;       // Request transfer (delays dispatch).
  double egress_s = 0.0;        // Response transfer (client latency only).
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};

/// Routing + pricing + per-node accounting over one node-tagged
/// `ServerPool`. The pool stays the single dispatch authority — the
/// cluster only narrows each dispatch to the routed node's replicas and
/// prices the movement — so every existing pool mechanism (warm
/// reconfiguration, fault state, draining) works unchanged inside a node.
class ClusterPool {
 public:
  /// `placement[r]` pins initial replica `r` to a node (empty = replica r
  /// to node r % nodes — the deterministic spread). `dfgs` feeds the
  /// network model's footprints; both `pool` and the graphs must outlive
  /// the cluster.
  ClusterPool(const ClusterSpec& spec, ServerPool& pool,
              const std::vector<const DataflowGraph*>& dfgs,
              const std::vector<int>& placement);

  int nodes() const { return params_.nodes; }
  const ClusterSpec& spec() const { return spec_; }
  const NetworkModel& network() const { return network_; }

  /// The node a workload's arrivals ingress at: the node holding most of
  /// its capable replicas at construction, ties to the lowest node id.
  int HomeNode(WorkloadId workload) const;

  /// Route one formed batch (pure function of the batch and the pool's
  /// current schedule — no RNG, no wall clock; docs/CLUSTER.md). Not
  /// const only because it reuses a member scratch vector.
  RouteDecision Route(const Batch& batch);

  /// Account one committed batch against its routed node (and publish
  /// the attached cluster metrics). The engine calls this at commit, so
  /// batches swept empty or aborted by a failure never count.
  void RecordDispatch(const RouteDecision& route);

  /// Pin `replica` (e.g. one the autoscaler just warm-added) to `node`.
  void AssignReplica(int replica, int node);
  /// The node to warm-add the next replica on: fewest live (non-retired,
  /// non-draining) replicas, ties to the lowest node id — the autoscaler's
  /// cross-node placement rule (migrate = drain on one node + warm-add on
  /// the one this picks).
  int LeastPopulatedNode() const;

  /// Per-node slices for ServeStats (replica counts resolved against the
  /// pool's current state; traffic/byte tallies from RecordDispatch).
  std::vector<NodeSummary> Snapshot() const;

  /// Publish per-node dispatch/byte counters and the transfer-time
  /// histogram into `registry` (`cluster.*`; docs/OBSERVABILITY.md). Null
  /// detaches. The engine only attaches this for nodes > 1 — a one-node
  /// cluster registers nothing, keeping metrics output byte-identical to
  /// a cluster-free run.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  ClusterSpec spec_;
  ClusterParams params_;
  ServerPool& pool_;
  NetworkModel network_;
  std::vector<int> home_;  // Per workload id.
  std::vector<NodeSummary> accounts_;  // Per node (replica counts filled
                                       // fresh in Snapshot()).
  std::vector<int> capable_;  // Route scratch: the batch's capable nodes.

  // Resolved by AttachMetrics; null = metrics off.
  obs::Counter* local_counter_ = nullptr;
  obs::Counter* remote_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Histogram* transfer_hist_ = nullptr;
};

}  // namespace nsflow::serve
