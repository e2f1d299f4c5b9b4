// Tests for multi-node cluster serving (serve/cluster.h, docs/CLUSTER.md):
// strict spec parsing, the closed-form network cost model against
// hand-computed dataflow footprints, router determinism under a fixed
// seed, the single-node bit-identity contract (a one-node cluster's
// artifacts are byte-identical to a cluster-free run), cross-node pricing
// (remote dispatch is never free), node-scoped fault injection, and the
// planner's cross-node placement with its JSON round-trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "graph/dataflow_graph.h"
#include "serve/adversity.h"
#include "serve/capacity_planner.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/workload_registry.h"

namespace nsflow::serve {
namespace {

// ------------------------------------------------------------ spec parsing

TEST(ClusterSpecTest, ParsesAndRoundTripsCanonically) {
  const ClusterSpec none = ClusterSpec::Parse("none");
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.ToString(), "none");

  const ClusterSpec hash = ClusterSpec::Parse("hash:nodes=4,hop_us=2.5");
  EXPECT_TRUE(hash.enabled());
  const ClusterParams hash_params = hash.Resolve();
  EXPECT_EQ(hash_params.nodes, 4);
  EXPECT_DOUBLE_EQ(hash_params.hop_s, 2.5e-6);
  EXPECT_EQ(hash_params.hops, 1);                      // Default.
  EXPECT_DOUBLE_EQ(hash_params.gigabits_per_s, 100.0);  // Default.
  EXPECT_EQ(ClusterSpec::Parse(hash.ToString()).ToString(), hash.ToString());

  const ClusterSpec ll =
      ClusterSpec::Parse("least-loaded:affinity=0.5,gbps=25,hops=3");
  EXPECT_EQ(ll.policy, ClusterRouterPolicy::kLeastLoaded);
  const ClusterParams ll_params = ll.Resolve();
  EXPECT_DOUBLE_EQ(ll_params.affinity, 0.5);
  EXPECT_DOUBLE_EQ(ll_params.gigabits_per_s, 25.0);
  EXPECT_EQ(ll_params.hops, 3);
  EXPECT_EQ(ClusterSpec::Parse(ll.ToString()).params, ll.params);
}

TEST(ClusterSpecTest, RejectsUnknownNamesKeysAndBadRanges) {
  EXPECT_THROW(ClusterSpec::Parse("mesh"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:fanout=2"), Error);
  // affinity belongs to least-loaded only.
  EXPECT_THROW(ClusterSpec::Parse("hash:affinity=1"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:nodes=0"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:nodes=2.5"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:gbps=0"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:hop_us=-1"), Error);
  EXPECT_THROW(ClusterSpec::Parse("least-loaded:affinity=-0.1"), Error);
  // A value must be one finite number, whole token.
  EXPECT_THROW(ClusterSpec::Parse("hash:nodes=2junk"), Error);
  EXPECT_THROW(ClusterSpec::Parse("hash:gbps=inf"), Error);
}

// ----------------------------------------------------- network cost model

/// The documented closed forms (docs/CLUSTER.md), re-derived from the
/// graph by hand: request = first layer's A[m, n] activation (4 B/elem),
/// or the first VSA block when no NN layers exist; response = the last VSA
/// result hypervector, else the last layer's output footprint.
WorkloadFootprint HandFootprint(const DataflowGraph& dfg) {
  WorkloadFootprint fp;
  if (!dfg.layers().empty()) {
    fp.request_bytes = 4.0 * static_cast<double>(dfg.layers().front().gemm.m) *
                       static_cast<double>(dfg.layers().front().gemm.n);
  } else if (!dfg.vsa_ops().empty()) {
    fp.request_bytes = 4.0 *
                       static_cast<double>(dfg.vsa_ops().front().vsa.count) *
                       static_cast<double>(dfg.vsa_ops().front().vsa.dim);
  }
  if (!dfg.vsa_ops().empty()) {
    fp.response_bytes = 4.0 * static_cast<double>(dfg.vsa_ops().back().vsa.dim);
  } else if (!dfg.layers().empty()) {
    fp.response_bytes = dfg.layers().back().output_bytes;
  }
  return fp;
}

TEST(NetworkModelTest, FootprintsMatchHandComputedPayloads) {
  WorkloadRegistry registry;
  for (const char* name : {"mlp", "resnet18", "nvsa"}) {
    registry.RegisterBuiltin(name);
    const DataflowGraph& dfg = registry.dataflow(registry.IdOf(name));
    const WorkloadFootprint fp = NetworkModel::Footprint(dfg);
    const WorkloadFootprint hand = HandFootprint(dfg);
    EXPECT_DOUBLE_EQ(fp.request_bytes, hand.request_bytes) << name;
    EXPECT_DOUBLE_EQ(fp.response_bytes, hand.response_bytes) << name;
    // Remote dispatch is never free: both directions carry payload.
    EXPECT_GT(fp.request_bytes, 0.0) << name;
    EXPECT_GT(fp.response_bytes, 0.0) << name;
  }
}

TEST(NetworkModelTest, TransferTimeIsHopsPlusBytesOverBandwidth) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  // 8 Gb/s = 1e9 B/s and 2 x 10 us of hop latency: easy closed forms.
  const ClusterSpec spec = ClusterSpec::Parse("hash:hops=2,hop_us=10,gbps=8");
  const NetworkModel model(spec, registry.Dataflows());
  EXPECT_DOUBLE_EQ(model.TransferSeconds(0.0), 20e-6);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(1e9), 20e-6 + 1.0);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(5e8), 20e-6 + 0.5);

  // Payload scales linearly with batch size; hop latency does not (it is
  // charged once per transfer inside TransferSeconds).
  const WorkloadId mlp = registry.IdOf("mlp");
  EXPECT_DOUBLE_EQ(model.RequestBytes(mlp, 3), 3.0 * model.RequestBytes(mlp, 1));
  EXPECT_DOUBLE_EQ(model.ResponseBytes(mlp, 4),
                   4.0 * model.ResponseBytes(mlp, 1));
}

// ---------------------------------------------- routed-run determinism

ServeOptions ClusterRunOptions(const std::string& cluster) {
  ServeOptions options;
  options.qps = 300.0;
  options.duration_s = 0.5;
  options.seed = 7;
  options.trace.enabled = true;
  if (!cluster.empty()) {
    options.cluster = ClusterSpec::Parse(cluster);
  }
  return options;
}

TEST(ClusterServeTest, RoutedRunsAreBitDeterministicUnderBothPolicies) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  for (const char* cluster :
       {"hash:nodes=2", "least-loaded:nodes=2,affinity=0.5"}) {
    const ServeOptions options = ClusterRunOptions(cluster);
    const ServeReport a = RunSyntheticServe(registry, replicas, mix, options);
    const ServeReport b = RunSyntheticServe(registry, replicas, mix, options);
    ASSERT_GT(a.summary.completed, 0) << cluster;
    EXPECT_EQ(a.summary.completed, a.generated_requests) << cluster;
    ASSERT_EQ(a.summary.completed, b.summary.completed) << cluster;
    ASSERT_EQ(a.summary.p99_ms, b.summary.p99_ms) << cluster;
    ASSERT_EQ(a.dispatches.size(), b.dispatches.size()) << cluster;
    ASSERT_NE(a.obs, nullptr);
    ASSERT_NE(b.obs, nullptr);
    EXPECT_EQ(a.obs->ChromeTraceJson(), b.obs->ChromeTraceJson()) << cluster;
    EXPECT_EQ(a.obs->MetricsJson(), b.obs->MetricsJson()) << cluster;
  }
}

TEST(ClusterServeTest, OneNodeClusterIsByteIdenticalToNoCluster) {
  // The single-node bit-identity contract (docs/CLUSTER.md): constructing
  // the cluster layer with one node must not perturb a single byte of the
  // serve artifacts — stats, Chrome trace, metrics timeline.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  const ServeReport plain =
      RunSyntheticServe(registry, replicas, mix, ClusterRunOptions(""));
  const ServeReport one_node = RunSyntheticServe(
      registry, replicas, mix, ClusterRunOptions("least-loaded:nodes=1"));
  ASSERT_GT(plain.summary.completed, 0);
  EXPECT_EQ(plain.summary.completed, one_node.summary.completed);
  EXPECT_EQ(plain.summary.p99_ms, one_node.summary.p99_ms);
  EXPECT_EQ(plain.summary.throughput_rps, one_node.summary.throughput_rps);
  EXPECT_EQ(plain.dispatches.size(), one_node.dispatches.size());
  // No per-node table appears for a one-node cluster.
  EXPECT_TRUE(one_node.summary.per_node.empty());
  ASSERT_NE(plain.obs, nullptr);
  ASSERT_NE(one_node.obs, nullptr);
  EXPECT_EQ(plain.obs->ChromeTraceJson(), one_node.obs->ChromeTraceJson());
  EXPECT_EQ(plain.obs->MetricsJson(), one_node.obs->MetricsJson());
}

TEST(ClusterServeTest, CrossNodeDispatchIsPricedNeverFree) {
  // A shared two-replica pool split across two nodes: both tenants home on
  // node 0, so load must spill to node 1 — and every spilled batch pays
  // modeled network time and moves payload bytes.
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  const ServeReport report = RunSyntheticServe(
      registry, replicas, mix, ClusterRunOptions("least-loaded:nodes=2"));
  ASSERT_EQ(report.summary.per_node.size(), 2u);
  std::int64_t remote = 0;
  double network_s = 0.0;
  double bytes = 0.0;
  for (const NodeSummary& node : report.summary.per_node) {
    remote += node.remote_batches;
    network_s += node.network_s;
    bytes += node.bytes_in + node.bytes_out;
    // A node with remote traffic always shows network time and bytes.
    if (node.remote_batches > 0) {
      EXPECT_GT(node.network_s, 0.0);
      EXPECT_GT(node.bytes_in, 0.0);
      EXPECT_GT(node.bytes_out, 0.0);
    }
  }
  EXPECT_GT(remote, 0);
  EXPECT_GT(network_s, 0.0);
  EXPECT_GT(bytes, 0.0);
  // The cluster metrics are registered on multi-node runs.
  ASSERT_NE(report.obs, nullptr);
  EXPECT_NE(report.obs->MetricsJson().find("cluster.remote_dispatches"),
            std::string::npos);
}

// ----------------------------------------------- node-scoped adversity

TEST(ClusterServeTest, NodeFailureDarkensEveryReplicaOnTheNode) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(4, true);
  const std::vector<WorkloadShare> mix = {{"mlp", 0.5}, {"resnet18", 0.5}};
  ServeOptions options = ClusterRunOptions("least-loaded:nodes=2");
  options.duration_s = 1.0;
  // Partitioned replicas are mlp={0,2}, resnet18={1,3}; this placement
  // gives every tenant a replica on each node, so losing a node leaves
  // both servable.
  options.cluster_nodes = {0, 1, 1, 0};
  options.adversity =
      AdversitySpec::Parse("replica-fail:at=0.3,down=0.3,node=0");
  const ServeReport a = RunSyntheticServe(registry, replicas, mix, options);
  const ServeReport b = RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_GT(a.summary.completed, 0);
  EXPECT_EQ(a.summary.completed, a.generated_requests);
  EXPECT_EQ(a.summary.p99_ms, b.summary.p99_ms);
  ASSERT_NE(a.obs, nullptr);
  EXPECT_EQ(a.obs->ChromeTraceJson(), b.obs->ChromeTraceJson());

  // The pool timeline names the node-scoped outage, and both of the
  // node's replicas (0 and 3) went dark.
  bool node_fault = false;
  bool r0_failed = false;
  bool r3_failed = false;
  for (const PoolEvent& event : a.summary.timeline) {
    if (event.kind != PoolEventKind::kFault) {
      continue;
    }
    node_fault |= event.event.find("node 0 failing") != std::string::npos;
    r0_failed |= event.event.find("replica 0 failed") != std::string::npos;
    r3_failed |= event.event.find("replica 3 failed") != std::string::npos;
  }
  EXPECT_TRUE(node_fault);
  EXPECT_TRUE(r0_failed);
  EXPECT_TRUE(r3_failed);
}

// The node table counts batches that ran: the engine tallies a batch
// against its node when it commits it, not when it routes it. Routing
// happens before the admission expiry sweep and again when a node outage
// re-dispatches an aborted batch, so counting there would also count
// batches that never executed. This is the CI cluster run (4 nodes,
// node-1 outage, guard admission, seed 7).
TEST(ClusterServeTest, NodeTableCountsCommittedBatches) {
  WorkloadRegistry registry;
  const std::vector<WorkloadShare> mix =
      ParseMix("mlp=0.6,resnet18=0.3,nvsa=0.1");
  for (const WorkloadShare& entry : mix) {
    registry.RegisterBuiltin(entry.workload);
  }
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(24, true);
  ServeOptions options;
  options.qps = 20000.0;
  options.duration_s = 4.0;
  options.seed = 7;
  options.scenario = ScenarioSpec::Parse("spike");
  options.cluster = ClusterSpec::Parse("least-loaded:nodes=4");
  options.autoscale = true;
  options.autoscale_opts.max_replicas = 96;
  options.adversity = AdversitySpec::Parse("replica-fail:node=1");
  options.admission = AdmissionSpec::Parse("guard");
  options.tiers = {SlaTier::kCritical, SlaTier::kStandard, SlaTier::kBatch};
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  ASSERT_EQ(report.summary.per_node.size(), 4u);
  std::int64_t node_batches = 0;
  for (const NodeSummary& node : report.summary.per_node) {
    node_batches += node.batches;
  }
  EXPECT_GT(report.summary.batches, 0);
  EXPECT_EQ(node_batches, report.summary.batches);
}

TEST(ClusterServeTest, NodeFailureWithoutClusterIsSkippedLoudly) {
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  const std::vector<ReplicaSpec> replicas = registry.ReplicaSpecs(2, false);
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  ServeOptions options = ClusterRunOptions("");
  options.adversity =
      AdversitySpec::Parse("replica-fail:at=0.1,down=0.1,node=0");
  const ServeReport report =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_EQ(report.summary.completed, report.generated_requests);
  bool skipped = false;
  for (const PoolEvent& event : report.summary.timeline) {
    skipped |= event.event.find("node failure skipped") != std::string::npos;
  }
  EXPECT_TRUE(skipped);
}

// --------------------------------------------------- planner placement

TEST(ClusterPlannerTest, PlacesReplicasUnderPerNodeBudgetsAndRoundTrips) {
  const std::vector<WorkloadShare> mix = {{"mlp", 0.6}, {"resnet18", 0.4}};
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  registry.RegisterBuiltin("resnet18");
  PlanOptions options;
  options.qps = 200.0;
  options.p99_slo_s = 50e-3;
  options.devices = 4;
  options.nodes = 2;
  const PoolPlan plan = PlanCapacity(registry, mix, options);
  ASSERT_TRUE(plan.feasible) << plan.note;
  EXPECT_EQ(plan.nodes, 2);
  const std::vector<int> placement = plan.Placement();
  ASSERT_EQ(static_cast<int>(placement.size()), plan.TotalReplicas());
  for (const int node : placement) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 2);
  }
  for (const GroupPlan& group : plan.groups) {
    EXPECT_EQ(static_cast<int>(group.placement.size()), group.replicas)
        << group.workload;
  }

  // JSON round-trip carries the cluster shape and the exact placement.
  const Json json = plan.ToJson();
  ASSERT_TRUE(json.Contains("cluster"));
  EXPECT_EQ(json.At("cluster").At("nodes").AsInt(), 2);
  WorkloadRegistry reload_registry;
  const PoolPlan reloaded = LoadPlan(json, reload_registry);
  EXPECT_EQ(reloaded.nodes, 2);
  EXPECT_EQ(reloaded.Placement(), placement);
}

TEST(ClusterPlannerTest, SingleNodePlanJsonOmitsTheClusterSchema) {
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  PlanOptions options;
  options.qps = 100.0;
  options.p99_slo_s = 50e-3;
  const PoolPlan plan = PlanCapacity(registry, mix, options);
  ASSERT_TRUE(plan.feasible) << plan.note;
  EXPECT_EQ(plan.nodes, 1);
  // Pre-cluster schema exactly: no cluster object, no placement arrays —
  // plans written by older builds and readers stay interchangeable.
  const Json json = plan.ToJson();
  EXPECT_FALSE(json.Contains("cluster"));
  for (const Json& group : json.At("groups").AsArray()) {
    EXPECT_FALSE(group.Contains("placement"));
  }
}

TEST(ClusterPlannerTest, RejectsUnevenDeviceSplits) {
  const std::vector<WorkloadShare> mix = {{"mlp", 1.0}};
  WorkloadRegistry registry;
  registry.RegisterBuiltin("mlp");
  PlanOptions options;
  options.devices = 3;
  options.nodes = 2;
  EXPECT_THROW(PlanCapacity(registry, mix, options), Error);
}

}  // namespace
}  // namespace nsflow::serve
