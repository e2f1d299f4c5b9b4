// Tests for the multi-tenant serving path: CompileCache content-hash
// memoization, the MultiBatchFormer's close policy (size cap, flush clamp,
// per-workload batch purity and FIFO order), workload-set-aware dispatch,
// the pool's latency table (hit/miss accounting, reconfigured replicas),
// strict `--mix` parsing, and fixed-seed determinism of a 3-workload mixed
// serve run.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "arch/fastpath.h"
#include "common/error.h"
#include "graph/trace.h"
#include "serve/batch_former.h"
#include "serve/engine.h"
#include "serve/server_pool.h"
#include "serve/workload_registry.h"
#include "workloads/builders.h"

namespace nsflow::serve {
namespace {

Request At(std::int64_t id, double arrival_s, WorkloadId workload) {
  return Request{id, arrival_s, workload};
}

/// One registry shared by the whole suite: the three mix workloads are
/// compiled exactly once no matter how many tests exercise them.
WorkloadRegistry& SharedRegistry() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    r->RegisterBuiltin("mlp");
    r->RegisterBuiltin("resnet18");
    r->RegisterBuiltin("nvsa");
    return r;
  }();
  return *registry;
}

// -------------------------------------------------------------- compile cache

TEST(CompileCacheTest, HitsOnIdenticalTraceContent) {
  WorkloadRegistry registry;
  const WorkloadId a = registry.Register("a", workloads::MakeMlp());
  EXPECT_EQ(registry.cache().misses(), 1);
  EXPECT_EQ(registry.cache().hits(), 0);

  // Same builder, same params -> same trace content -> cache hit, and both
  // names share one CompiledDesign instance.
  const WorkloadId b = registry.Register("b", workloads::MakeMlp());
  EXPECT_EQ(registry.cache().misses(), 1);
  EXPECT_EQ(registry.cache().hits(), 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(&registry.compiled(a), &registry.compiled(b));

  // Different content misses.
  workloads::MlpParams small;
  small.hidden_dim = 256;
  registry.Register("c", workloads::MakeMlp(small));
  EXPECT_EQ(registry.cache().misses(), 2);
}

TEST(CompileCacheTest, ContentHashTracksTraceContent) {
  const auto h1 = CompileCache::ContentHash(workloads::MakeMlp());
  const auto h2 = CompileCache::ContentHash(workloads::MakeMlp());
  EXPECT_EQ(h1, h2);
  workloads::MlpParams other;
  other.hidden_layers = 2;
  EXPECT_NE(h1, CompileCache::ContentHash(workloads::MakeMlp(other)));
}

// The hash reads graph fields instead of the serialized trace, so it must
// agree with the trace: a JSON round trip hashes equal, and every field
// the trace writes moves the hash.
TEST(CompileCacheTest, ContentHashSurvivesAJsonRoundTrip) {
  for (const std::string& name : WorkloadRegistry::BuiltinNames()) {
    WorkloadRegistry registry;
    const WorkloadId id = registry.RegisterBuiltin(name);
    const OperatorGraph& graph = *registry.compiled(id).graph;
    EXPECT_EQ(CompileCache::ContentHash(graph),
              CompileCache::ContentHash(ParseJsonTrace(EmitJsonTrace(graph))))
        << name;
    // Re-registering the round-tripped graph under its name is the same
    // workload, and compiles nothing new.
    EXPECT_EQ(registry.Register(name, ParseJsonTrace(EmitJsonTrace(graph))),
              id)
        << name;
    EXPECT_EQ(registry.cache().misses(), 1) << name;
  }
}

TEST(CompileCacheTest, EveryHashedFieldMovesTheHash) {
  const OperatorGraph base = workloads::MakeNvsa();
  const std::uint64_t hash = CompileCache::ContentHash(base);
  const auto first = [&base](const auto& has) {
    for (const OpNode& node : base.nodes()) {
      if (has(node)) {
        return node.id;
      }
    }
    ADD_FAILURE() << "NVSA has no node of the kind a mutation needs";
    return NodeId{0};
  };
  const NodeId layer = first([](const OpNode& n) { return n.gemm.m > 0; });
  const NodeId vsa = first([](const OpNode& n) { return n.vsa.count > 0; });
  const NodeId simd = first([](const OpNode& n) { return n.elem_count > 0; });
  const NodeId weighted =
      first([](const OpNode& n) { return n.weight_bytes > 0; });
  const NodeId streamed =
      first([](const OpNode& n) { return n.activation_bytes > 0; });
  const NodeId produced =
      first([](const OpNode& n) { return n.output_bytes > 0; });
  const NodeId fed = first([](const OpNode& n) {
    return n.id >= 2 && !n.inputs.empty();
  });
  const auto next_up = [](double bytes) {
    return std::nextafter(bytes, std::numeric_limits<double>::infinity());
  };

  std::vector<std::pair<std::string, std::function<void(OperatorGraph&)>>>
      mutations = {
          {"workload name", [](OperatorGraph& g) { g.set_workload_name("x"); }},
          {"loop count",
           [](OperatorGraph& g) { g.set_loop_count(g.loop_count() + 1); }},
          {"neural precision",
           [](OperatorGraph& g) {
             PrecisionPolicy p = g.precision();
             p.neural = p.neural == Precision::kFP16 ? Precision::kFP32
                                                     : Precision::kFP16;
             g.set_precision(p);
           }},
          {"symbolic precision",
           [](OperatorGraph& g) {
             PrecisionPolicy p = g.precision();
             p.symbolic = p.symbolic == Precision::kFP16 ? Precision::kFP32
                                                         : Precision::kFP16;
             g.set_precision(p);
           }},
          {"node name", [=](OperatorGraph& g) { g.node(layer).name += "_"; }},
          {"node kind",
           [=](OperatorGraph& g) {
             OpKind& kind = g.node(layer).kind;
             kind = kind == OpKind::kLinear ? OpKind::kConv2d : OpKind::kLinear;
           }},
          {"input edge",
           [=](OperatorGraph& g) {
             NodeId& input = g.node(fed).inputs.front();
             input = input == 0 ? 1 : 0;
           }},
          {"gemm m", [=](OperatorGraph& g) { g.node(layer).gemm.m += 1; }},
          {"gemm n", [=](OperatorGraph& g) { g.node(layer).gemm.n += 1; }},
          {"gemm k", [=](OperatorGraph& g) { g.node(layer).gemm.k += 1; }},
          {"vsa count", [=](OperatorGraph& g) { g.node(vsa).vsa.count += 1; }},
          {"vsa dim", [=](OperatorGraph& g) { g.node(vsa).vsa.dim += 1; }},
          {"elem count",
           [=](OperatorGraph& g) { g.node(simd).elem_count += 1; }},
          {"weight bytes",
           [=](OperatorGraph& g) {
             double& bytes = g.node(weighted).weight_bytes;
             bytes = next_up(bytes);
           }},
          {"activation bytes",
           [=](OperatorGraph& g) {
             double& bytes = g.node(streamed).activation_bytes;
             bytes = next_up(bytes);
           }},
          {"output bytes",
           [=](OperatorGraph& g) {
             double& bytes = g.node(produced).output_bytes;
             bytes = next_up(bytes);
           }},
      };
  for (const auto& [field, mutate] : mutations) {
    OperatorGraph mutated = base;
    mutate(mutated);
    EXPECT_NE(CompileCache::ContentHash(mutated), hash) << field;
  }
}

TEST(CompileCacheTest, ReregisteringSameNameSameContentReturnsSameId) {
  WorkloadRegistry registry;
  const WorkloadId first = registry.Register("mlp", workloads::MakeMlp());
  const WorkloadId again = registry.Register("mlp", workloads::MakeMlp());
  EXPECT_EQ(first, again);
  EXPECT_EQ(registry.size(), 1);
  // Same name with different content is rejected.
  workloads::MlpParams other;
  other.classes = 20;
  EXPECT_ANY_THROW(registry.Register("mlp", workloads::MakeMlp(other)));
}

TEST(CompileCacheTest, UnknownNamesThrow) {
  WorkloadRegistry registry;
  EXPECT_ANY_THROW(registry.RegisterBuiltin("not-a-workload"));
  EXPECT_ANY_THROW(registry.IdOf("missing"));
  EXPECT_FALSE(registry.Contains("missing"));
}

// ------------------------------------------------------------- multi former

TEST(MultiBatchFormerTest, SizeCapClosesAtTheLastArrival) {
  MultiBatchFormer former(BatchPolicy{3, 1.0}, 1);
  const std::vector<double> idle(1, 0.0);
  std::vector<Batch> closed;
  former.Add(At(0, 0.00, 0), idle, &closed);
  EXPECT_TRUE(closed.empty());
  former.Add(At(1, 0.01, 0), idle, &closed);
  EXPECT_TRUE(closed.empty());
  former.Add(At(2, 0.02, 0), idle, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].size(), 3);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.02);
  EXPECT_EQ(closed[0].close_reason, BatchCloseReason::kSizeCap);
  EXPECT_EQ(former.pending(0), 0);
  // The next arrival replaces the caller's scratch contents.
  former.Add(At(3, 0.03, 0), idle, &closed);
  EXPECT_TRUE(closed.empty());
}

TEST(MultiBatchFormerTest, FlushClampsToTheOldestDeadline) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 1);
  const std::vector<double> idle(1, 0.0);
  std::vector<Batch> closed;
  former.Add(At(0, 0.100, 0), idle, &closed);
  former.Add(At(1, 0.101, 0), idle, &closed);
  const std::vector<Batch> tail = former.Flush(1.0);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].size(), 2);
  EXPECT_DOUBLE_EQ(tail[0].formed_s, 0.105);
  EXPECT_EQ(tail[0].close_reason, BatchCloseReason::kFlush);
  EXPECT_TRUE(former.Flush(2.0).empty());
}

TEST(MultiBatchFormerTest, BatchesNeverMixWorkloads) {
  MultiBatchFormer former(BatchPolicy{4, 1.0}, 2);
  const std::vector<double> idle(2, 0.0);
  std::vector<Batch> step;
  std::vector<Batch> closed;
  // Interleaved arrivals: w0, w1, w0, w1, ... Each lane fills to 4 on its
  // own; every closed batch must be single-workload.
  for (int i = 0; i < 16; ++i) {
    former.Add(At(i, 0.001 * i, static_cast<WorkloadId>(i % 2)), idle, &step);
    for (Batch& batch : step) {
      closed.push_back(std::move(batch));
    }
  }
  ASSERT_EQ(closed.size(), 4u);
  for (const Batch& batch : closed) {
    EXPECT_EQ(batch.size(), 4);
    for (const Request& request : batch.requests) {
      EXPECT_EQ(request.workload, batch.workload);
    }
  }
}

TEST(MultiBatchFormerTest, FifoOrderWithinWorkload) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 3);
  const std::vector<double> idle(3, 0.0);
  std::vector<Batch> step;
  std::vector<Batch> closed;
  // Round-robin arrivals across 3 workloads, then flush.
  for (int i = 0; i < 12; ++i) {
    former.Add(At(i, 1e-4 * i, static_cast<WorkloadId>(i % 3)), idle, &step);
    for (Batch& batch : step) {
      closed.push_back(std::move(batch));
    }
  }
  for (Batch& batch : former.Flush(1.0)) {
    closed.push_back(std::move(batch));
  }
  std::int64_t total = 0;
  for (const Batch& batch : closed) {
    for (std::size_t i = 1; i < batch.requests.size(); ++i) {
      EXPECT_LT(batch.requests[i - 1].id, batch.requests[i].id);
      EXPECT_LT(batch.requests[i - 1].arrival_s, batch.requests[i].arrival_s);
    }
    total += batch.size();
  }
  EXPECT_EQ(total, 12);
}

TEST(MultiBatchFormerTest, ExpiredLanesCloseOldestHeadOfLineFirst) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 3);
  const std::vector<double> idle(3, 0.0);
  std::vector<Batch> closed;
  // Lane 2's head arrives first, then lane 0's: both wait past their
  // deadlines; a late arrival on lane 1 must close lane 2 before lane 0.
  former.Add(At(0, 0.000, 2), idle, &closed);
  EXPECT_TRUE(closed.empty());
  former.Add(At(1, 0.002, 0), idle, &closed);
  EXPECT_TRUE(closed.empty());
  former.Add(At(2, 0.100, 1), idle, &closed);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].workload, 2);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.005);  // Its own deadline.
  EXPECT_EQ(closed[1].workload, 0);
  EXPECT_DOUBLE_EQ(closed[1].formed_s, 0.007);
  EXPECT_EQ(former.pending(1), 1);
}

TEST(MultiBatchFormerTest, BusyHorizonStretchesPerWorkload) {
  MultiBatchFormer former(BatchPolicy{8, 0.005}, 2);
  // Workload 0's replicas are busy until t=0.1; workload 1's are idle.
  const std::vector<double> busy = {0.100, 0.0};
  std::vector<Batch> closed;
  former.Add(At(0, 0.000, 0), busy, &closed);
  EXPECT_TRUE(closed.empty());
  former.Add(At(1, 0.001, 1), busy, &closed);
  EXPECT_TRUE(closed.empty());
  // t=0.050: lane 1 is past its (unstretched) deadline and closes; lane 0
  // keeps absorbing backlog until its busy horizon.
  former.Add(At(2, 0.050, 0), busy, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 1);
  EXPECT_EQ(former.pending(0), 2);
  // t=0.120 passes the stretched horizon: lane 0 closes at it.
  former.Add(At(3, 0.120, 1), busy, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 0);
  EXPECT_DOUBLE_EQ(closed[0].formed_s, 0.100);
}

TEST(MultiBatchFormerTest, ArrivalAtTheDeadlineClosesTheLane) {
  // The expiry gate opens at the earliest deadline itself: a gate that
  // waits for an arrival strictly past it keeps lane 0 open here.
  MultiBatchFormer former(BatchPolicy{8, 0.25}, 2);
  const std::vector<double> idle(2, 0.0);
  std::vector<Batch> closed;
  former.Add(At(0, 0.25, 0), idle, &closed);
  EXPECT_EQ(former.next_deadline(), 0.5);
  former.Add(At(1, 0.5, 1), idle, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 0);
  EXPECT_EQ(closed[0].formed_s, 0.5);
  EXPECT_EQ(closed[0].close_reason, BatchCloseReason::kDeadline);
  EXPECT_EQ(former.next_deadline(), 0.75);  // Lane 1's.
}

TEST(MultiBatchFormerTest, ShorterWaitMovesTheGateForward) {
  // SetPolicy must refresh the gate: left at the old 1.0 s deadline, it
  // would let the arrival at 0.5 pass without closing lane 0.
  MultiBatchFormer former(BatchPolicy{8, 1.0}, 2);
  const std::vector<double> idle(2, 0.0);
  std::vector<Batch> closed;
  former.Add(At(0, 0.0, 0), idle, &closed);
  EXPECT_EQ(former.next_deadline(), 1.0);
  former.SetPolicy(0, BatchPolicy{8, 0.25});
  EXPECT_EQ(former.next_deadline(), 0.25);
  former.Add(At(1, 0.5, 1), idle, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 0);
  EXPECT_EQ(closed[0].formed_s, 0.25);
}

TEST(MultiBatchFormerTest, GateMovesToTheNextDeadlineAfterAClose) {
  // A close must refresh the gate to the next open lane's deadline (and to
  // +inf once every lane is empty); a gate left at the closed lane's
  // deadline would rescan every lane on every arrival.
  MultiBatchFormer former(BatchPolicy{8, 0.25}, 3);
  const std::vector<double> idle(3, 0.0);
  std::vector<Batch> closed;
  former.Add(At(0, 0.0, 0), idle, &closed);
  former.Add(At(1, 0.125, 1), idle, &closed);
  EXPECT_EQ(former.next_deadline(), 0.25);
  former.Add(At(2, 0.3125, 2), idle, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 0);
  EXPECT_EQ(former.next_deadline(), 0.375);  // Lane 1's.
  former.Add(At(3, 0.375, 0), idle, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].workload, 1);
  EXPECT_EQ(closed[0].formed_s, 0.375);
  EXPECT_EQ(former.next_deadline(), 0.5625);  // Lane 2's.
  former.Flush(1.0);
  EXPECT_EQ(former.next_deadline(), std::numeric_limits<double>::infinity());
}

// ------------------------------------------------------------ pool routing

TEST(MultiTenantPoolTest, PartitionedDispatchRespectsWorkloadSets) {
  WorkloadRegistry& registry = SharedRegistry();
  // Replica r serves only workload r (3 replicas, 3 workloads).
  const std::vector<ReplicaSpec> specs =
      registry.ReplicaSpecs(registry.size(), /*partitioned=*/true);
  ServerPool pool(specs, registry.Dataflows());
  for (int r = 0; r < pool.size(); ++r) {
    for (WorkloadId w = 0; w < pool.workloads(); ++w) {
      EXPECT_EQ(pool.CanServe(r, w), r == w);
    }
  }

  for (int i = 0; i < 6; ++i) {
    Batch batch;
    batch.workload = static_cast<WorkloadId>(i % 3);
    batch.formed_s = 0.0;
    batch.requests = {At(i, 0.0, batch.workload)};
    const DispatchRecord record = pool.Dispatch(batch);
    EXPECT_EQ(record.replica, batch.workload);  // Only capable replica.
    EXPECT_EQ(record.workload, batch.workload);
  }
  // A batch for a workload with no capable replica is rejected up front at
  // pool construction, not dispatch: constructing such a pool throws.
  std::vector<ReplicaSpec> uncovered = {
      ReplicaSpec{registry.compiled(0).design(), {0}, 0}};
  EXPECT_ANY_THROW(ServerPool(uncovered, registry.Dataflows()));
  // So is a partitioned layout with fewer replicas than workloads.
  EXPECT_ANY_THROW(registry.ReplicaSpecs(registry.size() - 1,
                                         /*partitioned=*/true));
}

TEST(MultiTenantPoolTest, LatencyCacheIsKeyedByWorkload) {
  WorkloadRegistry& registry = SharedRegistry();
  // One replica, one design, serving all three workloads: the same batch
  // size must yield per-workload service times (mlp is far lighter than
  // nvsa).
  const WorkloadId nvsa = registry.IdOf("nvsa");
  const WorkloadId mlp = registry.IdOf("mlp");
  std::vector<ReplicaSpec> specs = {
      ReplicaSpec{registry.ProvisionDesign(nvsa), {}, nvsa}};
  ServerPool pool(specs, registry.Dataflows());
  // Rows taken before a warm add of a new kind fill only the kinds they
  // saw, as the engine's deferred warm-up relies on.
  const ServerPool::WarmRows rows = pool.RowsFor(mlp, 4);
  ReplicaSpec slower = specs[0];
  slower.design.clock_hz *= 0.5;
  const int added = pool.AddReplica(slower, 0.0);
  // A warm fill counts neither hits nor misses; its entries then hit.
  pool.WarmBatchSizes(rows);
  EXPECT_EQ(pool.cache_hits(), 0);
  EXPECT_EQ(pool.cache_misses(), 0);
  const double mlp_s = pool.BatchSeconds(0, mlp, 4);
  EXPECT_EQ(pool.cache_hits(), 1);
  EXPECT_EQ(pool.cache_misses(), 0);
  pool.BatchSeconds(added, mlp, 4);
  EXPECT_EQ(pool.cache_misses(), 1);
  pool.BatchSeconds(0, mlp, 5);  // Past the warmed cap.
  EXPECT_EQ(pool.cache_misses(), 2);
  // The first lookup of an unwarmed entry is one miss; repeats hit.
  const double nvsa_s = pool.BatchSeconds(0, nvsa, 4);
  EXPECT_EQ(pool.cache_misses(), 3);
  EXPECT_EQ(pool.BatchSeconds(0, nvsa, 4), nvsa_s);
  EXPECT_EQ(pool.BatchSeconds(0, nvsa, 4), nvsa_s);
  EXPECT_EQ(pool.cache_hits(), 3);
  EXPECT_EQ(pool.cache_misses(), 3);
  EXPECT_GT(mlp_s, 0.0);
  EXPECT_GT(nvsa_s, mlp_s);
}

TEST(MultiTenantPoolTest, ReconfiguredReplicasMatchTheServingModel) {
  WorkloadRegistry& registry = SharedRegistry();
  const WorkloadId mlp = registry.IdOf("mlp");
  const WorkloadId nvsa = registry.IdOf("nvsa");
  // Partitioned: replica w serves only workload w.
  ServerPool pool(registry.ReplicaSpecs(registry.size(), /*partitioned=*/true),
                  registry.Dataflows());
  pool.WarmBatchSizes(4);
  const auto model_seconds = [&](const AcceleratorDesign& design,
                                 WorkloadId w, bool tuned, int batch) {
    return arch::BuildServingModel(design, registry.dataflow(w), tuned)
        .BatchSeconds(batch);
  };

  // A warm add of a kind the pool has never seen (a slower clock), tuned
  // for nvsa and serving every workload.
  ReplicaSpec added{registry.ProvisionDesign(nvsa), {}, nvsa};
  added.design.clock_hz *= 0.5;
  const int r = pool.AddReplica(added, 0.0);
  for (WorkloadId w = 0; w < registry.size(); ++w) {
    for (const int batch : {1, 3, 8}) {
      EXPECT_EQ(pool.BatchSeconds(r, w, batch),
                model_seconds(added.design, w, w == nvsa, batch));
    }
  }
  // Entries filled before the new kind grew the table are intact.
  EXPECT_EQ(pool.BatchSeconds(mlp, mlp, 4),
            model_seconds(registry.compiled(mlp).design(), mlp, true, 4));

  // Refit mlp's replica to serve nvsa on mlp's design with memory
  // provisioned for every tenant: tuned for mlp, so the refit allocation
  // applies.
  const ReplicaSpec refit{registry.ProvisionDesign(mlp), {nvsa}, mlp};
  pool.RefitInPlace(mlp, refit, 0.0);
  for (const int batch : {1, 3, 8}) {
    EXPECT_EQ(pool.BatchSeconds(mlp, nvsa, batch),
              model_seconds(refit.design, nvsa, false, batch));
  }
}

// ----------------------------------------------------------- mixed serving

TEST(MultiTenantServeTest, ThreeWorkloadMixIsDeterministicUnderFixedSeed) {
  WorkloadRegistry& registry = SharedRegistry();
  const std::vector<WorkloadShare> mix = {
      {"mlp", 0.6}, {"resnet18", 0.3}, {"nvsa", 0.1}};
  const std::vector<ReplicaSpec> replicas =
      registry.ReplicaSpecs(4, /*partitioned=*/false);
  ServeOptions options;
  options.qps = 150.0;
  options.duration_s = 0.4;
  options.seed = 7;

  const ServeReport first =
      RunSyntheticServe(registry, replicas, mix, options);
  const ServeReport second =
      RunSyntheticServe(registry, replicas, mix, options);

  EXPECT_EQ(first.generated_requests, second.generated_requests);
  ASSERT_EQ(first.dispatches.size(), second.dispatches.size());
  for (std::size_t i = 0; i < first.dispatches.size(); ++i) {
    EXPECT_EQ(first.dispatches[i].replica, second.dispatches[i].replica);
    EXPECT_EQ(first.dispatches[i].workload, second.dispatches[i].workload);
    EXPECT_DOUBLE_EQ(first.dispatches[i].start_s,
                     second.dispatches[i].start_s);
    EXPECT_DOUBLE_EQ(first.dispatches[i].complete_s,
                     second.dispatches[i].complete_s);
    EXPECT_EQ(first.dispatches[i].size, second.dispatches[i].size);
  }
  ASSERT_EQ(first.summary.per_workload.size(), 3u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(first.summary.per_workload[w].completed,
              second.summary.per_workload[w].completed);
    EXPECT_DOUBLE_EQ(first.summary.per_workload[w].p99_ms,
                     second.summary.per_workload[w].p99_ms);
  }

  // All generated traffic completes, every workload in the mix saw some,
  // and the shares roughly track the mix (0.6 mlp vs 0.1 nvsa).
  EXPECT_EQ(first.summary.completed, first.generated_requests);
  const auto& slices = first.summary.per_workload;
  EXPECT_EQ(slices[0].name, "mlp");
  EXPECT_GT(slices[0].completed, 0);
  EXPECT_GT(slices[1].completed, 0);
  EXPECT_GT(slices[2].completed, 0);
  EXPECT_GT(slices[0].completed, slices[2].completed);

  // A different seed draws a different (time, workload) trace.
  options.seed = 99;
  const ServeReport other =
      RunSyntheticServe(registry, replicas, mix, options);
  EXPECT_NE(other.summary.p99_ms, first.summary.p99_ms);
}

TEST(MultiTenantServeTest, ParseMixIsStrict) {
  const std::vector<WorkloadShare> mix = ParseMix("mlp=0.6,nvsa=2");
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].workload, "mlp");
  EXPECT_EQ(mix[0].share, 0.6);
  EXPECT_EQ(mix[1].workload, "nvsa");
  EXPECT_EQ(mix[1].share, 2.0);
  EXPECT_THROW(ParseMix(""), Error);
  EXPECT_THROW(ParseMix("mlp"), Error);
  EXPECT_THROW(ParseMix("=0.5"), Error);
  EXPECT_THROW(ParseMix("mlp=abc"), Error);
  EXPECT_THROW(ParseMix("mlp=0"), Error);
  EXPECT_THROW(ParseMix("mlp=0.5,,nvsa=0.5"), Error);
  // The whole token must be a finite number.
  EXPECT_THROW(ParseMix("mlp=0.6abc"), Error);
  EXPECT_THROW(ParseMix("mlp= 0.6"), Error);
  EXPECT_THROW(ParseMix("mlp=inf,nvsa=1"), Error);
  EXPECT_THROW(ParseMix("mlp=nan"), Error);
}

TEST(MultiTenantServeTest, ArrivalMixSamplingIsSeeded) {
  ServeOptions options;
  options.qps = 500.0;
  options.duration_s = 1.0;
  options.seed = 11;
  const std::vector<double> shares = {0.6, 0.3, 0.1};
  const auto first = SyntheticArrivals(options, shares);
  const auto second = SyntheticArrivals(options, shares);
  ASSERT_EQ(first.size(), second.size());
  std::vector<std::int64_t> counts(3, 0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].workload, second[i].workload);
    EXPECT_DOUBLE_EQ(first[i].arrival_s, second[i].arrival_s);
    ++counts[static_cast<std::size_t>(first[i].workload)];
  }
  // Law of large numbers at ~500 samples: ordering of shares is preserved.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
}

}  // namespace
}  // namespace nsflow::serve
