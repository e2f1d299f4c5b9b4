// WorkloadRegistry — the multi-tenant workload catalogue of NSFlow-Serve.
//
// A registry owns named `CompiledDesign`s: each registered workload is
// compiled once through the full NSFlow frontend (`Compiler::Compile`) and
// addressed afterwards by a dense `WorkloadId` — the id the serving pipeline
// stamps on requests and batches. Registration is memoized by *trace content
// hash* via a `CompileCache`: two names whose operator graphs would
// serialize to the same canonical JSON trace share one compiled design, so
// re-registering a workload (or registering an alias) never pays the DSE
// again.
//
// The registry is the layer every multi-tenant serving feature plugs into:
// `ServerPool` takes `Dataflows()` to key its latency cache by workload,
// the engine resolves `--mix mlp=0.6,...` names through `IdOf`, and future
// per-workload priorities/SLOs hang their configuration off the same ids.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/dataflow_graph.h"
#include "graph/operator_graph.h"
#include "nsflow/framework.h"
#include "serve/request.h"
#include "serve/server_pool.h"

namespace nsflow::serve {

/// Memoization of `Compiler::Compile`, keyed by the content hash of the
/// workload's canonical JSON trace. Identical trace content -> one
/// frontend run (dataflow build + two-phase DSE), shared by every caller.
class CompileCache {
 public:
  explicit CompileCache(CompileOptions options = {})
      : compiler_(std::move(options)) {}

  /// FNV-1a over the fields the canonical trace (`EmitJsonTrace`) writes,
  /// hashed directly rather than serialized, so a graph and its JSON round
  /// trip hash equal. Stable across graph copies — only the trace
  /// *content* matters. An in-process cache key; nothing persists it.
  static std::uint64_t ContentHash(const OperatorGraph& graph);

  /// Return the compiled design for `graph`, compiling at most once per
  /// distinct content hash.
  std::shared_ptr<const CompiledDesign> GetOrCompile(OperatorGraph graph);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(cache_.size());
  }

 private:
  Compiler compiler_;
  std::map<std::uint64_t, std::shared_ptr<const CompiledDesign>> cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

class WorkloadRegistry {
 public:
  explicit WorkloadRegistry(CompileOptions options = {})
      : cache_(std::move(options)) {}

  /// Register `graph` under `name`, compiling it (through the cache) on
  /// first sight. Returns the workload's dense id. Registering the same
  /// name twice is an error unless the trace content is identical, in which
  /// case the existing id is returned.
  WorkloadId Register(const std::string& name, OperatorGraph graph);

  /// Register one of the built-in workload builders by name:
  /// mlp | resnet18 | nvsa | mimonet | lvrf | prae.
  WorkloadId RegisterBuiltin(const std::string& name);

  bool Contains(const std::string& name) const;
  /// Id of a registered name; throws when unknown.
  WorkloadId IdOf(const std::string& name) const;
  const std::string& NameOf(WorkloadId id) const;

  int size() const { return static_cast<int>(designs_.size()); }
  std::vector<std::string> Names() const { return names_; }

  const CompiledDesign& compiled(WorkloadId id) const;
  const DataflowGraph& dataflow(WorkloadId id) const;
  /// Per-workload dataflow graphs in id order — the `ServerPool`
  /// multi-tenant constructor's input. Pointers stay valid for the life of
  /// the registry.
  std::vector<const DataflowGraph*> Dataflows() const;

  const CompileCache& cache() const { return cache_; }

  /// Design for a *shared* replica: workload `base`'s DSE winner with the
  /// on-chip memory grown to the element-wise max across `served` (all
  /// registered workloads when empty), and MemA1 sized for the largest
  /// filter any tenant stages. Hardware is provisioned for the worst
  /// tenant; the per-kernel allocation is refit per workload at dispatch
  /// (`serve::RefitDesign`).
  AcceleratorDesign ProvisionDesign(
      WorkloadId base, const std::vector<WorkloadId>& served = {}) const;

  /// Standard multi-tenant pool layout: replica r carries workload
  /// (r % size())'s DSE winner. Partitioned, replica r serves only that
  /// workload (requires `replicas` >= size()); shared, every replica
  /// serves all workloads with memory provisioned for the worst tenant
  /// (`ProvisionDesign`). `tuned_for` provenance is set either way so the
  /// pool keeps tuned allocations exactly where they apply.
  std::vector<ReplicaSpec> ReplicaSpecs(int replicas, bool partitioned) const;

  /// The names `RegisterBuiltin` accepts.
  static std::vector<std::string> BuiltinNames();

 private:
  CompileCache cache_;
  std::vector<std::string> names_;                               // By id.
  std::vector<std::shared_ptr<const CompiledDesign>> designs_;   // By id.
  std::map<std::string, WorkloadId> by_name_;
};

}  // namespace nsflow::serve
