#include "serve/workload_registry.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "workloads/builders.h"

namespace nsflow::serve {

namespace {

/// FNV-1a 64-bit, fed one field at a time.
class Fnv1a {
 public:
  /// The value's bytes; integers, enums and doubles hash by bit pattern.
  template <typename T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      Byte(b);
    }
  }
  /// Length-prefixed, so adjacent strings cannot trade characters.
  void Add(const std::string& text) {
    Add(text.size());
    for (const char c : text) {
      Byte(static_cast<unsigned char>(c));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) { hash_ = (hash_ ^ b) * 1099511628211ull; }

  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

std::uint64_t CompileCache::ContentHash(const OperatorGraph& graph) {
  // Exactly what EmitJsonTrace writes, under its presence conditions: the
  // kind and precisions by enum value (one-to-one with the names the trace
  // prints), inputs by producer name, doubles by bit pattern (the trace
  // prints them exactly, so a JSON round trip keeps every bit). Each
  // optional field hashes a presence flag so fields cannot shift.
  Fnv1a h;
  h.Add(graph.workload_name());
  h.Add(static_cast<std::int64_t>(graph.loop_count()));
  h.Add(graph.precision().neural);
  h.Add(graph.precision().symbolic);
  h.Add(graph.nodes().size());
  for (const OpNode& node : graph.nodes()) {
    h.Add(node.name);
    h.Add(node.kind);
    h.Add(node.inputs.size());
    for (const NodeId input : node.inputs) {
      h.Add(graph.node(input).name);
    }
    h.Add(node.gemm.m > 0);
    if (node.gemm.m > 0) {
      h.Add(node.gemm.m);
      h.Add(node.gemm.n);
      h.Add(node.gemm.k);
    }
    h.Add(node.vsa.count > 0);
    if (node.vsa.count > 0) {
      h.Add(node.vsa.count);
      h.Add(node.vsa.dim);
    }
    const auto optional = [&h](auto value) {
      h.Add(value > 0);
      if (value > 0) {
        h.Add(value);
      }
    };
    optional(node.elem_count);
    optional(node.weight_bytes);
    optional(node.activation_bytes);
    optional(node.output_bytes);
  }
  return h.value();
}

std::shared_ptr<const CompiledDesign> CompileCache::GetOrCompile(
    OperatorGraph graph) {
  const std::uint64_t key = ContentHash(graph);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  auto compiled = std::make_shared<const CompiledDesign>(
      compiler_.Compile(std::move(graph)));
  cache_.emplace(key, compiled);
  ++misses_;
  return compiled;
}

WorkloadId WorkloadRegistry::Register(const std::string& name,
                                      OperatorGraph graph) {
  NSF_CHECK_MSG(!name.empty(), "workload name cannot be empty");
  const auto existing = by_name_.find(name);
  if (existing != by_name_.end()) {
    const WorkloadId id = existing->second;
    NSF_CHECK_MSG(
        CompileCache::ContentHash(graph) ==
            CompileCache::ContentHash(*designs_[static_cast<std::size_t>(id)]
                                           ->graph),
        "workload '" + name + "' already registered with different content");
    return id;
  }
  auto compiled = cache_.GetOrCompile(std::move(graph));
  const auto id = static_cast<WorkloadId>(designs_.size());
  names_.push_back(name);
  designs_.push_back(std::move(compiled));
  by_name_.emplace(name, id);
  return id;
}

WorkloadId WorkloadRegistry::RegisterBuiltin(const std::string& name) {
  if (name == "mlp") {
    return Register(name, workloads::MakeMlp());
  }
  if (name == "resnet18") {
    return Register(name, workloads::MakeResnet18Classifier());
  }
  if (name == "nvsa") {
    return Register(name, workloads::MakeNvsa());
  }
  if (name == "mimonet") {
    return Register(name, workloads::MakeMimonet());
  }
  if (name == "lvrf") {
    return Register(name, workloads::MakeLvrf());
  }
  if (name == "prae") {
    return Register(name, workloads::MakePrae());
  }
  std::string known;
  for (const std::string& builtin : BuiltinNames()) {
    known += (known.empty() ? "" : ", ") + builtin;
  }
  throw Error("unknown built-in workload '" + name + "' (known: " + known +
              ")");
}

bool WorkloadRegistry::Contains(const std::string& name) const {
  return by_name_.find(name) != by_name_.end();
}

WorkloadId WorkloadRegistry::IdOf(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw Error("workload '" + name + "' is not registered");
  }
  return it->second;
}

const std::string& WorkloadRegistry::NameOf(WorkloadId id) const {
  NSF_CHECK_MSG(id >= 0 && id < size(), "workload id out of range");
  return names_[static_cast<std::size_t>(id)];
}

const CompiledDesign& WorkloadRegistry::compiled(WorkloadId id) const {
  NSF_CHECK_MSG(id >= 0 && id < size(), "workload id out of range");
  return *designs_[static_cast<std::size_t>(id)];
}

const DataflowGraph& WorkloadRegistry::dataflow(WorkloadId id) const {
  return *compiled(id).dataflow;
}

std::vector<const DataflowGraph*> WorkloadRegistry::Dataflows() const {
  std::vector<const DataflowGraph*> dfgs;
  dfgs.reserve(designs_.size());
  for (const auto& design : designs_) {
    dfgs.push_back(design->dataflow.get());
  }
  return dfgs;
}

AcceleratorDesign WorkloadRegistry::ProvisionDesign(
    WorkloadId base, const std::vector<WorkloadId>& served) const {
  AcceleratorDesign design = compiled(base).design();
  std::vector<WorkloadId> ids = served;
  if (ids.empty()) {
    for (WorkloadId w = 0; w < size(); ++w) {
      ids.push_back(w);
    }
  }
  for (const WorkloadId w : ids) {
    const auto& tenant = compiled(w).design().memory;
    auto& m = design.memory;
    m.mem_a1_bytes = std::max(m.mem_a1_bytes, tenant.mem_a1_bytes);
    m.mem_a2_bytes = std::max(m.mem_a2_bytes, tenant.mem_a2_bytes);
    m.mem_b_bytes = std::max(m.mem_b_bytes, tenant.mem_b_bytes);
    m.mem_c_bytes = std::max(m.mem_c_bytes, tenant.mem_c_bytes);
    m.cache_bytes = std::max(m.cache_bytes, tenant.cache_bytes);
    // The controller double-buffers filters in MemA1: the largest filter of
    // every tenant must fit in half of it, whatever memory-merge mode the
    // tenant's own DSE assumed.
    for (const auto& layer : dataflow(w).layers()) {
      m.mem_a1_bytes = std::max(m.mem_a1_bytes, 2.0 * layer.weight_bytes);
    }
  }
  return design;
}

std::vector<ReplicaSpec> WorkloadRegistry::ReplicaSpecs(
    int replicas, bool partitioned) const {
  NSF_CHECK_MSG(size() >= 1, "registry has no workloads");
  NSF_CHECK_MSG(replicas >= 1, "need at least one replica");
  NSF_CHECK_MSG(!partitioned || replicas >= size(),
                "a partitioned pool needs at least one replica per workload");
  // One spec per base workload (provisioning walks every tenant's layers),
  // copied to each replica it carries.
  std::vector<ReplicaSpec> bases(
      static_cast<std::size_t>(std::min(replicas, size())));
  for (std::size_t w = 0; w < bases.size(); ++w) {
    ReplicaSpec& spec = bases[w];
    spec.tuned_for = static_cast<WorkloadId>(w);
    if (partitioned) {
      spec.design = compiled(spec.tuned_for).design();
      spec.workloads = {spec.tuned_for};
    } else {
      spec.design = ProvisionDesign(spec.tuned_for);
    }
  }
  std::vector<ReplicaSpec> specs;
  specs.reserve(static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    specs.push_back(bases[static_cast<std::size_t>(r % size())]);
  }
  return specs;
}

std::vector<std::string> WorkloadRegistry::BuiltinNames() {
  return {"mlp", "resnet18", "nvsa", "mimonet", "lvrf", "prae"};
}

}  // namespace nsflow::serve
