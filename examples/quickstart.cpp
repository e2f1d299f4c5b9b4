// Quickstart: compile an NSAI workload with NSFlow's frontend, inspect the
// generated design, deploy it on the simulated backend, and run a kernel.
//
//   $ ./quickstart
//
// Walks the full Fig. 2 flow in ~40 lines of user code.
#include <cstdio>

#include "common/rng.h"
#include "dse/design_config.h"
#include "nsflow/framework.h"
#include "vsa/block_code.h"
#include "workloads/builders.h"

int main() {
  using namespace nsflow;

  // 1. Build (or ingest) a workload. Here: NVSA — ResNet-18 perception over
  //    16 RAVEN panels plus a VSA reasoning backend (paper Table I).
  OperatorGraph workload = workloads::MakeNvsa();
  std::printf("Workload: %s, %lld ops, %.2f GFLOPs\n",
              workload.workload_name().c_str(),
              static_cast<long long>(workload.size()),
              workload.TotalFlops() / 1e9);

  // 2. Frontend: dataflow graph -> two-phase DSE -> design config.
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(std::move(workload));
  const auto& design = compiled.design();
  std::printf("Generated AdArray: H=%lld W=%lld N=%lld (partition %lld:%lld),"
              " SIMD width %lld, %s mode\n",
              static_cast<long long>(design.array.height),
              static_cast<long long>(design.array.width),
              static_cast<long long>(design.array.count),
              static_cast<long long>(design.default_nl),
              static_cast<long long>(design.default_nv),
              static_cast<long long>(design.simd_width),
              design.sequential_mode ? "sequential" : "folded");
  std::printf("Predicted end-to-end latency: %.3f ms\n",
              compiled.PredictedSeconds() * 1e3);

  // 3. Check the deployment fits the U250 (Table III).
  const ResourceReport report = Report(compiled, U250());
  std::printf("U250 utilization: DSP %.0f%%, LUT %.0f%%, BRAM %.0f%% -> %s\n",
              report.dsp_util * 100.0, report.lut_util * 100.0,
              report.bram_util * 100.0, report.fits ? "fits" : "DOES NOT FIT");

  // 4. Backend: deploy on the cycle-level simulator and launch a VSA kernel
  //    through the XRT-like runtime.
  const auto accelerator = Deploy(compiled);
  Rng rng(7);
  const vsa::BlockShape shape{4, 256};
  auto role = vsa::RandomHyperVector(shape, rng);
  auto filler = vsa::RandomHyperVector(shape, rng);
  role.NormalizeBlocks();
  filler.NormalizeBlocks();

  const auto bound = accelerator->RunBind(role, filler);
  std::printf("Bound a [4,256] block-code pair on-device in %.0f cycles "
              "(%.2f us @ 272 MHz)\n",
              bound.device_cycles, bound.device_cycles / 272.0);

  const vsa::HyperVector composite(shape, bound.output);
  const auto recovered = accelerator->RunUnbind(composite, filler);
  const vsa::HyperVector estimate(shape, recovered.output);
  std::printf("Unbinding recovered the role with similarity %.3f\n",
              vsa::Similarity(estimate, role));

  // 5. Full simulated inference run.
  std::printf("Simulated end-to-end inference: %.3f ms\n",
              accelerator->RunWorkload() * 1e3);

  // The emitted artifacts a real deployment would consume:
  std::printf("\n--- design_config.json (first 400 chars) ---\n%.400s...\n",
              EmitDesignConfig(compiled.design(),
                               compiled.graph->workload_name())
                  .c_str());
  return 0;
}
