// Tests for the top-level NSFlow framework facade (compile -> deploy).
#include "common/error.h"

#include <gtest/gtest.h>

#include "dse/design_config.h"
#include "fpga/rtl_emitter.h"
#include "graph/trace.h"
#include "nsflow/framework.h"
#include "nsflow/host_codegen.h"
#include "workloads/builders.h"

namespace nsflow {
namespace {

TEST(FrameworkTest, CompileProducesAllArtifacts) {
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(workloads::MakeNvsa());

  EXPECT_NE(compiled.graph, nullptr);
  EXPECT_NE(compiled.dataflow, nullptr);
  const AcceleratorDesign& design = compiled.design();
  EXPECT_FALSE(EmitDesignConfig(design, "NVSA").empty());
  EXPECT_FALSE(EmitHostCode(*compiled.dataflow, design, "NVSA").empty());
  EXPECT_FALSE(EmitParameterHeader(design).empty());
  EXPECT_FALSE(EmitTopLevel(design).empty());
  EXPECT_GT(compiled.PredictedSeconds(), 0.0);
}

TEST(FrameworkTest, DesignConfigJsonIsValid) {
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(workloads::MakeNvsa());
  const Json doc = Json::Parse(EmitDesignConfig(
      compiled.design(), compiled.graph->workload_name()));
  EXPECT_EQ(doc.At("workload").AsString(), "NVSA");
  EXPECT_GT(doc.At("array").At("height").AsInt(), 0);
  EXPECT_EQ(doc.At("precision").At("symbolic").AsString(), "INT4");
}

TEST(FrameworkTest, HostCodeReferencesXrtAndSchedule) {
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(workloads::MakeNvsa());
  const std::string code = EmitHostCode(*compiled.dataflow, compiled.design(),
                                        compiled.graph->workload_name());
  EXPECT_NE(code.find("#include <xrt/xrt_kernel.h>"), std::string::npos);
  EXPECT_NE(code.find("nsflow_nn"), std::string::npos);
  EXPECT_NE(code.find("nsflow_vsa"), std::string::npos);
  // The fused schedule issues concurrent lanes for a folding design.
  if (!compiled.design().sequential_mode) {
    EXPECT_NE(code.find("lane_nn"), std::string::npos);
    EXPECT_NE(code.find("lane_vsa"), std::string::npos);
  }
}

TEST(FrameworkTest, CompileFromJsonTraceEndToEnd) {
  // Emit a trace from a built workload, then compile from the JSON path —
  // exercising the Fig. 2 entry artifact.
  const std::string trace = EmitJsonTrace(workloads::MakeMimonet());
  const Compiler compiler;
  const CompiledDesign compiled = compiler.CompileJsonTrace(trace);
  EXPECT_EQ(compiled.graph->workload_name(), "MIMONet");
  EXPECT_GT(compiled.PredictedSeconds(), 0.0);
}

TEST(FrameworkTest, DeployAndRun) {
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(workloads::MakeNvsa());
  const auto accelerator = Deploy(compiled);
  ASSERT_NE(accelerator, nullptr);
  const double seconds = accelerator->RunWorkload();
  // The simulated deployment agrees with the frontend's prediction.
  EXPECT_NEAR(seconds, compiled.PredictedSeconds(),
              0.05 * compiled.PredictedSeconds());
}

TEST(FrameworkTest, ReportAgainstU250) {
  const Compiler compiler;
  const CompiledDesign compiled = compiler.Compile(workloads::MakeNvsa());
  const ResourceReport report = Report(compiled, U250());
  EXPECT_TRUE(report.fits);
  EXPECT_GT(report.dsp_util, 0.0);
}

TEST(FrameworkTest, DifferentWorkloadsGetDifferentDesigns) {
  const Compiler compiler;
  const CompiledDesign nvsa = compiler.Compile(workloads::MakeNvsa());
  const CompiledDesign prae = compiler.Compile(workloads::MakePrae());
  // PrAE has no vector-VSA kernels at all: its design must differ in mode
  // or partition from NVSA's folding design.
  const bool differs =
      nvsa.design().sequential_mode != prae.design().sequential_mode ||
      !(nvsa.design().array == prae.design().array) ||
      nvsa.design().default_nl != prae.design().default_nl;
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace nsflow
