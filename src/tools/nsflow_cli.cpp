// nsflow — command-line front door to the framework (the `NSFlow-generated`
// flow of paper Fig. 2).
//
//   nsflow compile <trace.json>   frontend -> deployment artifacts
//   nsflow estimate <trace.json>  latency prediction on baseline devices
//   nsflow serve [trace.json]     NSFlow-Serve replica pool (docs/SERVING.md)
//   nsflow plan                   SLO-driven capacity planning
//                                 (docs/PLANNING.md)
//   nsflow demo                   compile the built-in NVSA workload
//
// `nsflow <command> --help` prints the command's flag reference. The flag
// tables below are the single source of that help text, and each command
// accepts exactly its own flags — a flag from another command (or an
// unknown one) is an error with a non-zero exit, never silently ignored.
// tools/check_doc_links.py cross-checks these tables against the docs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/number.h"
#include "common/table.h"
#include "dse/design_config.h"
#include "dse/dse.h"
#include "fpga/device.h"
#include "fpga/rtl_emitter.h"
#include "graph/trace.h"
#include "model/device_zoo.h"
#include "nsflow/framework.h"
#include "nsflow/host_codegen.h"
#include "serve/capacity_planner.h"
#include "serve/cluster.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "workloads/builders.h"

namespace nsflow {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open file: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error("cannot write file: " + path);
  }
  out << contents;
}

/// Parses `flag`'s value with `parse`. An error that does not name the flag
/// yet gets it as a prefix, so every bad value points at its flag; a failed
/// internal check passes through as it is.
template <typename Parse>
auto ParseFlag(const std::string& flag, const std::string& value,
               const Parse& parse) {
  try {
    return parse(value);
  } catch (const CheckError&) {
    throw;
  } catch (const Error& e) {
    if (std::string_view(e.what()).find(flag) != std::string_view::npos) {
      throw;
    }
    throw Error(flag + ": " + e.what());
  }
}

// ---------------------------------------------------------------- flag spec

/// One command-line flag: its value placeholder ("" = boolean switch), the
/// default shown in --help, and the help line. These tables are the single
/// source of truth for `--help`, for per-command flag validation, and for
/// the docs cross-check in tools/check_doc_links.py.
struct FlagSpec {
  const char* flag;
  const char* value;    // "" for boolean switches.
  const char* fallback; // Default, as shown in help.
  const char* help;
};

struct CommandSpec {
  const char* name;
  const char* operand;  // Positional operand, "" when none.
  const char* summary;
  std::vector<FlagSpec> flags;
};

const std::vector<FlagSpec> kDseFlags = {
    {"--max-pes", "N", "16384", "DSE PE budget M (FPGA resource bound)"},
    {"--clock-mhz", "F", "272", "deployment clock frequency, MHz"},
    {"--no-phase2", "", "off", "disable DSE Phase II per-kernel tuning"},
};

std::vector<FlagSpec> WithDseFlags(std::vector<FlagSpec> flags) {
  flags.insert(flags.end(), kDseFlags.begin(), kDseFlags.end());
  return flags;
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"compile", "<trace.json>",
       "run the frontend on a JSON program trace and emit design_config.json,"
       " host.cpp, nsflow_params.vh, nsflow_top.v, and report.txt",
       WithDseFlags({
           {"--out-dir", "DIR", ".", "directory for the emitted artifacts"},
       })},
      {"estimate", "<trace.json>",
       "predict end-to-end workload latency on a baseline device or the"
       " NSFlow-generated design",
       WithDseFlags({
           {"--device", "NAME", "nsflow",
            "nsflow | tx2 | nx | cpu | rtx2080 | coral | tpu-like | dpu"},
       })},
      {"serve", "[trace.json]",
       "deploy a replica pool and drive it with a synthetic arrival trace;"
       " see docs/SERVING.md and docs/SCENARIOS.md",
       WithDseFlags({
           {"--qps", "F", "100", "offered load, requests/second (scenario"
                                 " mean rate)"},
           {"--duration", "F", "1.0", "virtual arrival-trace length, seconds"},
           {"--replicas", "N", "1", "pool size"},
           {"--max-batch", "N", "8", "batch former size cap"},
           {"--max-wait-ms", "F", "5", "batch former wait cap, ms"},
           {"--seed", "N", "42", "arrival-trace RNG seed"},
           {"--heterogeneous", "", "off",
            "single-workload pools: replica designs from the DSE pareto"
            " frontier"},
           {"--mix", "name=share,...", "off",
            "multi-tenant mode, e.g. mlp=0.6,resnet18=0.3,nvsa=0.1"},
           {"--partition", "", "off",
            "with --mix: dedicate replica r to workload r % W"},
           {"--scenario", "name[:k=v,...]", "poisson",
            "arrival pattern: poisson | diurnal | bursty | ramp | spike |"
            " closed | trace (docs/SCENARIOS.md)"},
           {"--adversity", "name[:k=v,...]", "none",
            "environment-fault injection: none | replica-fail | straggler |"
            " churn | flash (seed-deterministic; docs/SCENARIOS.md)"},
           {"--admission", "name[:k=v,...]", "none",
            "admission frontend: none | quota | slo | overload | guard —"
            " per-tenant token buckets, SLA-tier deadlines, overload"
            " shedding, bounded retries (docs/ADMISSION.md)"},
           {"--cluster", "name[:k=v,...]", "none",
            "multi-node serving: none | hash | least-loaded — replicas"
            " shard across nodes=N hosts and cross-node dispatch pays the"
            " modeled interconnect (hops, hop_us, gbps; docs/CLUSTER.md)"},
           {"--tiers", "name=tier,...", "standard",
            "with --admission: SLA tier per workload, critical | standard |"
            " batch, e.g. mlp=critical,resnet18=batch (docs/ADMISSION.md)"},
           {"--plan", "FILE", "off",
            "execute a PoolPlan emitted by `nsflow plan --out` and report"
            " predicted vs measured latency"},
           {"--autoscale", "", "off",
            "elastic autoscaling: replan online from windowed arrival"
            " rates and reconfigure the pool mid-run (needs --plan, or"
            " --mix with --partition; docs/AUTOSCALING.md)"},
           {"--headroom", "F", "0.25",
            "autoscale: provision for observed rate x (1 + headroom)"},
           {"--cooldown-s", "F", "2",
            "autoscale: min virtual seconds between scale-downs of one"
            " workload"},
           {"--min-replicas", "N", "1",
            "autoscale: per-workload replica floor"},
           {"--max-replicas", "N", "16",
            "autoscale: per-workload replica ceiling (replan bound)"},
           {"--trace-out", "FILE", "off",
            "record the run and write a Chrome trace_event JSON (a .bin"
            " path writes the compact binary encoding instead) — load in"
            " Perfetto (docs/OBSERVABILITY.md)"},
           {"--metrics-out", "FILE", "off",
            "record the run and write the metrics.json snapshot timeline"
            " (docs/OBSERVABILITY.md)"},
           {"--trace-detail", "spans|full", "spans",
            "trace expansion: full additionally nests per-request"
            " form/execute phase spans (export-time choice)"},
       })},
      {"plan", "",
       "search the DSE pareto frontier for the smallest replica pool meeting"
       " a p99 SLO under an FPGA budget; see docs/PLANNING.md",
       WithDseFlags({
           {"--mix", "name=share,...", "required",
            "workload mix the pool must serve"},
           {"--p99-ms", "F", "10", "p99 latency SLO, ms"},
           {"--budget", "NAME", "u250", "budget FPGA device: u250 | zcu104"},
           {"--devices", "N", "1", "how many budget devices the pool may use"},
           {"--nodes", "N", "1",
            "cluster hosts the devices split across — replicas are placed"
            " per node and serve --plan deploys the cluster"
            " (docs/CLUSTER.md)"},
           {"--qps", "F", "100", "offered load to plan for (mean rate; the"
                                 " scenario's peak shape scales it)"},
           {"--scenario", "name[:k=v,...]", "poisson",
            "traffic shape to provision for (peak-rate planning)"},
           {"--max-batch", "N", "8", "batching policy of the planned pool"},
           {"--max-wait-ms", "F", "5", "batching wait cap of the planned"
                                       " pool, ms"},
           {"--max-replicas", "N", "16", "per-workload replica search bound"},
           {"--duration", "F", "1.0", "validation-run trace length, seconds"},
           {"--seed", "N", "42", "validation-run RNG seed"},
           {"--out", "FILE", "off", "write the PoolPlan JSON here"},
           {"--validate", "", "off",
            "run the planned pool and print predicted vs measured"},
       })},
      {"demo", "", "compile the built-in NVSA workload and print a summary",
       {}},
  };
  return kCommands;
}

const CommandSpec& CommandByName(const std::string& name) {
  for (const CommandSpec& command : Commands()) {
    if (name == command.name) {
      return command;
    }
  }
  std::string known;
  for (const CommandSpec& command : Commands()) {
    known += (known.empty() ? "" : ", ") + std::string(command.name);
  }
  throw Error("unknown command: " + name + " (known: " + known + ")");
}

void PrintGlobalHelp() {
  std::printf("nsflow — NSFlow compiler, estimator, and serving front door\n");
  std::printf("\nusage: nsflow <command> [operand] [flags]\n\n");
  for (const CommandSpec& command : Commands()) {
    std::printf("  %-9s %-13s %s\n", command.name, command.operand,
                command.summary);
  }
  std::printf(
      "\nRun 'nsflow <command> --help' for that command's flag reference.\n");
}

void PrintCommandHelp(const CommandSpec& command) {
  std::printf("nsflow %s — %s\n\nusage: nsflow %s%s%s%s\n", command.name,
              command.summary, command.name,
              command.operand[0] ? " " : "", command.operand,
              command.flags.empty() ? "" : " [flags]");
  if (!command.flags.empty()) {
    std::printf("\nflags (default in brackets):\n");
    for (const FlagSpec& flag : command.flags) {
      const std::string left =
          std::string(flag.flag) +
          (flag.value[0] ? " " + std::string(flag.value) : "");
      std::printf("  %-26s %s [%s]\n", left.c_str(), flag.help,
                  flag.fallback);
    }
  }
}

// ------------------------------------------------------------------ parsing

struct CliArgs {
  std::string command;
  bool help = false;
  std::string trace_path;
  std::string out_dir = ".";
  std::string device = "nsflow";
  DseOptions dse;
  serve::ServeOptions serve;
  int replicas = 1;
  bool heterogeneous = false;
  std::string mix;        // Multi-tenant QPS mix, e.g. "mlp=0.6,nvsa=0.4".
  std::string tiers;      // --tiers text, resolved against the registry.
  bool partition = false; // Dedicate replica r to workload r % W.
  std::string plan_path;  // serve --plan: execute this PoolPlan JSON.
  std::string trace_out;    // serve --trace-out: Chrome trace (or .bin).
  std::string metrics_out;  // serve --metrics-out: metrics.json timeline.
  // Plan command.
  double p99_ms = 10.0;
  std::string budget = "u250";
  int devices = 1;
  int nodes = 1;           // plan --nodes: cluster hosts to place across.
  int max_replicas = 16;
  std::string plan_out;
  bool validate = false;
  // Which traffic flags were given explicitly (a plan's recorded values
  // apply otherwise when executing `serve --plan`).
  bool qps_set = false;
  bool max_batch_set = false;
  bool max_wait_set = false;
  bool scenario_set = false;
  bool replicas_set = false;
  bool dse_set = false;  // Any of --max-pes/--clock-mhz/--no-phase2.
};

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  if (argc < 2) {
    throw Error(
        "usage: nsflow <compile|estimate|serve|plan|demo> [args] "
        "(try nsflow --help)");
  }
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h" ||
      args.command == "help") {
    args.command.clear();
    args.help = true;
    return args;
  }
  const CommandSpec& spec = CommandByName(args.command);

  int i = 2;
  if ((args.command == "compile" || args.command == "estimate")) {
    if (i < argc &&
        (std::strcmp(argv[i], "--help") == 0 ||
         std::strcmp(argv[i], "-h") == 0)) {
      args.help = true;
      return args;
    }
    if (i >= argc || argv[i][0] == '-') {
      throw Error(args.command + " needs a trace file argument (see nsflow " +
                  args.command + " --help)");
    }
    args.trace_path = argv[i++];
  }
  if (args.command == "serve" && i < argc && argv[i][0] != '-') {
    args.trace_path = argv[i++];  // Optional: defaults to built-in NVSA.
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      args.help = true;
      return args;
    }
    bool known = false;
    for (const FlagSpec& allowed : spec.flags) {
      if (flag == allowed.flag) {
        known = true;
        break;
      }
    }
    if (!known) {
      // Distinguish "wrong command" from "no such flag" in the message.
      for (const CommandSpec& other : Commands()) {
        for (const FlagSpec& other_flag : other.flags) {
          if (flag == other_flag.flag) {
            throw Error("flag " + flag + " is not valid for 'nsflow " +
                        args.command + "' (it belongs to 'nsflow " +
                        other.name + "'; see nsflow " + args.command +
                        " --help)");
          }
        }
      }
      throw Error("unknown flag: " + flag + " (see nsflow " + args.command +
                  " --help)");
    }
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw Error("flag " + flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--out-dir") {
      args.out_dir = next();
    } else if (flag == "--max-pes") {
      args.dse.max_pes = ParseInteger<std::int64_t>(next(), flag);
      if (dse_internal::Phase1Geometries(args.dse).empty()) {
        throw Error("--max-pes " + std::to_string(args.dse.max_pes) +
                    " fits no candidate sub-array geometry");
      }
      args.dse_set = true;
    } else if (flag == "--clock-mhz") {
      args.dse.clock_hz = ParseFiniteNumber(next(), flag) * 1e6;
      args.dse_set = true;
    } else if (flag == "--no-phase2") {
      args.dse.enable_phase2 = false;
      args.dse_set = true;
    } else if (flag == "--device") {
      args.device = next();
    } else if (flag == "--qps") {
      args.serve.qps = ParseFiniteNumber(next(), flag);
      args.qps_set = true;
    } else if (flag == "--duration") {
      args.serve.duration_s = ParseFiniteNumber(next(), flag);
    } else if (flag == "--replicas") {
      args.replicas = ParseInteger<int>(next(), flag);
      args.replicas_set = true;
    } else if (flag == "--max-batch") {
      args.serve.max_batch = ParseInteger<std::int64_t>(next(), flag);
      args.max_batch_set = true;
    } else if (flag == "--max-wait-ms") {
      args.serve.max_wait_s = ParseFiniteNumber(next(), flag) * 1e-3;
      args.max_wait_set = true;
    } else if (flag == "--seed") {
      args.serve.seed = ParseInteger<std::uint64_t>(next(), flag);
    } else if (flag == "--heterogeneous") {
      args.heterogeneous = true;
    } else if (flag == "--mix") {
      args.mix = next();
    } else if (flag == "--partition") {
      args.partition = true;
    } else if (flag == "--scenario") {
      args.serve.scenario =
          ParseFlag(flag, next(), serve::ScenarioSpec::Parse);
      args.scenario_set = true;
    } else if (flag == "--adversity") {
      args.serve.adversity =
          ParseFlag(flag, next(), serve::AdversitySpec::Parse);
    } else if (flag == "--admission") {
      args.serve.admission =
          ParseFlag(flag, next(), serve::AdmissionSpec::Parse);
    } else if (flag == "--cluster") {
      args.serve.cluster = ParseFlag(flag, next(), serve::ClusterSpec::Parse);
    } else if (flag == "--tiers") {
      args.tiers = next();
    } else if (flag == "--plan") {
      args.plan_path = next();
    } else if (flag == "--trace-out") {
      args.trace_out = next();
      args.serve.trace.enabled = true;
    } else if (flag == "--metrics-out") {
      args.metrics_out = next();
      args.serve.trace.enabled = true;
    } else if (flag == "--trace-detail") {
      const std::string detail = next();
      if (detail == "spans") {
        args.serve.trace.detail = obs::TraceDetail::kSpans;
      } else if (detail == "full") {
        args.serve.trace.detail = obs::TraceDetail::kFull;
      } else {
        throw Error("--trace-detail must be 'spans' or 'full', got '" +
                    detail + "'");
      }
    } else if (flag == "--autoscale") {
      args.serve.autoscale = true;
    } else if (flag == "--headroom") {
      auto& autoscale = args.serve.autoscale_opts;
      autoscale.headroom = ParseFiniteNumber(next(), flag);
      // The SLO invariant needs up_band < 1 + headroom; the CLI exposes
      // only --headroom, so tighten the default band to fit small values
      // instead of tripping the autoscaler's internal check.
      autoscale.up_band =
          std::min(autoscale.up_band, 1.0 + 0.9 * autoscale.headroom);
    } else if (flag == "--cooldown-s") {
      args.serve.autoscale_opts.cooldown_s = ParseFiniteNumber(next(), flag);
    } else if (flag == "--min-replicas") {
      args.serve.autoscale_opts.min_replicas = ParseInteger<int>(next(), flag);
    } else if (flag == "--p99-ms") {
      args.p99_ms = ParseFiniteNumber(next(), flag);
    } else if (flag == "--budget") {
      args.budget = next();
    } else if (flag == "--devices") {
      args.devices = ParseInteger<int>(next(), flag);
    } else if (flag == "--nodes") {
      args.nodes = ParseInteger<int>(next(), flag);
    } else if (flag == "--max-replicas") {
      // `plan`'s search bound and `serve --autoscale`'s replan ceiling —
      // only the owning command accepts the flag, so set both.
      args.max_replicas = ParseInteger<int>(next(), flag);
      args.serve.autoscale_opts.max_replicas = args.max_replicas;
    } else if (flag == "--out") {
      args.plan_out = next();
    } else if (flag == "--validate") {
      args.validate = true;
    } else {
      throw Error("unhandled flag: " + flag);  // Spec/dispatch drift.
    }
  }
  return args;
}

// ----------------------------------------------------------------- commands

std::string ReportText(const CompiledDesign& compiled) {
  const auto& dse = compiled.dse;
  const auto& d = dse.design;
  std::ostringstream os;
  os << "NSFlow compilation report — workload '"
     << compiled.graph->workload_name() << "'\n\n";
  os << "Dataflow graph: " << compiled.dataflow->layers().size()
     << " NN layers, " << compiled.dataflow->vsa_ops().size()
     << " VSA nodes, " << compiled.dataflow->simd_ops().size()
     << " SIMD ops, " << compiled.dataflow->ParallelOpCount()
     << " parallel-attached ops\n\n";
  os << "DSE (Algorithm 1): " << dse.evaluated_points
     << " model evaluations\n";
  os << "  t_seq  = " << dse.t_seq_cycles << " cycles\n";
  os << "  t_para = " << dse.t_para_cycles << " cycles (Phase I "
     << dse.phase1_cycles << " -> Phase II " << dse.phase2_cycles << ", gain "
     << dse.Phase2Gain() * 100.0 << "%)\n";
  os << "  mode   = " << (d.sequential_mode ? "sequential" : "folded") << "\n\n";
  os << "AdArray: H=" << d.array.height << " W=" << d.array.width
     << " N=" << d.array.count << " (partition " << d.default_nl << ":"
     << d.default_nv << "), SIMD " << d.simd_width << " lanes\n";
  os << "Memory: A1=" << d.memory.mem_a1_bytes / 1e6
     << " MB, A2=" << d.memory.mem_a2_bytes / 1e6
     << " MB, B=" << d.memory.mem_b_bytes / 1e6
     << " MB, C=" << d.memory.mem_c_bytes / 1e6
     << " MB, cache=" << d.memory.cache_bytes / 1e6 << " MB\n\n";

  const ResourceReport rpt = Report(compiled, U250());
  os << "U250 @ " << d.clock_hz / 1e6 << " MHz: DSP " << rpt.dsp_util * 100
     << "%, LUT " << rpt.lut_util * 100 << "%, FF " << rpt.ff_util * 100
     << "%, BRAM " << rpt.bram_util * 100 << "%, URAM "
     << rpt.uram_util * 100 << "% -> " << (rpt.fits ? "fits" : "DOES NOT FIT")
     << "\n";
  os << "Predicted end-to-end latency: " << compiled.PredictedSeconds() * 1e3
     << " ms\n";
  return os.str();
}

int RunCompile(const CliArgs& args, OperatorGraph graph) {
  CompileOptions options;
  options.dse = args.dse;
  const Compiler compiler(options);
  const CompiledDesign compiled = compiler.Compile(std::move(graph));

  const AcceleratorDesign& design = compiled.design();
  const std::string& workload = compiled.graph->workload_name();
  const std::string prefix = args.out_dir + "/";
  WriteFile(prefix + "design_config.json", EmitDesignConfig(design, workload));
  WriteFile(prefix + "host.cpp",
            EmitHostCode(*compiled.dataflow, design, workload));
  WriteFile(prefix + "nsflow_params.vh", EmitParameterHeader(design));
  WriteFile(prefix + "nsflow_top.v", EmitTopLevel(design));
  const std::string report = ReportText(compiled);
  WriteFile(prefix + "report.txt", report);
  std::printf("%s\nArtifacts written to %s\n", report.c_str(),
              args.out_dir.c_str());
  return 0;
}

int RunEstimate(const CliArgs& args) {
  const OperatorGraph graph = ParseJsonTrace(ReadFile(args.trace_path));
  const int loops = std::max(1, graph.loop_count());

  if (args.device == "nsflow") {
    CompileOptions options;
    options.dse = args.dse;
    const Compiler compiler(options);
    const CompiledDesign compiled =
        compiler.Compile(OperatorGraph(graph));
    std::printf("NSFlow-generated design: %.3f ms end to end\n",
                compiled.PredictedSeconds() * 1e3);
    return 0;
  }

  DeviceKind kind;
  if (args.device == "tx2") {
    kind = DeviceKind::kJetsonTx2;
  } else if (args.device == "nx") {
    kind = DeviceKind::kXavierNx;
  } else if (args.device == "cpu") {
    kind = DeviceKind::kXeonCpu;
  } else if (args.device == "rtx2080") {
    kind = DeviceKind::kRtx2080;
  } else if (args.device == "coral") {
    kind = DeviceKind::kCoralTpu;
  } else if (args.device == "tpu-like") {
    kind = DeviceKind::kTpuLikeSa;
  } else if (args.device == "dpu") {
    kind = DeviceKind::kXilinxDpu;
  } else {
    throw Error("unknown device: " + args.device);
  }
  const auto device = MakeDevice(kind);
  const auto estimate = device->Estimate(graph);
  std::printf("%s: %.3f ms end to end (%.1f%% symbolic)\n",
              device->name().c_str(), estimate.total_s() * loops * 1e3,
              estimate.symbolic_share() * 100.0);
  return 0;
}

/// The "Arrival trace: ..." header line, scenario-aware: closed loops and
/// trace replays ignore --qps, so printing it would misstate the run.
std::string TrafficLine(const serve::ServeOptions& options) {
  char buf[192];
  const std::string scenario = options.scenario.ToString();
  if (options.scenario.kind == serve::ScenarioKind::kClosedLoop) {
    std::snprintf(buf, sizeof(buf),
                  "%.1f rps offered (client-driven; --qps unused) for %.2f "
                  "s (seed %llu, scenario %s)",
                  serve::EffectiveOfferedRps(options, 0),
                  options.duration_s,
                  static_cast<unsigned long long>(options.seed),
                  scenario.c_str());
  } else if (options.scenario.kind == serve::ScenarioKind::kTrace) {
    std::snprintf(buf, sizeof(buf),
                  "replayed arrivals (--qps unused) for %.2f s (scenario "
                  "%s)",
                  options.duration_s, scenario.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%.1f qps for %.2f s (seed %llu, scenario %s)",
                  options.qps, options.duration_s,
                  static_cast<unsigned long long>(options.seed),
                  scenario.c_str());
  }
  return buf;
}

void PrintPlan(const serve::PoolPlan& plan) {
  std::printf(
      "PoolPlan — mix over %zu workload(s), SLO p99 <= %.3f ms, budget %d x "
      "%s\n",
      plan.mix.size(), plan.p99_slo_s * 1e3, plan.devices,
      plan.device_name.c_str());
  std::printf(
      "Traffic: %.1f qps mean, scenario %s -> planning for %.1f rps peak\n\n",
      plan.qps, plan.scenario.ToString().c_str(), plan.planning_rate);
  TablePrinter table({"workload", "replicas", "PEs (budget)", "batch cap",
                      "service (ms)", "rho", "pred p50 (ms)",
                      "pred p99 (ms)"});
  for (const serve::GroupPlan& group : plan.groups) {
    table.AddRow(
        {group.workload, std::to_string(group.replicas),
         std::to_string(group.pes) + " (" + std::to_string(group.pe_budget) +
             ")",
         std::to_string(group.batch_cap),
         TablePrinter::Num(group.batch_service_s * 1e3, 3),
         TablePrinter::Percent(group.utilization),
         TablePrinter::Num(group.predicted_p50_s * 1e3, 3),
         TablePrinter::Num(group.predicted_p99_s * 1e3, 3)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Resources: %.0f DSP, %.0f kLUT, %.0f BRAM18, %.0f URAM -> %s\n",
      plan.resources.dsp, plan.resources.lut / 1e3, plan.resources.bram18,
      plan.resources.uram,
      plan.resources.fits ? "fits the budget" : "EXCEEDS the budget");
  if (plan.nodes > 1) {
    std::string placement;
    for (const serve::GroupPlan& group : plan.groups) {
      placement += (placement.empty() ? "" : "; ") + group.workload + " ->";
      for (const int node : group.placement) {
        placement += " " + std::to_string(node);
      }
    }
    std::printf("Cluster: %d device(s) split across %d node(s) — %s\n",
                plan.devices, plan.nodes, placement.c_str());
  }
  std::printf("Aggregate predicted: p50 %.3f ms, p99 %.3f ms (SLO %.3f ms)\n",
              plan.predicted_p50_s * 1e3, plan.predicted_p99_s * 1e3,
              plan.p99_slo_s * 1e3);
  if (!plan.feasible) {
    std::printf("INFEASIBLE: %s\n", plan.note.c_str());
  }
}

serve::ServeOptions ValidationOptions(const CliArgs& args,
                                      const serve::PoolPlan& plan) {
  serve::ServeOptions options = args.serve;
  if (!args.qps_set) {
    options.qps = plan.qps;
  }
  if (!args.max_batch_set) {
    options.max_batch = plan.max_batch;
    // The plan's per-lane batch caps apply unless the user pinned a
    // uniform cap explicitly.
    options.per_workload_max_batch = plan.PerWorkloadMaxBatch();
  }
  if (!args.max_wait_set) {
    options.max_wait_s = plan.max_wait_s;
  }
  if (!args.scenario_set) {
    options.scenario = plan.scenario;
  }
  // A multi-node plan deploys as a cluster: the plan's recorded placement
  // pins replicas to nodes, and the router defaults to least-loaded unless
  // --cluster picked a policy explicitly (docs/CLUSTER.md).
  if (plan.nodes > 1) {
    if (!options.cluster.enabled()) {
      options.cluster = serve::ClusterSpec::Parse(
          "least-loaded:nodes=" + std::to_string(plan.nodes));
    }
    const int nodes = options.cluster.Resolve().nodes;
    NSF_CHECK_MSG(nodes == plan.nodes,
                  "--cluster names " + std::to_string(nodes) +
                      " node(s) but the plan placed replicas across " +
                      std::to_string(plan.nodes) +
                      " — match nodes= to the plan (docs/CLUSTER.md)");
    options.cluster_nodes = plan.Placement();
  }
  return options;
}

/// Registers each mix workload the registry does not hold yet as a
/// built-in; a name that is neither is a --mix error.
void RegisterMix(const std::vector<serve::WorkloadShare>& mix,
                 serve::WorkloadRegistry& registry) {
  for (const serve::WorkloadShare& entry : mix) {
    if (!registry.Contains(entry.workload)) {
      ParseFlag("--mix", entry.workload, [&](const std::string& name) {
        return registry.RegisterBuiltin(name);
      });
    }
  }
}

int RunPlanCommand(const CliArgs& args) {
  if (args.mix.empty()) {
    throw Error("nsflow plan needs --mix name=share,... (the workloads the "
                "pool must serve)");
  }
  const std::vector<serve::WorkloadShare> mix =
      ParseFlag("--mix", args.mix, serve::ParseMix);

  CompileOptions options;
  options.dse = args.dse;
  serve::WorkloadRegistry registry(options);
  RegisterMix(mix, registry);

  serve::PlanOptions plan_options;
  plan_options.qps = args.serve.qps;
  plan_options.p99_slo_s = args.p99_ms * 1e-3;
  plan_options.device = args.budget;
  plan_options.devices = args.devices;
  plan_options.nodes = args.nodes;
  plan_options.max_replicas_per_workload = args.max_replicas;
  plan_options.max_batch = args.serve.max_batch;
  plan_options.max_wait_s = args.serve.max_wait_s;
  plan_options.scenario = args.serve.scenario;
  plan_options.dse = args.dse;
  plan_options.dictionary_bytes = options.dictionary_bytes;

  const serve::PoolPlan plan = serve::PlanCapacity(registry, mix, plan_options);
  PrintPlan(plan);

  if (!args.plan_out.empty()) {
    WriteFile(args.plan_out, plan.ToJson().Dump(2) + "\n");
    std::printf("\nPoolPlan written to %s (execute with `nsflow serve --plan "
                "%s`)\n",
                args.plan_out.c_str(), args.plan_out.c_str());
  }

  // Validation needs every mix workload placed — a group left at zero
  // replicas (no frontier design fit the budget device) has no replica
  // able to serve it and the pool cannot be built.
  bool every_group_placed = !plan.groups.empty();
  for (const serve::GroupPlan& group : plan.groups) {
    every_group_placed = every_group_placed && group.replicas > 0;
  }
  if (args.validate && !every_group_placed) {
    std::printf("\nSkipping --validate: not every workload could be placed "
                "(%s)\n",
                plan.note.c_str());
  }
  if (args.validate && every_group_placed) {
    serve::ServeOptions serve_options = ValidationOptions(args, plan);
    std::printf("\nValidation run: %s\n\n",
                TrafficLine(serve_options).c_str());
    const serve::ServeReport report =
        serve::RunSyntheticServe(registry, plan.Replicas(), mix,
                                 serve_options);
    std::printf("%s\n", serve::ServeStats::ToTable(report.summary).c_str());
    std::printf("%s\n",
                serve::PlanValidationTable(plan, report.summary).c_str());
  }
  return plan.feasible ? 0 : 3;
}

/// The elastic-run epilogue: delta counts, replica-seconds vs the static
/// pool the run started from, and the decision log (docs/AUTOSCALING.md).
void PrintAutoscaleSummary(const serve::ServeReport& report,
                           int initial_replicas) {
  const serve::PoolDeltaCounts counts = serve::CountDeltas(report.deltas);
  std::printf(
      "\nAutoscaler: %d delta(s) — %d add, %d retire, %d refit, %d "
      "batch-cap\n",
      counts.total(), counts.adds, counts.retires, counts.refits,
      counts.batch_caps);
  const double static_rs =
      static_cast<double>(initial_replicas) * report.summary.horizon_s;
  std::printf(
      "Replica-seconds: %.1f elastic vs %.1f static-equivalent (%.0f%%)\n",
      report.replica_seconds, static_rs,
      static_rs > 0.0 ? 100.0 * report.replica_seconds / static_rs : 0.0);
  for (const serve::PoolDelta& delta : report.deltas) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "t=%7.3fs", delta.t_s);
    std::printf("  %s  %s\n", stamp, delta.reason.c_str());
  }
}

/// Write the run's recorded trace/metrics to the --trace-out/--metrics-out
/// paths (docs/OBSERVABILITY.md). A no-op when tracing was off.
void ExportObservability(const CliArgs& args,
                         const serve::ServeReport& report) {
  if (report.obs == nullptr) {
    return;
  }
  if (!args.trace_out.empty()) {
    const bool binary =
        args.trace_out.size() >= 4 &&
        args.trace_out.compare(args.trace_out.size() - 4, 4, ".bin") == 0;
    if (binary) {
      WriteFile(args.trace_out, report.obs->BinaryTrace());
      std::printf("Trace written to %s (compact binary, NSFT v1)\n",
                  args.trace_out.c_str());
    } else {
      WriteFile(args.trace_out, report.obs->ChromeTraceJson() + "\n");
      std::printf(
          "Trace written to %s (Chrome trace_event JSON — load in Perfetto "
          "or chrome://tracing)\n",
          args.trace_out.c_str());
    }
  }
  if (!args.metrics_out.empty()) {
    WriteFile(args.metrics_out, report.obs->MetricsJson() + "\n");
    std::printf("Metrics timeline written to %s\n", args.metrics_out.c_str());
  }
}

/// Resolve the --tiers text against the run's workload names
/// (serve::ParseTiers); empty text means no tier overrides at all.
std::vector<serve::SlaTier> ResolveTiers(const CliArgs& args,
                                         const std::vector<std::string>&
                                             names) {
  if (args.tiers.empty()) {
    return {};
  }
  if (!args.serve.admission.enabled()) {
    throw Error(
        "--tiers needs an admission frontend: add --admission "
        "(docs/ADMISSION.md)");
  }
  return ParseFlag("--tiers", args.tiers, [&](const std::string& text) {
    return serve::ParseTiers(text, names);
  });
}

/// Admission epilogue: the per-tenant accounting table, plus the run's exit
/// code — 4 when the critical tier shed or expired anything, 5 when only
/// standard did, 0 otherwise (batch-only shedding is the designed overload
/// response, not a failure). A report without admission rows returns 0 and
/// prints nothing.
int PrintAdmissionSummary(const CliArgs& args,
                          const serve::ServeReport& report) {
  if (report.admission.empty()) {
    return 0;
  }
  TablePrinter table({"tenant", "tier", "offered", "admitted", "shed",
                      "expired", "retried"});
  for (const serve::AdmissionTenantSummary& row : report.admission) {
    table.AddRow({row.tenant, serve::TierName(row.tier),
                  std::to_string(row.offered), std::to_string(row.admitted),
                  std::to_string(row.shed()), std::to_string(row.expired),
                  std::to_string(row.retried)});
  }
  std::printf("\nAdmission (%s):\n%s",
              args.serve.admission.ToString().c_str(),
              table.ToString().c_str());
  if (report.expired_dispatched > 0) {
    // The pre-dispatch sweep should make this unreachable; surface loudly
    // if the invariant ever breaks rather than burying it in a trace.
    std::printf("WARNING: %lld expired request(s) were dispatched\n",
                static_cast<long long>(report.expired_dispatched));
  }
  return serve::AdmissionExitCode(report.admission);
}

/// Execute a PoolPlan emitted by `nsflow plan --out`: rebuild its designs
/// (deterministic DSE at the recorded budgets), run the planned pool, and
/// print measured latency next to the plan's predictions.
int RunServePlan(const CliArgs& args) {
  if (!args.trace_path.empty()) {
    throw Error(
        "serve --plan takes its workloads from the plan (serialized plans "
        "cover built-in workloads; plan trace workloads with `nsflow plan "
        "--validate` in-process)");
  }
  if (!args.mix.empty() || args.heterogeneous || args.partition ||
      args.replicas_set) {
    throw Error(
        "serve --plan derives the pool and mix from the plan — drop --mix/"
        "--heterogeneous/--partition/--replicas");
  }
  if (args.dse_set) {
    throw Error(
        "serve --plan rebuilds designs from the plan's recorded DSE options "
        "— drop --max-pes/--clock-mhz/--no-phase2 (re-plan with them "
        "instead)");
  }
  const Json plan_json = Json::Parse(ReadFile(args.plan_path));
  CompileOptions options;
  options.dse = args.dse;
  serve::WorkloadRegistry registry(options);
  const serve::PoolPlan plan = serve::LoadPlan(plan_json, registry);
  NSF_CHECK_MSG(!plan.groups.empty(), "plan has no workload groups");
  for (const serve::GroupPlan& group : plan.groups) {
    NSF_CHECK_MSG(group.replicas > 0,
                  "plan leaves workload '" + group.workload +
                      "' without a replica (was it feasible?)");
  }

  serve::ServeOptions serve_options = ValidationOptions(args, plan);
  {
    std::vector<std::string> names;
    for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
      names.push_back(registry.NameOf(w));
    }
    serve_options.tiers = ResolveTiers(args, names);
  }
  if (serve_options.autoscale) {
    // The plan carries the replan target: its SLO, budget device, and the
    // recorded DSE knobs (so the frontier rebuild is bit-identical to the
    // designs the plan deployed). The control knobs come from the flags.
    serve_options.autoscale_opts.p99_slo_s = plan.p99_slo_s;
    serve_options.autoscale_opts.device = plan.device_name;
    serve_options.autoscale_opts.devices = plan.devices;
    serve_options.autoscale_opts.dse.clock_hz = plan.dse_clock_hz;
    serve_options.autoscale_opts.dse.enable_phase2 = plan.dse_enable_phase2;
    serve_options.autoscale_opts.dse.max_pes = plan.dse_max_pes;
    serve_options.autoscale_opts.dictionary_bytes = plan.dictionary_bytes;
  }
  std::printf(
      "NSFlow-Serve — executing PoolPlan %s: %d replica(s) across %zu "
      "workload(s)%s\n",
      args.plan_path.c_str(), plan.TotalReplicas(), plan.groups.size(),
      serve_options.autoscale ? ", elastic (--autoscale)" : "");
  if (serve_options.cluster.enabled()) {
    std::printf("Cluster: %s\n", serve_options.cluster.ToString().c_str());
  }
  std::printf("Traffic: %s\n\n", TrafficLine(serve_options).c_str());

  const serve::ServeReport report =
      serve::RunSyntheticServe(registry, plan.Replicas(), plan.mix,
                               serve_options);
  std::printf("%s\n", serve::ServeStats::ToTable(report.summary).c_str());
  std::printf("%s\n",
              serve::PlanValidationTable(plan, report.summary).c_str());
  if (serve_options.autoscale) {
    PrintAutoscaleSummary(report, plan.TotalReplicas());
  }
  const int admission_code = PrintAdmissionSummary(args, report);
  ExportObservability(args, report);
  return admission_code;
}

/// Multi-tenant serve: compile every mix workload through the registry,
/// deploy one shared (or partitioned) pool over all of them, and print the
/// per-workload breakdown next to the aggregate table.
int RunServeMix(const CliArgs& args) {
  const std::vector<serve::WorkloadShare> mix =
      ParseFlag("--mix", args.mix, serve::ParseMix);

  CompileOptions options;
  options.dse = args.dse;
  serve::WorkloadRegistry registry(options);
  // A trace file on the command line registers under its workload name and
  // can then be referenced from the mix like any built-in.
  if (!args.trace_path.empty()) {
    const OperatorGraph traced = ParseJsonTrace(ReadFile(args.trace_path));
    registry.Register(traced.workload_name(), OperatorGraph(traced));
  }
  RegisterMix(mix, registry);

  if (args.partition && args.replicas < registry.size()) {
    throw Error("--partition needs at least one replica per workload (" +
                std::to_string(registry.size()) + " workloads)");
  }
  if (args.serve.autoscale && !args.partition) {
    throw Error(
        "--autoscale needs a partitioned pool: add --partition (or execute "
        "a plan: nsflow serve --plan plan.json --autoscale)");
  }

  // Replica r carries the DSE winner of workload r % W — with --partition
  // it serves only that workload, otherwise every replica serves the full
  // set with memory provisioned for the worst tenant (the design variety
  // then acts as a heterogeneous pool).
  const std::vector<serve::ReplicaSpec> replicas =
      registry.ReplicaSpecs(args.replicas, args.partition);

  std::printf(
      "NSFlow-Serve — %d workload(s) [", registry.size());
  for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
    std::printf("%s%s", w == 0 ? "" : ", ", registry.NameOf(w).c_str());
  }
  std::printf(
      "], %d replica(s)%s, max batch %lld, max wait %.2f ms\n",
      args.replicas, args.partition ? " (partitioned)" : " (shared)",
      static_cast<long long>(args.serve.max_batch),
      args.serve.max_wait_s * 1e3);
  std::printf("Arrival trace: %s, mix %s\n", TrafficLine(args.serve).c_str(),
              args.mix.c_str());
  if (args.serve.cluster.enabled()) {
    std::printf("Cluster: %s\n", args.serve.cluster.ToString().c_str());
  }
  std::printf("Compile cache: %lld compile(s), %lld hit(s)\n\n",
              static_cast<long long>(registry.cache().misses()),
              static_cast<long long>(registry.cache().hits()));

  serve::ServeOptions serve_options = args.serve;
  {
    std::vector<std::string> names;
    for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
      names.push_back(registry.NameOf(w));
    }
    serve_options.tiers = ResolveTiers(args, names);
  }
  if (serve_options.autoscale) {
    // The frontier must model the pool actually deployed: carry the
    // compile-time DSE knobs into the replan target (the SLO/budget stay
    // at the AutoscaleOptions defaults in mix mode — serve a plan to
    // carry those).
    serve_options.autoscale_opts.dse = args.dse;
    serve_options.autoscale_opts.dictionary_bytes = options.dictionary_bytes;
  }
  const serve::ServeReport report =
      serve::RunSyntheticServe(registry, replicas, mix, serve_options);
  std::printf("%s\n", serve::ServeStats::ToTable(report.summary).c_str());
  if (serve_options.autoscale) {
    PrintAutoscaleSummary(report, args.replicas);
  }
  const int admission_code = PrintAdmissionSummary(args, report);
  ExportObservability(args, report);
  for (serve::WorkloadId w = 0; w < registry.size(); ++w) {
    const double single =
        report.single_request_by_workload[static_cast<std::size_t>(w)];
    std::printf(
        "Single-request baseline [%s]: %.3f ms -> %.1f rps per unbatched "
        "replica\n",
        registry.NameOf(w).c_str(), single * 1e3,
        single > 0.0 ? 1.0 / single : 0.0);
  }
  return admission_code;
}

int RunServe(const CliArgs& args) {
  if (args.replicas < 1) {
    throw Error("--replicas must be at least 1");
  }
  if (!args.plan_path.empty()) {
    return RunServePlan(args);
  }
  if (!args.mix.empty()) {
    if (args.heterogeneous) {
      throw Error(
          "--heterogeneous is not supported with --mix (a mixed pool is "
          "already heterogeneous: replica r carries workload r % W's "
          "design)");
    }
    return RunServeMix(args);
  }
  if (args.serve.autoscale) {
    throw Error(
        "--autoscale needs a partitioned pool: serve a plan (--plan "
        "plan.json) or a mix with --mix ... --partition "
        "(docs/AUTOSCALING.md)");
  }
  OperatorGraph graph = args.trace_path.empty()
                            ? workloads::MakeNvsa()
                            : ParseJsonTrace(ReadFile(args.trace_path));
  const std::string workload_name = graph.workload_name();
  CompileOptions options;
  options.dse = args.dse;
  // A single-workload run is a one-entry registry.
  serve::WorkloadRegistry registry(options);
  registry.Register(workload_name, std::move(graph));

  // Homogeneous pool: N copies of the DSE winner. Heterogeneous pool: walk
  // the (PEs, latency) pareto frontier so big low-latency replicas coexist
  // with small area-efficient ones. Either way every design was produced
  // for this graph, so each replica keeps its tuned allocation.
  std::vector<serve::ReplicaSpec> replicas(
      static_cast<std::size_t>(args.replicas),
      serve::ReplicaSpec{registry.compiled(0).design(), {}, /*tuned_for=*/0});
  if (args.heterogeneous) {
    // Mirror Compiler::Compile's option adjustment so the frontier designs
    // are provisioned for the same resident dictionaries as the compiled
    // design.
    DseOptions pareto_options = args.dse;
    pareto_options.dictionary_bytes = options.dictionary_bytes;
    const auto frontier =
        ParetoDesigns(registry.dataflow(0), pareto_options, args.replicas);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      replicas[r].design = frontier[r % frontier.size()].design;
    }
  }

  std::printf(
      "NSFlow-Serve — workload '%s', %d replica(s)%s, max batch %lld, "
      "max wait %.2f ms\n",
      workload_name.c_str(), args.replicas,
      args.heterogeneous ? " (heterogeneous pareto pool)" : "",
      static_cast<long long>(args.serve.max_batch),
      args.serve.max_wait_s * 1e3);
  std::printf("Arrival trace: %s\n\n", TrafficLine(args.serve).c_str());

  serve::ServeOptions serve_options = args.serve;
  serve_options.tiers = ResolveTiers(args, {workload_name});
  const serve::ServeReport report = serve::RunSyntheticServe(
      registry, replicas, {{workload_name, 1.0}}, serve_options);
  std::printf("%s\n", serve::ServeStats::ToTable(report.summary).c_str());
  const double single = report.single_request_by_workload.front();
  std::printf(
      "Single-request baseline: %.3f ms -> %.1f rps per unbatched replica\n",
      single * 1e3, single > 0.0 ? 1.0 / single : 0.0);
  const int admission_code = PrintAdmissionSummary(args, report);
  ExportObservability(args, report);
  return admission_code;
}

int Main(int argc, char** argv) {
  const CliArgs args = Parse(argc, argv);
  if (args.help) {
    if (args.command.empty()) {
      PrintGlobalHelp();
    } else {
      PrintCommandHelp(CommandByName(args.command));
    }
    return 0;
  }
  if (args.command == "compile") {
    return RunCompile(args, ParseJsonTrace(ReadFile(args.trace_path)));
  }
  if (args.command == "estimate") {
    return RunEstimate(args);
  }
  if (args.command == "serve") {
    return RunServe(args);
  }
  if (args.command == "plan") {
    return RunPlanCommand(args);
  }
  if (args.command == "demo") {
    CliArgs demo_args = args;
    demo_args.out_dir = ".";
    return RunCompile(demo_args, workloads::MakeNvsa());
  }
  throw Error("unknown command: " + args.command);
}

}  // namespace
}  // namespace nsflow

int main(int argc, char** argv) {
  try {
    return nsflow::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsflow: %s\n", e.what());
    return 1;
  }
}
