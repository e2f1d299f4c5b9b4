// Observability bundle — the one object the serve engine threads through
// the pipeline when tracing is on (docs/OBSERVABILITY.md).
//
// `ObsOptions` rides inside `ServeOptions` (engine.h) and the engine
// constructs one `Observability` per traced run: the TraceRecorder takes
// the control-plane events and reads the spans off the run's
// CompletionLog, the MetricsRegistry takes the aggregate instruments the
// components publish into (ServeStats latencies, MultiBatchFormer close
// reasons, ServerPool cache hits, Autoscaler decisions), and `meta`
// collects what the Chrome exporter needs for track naming.
// `ServeReport::obs` hands the bundle back to the caller, who exports with
// ChromeTraceJson / BinaryTrace / MetricsJson.
//
// Overhead contract: with `enabled == false` the serve path pays exactly
// one null-pointer test per record site; with tracing on, the fixed-seed
// serve bench must stay within 5% wall clock of tracing off
// (bench_serve_fastpath's `obs_overhead` gate), and two runs at the same
// seed must serialize bit-identical traces. Exports cost what they write:
// Drain() sorts only records that are out of (stamp, seq) order, and
// BinaryTrace() allocates its output once at its exact encoded size.
// perfbench's `obs.marginal_ns_per_request` and `obs.*_export_s` rows
// measure both at a realistic size.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace nsflow::obs {

struct ObsOptions {
  /// Master switch: off = zero recording, null metrics, no overhead beyond
  /// a branch per record site.
  bool enabled = false;
  /// Export expansion (recording cost is identical either way).
  TraceDetail detail = TraceDetail::kSpans;
};

/// Virtual-time cadence of metrics-timeline snapshots, seconds.
inline constexpr double kSnapshotIntervalS = 0.25;

struct Observability {
  Observability(const ObsOptions& opts,
                std::shared_ptr<const CompletionLog> log)
      : options(opts), recorder(std::move(log)) {}

  ObsOptions options;
  TraceRecorder recorder;
  MetricsRegistry metrics;
  TraceMeta meta;

  /// The Chrome trace_event JSON of everything recorded so far.
  std::string ChromeTraceJson() const {
    return SerializeChromeTrace(
        BuildChromeTrace(recorder.Drain(), meta, options.detail));
  }
  /// The compact binary encoding of everything recorded so far.
  std::string BinaryTrace() const {
    return SerializeBinaryTrace(recorder.Drain());
  }
  /// The metrics.json timeline document.
  std::string MetricsJson() const { return metrics.TimelineJson().Dump(2); }
};

}  // namespace nsflow::obs
