// ServeStats — latency/throughput/utilization views for NSFlow-Serve.
//
// A serve run's completions live in one obs::CompletionLog; ServeStats
// reads it. Summarize turns the log into the operator-facing table: p50/
// p95/p99 latency, sustained throughput, queue depth, and replica
// utilization. Percentiles use the nearest-rank method on the full latency
// population (no reservoir sampling — runs are bounded). ServeStats itself
// keeps only what the log does not hold: workload names and tiers, the
// autoscaler's arrival record and timeline, replica active spans, and the
// backlog tally.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serve/request.h"

namespace nsflow::obs {
struct CompletionLog;
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace nsflow::obs

namespace nsflow::serve {

/// Per-workload slice of a finished serve run (multi-tenant pools).
struct WorkloadSummary {
  std::string name;              // Registry name ("mlp", "nvsa", ...).
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  double throughput_rps = 0.0;   // completed / run horizon.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_batch = 0.0;       // Average formed batch size.
};

/// Per-SLA-tier latency slice (admission-tiered runs). Exists so a cheap
/// batch-tier population can never mask a critical-tier SLO breach in the
/// aggregate percentiles: each tier's p50/p99 is computed over that tier's
/// own latency population.
struct TierSummary {
  std::string name;              // "critical" / "standard" / "batch".
  SlaTier tier = SlaTier::kStandard;
  std::int64_t completed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Per-node slice of a clustered serve run (docs/CLUSTER.md). Filled by
/// `ClusterPool::Snapshot()`; empty on single-box runs, so their summary
/// (and table) stays byte-identical to a cluster-free build.
struct NodeSummary {
  int node = 0;
  int replicas = 0;               // Live (non-retired) replicas at run end.
  std::int64_t batches = 0;       // Batches this node executed.
  std::int64_t remote_batches = 0;  // ... of which arrived cross-node.
  double bytes_in = 0.0;          // Request payload moved onto the node.
  double bytes_out = 0.0;         // Response payload moved off the node.
  double network_s = 0.0;         // Modeled transfer time priced here.
};

/// What produced a timeline entry — consumers branch on this instead of
/// sniffing the event text (the trace recorder turns kSample into counter
/// samples and kDeferred into deferral instants; decisions and faults
/// record their own instants).
enum class PoolEventKind {
  kSample = 0,    // Periodic control-tick sample (event == "").
  kDecision = 1,  // Applied autoscaler delta or the shutdown drain.
  kFault = 2,     // Environment adversity event (failure/derate/churn).
  kDeferred = 3,  // Autoscaler add deferred: the device budget is spent.
};

/// One point on the pool's reconfiguration/utilization timeline: a
/// periodic autoscaler sample (`event` empty), or an event that `event`
/// describes and `kind` classifies. Recorded in virtual-time order.
struct PoolEvent {
  double t_s = 0.0;
  std::string event;            // "" for periodic samples.
  int active_replicas = 0;      // Provisioned (added, not retired) at t_s.
  double window_rate_rps = 0.0; // Trailing-window aggregate arrival rate.
  std::int64_t queue_depth = 0; // Requests pending in forming lanes at t_s.
  PoolEventKind kind = PoolEventKind::kSample;
};

/// Point-in-time summary of a finished serve run.
struct StatsSummary {
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  double horizon_s = 0.0;        // Last completion (or run duration).
  double throughput_rps = 0.0;   // completed / horizon.
  double offered_qps = 0.0;      // Arrival rate the run was driven at.

  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;

  double mean_batch = 0.0;       // Average formed batch size.
  double mean_queue_depth = 0.0; // Mean backlog sampled at batch starts.
  std::int64_t max_queue_depth = 0;

  std::vector<double> replica_utilization;  // Busy share per replica —
                                            // against each replica's own
                                            // active span (= the run
                                            // horizon for static pools).
  /// One slice per registered workload (a single slice in single-workload
  /// runs); ToTable prints the per-workload section when there are >= 2.
  std::vector<WorkloadSummary> per_workload;
  /// One slice per SLA tier with at least one assigned workload — empty
  /// unless SetWorkloadTier was called (admission-tiered runs only).
  std::vector<TierSummary> per_tier;
  /// Reconfiguration/utilization-over-time timeline (autoscaled runs;
  /// empty otherwise). Samples and deltas interleaved in time order.
  std::vector<PoolEvent> timeline;
  /// One slice per cluster node (clustered runs with > 1 node only; the
  /// engine leaves it empty otherwise so single-box output is unchanged).
  std::vector<NodeSummary> per_node;
};

class ServeStats {
 public:
  /// `workloads` sizes the per-workload breakdown (1 in single-tenant use).
  explicit ServeStats(int replicas, int workloads = 1);

  /// Label workload `w`'s slice in the summary/table.
  void SetWorkloadName(WorkloadId w, std::string name);

  /// Assign workload `w` to an SLA tier. Any call switches the summary into
  /// tiered mode: Summarize emits per-tier latency slices and AttachMetrics
  /// additionally registers `serve.latency_s.<tier>` histograms. Untiered
  /// runs never see either (their output stays byte-identical).
  void SetWorkloadTier(WorkloadId w, SlaTier tier);

  /// One request entered the system at `arrival_s` (recorded in arrival
  /// order — the autoscaler's windowed-rate source).
  void RecordArrival(WorkloadId workload, double arrival_s);
  /// Arrivals of `workload` with arrival time in [t0, t1). O(log n) — the
  /// arrival record is time-ordered. The autoscaler's window edge never
  /// falls, so the stamps before `t0` are dropped: a later query of the
  /// workload must not start below it (checked).
  std::int64_t ArrivalsInWindow(WorkloadId workload, double t0, double t1);

  /// Append one point to the reconfiguration/utilization timeline.
  void RecordPoolEvent(PoolEvent event);

  /// A batch committed after starting with `depth` requests backlogged
  /// (below 0 counts as 0). Summarize reports the mean over the log's
  /// batches and the max.
  void RecordBacklog(std::int64_t depth);

  /// A replica was warm-added mid-run: grow the per-replica accounting.
  void AddReplicaSlot();
  /// Clamp replica `index`'s utilization denominator to its active span
  /// [added_s, retired_s) instead of the whole run horizon (warm-added or
  /// drained replicas). Spans default to [0, +inf) = the full horizon.
  void SetReplicaSpan(int index, double added_s, double retired_s);

  /// Nearest-rank percentile, p in [0, 100]. Exposed for tests. Copies and
  /// sorts; prefer PercentileInPlace when the caller owns the buffer.
  static double Percentile(std::vector<double> values, double p);

  /// Non-copying variant: sorts `*values` ascending in place and evaluates
  /// the percentile on it. The buffer stays sorted afterwards, so repeated
  /// percentile queries on the same population pay one sort total.
  static double PercentileInPlace(std::vector<double>* values, double p);

  /// The run's summary, read off `log` in one pass over its requests.
  /// Percentiles select ranks by bit-pattern buckets instead of sorting;
  /// means sum in log order.
  StatsSummary Summarize(const obs::CompletionLog& log, double offered_qps,
                         double run_duration_s) const;

  /// Render a summary as the operator-facing ASCII table.
  static std::string ToTable(const StatsSummary& summary);

  /// Timeline recorded so far (the engine reads the tail after each
  /// autoscaler tick to mirror new PoolEvents into the trace).
  const std::vector<PoolEvent>& timeline() const { return timeline_; }

  /// Publish per-request latency (`serve.latency_s` histogram) and
  /// completed/batch tallies into `registry`. Null detaches. Pointers are
  /// resolved once here so the fold stays lookup-free.
  void AttachMetrics(obs::MetricsRegistry* registry);
  /// Fold the records `log` gained since the last call into the attached
  /// instruments, in log order (no-op when detached). The engine calls
  /// this just before each metrics snapshot.
  void PublishMetrics(const obs::CompletionLog& log);

 private:
  std::vector<std::pair<double, double>> replica_spans_;  // [added, retired).
  std::vector<PoolEvent> timeline_;
  // One workload's arrival stamps from `floor_s` on: stamps[head..] are
  // live, and the dead prefix is compacted away once it is half the
  // buffer, so a window holds about a window's worth of stamps.
  struct ArrivalWindow {
    std::vector<double> stamps;
    std::size_t head = 0;
    double floor_s = -std::numeric_limits<double>::infinity();
  };
  std::vector<ArrivalWindow> workload_arrivals_;  // Per workload.
  // The latest recorded arrival, for RecordArrival's order check.
  double last_arrival_s_ = -std::numeric_limits<double>::infinity();

  // Backlog at the committed batches' starts.
  std::int64_t backlog_sum_ = 0;
  std::int64_t backlog_max_ = 0;

  std::vector<std::string> workload_names_;
  std::vector<SlaTier> workload_tiers_;  // Meaningful iff tiers_set_.
  bool tiers_set_ = false;

  // Resolved by AttachMetrics; null = metrics off.
  obs::Histogram* latency_hist_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Counter* batch_counter_ = nullptr;
  obs::Histogram* tier_hists_[3] = {nullptr, nullptr, nullptr};
  obs::MetricsRegistry* registry_ = nullptr;  // Kept so a SetWorkloadTier
                                              // after AttachMetrics can
                                              // still register tier hists.
  // Log records already folded by PublishMetrics.
  std::size_t published_batches_ = 0;
  std::size_t published_requests_ = 0;
};

}  // namespace nsflow::serve
