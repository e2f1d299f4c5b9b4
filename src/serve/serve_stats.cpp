#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/error.h"
#include "common/table.h"
#include "obs/metrics.h"

namespace nsflow::serve {

ServeStats::ServeStats(int replicas, int workloads) {
  NSF_CHECK_MSG(replicas >= 1, "a serve pool needs at least one replica");
  NSF_CHECK_MSG(workloads >= 1, "stats need at least one workload slice");
  replica_busy_s_.assign(static_cast<std::size_t>(replicas), 0.0);
  replica_spans_.assign(
      static_cast<std::size_t>(replicas),
      {0.0, std::numeric_limits<double>::infinity()});
  workload_names_.resize(static_cast<std::size_t>(workloads));
  workload_arrivals_s_.resize(static_cast<std::size_t>(workloads));
  for (int w = 0; w < workloads; ++w) {
    workload_names_[static_cast<std::size_t>(w)] =
        "workload " + std::to_string(w);
  }
  workload_latencies_s_.resize(static_cast<std::size_t>(workloads));
  workload_batches_.resize(static_cast<std::size_t>(workloads));
  workload_tiers_.assign(static_cast<std::size_t>(workloads),
                         SlaTier::kStandard);
}

void ServeStats::Reserve(std::int64_t expected_requests) {
  if (expected_requests <= 0) {
    return;
  }
  const auto n = static_cast<std::size_t>(expected_requests);
  latencies_s_.reserve(n);
  arrival_stamps_.reserve(n);
}

void ServeStats::SetWorkloadName(WorkloadId w, std::string name) {
  NSF_CHECK_MSG(w >= 0 && w < static_cast<int>(workload_names_.size()),
                "workload index out of range");
  workload_names_[static_cast<std::size_t>(w)] = std::move(name);
}

void ServeStats::SetWorkloadTier(WorkloadId w, SlaTier tier) {
  NSF_CHECK_MSG(w >= 0 && w < static_cast<int>(workload_tiers_.size()),
                "workload index out of range");
  workload_tiers_[static_cast<std::size_t>(w)] = tier;
  tiers_set_ = true;
  if (registry_ != nullptr) {
    for (int t = 0; t < 3; ++t) {
      tier_hists_[t] = registry_->GetHistogram(
          std::string("serve.latency_s.") +
          TierName(static_cast<SlaTier>(t)));
    }
  }
}

void ServeStats::RecordRequest(WorkloadId workload, double arrival_s,
                               double complete_s) {
  NSF_CHECK_MSG(complete_s >= arrival_s,
                "completion cannot precede arrival");
  NSF_CHECK_MSG(workload >= 0 &&
                    workload < static_cast<int>(workload_latencies_s_.size()),
                "workload index out of range");
  last_completion_s_ = std::max(last_completion_s_, complete_s);
  latencies_s_.push_back(complete_s - arrival_s);
  workload_latencies_s_[static_cast<std::size_t>(workload)].push_back(
      complete_s - arrival_s);
  if (latency_hist_ != nullptr) {
    latency_hist_->Observe(complete_s - arrival_s);
  }
  if (tiers_set_) {
    obs::Histogram* hist = tier_hists_[static_cast<int>(
        workload_tiers_[static_cast<std::size_t>(workload)])];
    if (hist != nullptr) {
      hist->Observe(complete_s - arrival_s);
    }
  }
  if (completed_counter_ != nullptr) {
    completed_counter_->Increment();
  }
}

void ServeStats::RecordBatch(WorkloadId workload, std::int64_t size,
                             std::int64_t queue_depth) {
  NSF_CHECK_MSG(size >= 1, "batches are non-empty");
  NSF_CHECK_MSG(workload >= 0 &&
                    workload < static_cast<int>(workload_batches_.size()),
                "workload index out of range");
  batch_sizes_.push_back(size);
  depth_samples_.push_back(std::max<std::int64_t>(0, queue_depth));
  workload_batches_[static_cast<std::size_t>(workload)].push_back(size);
  if (batch_counter_ != nullptr) {
    batch_counter_->Increment();
  }
}

void ServeStats::RecordReplicaBusy(int index, double busy_s) {
  NSF_CHECK_MSG(index >= 0 &&
                    index < static_cast<int>(replica_busy_s_.size()),
                "replica index out of range");
  replica_busy_s_[static_cast<std::size_t>(index)] += busy_s;
}

void ServeStats::RecordArrival(WorkloadId workload, double arrival_s) {
  NSF_CHECK_MSG(workload >= 0 &&
                    workload <
                        static_cast<int>(workload_arrivals_s_.size()),
                "workload index out of range");
  NSF_CHECK_MSG(arrival_stamps_.empty() ||
                    arrival_s >= arrival_stamps_.back(),
                "arrivals must be recorded in time order");
  arrival_stamps_.push_back(arrival_s);
  workload_arrivals_s_[static_cast<std::size_t>(workload)].push_back(
      arrival_s);
}

namespace {

std::int64_t CountInWindow(const std::vector<double>& sorted, double t0,
                           double t1) {
  return std::lower_bound(sorted.begin(), sorted.end(), t1) -
         std::lower_bound(sorted.begin(), sorted.end(), t0);
}

}  // namespace

std::int64_t ServeStats::ArrivalsInWindow(WorkloadId workload, double t0,
                                          double t1) const {
  NSF_CHECK_MSG(workload >= 0 &&
                    workload <
                        static_cast<int>(workload_arrivals_s_.size()),
                "workload index out of range");
  return CountInWindow(workload_arrivals_s_[static_cast<std::size_t>(workload)],
                       t0, t1);
}

std::int64_t ServeStats::ArrivalsInWindow(double t0, double t1) const {
  return CountInWindow(arrival_stamps_, t0, t1);
}

void ServeStats::RecordPoolEvent(PoolEvent event) {
  NSF_CHECK_MSG(timeline_.empty() || event.t_s >= timeline_.back().t_s,
                "timeline events must be recorded in time order");
  timeline_.push_back(std::move(event));
}

void ServeStats::AddReplicaSlot() {
  replica_busy_s_.push_back(0.0);
  replica_spans_.push_back({0.0, std::numeric_limits<double>::infinity()});
}

void ServeStats::SetReplicaSpan(int index, double added_s,
                                double retired_s) {
  NSF_CHECK_MSG(index >= 0 &&
                    index < static_cast<int>(replica_spans_.size()),
                "replica index out of range");
  NSF_CHECK_MSG(added_s >= 0.0 && retired_s >= added_s,
                "replica span must be a non-negative interval");
  replica_spans_[static_cast<std::size_t>(index)] = {added_s, retired_s};
}

double ServeStats::Percentile(std::vector<double> values, double p) {
  return PercentileInPlace(&values, p);
}

double ServeStats::PercentileInPlace(std::vector<double>* values, double p) {
  NSF_CHECK(values != nullptr);
  std::sort(values->begin(), values->end());
  return PercentileSorted(*values, p);
}

void ServeStats::AttachMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    latency_hist_ = nullptr;
    completed_counter_ = nullptr;
    batch_counter_ = nullptr;
    tier_hists_[0] = tier_hists_[1] = tier_hists_[2] = nullptr;
    return;
  }
  latency_hist_ = registry->GetHistogram("serve.latency_s");
  completed_counter_ = registry->GetCounter("serve.completed");
  batch_counter_ = registry->GetCounter("serve.batches");
  // Tier histograms only exist in tiered (admission) runs, so untiered
  // runs keep a byte-identical metrics dump.
  if (tiers_set_) {
    for (int t = 0; t < 3; ++t) {
      tier_hists_[t] = registry->GetHistogram(
          std::string("serve.latency_s.") +
          TierName(static_cast<SlaTier>(t)));
    }
  }
}

double ServeStats::PercentileSorted(const std::vector<double>& sorted,
                                    double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  NSF_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  // Nearest-rank: smallest value with at least p% of the population at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

StatsSummary ServeStats::Summarize(double offered_qps,
                                   double run_duration_s) const {
  StatsSummary s;
  s.completed = completed();
  s.batches = static_cast<std::int64_t>(batch_sizes_.size());
  s.offered_qps = offered_qps;
  s.horizon_s = std::max(run_duration_s, last_completion_s_);
  if (s.horizon_s > 0.0 && s.completed > 0) {
    s.throughput_rps = static_cast<double>(s.completed) / s.horizon_s;
  }

  // One sorted copy serves all three percentiles plus the max — not three
  // copy-and-sort passes through Percentile(). The mean stays on the
  // record-order vector: float summation is order-sensitive and the summary
  // must be bit-identical to what the unsorted accumulation reports.
  std::vector<double> sorted = latencies_s_;
  std::sort(sorted.begin(), sorted.end());
  s.p50_ms = PercentileSorted(sorted, 50.0) * 1e3;
  s.p95_ms = PercentileSorted(sorted, 95.0) * 1e3;
  s.p99_ms = PercentileSorted(sorted, 99.0) * 1e3;
  if (!sorted.empty()) {
    s.mean_ms = std::accumulate(latencies_s_.begin(), latencies_s_.end(), 0.0) /
                static_cast<double>(latencies_s_.size()) * 1e3;
    s.max_ms = sorted.back() * 1e3;
  }

  if (!batch_sizes_.empty()) {
    s.mean_batch =
        static_cast<double>(std::accumulate(batch_sizes_.begin(),
                                            batch_sizes_.end(),
                                            std::int64_t{0})) /
        static_cast<double>(batch_sizes_.size());
  }
  if (!depth_samples_.empty()) {
    s.mean_queue_depth =
        static_cast<double>(std::accumulate(depth_samples_.begin(),
                                            depth_samples_.end(),
                                            std::int64_t{0})) /
        static_cast<double>(depth_samples_.size());
    s.max_queue_depth =
        *std::max_element(depth_samples_.begin(), depth_samples_.end());
  }

  s.replica_utilization.reserve(replica_busy_s_.size());
  for (std::size_t r = 0; r < replica_busy_s_.size(); ++r) {
    // Busy share of the replica's *active span* within the horizon: a
    // warm-added or drained replica is judged against the time it was
    // actually provisioned, not the whole run (spans default to the full
    // horizon for static pools).
    const double span =
        std::min(replica_spans_[r].second, s.horizon_s) -
        std::min(replica_spans_[r].first, s.horizon_s);
    s.replica_utilization.push_back(
        span > 0.0 ? replica_busy_s_[r] / span : 0.0);
  }
  s.timeline = timeline_;

  s.per_workload.reserve(workload_names_.size());
  std::vector<double> scratch;  // Reused sort buffer across slices.
  for (std::size_t w = 0; w < workload_names_.size(); ++w) {
    WorkloadSummary slice;
    slice.name = workload_names_[w];
    const auto& latencies = workload_latencies_s_[w];
    slice.completed = static_cast<std::int64_t>(latencies.size());
    if (s.horizon_s > 0.0 && slice.completed > 0) {
      slice.throughput_rps =
          static_cast<double>(slice.completed) / s.horizon_s;
    }
    // Single-workload runs: slice 0's population *is* the aggregate — reuse
    // the sorted copy above instead of sorting it again. Multi-workload
    // runs reuse one scratch buffer's allocation across slices.
    const std::vector<double>* slice_sorted = &sorted;
    if (workload_names_.size() > 1) {
      scratch.assign(latencies.begin(), latencies.end());
      std::sort(scratch.begin(), scratch.end());
      slice_sorted = &scratch;
    }
    slice.p50_ms = PercentileSorted(*slice_sorted, 50.0) * 1e3;
    slice.p95_ms = PercentileSorted(*slice_sorted, 95.0) * 1e3;
    slice.p99_ms = PercentileSorted(*slice_sorted, 99.0) * 1e3;
    if (!slice_sorted->empty()) {
      slice.mean_ms = std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                      static_cast<double>(latencies.size()) * 1e3;
      slice.max_ms = slice_sorted->back() * 1e3;
    }
    const auto& batches = workload_batches_[w];
    slice.batches = static_cast<std::int64_t>(batches.size());
    if (!batches.empty()) {
      slice.mean_batch =
          static_cast<double>(std::accumulate(batches.begin(), batches.end(),
                                              std::int64_t{0})) /
          static_cast<double>(batches.size());
    }
    s.per_workload.push_back(std::move(slice));
  }

  // Tier slices (admission-tiered runs): each tier's percentiles over its
  // own population, so batch-tier latencies cannot dilute the critical
  // tier's p99. Workloads concatenate in workload-id order before the sort
  // — a deterministic population regardless of completion interleaving.
  if (tiers_set_) {
    for (int t = 0; t < 3; ++t) {
      const SlaTier tier = static_cast<SlaTier>(t);
      scratch.clear();
      bool any = false;
      for (std::size_t w = 0; w < workload_tiers_.size(); ++w) {
        if (workload_tiers_[w] != tier) {
          continue;
        }
        any = true;
        scratch.insert(scratch.end(), workload_latencies_s_[w].begin(),
                       workload_latencies_s_[w].end());
      }
      if (!any) {
        continue;  // No tenant mapped to this tier: no slice row.
      }
      std::sort(scratch.begin(), scratch.end());
      TierSummary slice;
      slice.name = TierName(tier);
      slice.tier = tier;
      slice.completed = static_cast<std::int64_t>(scratch.size());
      slice.p50_ms = PercentileSorted(scratch, 50.0) * 1e3;
      slice.p99_ms = PercentileSorted(scratch, 99.0) * 1e3;
      s.per_tier.push_back(std::move(slice));
    }
  }
  return s;
}

std::string ServeStats::ToTable(const StatsSummary& s) {
  TablePrinter table({"metric", "value"});
  table.AddRow({"requests completed", std::to_string(s.completed)});
  table.AddRow({"batches dispatched", std::to_string(s.batches)});
  table.AddRow({"offered load", TablePrinter::Num(s.offered_qps, 1) + " rps"});
  table.AddRow(
      {"throughput", TablePrinter::Num(s.throughput_rps, 1) + " rps"});
  table.AddRow({"latency p50", TablePrinter::Num(s.p50_ms, 3) + " ms"});
  table.AddRow({"latency p95", TablePrinter::Num(s.p95_ms, 3) + " ms"});
  table.AddRow({"latency p99", TablePrinter::Num(s.p99_ms, 3) + " ms"});
  table.AddRow({"latency mean", TablePrinter::Num(s.mean_ms, 3) + " ms"});
  table.AddRow({"latency max", TablePrinter::Num(s.max_ms, 3) + " ms"});
  table.AddRow({"mean batch size", TablePrinter::Num(s.mean_batch, 2)});
  table.AddRow(
      {"mean queue depth", TablePrinter::Num(s.mean_queue_depth, 2)});
  table.AddRow({"max queue depth", std::to_string(s.max_queue_depth)});
  for (std::size_t i = 0; i < s.replica_utilization.size(); ++i) {
    table.AddRow({"replica " + std::to_string(i) + " utilization",
                  TablePrinter::Percent(s.replica_utilization[i])});
  }
  std::string out = table.ToString();

  // Per-workload breakdown, only meaningful for multi-tenant runs.
  if (s.per_workload.size() >= 2) {
    TablePrinter breakdown({"workload", "completed", "throughput (rps)",
                            "p50 (ms)", "p95 (ms)", "p99 (ms)", "mean batch"});
    for (const WorkloadSummary& w : s.per_workload) {
      breakdown.AddRow({w.name, std::to_string(w.completed),
                        TablePrinter::Num(w.throughput_rps, 1),
                        TablePrinter::Num(w.p50_ms, 3),
                        TablePrinter::Num(w.p95_ms, 3),
                        TablePrinter::Num(w.p99_ms, 3),
                        TablePrinter::Num(w.mean_batch, 2)});
    }
    out += "\n" + breakdown.ToString();
  }

  // Per-node cluster slices (clustered runs only, docs/CLUSTER.md).
  if (!s.per_node.empty()) {
    TablePrinter nodes({"node", "replicas", "batches", "remote", "bytes in",
                        "bytes out", "network (ms)"});
    for (const NodeSummary& n : s.per_node) {
      nodes.AddRow({"node " + std::to_string(n.node),
                    std::to_string(n.replicas), std::to_string(n.batches),
                    std::to_string(n.remote_batches),
                    TablePrinter::Num(n.bytes_in, 0),
                    TablePrinter::Num(n.bytes_out, 0),
                    TablePrinter::Num(n.network_s * 1e3, 3)});
    }
    out += "\n" + nodes.ToString();
  }

  // SLA-tier breakdown (admission-tiered runs only).
  if (!s.per_tier.empty()) {
    TablePrinter tiers({"tier", "completed", "p50 (ms)", "p99 (ms)"});
    for (const TierSummary& t : s.per_tier) {
      tiers.AddRow({t.name, std::to_string(t.completed),
                    TablePrinter::Num(t.p50_ms, 3),
                    TablePrinter::Num(t.p99_ms, 3)});
    }
    out += "\n" + tiers.ToString();
  }
  return out;
}

}  // namespace nsflow::serve
