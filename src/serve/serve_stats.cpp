#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/table.h"
#include "obs/completion_log.h"
#include "obs/metrics.h"

namespace nsflow::serve {

ServeStats::ServeStats(int replicas, int workloads) {
  NSF_CHECK_MSG(replicas >= 1, "a serve pool needs at least one replica");
  NSF_CHECK_MSG(workloads >= 1, "stats need at least one workload slice");
  replica_spans_.assign(
      static_cast<std::size_t>(replicas),
      {0.0, std::numeric_limits<double>::infinity()});
  workload_names_.resize(static_cast<std::size_t>(workloads));
  workload_arrivals_s_.resize(static_cast<std::size_t>(workloads));
  for (int w = 0; w < workloads; ++w) {
    workload_names_[static_cast<std::size_t>(w)] =
        "workload " + std::to_string(w);
  }
  workload_tiers_.assign(static_cast<std::size_t>(workloads),
                         SlaTier::kStandard);
}

void ServeStats::Reserve(std::int64_t expected_requests) {
  if (expected_requests <= 0) {
    return;
  }
  arrival_stamps_.reserve(static_cast<std::size_t>(expected_requests));
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

namespace {

/// Index of the nearest-rank p-th percentile in an ascending population of
/// `n` >= 1: the smallest value with at least p% of the population at or
/// below it.
std::size_t NearestRankIndex(double p, std::size_t n) {
  NSF_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return std::min(index, n - 1);
}

struct Ranks {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Nearest-rank p50/p95/p99/max of [first, last) by selection; reorders
/// the range. Each std::nth_element starts one past the previous rank:
/// everything up to that rank is already no larger.
Ranks SelectRanks(std::vector<double>::iterator first,
                  std::vector<double>::iterator last) {
  Ranks out;
  const auto n = static_cast<std::size_t>(last - first);
  if (n == 0) {
    return out;
  }
  std::size_t from = 0;
  for (const auto& [p, value] :
       {std::pair{50.0, &out.p50}, std::pair{95.0, &out.p95},
        std::pair{99.0, &out.p99}, std::pair{100.0, &out.max}}) {
    const std::size_t rank = NearestRankIndex(p, n);
    if (rank >= from) {
      std::nth_element(first + static_cast<std::ptrdiff_t>(from),
                       first + static_cast<std::ptrdiff_t>(rank), last);
      from = rank + 1;
    }
    *value = first[static_cast<std::ptrdiff_t>(rank)];
  }
  return out;
}

/// When a batch's responses reach the client: compute completion plus the
/// cluster response transfer (+0.0 on a local batch leaves the stamp
/// bit-identical).
double ResponseS(const obs::BatchSpan& batch) {
  return batch.complete_s + batch.egress_s;
}

}  // namespace

double ServeStats::PercentileInPlace(std::vector<double>* values, double p) {
  NSF_CHECK(values != nullptr);
  std::sort(values->begin(), values->end());
  return values->empty() ? 0.0
                         : (*values)[NearestRankIndex(p, values->size())];
}

void ServeStats::PublishMetrics(const obs::CompletionLog& log) {
  if (registry_ == nullptr) {
    return;
  }
  for (; published_batches_ < log.batches.size(); ++published_batches_) {
    const obs::BatchSpan& batch = log.batches[published_batches_];
    obs::Histogram* tier_hist =
        tiers_set_ ? tier_hists_[static_cast<int>(
                         workload_tiers_[static_cast<std::size_t>(
                             batch.workload)])]
                   : nullptr;
    for (std::int64_t i = 0; i < batch.size; ++i) {
      const double latency =
          ResponseS(batch) - log.requests[published_requests_++].arrival_s;
      latency_hist_->Observe(latency);
      if (tier_hist != nullptr) {
        tier_hist->Observe(latency);
      }
    }
    completed_counter_->Increment(batch.size);
    batch_counter_->Increment();
  }
}

StatsSummary ServeStats::Summarize(const obs::CompletionLog& log,
                                   double offered_qps,
                                   double run_duration_s) const {
  const std::size_t workloads = workload_names_.size();
  StatsSummary s;
  s.completed = static_cast<std::int64_t>(log.requests.size());
  s.batches = static_cast<std::int64_t>(log.batches.size());
  s.offered_qps = offered_qps;
  s.per_workload.resize(workloads);
  for (std::size_t w = 0; w < workloads; ++w) {
    s.per_workload[w].name = workload_names_[w];
  }

  // Batch pass: slice sizes, backlog samples, busy time and the horizon.
  std::vector<double> busy_s(replica_spans_.size(), 0.0);
  double last_response_s = 0.0;
  std::int64_t depth_sum = 0;
  for (const obs::BatchSpan& batch : log.batches) {
    NSF_CHECK_MSG(batch.workload >= 0 &&
                      static_cast<std::size_t>(batch.workload) < workloads,
                  "workload index out of range");
    WorkloadSummary& slice =
        s.per_workload[static_cast<std::size_t>(batch.workload)];
    slice.completed += batch.size;
    slice.batches += 1;
    const std::int64_t depth = std::max<std::int64_t>(0, batch.queue_depth);
    depth_sum += depth;
    s.max_queue_depth = std::max(s.max_queue_depth, depth);
    busy_s.at(static_cast<std::size_t>(batch.replica)) +=
        batch.complete_s - batch.start_s;
    last_response_s = std::max(last_response_s, ResponseS(batch));
  }
  s.horizon_s = std::max(run_duration_s, last_response_s);
  if (s.horizon_s > 0.0 && s.completed > 0) {
    s.throughput_rps = static_cast<double>(s.completed) / s.horizon_s;
  }
  if (s.batches > 0) {
    s.mean_batch = static_cast<double>(s.completed) /
                   static_cast<double>(s.batches);
    s.mean_queue_depth = static_cast<double>(depth_sum) /
                         static_cast<double>(s.batches);
  }
  s.replica_utilization.reserve(busy_s.size());
  for (std::size_t r = 0; r < busy_s.size(); ++r) {
    // Busy share of the replica's *active span* within the horizon: a
    // warm-added or drained replica is judged against the time it was
    // actually provisioned, not the whole run (spans default to the full
    // horizon for static pools).
    const double span =
        std::min(replica_spans_[r].second, s.horizon_s) -
        std::min(replica_spans_[r].first, s.horizon_s);
    s.replica_utilization.push_back(span > 0.0 ? busy_s[r] / span : 0.0);
  }
  s.timeline = timeline_;

  // One latency buffer, grouped by tier and then workload id, so every
  // population the summary reads — a workload, a tier, the run — is one
  // contiguous range. Tier t spans [tier_begin[t], tier_begin[t + 1]).
  std::vector<std::size_t> begin(workloads);
  std::size_t tier_begin[4] = {0, 0, 0, 0};
  bool tier_used[3] = {false, false, false};
  std::size_t offset = 0;
  for (int t = 0; t < 3; ++t) {
    tier_begin[t] = offset;
    for (std::size_t w = 0; w < workloads; ++w) {
      if (static_cast<int>(workload_tiers_[w]) == t) {
        tier_used[t] = true;
        begin[w] = offset;
        offset += static_cast<std::size_t>(s.per_workload[w].completed);
      }
    }
  }
  tier_begin[3] = offset;
  std::vector<std::size_t> cursor = begin;

  // Request pass. The means keep the log-order running sums: float
  // summation is order-sensitive.
  std::vector<double> latencies(log.requests.size());
  std::vector<double> workload_sum_s(workloads, 0.0);
  double sum_s = 0.0;
  auto request = log.requests.begin();
  for (const obs::BatchSpan& batch : log.batches) {
    const auto w = static_cast<std::size_t>(batch.workload);
    for (std::int64_t i = 0; i < batch.size; ++i, ++request) {
      const double latency = ResponseS(batch) - request->arrival_s;
      NSF_CHECK_MSG(latency >= 0.0, "completion cannot precede arrival");
      sum_s += latency;
      workload_sum_s[w] += latency;
      latencies[cursor[w]++] = latency;
    }
  }

  // Selections nest: each workload's range, then each tier's (the union
  // of its workloads' ranges), then the whole run.
  for (std::size_t w = 0; w < workloads; ++w) {
    WorkloadSummary& slice = s.per_workload[w];
    const auto first = latencies.begin() +
                       static_cast<std::ptrdiff_t>(begin[w]);
    const Ranks ranks = SelectRanks(first, first + slice.completed);
    slice.p50_ms = ranks.p50 * 1e3;
    slice.p95_ms = ranks.p95 * 1e3;
    slice.p99_ms = ranks.p99 * 1e3;
    if (slice.completed > 0) {
      slice.mean_ms = workload_sum_s[w] /
                      static_cast<double>(slice.completed) * 1e3;
      slice.max_ms = ranks.max * 1e3;
      slice.mean_batch = static_cast<double>(slice.completed) /
                         static_cast<double>(slice.batches);
      if (s.horizon_s > 0.0) {
        slice.throughput_rps =
            static_cast<double>(slice.completed) / s.horizon_s;
      }
    }
  }

  // Tier slices (admission-tiered runs): each tier's percentiles over its
  // own population, so batch-tier latencies cannot dilute the critical
  // tier's p99. A tier with no tenant mapped to it gets no slice row.
  if (tiers_set_) {
    for (int t = 0; t < 3; ++t) {
      if (!tier_used[t]) {
        continue;
      }
      TierSummary slice;
      slice.tier = static_cast<SlaTier>(t);
      slice.name = TierName(slice.tier);
      slice.completed =
          static_cast<std::int64_t>(tier_begin[t + 1] - tier_begin[t]);
      const Ranks ranks = SelectRanks(
          latencies.begin() + static_cast<std::ptrdiff_t>(tier_begin[t]),
          latencies.begin() + static_cast<std::ptrdiff_t>(tier_begin[t + 1]));
      slice.p50_ms = ranks.p50 * 1e3;
      slice.p99_ms = ranks.p99 * 1e3;
      s.per_tier.push_back(std::move(slice));
    }
  }

  const Ranks ranks = SelectRanks(latencies.begin(), latencies.end());
  s.p50_ms = ranks.p50 * 1e3;
  s.p95_ms = ranks.p95 * 1e3;
  s.p99_ms = ranks.p99 * 1e3;
  if (s.completed > 0) {
    s.mean_ms = sum_s / static_cast<double>(s.completed) * 1e3;
    s.max_ms = ranks.max * 1e3;
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
