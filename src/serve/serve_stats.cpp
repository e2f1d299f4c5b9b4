#include "serve/serve_stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
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
  workload_arrivals_.resize(static_cast<std::size_t>(workloads));
  for (int w = 0; w < workloads; ++w) {
    workload_names_[static_cast<std::size_t>(w)] =
        "workload " + std::to_string(w);
  }
  workload_tiers_.assign(static_cast<std::size_t>(workloads),
                         SlaTier::kStandard);
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
                    workload < static_cast<int>(workload_arrivals_.size()),
                "workload index out of range");
  NSF_CHECK_MSG(arrival_s >= last_arrival_s_,
                "arrivals must be recorded in time order");
  last_arrival_s_ = arrival_s;
  workload_arrivals_[static_cast<std::size_t>(workload)].stamps.push_back(
      arrival_s);
}

std::int64_t ServeStats::ArrivalsInWindow(WorkloadId workload, double t0,
                                          double t1) {
  NSF_CHECK_MSG(workload >= 0 &&
                    workload < static_cast<int>(workload_arrivals_.size()),
                "workload index out of range");
  ArrivalWindow& window =
      workload_arrivals_[static_cast<std::size_t>(workload)];
  NSF_CHECK_MSG(t0 >= window.floor_s,
                "rate window starts below the stamps already dropped");
  std::vector<double>& stamps = window.stamps;
  const auto live = stamps.begin() + static_cast<std::ptrdiff_t>(window.head);
  const auto lo = std::lower_bound(live, stamps.end(), t0);
  const std::int64_t count =
      std::lower_bound(live, stamps.end(), t1) - lo;
  window.floor_s = t0;
  window.head = static_cast<std::size_t>(lo - stamps.begin());
  if (2 * window.head >= stamps.size()) {
    stamps.erase(stamps.begin(), lo);
    window.head = 0;
  }
  return count;
}

void ServeStats::RecordPoolEvent(PoolEvent event) {
  NSF_CHECK_MSG(timeline_.empty() || event.t_s >= timeline_.back().t_s,
                "timeline events must be recorded in time order");
  timeline_.push_back(std::move(event));
}

void ServeStats::RecordBacklog(std::int64_t depth) {
  depth = std::max<std::int64_t>(0, depth);
  backlog_sum_ += depth;
  backlog_max_ = std::max(backlog_max_, depth);
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

/// A latency's selection key. Summarize checks that a latency is at least
/// 0.0, so its IEEE-754 bit pattern with the sign cleared (-0.0 ties +0.0,
/// as it does under <) orders exactly as the value does.
std::uint64_t LatencyKey(double latency) {
  return std::bit_cast<std::uint64_t>(latency) & ~(std::uint64_t{1} << 63);
}

double KeyLatency(std::uint64_t key) { return std::bit_cast<double>(key); }

std::pair<std::uint64_t, std::uint64_t> MinMax(const std::uint64_t* keys,
                                               std::size_t n) {
  std::uint64_t lo = keys[0];
  std::uint64_t hi = keys[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, keys[i]);
    hi = std::max(hi, keys[i]);
  }
  return {lo, hi};
}

/// At most 2^kMaxBucketBits buckets per histogram.
constexpr int kMaxBucketBits = 11;

/// Equal-width buckets over the keys [lo, hi]: about four keys per bucket
/// for `n` keys, and at least two buckets when lo < hi.
struct Buckets {
  Buckets(std::uint64_t lo_in, std::uint64_t hi, std::size_t n)
      : lo(lo_in),
        shift(std::max(0, Width(hi - lo_in) -
                              std::clamp(Width(n) - 2, 1, kMaxBucketBits))),
        count(Of(hi) + 1) {}

  std::size_t Of(std::uint64_t key) const {
    return static_cast<std::size_t>((key - lo) >> shift);
  }

  static int Width(std::uint64_t value) {
    return static_cast<int>(std::bit_width(value));
  }

  std::uint64_t lo;
  int shift;
  std::size_t count;
};

/// Selects nearest ranks of latency populations by their keys. The
/// gather buffer is reused from one population to the next, so a summary
/// allocates a number of times that does not grow with the run.
class RankSelector {
 public:
  /// Nearest-rank p50/p95/p99/max of `keys`, which stay untouched. Three
  /// passes: the min and max (the max answers `max`), a bucket histogram,
  /// and a gather of the at most three buckets that hold the p50, p95 and
  /// p99 ranks. Each rank is then selected inside its bucket.
  Ranks Select(std::span<const std::uint64_t> keys) {
    Ranks out;
    const std::size_t n = keys.size();
    if (n == 0) {
      return out;
    }
    const auto [lo, hi] = MinMax(keys.data(), n);
    out.max = KeyLatency(hi);
    if (lo == hi) {
      out.p50 = out.p95 = out.p99 = out.max;
      return out;
    }
    const Buckets buckets(lo, hi, n);
    Count(keys.data(), n, buckets);

    // Each rank's bucket, its rank inside it, and the bucket's run in
    // gathered_. The ranks ascend, so the buckets do, and ranks that share
    // a bucket share its run.
    struct Target {
      std::size_t bucket = 0;
      std::size_t rank = 0;
      std::size_t begin = 0;
      std::size_t size = 0;
    };
    const double percents[3] = {50.0, 95.0, 99.0};
    Target targets[3];
    std::size_t gathered = 0;
    for (int i = 0; i < 3; ++i) {
      Target& target = targets[i];
      target.rank = NearestRankIndex(percents[i], n);
      target.bucket = Locate(&target.rank);
      target.size = counts_[target.bucket];
      const bool shared = i > 0 && target.bucket == targets[i - 1].bucket;
      target.begin = shared ? targets[i - 1].begin : gathered;
      gathered += shared ? 0 : target.size;
    }
    if (gathered_.size() < gathered) {
      gathered_.resize(gathered);
    }
    std::uint64_t* next[3] = {};
    for (int i = 0; i < 3; ++i) {
      next[i] = gathered_.data() + targets[i].begin;
    }
    for (const std::uint64_t key : keys) {
      const std::size_t bucket = buckets.Of(key);
      if (bucket == targets[0].bucket) {
        *next[0]++ = key;
      } else if (bucket == targets[1].bucket) {
        *next[1]++ = key;
      } else if (bucket == targets[2].bucket) {
        *next[2]++ = key;
      }
    }

    const auto select = [this](const Target& target) {
      return KeyLatency(SelectInBucket(gathered_.data() + target.begin,
                                       target.size, target.rank));
    };
    out.p50 = select(targets[0]);
    out.p95 = select(targets[1]);
    out.p99 = select(targets[2]);
    return out;
  }

 private:
  /// Buckets at or below which std::nth_element selects directly.
  static constexpr std::size_t kSmallBucket = 32;

  void Count(const std::uint64_t* keys, std::size_t n,
             const Buckets& buckets) {
    std::fill_n(counts_.begin(), buckets.count, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts_[buckets.Of(keys[i])];
    }
  }

  /// The bucket in counts_ that holds the key at rank `*rank`; replaces
  /// `*rank` with that key's rank inside the bucket.
  std::size_t Locate(std::size_t* rank) const {
    std::size_t bucket = 0;
    while (counts_[bucket] <= *rank) {
      *rank -= counts_[bucket++];
    }
    return bucket;
  }

  /// The key at `rank` of the `n` keys at `keys`, which this reorders. It
  /// narrows to the rank's bucket in place until the bucket holds a single
  /// value or is small.
  std::uint64_t SelectInBucket(std::uint64_t* keys, std::size_t n,
                               std::size_t rank) {
    while (n > kSmallBucket) {
      const auto [lo, hi] = MinMax(keys, n);
      if (lo == hi) {
        return lo;
      }
      const Buckets buckets(lo, hi, n);
      Count(keys, n, buckets);
      const std::size_t bucket = Locate(&rank);
      std::partition(keys, keys + n, [&](std::uint64_t key) {
        return buckets.Of(key) == bucket;
      });
      n = counts_[bucket];
    }
    std::nth_element(keys, keys + rank, keys + n);
    return keys[rank];
  }

  std::array<std::size_t, std::size_t{1} << kMaxBucketBits> counts_{};
  std::vector<std::uint64_t> gathered_;  // The target buckets' keys.
};

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

  // Batch pass: slice sizes, busy time and the horizon.
  std::vector<double> busy_s(replica_spans_.size(), 0.0);
  double last_response_s = 0.0;
  for (const obs::BatchSpan& batch : log.batches) {
    NSF_CHECK_MSG(batch.workload >= 0 &&
                      static_cast<std::size_t>(batch.workload) < workloads,
                  "workload index out of range");
    WorkloadSummary& slice =
        s.per_workload[static_cast<std::size_t>(batch.workload)];
    slice.completed += batch.size;
    slice.batches += 1;
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
    s.mean_queue_depth = static_cast<double>(backlog_sum_) /
                         static_cast<double>(s.batches);
  }
  s.max_queue_depth = backlog_max_;
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

  // One latency key buffer, grouped by tier and then workload id, so every
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
  std::vector<std::uint64_t> keys(log.requests.size());
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
      keys[cursor[w]++] = LatencyKey(latency);
    }
  }

  // Each workload's range, then each tier's (the union of its workloads'
  // ranges), then the whole run. A range met before, such as a tier that
  // holds one workload's traffic, reuses its ranks: the keys stay
  // untouched, so a selection is a function of its range.
  RankSelector selector;
  const std::span<const std::uint64_t> all(keys);
  struct Selected {
    std::size_t begin;
    std::size_t size;
    Ranks ranks;
  };
  std::vector<Selected> selected;
  selected.reserve(workloads + 4);
  const auto select = [&](std::size_t from, std::size_t size) {
    for (const Selected& earlier : selected) {
      if (earlier.begin == from && earlier.size == size) {
        return earlier.ranks;
      }
    }
    selected.push_back(
        {from, size, selector.Select(all.subspan(from, size))});
    return selected.back().ranks;
  };
  for (std::size_t w = 0; w < workloads; ++w) {
    WorkloadSummary& slice = s.per_workload[w];
    const Ranks ranks =
        select(begin[w], static_cast<std::size_t>(slice.completed));
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
      const Ranks ranks =
          select(tier_begin[t], tier_begin[t + 1] - tier_begin[t]);
      slice.p50_ms = ranks.p50 * 1e3;
      slice.p99_ms = ranks.p99 * 1e3;
      s.per_tier.push_back(std::move(slice));
    }
  }

  const Ranks ranks = select(0, all.size());
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
