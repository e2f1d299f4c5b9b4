#include "serve/engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/number.h"
#include "common/spec.h"
#include "serve/autoscaler.h"
#include "serve/batch_former.h"

namespace nsflow::serve {

double EffectiveOfferedRps(const ServeOptions& options,
                           std::int64_t generated_requests) {
  switch (options.scenario.kind) {
    case ScenarioKind::kClosedLoop:
      // Sized by the client count; --qps is ignored.
      return ScenarioMeanRate(options.scenario, options.qps,
                              options.duration_s);
    case ScenarioKind::kTrace:
      // A replayed file has no rate parameter — report what it contained.
      return static_cast<double>(generated_requests) / options.duration_s;
    default:
      return options.qps;
  }
}

namespace {

// The run's arrival source: the scenario's generator, or a replayed file.
ScenarioStream ArrivalSource(const ServeOptions& options,
                             const std::vector<double>& shares,
                             const std::vector<std::string>& workload_names) {
  NSF_CHECK_MSG(options.duration_s > 0.0, "duration must be positive");
  if (options.scenario.kind != ScenarioKind::kTrace) {
    // The workload draw shares the RNG stream with the inter-arrival draws,
    // so one seed pins the entire (time, workload) trace whatever the
    // scenario (see scenario.cpp).
    return ScenarioStream(options.scenario, options.qps, options.duration_s,
                          options.seed, shares);
  }
  // Replay: workload labels resolve through `workload_names`; with {} the
  // labels are ignored.
  std::ifstream in(options.scenario.trace_path, std::ios::binary);
  if (!in) {
    throw Error("cannot open arrival trace: " + options.scenario.trace_path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ScenarioStream(
      ParseArrivalTraceJson(text.str(), workload_names, options.duration_s));
}

}  // namespace

ArrivalStream::ArrivalStream(const ServeOptions& options,
                             const std::vector<double>& shares,
                             const std::vector<std::string>& workload_names)
    : source_(ArrivalSource(options, shares, workload_names)),
      adversity_(options.adversity, options.qps, options.duration_s,
                 options.seed, shares),
      horizon_s_(options.duration_s) {
  // Exact for a buffered source once churn's masked arrivals are out.
  capacity_ = source_.capacity() + adversity_.extras.size();
  for (const Request& r : source_.buffered()) {
    capacity_ -= adversity_.Masks(r) ? 1 : 0;
  }
  // 40 KiB to start; Refill compacts before it grows, so a buffer only
  // grows past this when half of it is still reachable.
  buffer_.reserve(std::min<std::size_t>(capacity_, 1024));
}

bool ArrivalStream::Refill() {
  constexpr std::size_t kChunk = 64;
  if (buffer_.size() + kChunk > buffer_.capacity()) {
    // Before the buffer can grow, drop what no count can reach any more —
    // arrivals behind the cursor and stamped before the floor — once they
    // are at least half of it, so each arrival moves O(1) times.
    const auto pulled =
        buffer_.begin() + static_cast<std::ptrdiff_t>(cursor_ - base_);
    const auto live = std::lower_bound(
        buffer_.begin(), pulled, floor_s_,
        [](const Request& r, double t) { return r.arrival_s < t; });
    const auto dead = static_cast<std::size_t>(live - buffer_.begin());
    if (dead > 0 && 2 * dead >= buffer_.size()) {
      buffer_.erase(buffer_.begin(), live);
      base_ += dead;
    }
  }
  const std::size_t before = buffer_.size();
  const std::vector<Request>& extras = adversity_.extras;
  if (extras.empty() && adversity_.masked_workload < 0) {
    // Nothing to compose: the source's ids are already the emitted index.
    source_.Append(&buffer_, kChunk);
  } else {
    auto id = static_cast<std::int64_t>(drawn());
    for (std::size_t k = 0; k < kChunk; ++k) {
      // The next source arrival churn leaves, if any.
      const Request* base = nullptr;
      while (base == nullptr) {
        if (staged_next_ == staged_.size()) {
          staged_.clear();
          staged_next_ = 0;
          if (source_.Append(&staged_, kChunk) == 0) {
            break;
          }
        }
        const Request& r = staged_[staged_next_];
        if (adversity_.Masks(r)) {
          ++staged_next_;
        } else {
          base = &r;
        }
      }
      if (next_extra_ < extras.size() &&
          (base == nullptr ||
           extras[next_extra_].arrival_s < base->arrival_s)) {
        buffer_.push_back(extras[next_extra_++]);
      } else if (base != nullptr) {
        buffer_.push_back(*base);
        ++staged_next_;
      } else {
        break;
      }
      buffer_.back().id = id++;
    }
  }
  if (buffer_.size() == before) {
    return false;
  }
  // Every generator stops at the horizon, a replayed trace drops stamps at
  // or past it and flash extras are capped at it, so the engine drains at
  // the horizon with every arrival already served. The stream is sorted,
  // so its latest arrival bounds the rest.
  NSF_CHECK_MSG(buffer_.back().arrival_s < horizon_s_,
                "every arrival must be stamped before the horizon");
  return true;
}

std::size_t ArrivalStream::ArrivedBy(double t) {
  NSF_CHECK_MSG(t >= floor_s_,
                "backlog count below the arrival stream's floor");
  while ((buffer_.empty() || buffer_.back().arrival_s <= t) && Refill()) {
  }
  const std::size_t hint = std::clamp(hint_, base_, drawn()) - base_;
  hint_ = base_ + serve::ArrivedBy(buffer_, t, hint);
  return hint_;
}

std::vector<Request> ArrivalStream::Drain() && {
  buffer_.reserve(capacity_);
  while (Refill()) {
  }
  return std::move(buffer_);
}

std::vector<Request> SyntheticArrivals(
    const ServeOptions& options, const std::vector<double>& shares,
    const std::vector<std::string>& workload_names) {
  return ArrivalStream(options, shares, workload_names).Drain();
}

std::size_t ArrivedBy(std::span<const Request> arrivals, double t,
                      std::size_t hint) {
  NSF_DCHECK(hint <= arrivals.size());
  const auto arrived = [&](std::size_t i) {
    return arrivals[i].arrival_s <= t;
  };
  // Gallop from the hint in doubling steps to a bracket [lo, hi) that
  // holds the answer, then binary-search it.
  std::size_t lo = 0;
  std::size_t hi = arrivals.size();
  std::size_t step = 1;
  if (hint < hi && arrived(hint)) {
    for (lo = hint + 1; lo + step <= hi && arrived(lo + step - 1); step *= 2) {
      lo += step;
    }
    hi = std::min(hi, lo + step - 1);
  } else {
    for (hi = hint; step <= hi && !arrived(hi - step); step *= 2) {
      hi -= step;
    }
    lo = step <= hi ? hi - step + 1 : 0;
  }
  return static_cast<std::size_t>(
      std::upper_bound(arrivals.begin() + static_cast<std::ptrdiff_t>(lo),
                       arrivals.begin() + static_cast<std::ptrdiff_t>(hi), t,
                       [](double v, const Request& r) {
                         return v < r.arrival_s;
                       }) -
      arrivals.begin());
}

std::vector<WorkloadShare> ParseMix(const std::string& spec) {
  if (spec.empty()) {
    throw Error("empty workload mix");
  }
  std::vector<WorkloadShare> mix;
  ForEachSpecEntry(
      spec, "mix entry", "name=share, e.g. mlp=0.6",
      [&](const std::string& workload, const std::string& value) {
        const double share =
            ParseFiniteNumber(value, "mix share '" + workload + "'");
        if (share <= 0.0) {
          throw Error("mix share for '" + workload + "' must be positive");
        }
        mix.push_back(WorkloadShare{workload, share});
      });
  return mix;
}

namespace {

/// The timeline's sources in same-instant firing priority, smallest first
/// (docs/ENGINE.md): the environment changes (adversity faults land), the
/// control loop observes the changed world (autoscaler tick), shed
/// requests re-offer (admission retry), new arrivals enter, and shutdown
/// runs strictly last.
enum class EventClass : std::uint8_t {
  kAdversity = 0,
  kAutoscalerTick = 1,
  kAdmissionRetry = 2,
  kArrival = 3,
  kDrain = 4,
};

/// The next timeline event: when it fires and which source it comes from.
struct TimelineEvent {
  double t_s = 0.0;
  EventClass cls = EventClass::kDrain;
};

/// Pipeline state + event handlers (docs/ENGINE.md).
///
/// One event loop advances the virtual clock. Each source keeps its own
/// next instant: the adversity timeline's cursor, the autoscaler's next
/// tick, the admission controller's earliest retry, the drain at the
/// horizon, and the arrival stream's cursor. RunEventLoop fires whichever
/// sorts first by (time, EventClass), so the same-instant ordering
/// contract (adversity < tick < retry < arrival < drain) is explicit in
/// EventClass; the golden digests in tests/golden/ pin it against the
/// polling interleave it replaced.
/// Lane closes, dispatches, batch completions, admission sweeps, and
/// metric snapshots are *not* timeline events: the eager scheduler books
/// batches onto replicas ahead of the clock (a dispatch at virtual time t
/// is decided when forming closes the batch, which can be earlier than
/// t), so those stay consequences inside the handlers — docs/ENGINE.md
/// walks through why hoisting them onto the timeline would change
/// observable ordering.
struct PipelineContext {
  // ---- wiring (fixed for the run)
  ServerPool& pool;
  ServeStats& stats;
  obs::CompletionLog& log;
  ArrivalStream& arrivals;
  const ServeOptions& options;
  Autoscaler* autoscaler = nullptr;
  AdmissionController* admission = nullptr;
  ClusterPool* cluster = nullptr;
  std::shared_ptr<obs::Observability> obs;
  obs::TraceRecorder* recorder = nullptr;

  // ---- mutable run state
  MultiBatchFormer former;
  std::int64_t started = 0;  // Requests whose batch already dispatched.
  std::int64_t expired_dispatched = 0;  // Defensive; the sweep keeps it 0.
  // Each lane's cycle-model warm-up, taken at set-up and filled at the
  // lane's first arrival (then reset); idle lanes never fill.
  std::vector<std::optional<ServerPool::WarmRows>> cold_lanes;

  // Admission's congestion signal. The eager scheduler books closed
  // batches onto replicas ahead of the virtual clock, so forming lanes
  // stay shallow even when the pool is hours behind — the real backlog
  // lives in dispatched batches whose virtual start hasn't arrived yet.
  // Track those here (only when a controller is attached: the
  // admission-off path must stay byte-identical), draining entries as the
  // offer clock passes their start. A replica failure re-enqueues aborted
  // batches without deleting their old entries; the stale entries expire
  // on their own as the clock passes, so the signal briefly over-counts
  // during the outage — conservative shedding, still seed-deterministic.
  // The tracker is a min-heap of (start time, batch size) pairs: the order
  // among equal starts only matters within a same-instant drain, whose sum
  // is all that is observed.
  std::priority_queue<std::pair<double, std::int64_t>,
                      std::vector<std::pair<double, std::int64_t>>,
                      std::greater<>>
      scheduled_starts;
  std::int64_t scheduled_backlog = 0;

  // Environment-event timeline (adversity.h). Replica failures need commit
  // deferral: the eager scheduler books batches onto replicas ahead of the
  // virtual clock, so a failure must be able to *abort* everything the
  // schedule had placed on the dead replica past the failure instant and
  // re-enqueue it. In deferred mode each dispatched batch waits in
  // `pending` until it settles: after every arrival at the watermark
  // (Watermark), at a failure instant, and at the end of the run.
  // Fault-free runs commit at dispatch.
  std::vector<AdversityEvent> env;
  std::size_t env_next = 0;
  bool defer_commits = false;
  struct PendingCommit {
    DispatchRecord record;
    std::int64_t depth = 0;  // Backlog at the batch's start.
    Batch batch;
    RouteDecision route;  // Cluster runs: tallied at commit.
  };
  // Deferred commits sit in `pending_slots`, and a settled slot goes on
  // `free_slots` for the next dispatch to reuse, so the churn of pending
  // records stays allocation-free once the slots hold the peak in flight
  // (the zero-allocation contract, docs/ENGINE.md). `pending` is a
  // min-heap of small keys on (completion, dispatch order) — the
  // settlement order; the records never move.
  struct PendingKey {
    double complete_s = 0.0;
    std::uint32_t batch_index = 0;
    std::size_t slot = 0;
  };
  std::vector<PendingCommit> pending_slots;
  std::vector<std::size_t> free_slots;
  std::vector<PendingKey> pending;
  static bool SettlesAfter(const PendingKey& a, const PendingKey& b) {
    return a.complete_s != b.complete_s ? a.complete_s > b.complete_s
                                        : a.batch_index > b.batch_index;
  }

  std::size_t timeline_seen = 0;
  double next_snapshot_s = obs::kSnapshotIntervalS;
  std::vector<PoolDelta> deltas;
  // Per-arrival scratch, reused so forming never allocates in steady
  // state (docs/ENGINE.md): each lane's busy horizon and the batches the
  // arrival closed.
  std::vector<double> busy_until;
  std::vector<Batch> closed;

  PipelineContext(ServerPool& pool_in, ServeStats& stats_in,
                  obs::CompletionLog& log_in, ArrivalStream& arrivals_in,
                  const ServeOptions& options_in, Autoscaler* autoscaler_in,
                  AdmissionController* admission_in, ClusterPool* cluster_in,
                  std::shared_ptr<obs::Observability> obs_in)
      : pool(pool_in),
        stats(stats_in),
        log(log_in),
        arrivals(arrivals_in),
        options(options_in),
        autoscaler(autoscaler_in),
        admission(admission_in),
        cluster(cluster_in),
        obs(std::move(obs_in)),
        former(BuildPolicies(pool_in, options_in)) {
    NSF_CHECK_MSG(options.max_batch >= 1, "max_batch must be positive");
    // Observability (docs/OBSERVABILITY.md): resolve the instrument
    // pointers once up front; with `obs` null every record site below is
    // one pointer test — the whole overhead of tracing-off.
    recorder = obs != nullptr ? &obs->recorder : nullptr;
    if (obs != nullptr) {
      stats.AttachMetrics(&obs->metrics);
      pool.AttachMetrics(&obs->metrics);
      if (autoscaler != nullptr) {
        autoscaler->AttachMetrics(&obs->metrics);
      }
      if (admission != nullptr) {
        admission->AttachMetrics(&obs->metrics);
      }
      former.AttachMetrics(&obs->metrics);
      // A one-node cluster registers nothing: its instruments would all
      // read zero, but their presence alone would change metrics.json —
      // the single-node byte-identity contract (docs/CLUSTER.md).
      if (cluster != nullptr && cluster->nodes() > 1) {
        cluster->AttachMetrics(&obs->metrics);
      }
    }
    // Each request commits once (a retry is the same request) and every
    // committed batch holds one, so the arrival count bounds both, and the
    // stream's capacity almost always bounds the arrival count.
    log.requests.reserve(arrivals.capacity());
    log.batches.reserve(arrivals.capacity());

    // Cycle-model warm-up, restricted to workloads that actually have
    // traffic — idle tenants stay lazily memoized (their unbatched
    // baseline below is the only evaluation they pay). Each lane warms
    // only up to *its* batch cap — a cap-1 lane never forms a batch its
    // policy forbids, so pre-evaluating larger sizes for it would be
    // wasted cold-start work. The rows are the set-up pool's and caps, but
    // a lane fills them at its first arrival (HandleArrival): a fill is
    // pure and counts no cache hit or miss, and no batch of a workload
    // prices before its first arrival, so every output stays as if the
    // whole warm-up ran here.
    cold_lanes.reserve(static_cast<std::size_t>(pool.workloads()));
    for (int w = 0; w < pool.workloads(); ++w) {
      cold_lanes.push_back(pool.RowsFor(w, former.policy(w).max_batch));
    }

    if (admission != nullptr) {
      // Tier-priority dispatch: when several lanes close together (or
      // flush at drain), critical lanes preempt batch lanes (tier order ==
      // close order). Admission-off runs keep all-zero priorities — the
      // default oldest-head-of-line order, bit-exactly.
      for (int w = 0; w < pool.workloads(); ++w) {
        former.SetLanePriority(w, static_cast<int>(admission->TierOf(w)));
      }
    }

    env = BuildAdversityTimeline(options.adversity, options.duration_s);
    defer_commits = options.adversity.kind == AdversityKind::kReplicaFail;

    busy_until.assign(static_cast<std::size_t>(pool.workloads()), 0.0);
  }

  // Per-lane batching policies: `per_workload_max_batch` overrides the
  // uniform cap where set (0 entries fall back).
  static std::vector<BatchPolicy> BuildPolicies(const ServerPool& pool,
                                                const ServeOptions& options) {
    std::vector<BatchPolicy> policies(
        static_cast<std::size_t>(pool.workloads()),
        BatchPolicy{options.max_batch, options.max_wait_s});
    NSF_CHECK_MSG(options.per_workload_max_batch.empty() ||
                      options.per_workload_max_batch.size() ==
                          policies.size(),
                  "per_workload_max_batch must have one entry per workload");
    for (std::size_t w = 0; w < options.per_workload_max_batch.size(); ++w) {
      if (options.per_workload_max_batch[w] > 0) {
        policies[w].max_batch = options.per_workload_max_batch[w];
      }
    }
    return policies;
  }

  static std::string Seconds(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  }

  // ------------------------------------------------------------- recording

  void AdmissionInstant(double t, obs::InstantKind kind, WorkloadId workload,
                        std::string detail) {
    if (recorder == nullptr) {
      return;
    }
    obs::InstantEvent instant;
    instant.t_s = t;
    instant.kind = kind;
    instant.workload = workload;
    instant.detail = std::move(detail);
    recorder->RecordInstant(std::move(instant));
  }

  // Mirror new ServeStats PoolEvents into the trace: periodic samples
  // become Chrome counter points, budget deferrals become autoscaler-track
  // instants (applied deltas get richer instants straight from the delta
  // in the tick handler below, and faults the adversity engine's own).
  void SyncTimeline() {
    if (recorder == nullptr) {
      return;
    }
    const std::vector<PoolEvent>& timeline = stats.timeline();
    for (; timeline_seen < timeline.size(); ++timeline_seen) {
      const PoolEvent& event = timeline[timeline_seen];
      if (event.kind == PoolEventKind::kSample) {
        obs::CounterSample sample;
        sample.t_s = event.t_s;
        sample.window_rate_rps = event.window_rate_rps;
        sample.active_replicas =
            static_cast<std::int32_t>(event.active_replicas);
        sample.queue_depth = event.queue_depth;
        recorder->RecordCounter(sample);
      } else if (event.kind == PoolEventKind::kDeferred) {
        obs::InstantEvent instant;
        instant.t_s = event.t_s;
        instant.kind = obs::InstantKind::kAutoscalerDeferred;
        instant.detail = event.event;
        recorder->RecordInstant(std::move(instant));
      }
    }
  }

  void RecordDelta(const PoolDelta& delta) {
    if (recorder == nullptr) {
      return;
    }
    obs::InstantEvent decision;
    decision.t_s = delta.t_s;
    decision.kind = obs::InstantKind::kAutoscalerDecision;
    decision.replica = delta.replica;
    decision.workload = delta.workload;
    decision.detail = delta.reason;
    recorder->RecordInstant(std::move(decision));
    obs::InstantKind kind = obs::InstantKind::kAutoscalerDecision;
    switch (delta.kind) {
      case PoolDeltaKind::kAddReplica:
        kind = obs::InstantKind::kReplicaAdded;
        break;
      case PoolDeltaKind::kRetireReplica:
        kind = obs::InstantKind::kReplicaDraining;
        break;
      case PoolDeltaKind::kRefitReplica:
        kind = obs::InstantKind::kReplicaRefit;
        break;
      case PoolDeltaKind::kSetBatchCap:
        return;  // No replica track to annotate.
    }
    obs::InstantEvent transition;
    transition.t_s = delta.t_s;
    transition.kind = kind;
    transition.replica = delta.replica;
    transition.workload = delta.workload;
    transition.detail = delta.reason;
    recorder->RecordInstant(std::move(transition));
  }

  // Virtual-time metrics-snapshot clock (obs on): one timeline point every
  // obs::kSnapshotIntervalS, fired between arrivals like the autoscaler
  // tick.
  void SnapshotUntil(double t) {
    if (obs == nullptr) {
      return;
    }
    while (next_snapshot_s <= t) {
      pool.PublishCacheMetrics();
      stats.PublishMetrics(log);
      obs->metrics.TakeSnapshot(next_snapshot_s);
      next_snapshot_s += obs::kSnapshotIntervalS;
    }
  }

  // ---- Environment-event surfacing (adversity engine). Fault events are
  // surfaced twice: a kFault PoolEvent on the stats timeline (the CLI
  // epilogue and bench artifacts read it) and a typed instant on the obs
  // trace (SyncTimeline skips kFault so nothing double-emits).
  void FaultEvent(double t, std::string text) {
    PoolEvent event;
    event.t_s = t;
    event.kind = PoolEventKind::kFault;
    event.event = std::move(text);
    event.active_replicas = pool.ActiveReplicas(t);
    event.queue_depth = former.total_pending();
    stats.RecordPoolEvent(std::move(event));
  }

  void FaultInstant(double t, obs::InstantKind kind, int replica,
                    WorkloadId workload, std::string detail) {
    if (recorder == nullptr) {
      return;
    }
    obs::InstantEvent instant;
    instant.t_s = t;
    instant.kind = kind;
    instant.replica = replica;
    instant.workload = workload;
    instant.detail = std::move(detail);
    recorder->RecordInstant(std::move(instant));
  }

  // One cross-node routing decision on the trace (local dispatches stay
  // silent — a one-node cluster emits nothing, keeping its trace
  // byte-identical to a cluster-free run).
  void ClusterInstant(double t, const RouteDecision& route,
                      WorkloadId workload) {
    if (recorder == nullptr) {
      return;
    }
    obs::InstantEvent instant;
    instant.t_s = t;
    instant.kind = obs::InstantKind::kClusterRoute;
    instant.workload = workload;
    // "node<home>->node<node> bytes=<n>", formatted once on the stack,
    // each number given room for its widest text: at most 59 characters.
    constexpr int kIntChars = 11;       // "-2147483648"
    constexpr int kLongLongChars = 20;  // "-9223372036854775808"
    char text[64];
    char* end = std::copy_n("node", 4, text);
    end = std::to_chars(end, end + kIntChars, route.home).ptr;
    end = std::copy_n("->node", 6, end);
    end = std::to_chars(end, end + kIntChars, route.node).ptr;
    end = std::copy_n(" bytes=", 7, end);
    end = std::to_chars(end, end + kLongLongChars,
                        std::llround(route.request_bytes +
                                     route.response_bytes))
              .ptr;
    instant.detail.assign(text, end);
    recorder->RecordInstant(std::move(instant));
  }

  // ---------------------------------------------------- dispatch + commit

  void Dispatch(Batch&& batch) {
    int node = -1;
    double egress_s = 0.0;
    RouteDecision route;
    if (cluster != nullptr) {
      route = cluster->Route(batch);
      node = route.node;
      if (route.remote) {
        // Cross-node dispatch is priced, never free: the request transfer
        // must land on the routed node before the batch can start there
        // (formed_s shifts by the ingress), and the response transfer
        // stretches only the client latency (the record's egress_s — the
        // replica frees at compute completion).
        ClusterInstant(batch.formed_s, route, batch.workload);
        batch.formed_s += route.ingress_s;
        egress_s = route.egress_s;
      }
    }
    const double start =
        std::max(batch.formed_s, pool.EarliestFree(batch.workload, node));
    if (admission != nullptr) {
      // Deadline-expiry sweep: a member whose start deadline already
      // passed is dropped here, before the dispatch — the
      // never-dispatched invariant (docs/ADMISSION.md). A batch emptied by
      // the sweep simply never dispatches.
      const std::int64_t swept = admission->SweepExpired(&batch, start);
      if (swept > 0) {
        AdmissionInstant(start, obs::InstantKind::kAdmissionExpired,
                         batch.workload,
                         std::to_string(swept) + " expired before dispatch");
        if (batch.requests.empty()) {
          former.Recycle(std::move(batch.requests));
          return;
        }
      }
      for (const Request& r : batch.requests) {
        if (start > r.deadline_s) {
          ++expired_dispatched;  // Defensive: the sweep keeps this at 0.
        }
      }
    }
    // Backlog the batch sees at its start: arrivals in the system minus
    // requests already sent to a replica and minus everything admission
    // removed for good (final sheds + expiries never reach a replica).
    // Batch starts stay near the clock, so the count gallops from the
    // previous dispatch's; a start is never below the watermark.
    const std::int64_t depth =
        static_cast<std::int64_t>(arrivals.ArrivedBy(start)) - started -
        (admission != nullptr ? admission->removed() : 0);
    DispatchRecord record = pool.Dispatch(batch, node);
    record.close = static_cast<obs::BatchClose>(batch.close_reason);
    record.formed_s = batch.formed_s;
    record.egress_s = egress_s;
    started += batch.size();
    if (admission != nullptr) {
      scheduled_starts.emplace(record.start_s, batch.size());
      scheduled_backlog += batch.size();
    }
    if (defer_commits) {
      PendingCommit commit{record, depth, std::move(batch), route};
      std::size_t slot = pending_slots.size();
      if (free_slots.empty()) {
        pending_slots.push_back(std::move(commit));
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
        pending_slots[slot] = std::move(commit);
      }
      pending.push_back({record.complete_s, record.batch_index, slot});
      std::push_heap(pending.begin(), pending.end(), SettlesAfter);
      return;
    }
    Commit(record, depth, batch, route);
  }

  // The one commit: append a dispatched batch and its members to the
  // completion log. Fault-free runs commit at dispatch; replica-fail runs
  // at settlement (CommitUntil), in (completion, dispatch order) order —
  // a pure function of the schedule, so the log, and with it the
  // log-order latency means, stays pinned by the seed. A traced commit
  // takes 1 + size trace seq numbers: the batch span's, then its members'.
  // The cluster tallies the batch against its node here too, and the stats
  // the backlog it started with, so a batch that a failure aborted and
  // re-dispatched counts once, where it ran.
  void Commit(DispatchRecord record, std::int64_t depth, Batch& batch,
              const RouteDecision& route) {
    if (cluster != nullptr) {
      cluster->RecordDispatch(route);
    }
    stats.RecordBacklog(depth);
    if (recorder != nullptr) {
      record.seq = recorder->TakeSeq(1 + record.size);
    }
    log.batches.push_back(record);
    for (const Request& r : batch.requests) {
      log.requests.push_back(
          {obs::LogField<std::uint32_t>(r.id, "request id"), r.arrival_s});
    }
    former.Recycle(std::move(batch.requests));
  }

  // Commit every pending batch that completes at or before `t`, in
  // settlement order.
  void CommitUntil(double t) {
    while (!pending.empty() && pending.front().complete_s <= t) {
      std::pop_heap(pending.begin(), pending.end(), SettlesAfter);
      const std::size_t slot = pending.back().slot;
      pending.pop_back();
      PendingCommit& settled = pending_slots[slot];
      Commit(settled.record, settled.depth, settled.batch, settled.route);
      free_slots.push_back(slot);
    }
  }

  // The settlement watermark at arrival time `now` (docs/ENGINE.md): no
  // batch dispatched from here on forms, and so starts, before it. A
  // size-cap close forms at an arrival, at or after `now`; a deadline
  // close at or after its lane's unstretched deadline (a warm add can pull
  // a busy-stretched close back to it, and lanes opened later have later
  // deadlines); the end-of-run flush at or after min(flush instant,
  // deadline), and the flush instant is past every arrival; a failure
  // re-dispatches at the failure instant; cluster ingress only adds time.
  // A later batch therefore completes at or after the watermark and sorts
  // after every batch already settled, so committing up to it keeps the
  // settlement order exact, and no backlog count asks below it.
  double Watermark(double now) const {
    return std::min(now, former.next_deadline());
  }

  // ----------------------------------------------------- adversity events

  // End events paired to a start resolved at fire time (recovery, derate
  // end) are spliced into the not-yet-fired suffix of the timeline. The
  // event loop reads env[env_next] only after the previous handler (and
  // any splice it did) finished, so it never fires a stale env time.
  void ScheduleEnv(AdversityEvent e) {
    std::size_t at = env_next;
    while (at < env.size() && env[at].t_s <= e.t_s) {
      ++at;
    }
    env.insert(env.begin() + static_cast<std::ptrdiff_t>(at), std::move(e));
  }

  // One replica failure (the kReplicaFail workhorse — also looped over a
  // whole node's replicas for `replica-fail:node=K`). Eligibility — live,
  // non-draining, and no workload orphaned by the loss — re-resolves per
  // call, so a node failure keeps each tenant's last capable replica up.
  void FailOneReplica(const AdversityEvent& e, int requested) {
    const int target =
        pool.ResolveFaultTarget(requested, e.t_s, /*for_failure=*/true);
    if (target < 0) {
      FaultEvent(e.t_s,
                 "replica failure skipped: no eligible target (loss "
                 "would orphan a workload)");
      return;
    }
    // Settle history, then abort everything the schedule had placed on
    // the dead replica past the failure instant.
    CommitUntil(e.t_s);
    const auto survivors_end = std::partition(
        pending.begin(), pending.end(), [&](const PendingKey& key) {
          return pending_slots[key.slot].record.replica != target;
        });
    std::vector<PendingKey> aborted(survivors_end, pending.end());
    pending.erase(survivors_end, pending.end());
    std::make_heap(pending.begin(), pending.end(), SettlesAfter);
    pool.FailReplica(target, e.t_s, e.until_s, e.warmup_s);
    FaultEvent(e.t_s, "replica " + std::to_string(target) +
                          " failed: dark until " + Seconds(e.until_s) +
                          " s, " + std::to_string(aborted.size()) +
                          " in-flight batch(es) re-enqueued");
    FaultInstant(e.t_s, obs::InstantKind::kReplicaFailed, target, -1,
                 "failed; recovery at " + Seconds(e.until_s) + " s");
    // Re-enqueue in original dispatch order: the batches re-enter the
    // pipeline at the failure instant and reroute to survivors (FIFO
    // within each batch is untouched — composition is preserved).
    std::sort(aborted.begin(), aborted.end(),
              [](const PendingKey& a, const PendingKey& b) {
                return a.batch_index < b.batch_index;
              });
    for (const PendingKey& key : aborted) {
      Batch batch = std::move(pending_slots[key.slot].batch);
      free_slots.push_back(key.slot);
      started -= batch.size();
      batch.formed_s = e.t_s;
      Dispatch(std::move(batch));
    }
    AdversityEvent recover;
    recover.t_s = e.until_s;
    recover.kind = AdversityEventKind::kReplicaRecover;
    recover.replica = target;
    recover.warmup_s = e.warmup_s;
    ScheduleEnv(std::move(recover));
  }

  void FireEnv(const AdversityEvent& e) {
    switch (e.kind) {
      case AdversityEventKind::kReplicaFail: {
        if (e.node >= 0) {
          // Whole-node outage (`replica-fail:node=K`, docs/CLUSTER.md):
          // every replica pinned to the node goes through the per-replica
          // failure path. Re-enqueued batches reroute through the cluster
          // router, which prices the cross-node hop to the survivors.
          if (cluster == nullptr) {
            FaultEvent(e.t_s,
                       "node failure skipped: no cluster is configured "
                       "(serve with --cluster)");
            break;
          }
          FaultEvent(e.t_s, "node " + std::to_string(e.node) +
                                " failing: dark until " +
                                Seconds(e.until_s) + " s");
          const int replicas = pool.size();
          for (int r = 0; r < replicas; ++r) {
            if (pool.NodeOf(r) == e.node) {
              FailOneReplica(e, r);
            }
          }
          break;
        }
        FailOneReplica(e, e.replica);
        break;
      }
      case AdversityEventKind::kReplicaRecover:
        FaultEvent(e.t_s, "replica " + std::to_string(e.replica) +
                              " recovered (warming for " +
                              Seconds(e.warmup_s) + " s)");
        FaultInstant(e.t_s, obs::InstantKind::kReplicaRecovered, e.replica,
                     -1, "recovered; warming for " + Seconds(e.warmup_s) +
                             " s");
        break;
      case AdversityEventKind::kDerateStart: {
        const int target =
            pool.ResolveFaultTarget(e.replica, e.t_s, /*for_failure=*/false);
        if (target < 0) {
          FaultEvent(e.t_s, "straggler derate skipped: no eligible target");
          break;
        }
        pool.SetDerate(target, e.factor, e.t_s, e.until_s);
        FaultEvent(e.t_s, "replica " + std::to_string(target) +
                              " derated x" + Seconds(e.factor) +
                              " until " + Seconds(e.until_s) + " s");
        FaultInstant(e.t_s, obs::InstantKind::kReplicaDerated, target, -1,
                     "derated x" + Seconds(e.factor) + " until " +
                         Seconds(e.until_s) + " s");
        AdversityEvent end;
        end.t_s = e.until_s;
        end.kind = AdversityEventKind::kDerateEnd;
        end.replica = target;
        end.factor = e.factor;
        ScheduleEnv(std::move(end));
        break;
      }
      case AdversityEventKind::kDerateEnd:
        FaultEvent(e.t_s, "replica " + std::to_string(e.replica) +
                              " derate ended (back to full clock)");
        FaultInstant(e.t_s, obs::InstantKind::kReplicaDerated, e.replica,
                     -1, "derate ended");
        break;
      case AdversityEventKind::kChurnLeave:
        FaultEvent(e.t_s, "workload " + std::to_string(e.workload) +
                              " churned out (arrivals masked until " +
                              Seconds(e.until_s) + " s)");
        FaultInstant(e.t_s, obs::InstantKind::kEnvironment, -1, e.workload,
                     "tenant churned out until " + Seconds(e.until_s) +
                         " s");
        break;
      case AdversityEventKind::kChurnRejoin:
        FaultEvent(e.t_s, "workload " + std::to_string(e.workload) +
                              " rejoined");
        FaultInstant(e.t_s, obs::InstantKind::kEnvironment, -1, e.workload,
                     "tenant rejoined");
        break;
      case AdversityEventKind::kFlashStart:
        FaultEvent(e.t_s, "flash crowd x" + Seconds(e.factor) +
                              " across tenants until " +
                              Seconds(e.until_s) + " s");
        FaultInstant(e.t_s, obs::InstantKind::kEnvironment, -1, -1,
                     "flash crowd x" + Seconds(e.factor) + " until " +
                         Seconds(e.until_s) + " s");
        break;
      case AdversityEventKind::kFlashEnd:
        FaultEvent(e.t_s, "flash crowd ended");
        FaultInstant(e.t_s, obs::InstantKind::kEnvironment, -1, -1,
                     "flash crowd ended");
        break;
    }
  }

  // One autoscaler control decision (kAutoscalerTick).
  void FireTick() {
    for (PoolDelta& delta : autoscaler->Tick(former, stats)) {
      RecordDelta(delta);
      deltas.push_back(std::move(delta));
    }
    SyncTimeline();
  }

  // ------------------------------------------------------ admission path

  // Feed one admitted request into the forming lanes — the pre-admission
  // hot path, unchanged when no controller is attached. The former reads
  // the busy horizons only at or past its earliest pending deadline, so
  // they are refreshed only then.
  void AddToFormer(const Request& r) {
    if (r.arrival_s >= former.next_deadline()) {
      for (int w = 0; w < pool.workloads(); ++w) {
        busy_until[static_cast<std::size_t>(w)] = pool.EarliestFree(w);
      }
    }
    former.Add(r, busy_until, &closed);
    for (Batch& batch : closed) {
      Dispatch(std::move(batch));
    }
  }

  // Offer one arrival (or retry re-offer) to the admission controller;
  // only admitted requests reach the former. The offer sees the admitted
  // backlog — forming-lane depth plus dispatched requests whose virtual
  // start is still ahead of the offer clock — and the pool's live
  // fraction (failed replicas discounted) at the offer instant, both pure
  // functions of the virtual timeline.
  void Offer(Request r) {
    if (admission == nullptr) {
      AddToFormer(r);
      return;
    }
    const double t = r.arrival_s;
    while (!scheduled_starts.empty() && scheduled_starts.top().first <= t) {
      scheduled_backlog -= scheduled_starts.top().second;
      scheduled_starts.pop();
    }
    const std::int64_t removed_before = admission->removed();
    if (!admission->Offer(&r, former.total_pending() + scheduled_backlog,
                          pool.LiveFraction(t))) {
      const bool final_shed = admission->removed() > removed_before;
      AdmissionInstant(t,
                       final_shed ? obs::InstantKind::kAdmissionShed
                                  : obs::InstantKind::kAdmissionRetry,
                       r.workload, TierName(r.tier));
      return;
    }
    AddToFormer(r);
  }

  // The kAdmissionRetry handler: re-offer every retry due at or before
  // `t`. The event loop fires it at the controller's earliest retry, so
  // everything processed here is due exactly now, however many retries
  // share the instant; a re-shed can chain another same-instant attempt —
  // the loop re-checks.
  void ProcessRetriesAt(double t) {
    while (admission->NextRetryAt() <= t) {
      const double retry_t = admission->NextRetryAt();
      Request retry = admission->PopRetry();
      if (autoscaler != nullptr) {
        stats.RecordArrival(retry.workload, retry_t);
      }
      SnapshotUntil(retry_t);
      Offer(std::move(retry));
    }
  }

  // One arrival enters: a lane's first one fills its warm-up; the arrival
  // record only exists to feed the autoscaler's windowed rate samples;
  // static runs skip the bookkeeping (hot path). A deferred-commit run
  // then settles up to the watermark, and the arrival stream drops what
  // lies below it.
  void HandleArrival(const Request& request) {
    std::optional<ServerPool::WarmRows>& cold =
        cold_lanes[static_cast<std::size_t>(request.workload)];
    if (cold.has_value()) {
      pool.WarmBatchSizes(*cold);
      cold.reset();
    }
    if (autoscaler != nullptr) {
      stats.RecordArrival(request.workload, request.arrival_s);
    }
    SnapshotUntil(request.arrival_s);
    Offer(request);
    const double watermark = Watermark(request.arrival_s);
    if (defer_commits) {
      CommitUntil(watermark);
    }
    arrivals.SetFloor(watermark);
  }

  // ----------------------------------------------------------- the driver

  // The earliest event the timeline's sources hold, by (time, class):
  // the adversity timeline's cursor, the autoscaler's next tick, the
  // admission controller's earliest retry, and the drain at the horizon.
  // Absent layers and a spent adversity timeline are skipped; an empty
  // retry heap reads +inf, which never beats the drain.
  TimelineEvent NextTimelineEvent() const {
    TimelineEvent next{options.duration_s, EventClass::kDrain};
    const auto consider = [&next](double t_s, EventClass cls) {
      if (t_s < next.t_s || (t_s == next.t_s && cls < next.cls)) {
        next = {t_s, cls};
      }
    };
    if (env_next < env.size()) {
      consider(env[env_next].t_s, EventClass::kAdversity);
    }
    if (autoscaler != nullptr) {
      consider(autoscaler->next_tick_s(), EventClass::kAutoscalerTick);
    }
    if (admission != nullptr) {
      consider(admission->NextRetryAt(), EventClass::kAdmissionRetry);
    }
    return next;
  }

  // Arrivals ride a cursor beside the timeline's other sources: the next
  // one fires first when (t, kArrival) sorts before the next timeline
  // event's (t, class). That event is read again only when a source can
  // have changed: after each timeline event, and after each arrival when
  // an offer can schedule a retry.
  void RunEventLoop() {
    // Every arrival is stamped before the horizon (ArrivalStream), so all
    // of them fire before the drain.
    TimelineEvent next = NextTimelineEvent();
    while (true) {
      if (const Request* arrival = arrivals.Peek()) {
        const double t = arrival->arrival_s;
        if (t < next.t_s ||
            (t == next.t_s && next.cls > EventClass::kArrival)) {
          // A copy: handling it draws ahead, which may move the buffer.
          const Request request = *arrival;
          arrivals.Pop();
          HandleArrival(request);
          if (admission != nullptr) {
            next = NextTimelineEvent();
          }
          continue;
        }
      }
      switch (next.cls) {
        case EventClass::kAdversity: {
          const AdversityEvent env_event = env[env_next++];
          FireEnv(env_event);  // May splice paired end events.
          break;
        }
        case EventClass::kAutoscalerTick:
          FireTick();
          break;
        case EventClass::kAdmissionRetry:
          ProcessRetriesAt(next.t_s);
          break;
        case EventClass::kArrival:
          NSF_CHECK_MSG(false, "arrivals ride the stream's cursor");
          break;
        case EventClass::kDrain:
          // Everything at or before the horizon has fired (kDrain is the
          // highest class value, so same-instant work went first); the
          // shutdown sequence runs back in Run().
          return;
      }
      next = NextTimelineEvent();
    }
  }

  // ------------------------------------------------------------- shutdown

  // Run tail: flush the lanes, settle deferred commits, gracefully
  // drain an admission-run pool, and resolve the post-run replica spans.
  // Retries scheduled past the horizon never re-enter: shutdown finalizes
  // them as sheds (graceful drain admits nothing new).
  void FinishRun() {
    SnapshotUntil(options.duration_s);
    if (admission != nullptr) {
      admission->CloseRetries();
    }
    for (Batch& tail : former.Flush(options.duration_s + options.max_wait_s)) {
      Dispatch(std::move(tail));
    }
    CommitUntil(std::numeric_limits<double>::infinity());

    // Graceful drain (admission runs): the arrival stream is over and
    // every lane has flushed in tier order — retire the whole pool.
    // Replicas finish what they already started (retire at their busy
    // horizon), and the span accounting below judges them against their
    // drained span.
    if (admission != nullptr) {
      std::vector<bool> was_draining(static_cast<std::size_t>(pool.size()));
      for (int r = 0; r < pool.size(); ++r) {
        was_draining[static_cast<std::size_t>(r)] = pool.draining(r);
      }
      const int drained = pool.DrainAll(options.duration_s);
      PoolEvent event;
      event.t_s = options.duration_s;
      event.kind = PoolEventKind::kDecision;
      event.event = "graceful drain: " + std::to_string(drained) +
                    " replica(s) retired";
      event.active_replicas = pool.ActiveReplicas(options.duration_s);
      event.queue_depth = former.total_pending();
      stats.RecordPoolEvent(std::move(event));
      if (recorder != nullptr) {
        for (int r = 0; r < pool.size(); ++r) {
          if (was_draining[static_cast<std::size_t>(r)]) {
            continue;  // The autoscaler already drained it mid-run.
          }
          obs::InstantEvent instant;
          instant.t_s = options.duration_s;
          instant.kind = obs::InstantKind::kReplicaDraining;
          instant.replica = r;
          instant.detail = "graceful drain";
          recorder->RecordInstant(std::move(instant));
        }
      }
    }

    // Utilization denominators: each replica against its provisioned span
    // (a no-op for static pools, whose spans are the whole horizon).
    // Admission runs also land here: the graceful drain gave every replica
    // a finite retire time.
    if (autoscaler != nullptr || admission != nullptr) {
      for (int r = 0; r < pool.size(); ++r) {
        stats.SetReplicaSpan(r, pool.AddedAt(r), pool.RetiredAt(r));
        // Retire instants are only knowable post-run: a drained replica's
        // actual retire time is its busy horizon at drain, not the
        // decision.
        const double retired = pool.RetiredAt(r);
        if (recorder != nullptr && std::isfinite(retired)) {
          obs::InstantEvent instant;
          instant.t_s = retired;
          instant.kind = obs::InstantKind::kReplicaRetired;
          instant.replica = r;
          instant.detail = "replica " + std::to_string(r) + " retired";
          recorder->RecordInstant(std::move(instant));
        }
      }
    }
  }

  ServeReport BuildReport() {
    ServeReport report;
    report.generated_requests = static_cast<std::int64_t>(arrivals.drawn());
    for (int w = 0; w < pool.workloads(); ++w) {
      // The unbatched baseline runs on the first replica deployed for w.
      for (int r = 0; r < pool.size(); ++r) {
        if (pool.CanServe(r, w)) {
          report.single_request_by_workload.push_back(
              pool.BatchSeconds(r, w, 1));
          break;
        }
      }
    }
    report.deltas = std::move(deltas);
    if (admission != nullptr) {
      report.admission = admission->Summaries();
      report.expired_dispatched = expired_dispatched;
    }
    report.summary = stats.Summarize(
        log, EffectiveOfferedRps(options, report.generated_requests),
        options.duration_s);
    // Per-node slices only for real multi-node clusters: a one-node
    // cluster leaves the summary (and its table) byte-identical to a
    // cluster-free run.
    if (cluster != nullptr && cluster->nodes() > 1) {
      report.summary.per_node = cluster->Snapshot();
    }
    report.replica_seconds = pool.ReplicaSeconds(report.summary.horizon_s);
    if (obs != nullptr) {
      // Final metrics point at the true horizon, then hand the bundle back
      // for export.
      pool.PublishCacheMetrics();
      stats.PublishMetrics(log);
      obs->metrics.TakeSnapshot(report.summary.horizon_s);
      obs->meta.replicas = pool.size();
      report.obs = std::move(obs);
    }
    return report;
  }

  ServeReport Run() {
    RunEventLoop();
    FinishRun();
    return BuildReport();
  }
};

}  // namespace

ServeReport RunSyntheticServe(const WorkloadRegistry& registry,
                              const std::vector<ReplicaSpec>& replicas,
                              const std::vector<WorkloadShare>& mix,
                              const ServeOptions& options) {
  NSF_CHECK_MSG(registry.size() >= 1, "registry has no workloads");
  NSF_CHECK_MSG(!mix.empty(), "workload mix cannot be empty");

  // Resolve names -> per-id shares. Unlisted workloads get zero traffic
  // (they are still compiled and servable — just idle this run).
  std::vector<double> shares(static_cast<std::size_t>(registry.size()), 0.0);
  for (const WorkloadShare& entry : mix) {
    NSF_CHECK_MSG(entry.share > 0.0, "mix shares must be positive");
    const WorkloadId id = registry.IdOf(entry.workload);
    NSF_CHECK_MSG(shares[static_cast<std::size_t>(id)] == 0.0,
                  "workload '" + entry.workload + "' listed twice in mix");
    shares[static_cast<std::size_t>(id)] = entry.share;
  }

  // A run serving one workload ignores arrival-trace labels (everything
  // maps to workload 0, docs/SCENARIOS.md); several resolve them by name.
  ArrivalStream arrivals(
      options, shares,
      registry.size() > 1 ? registry.Names() : std::vector<std::string>{});
  ServerPool pool(replicas, registry.Dataflows());
  ServeStats stats(pool.size(), registry.size());
  const auto log = std::make_shared<obs::CompletionLog>();
  for (WorkloadId w = 0; w < registry.size(); ++w) {
    stats.SetWorkloadName(w, registry.NameOf(w));
  }
  std::optional<AdmissionController> admission;
  if (options.admission.enabled()) {
    NSF_CHECK_MSG(options.tiers.empty() ||
                      options.tiers.size() ==
                          static_cast<std::size_t>(registry.size()),
                  "tiers must have one entry per registry workload");
    double total_share = 0.0;
    for (const double share : shares) {
      total_share += share;
    }
    // Only a replayed trace's offered rate counts its arrivals, and a
    // replay is a buffered source, whose capacity is its exact count.
    const double offered_rps = EffectiveOfferedRps(
        options, static_cast<std::int64_t>(arrivals.capacity()));
    std::vector<AdmissionController::TenantConfig> tenants;
    tenants.reserve(static_cast<std::size_t>(registry.size()));
    for (WorkloadId w = 0; w < registry.size(); ++w) {
      AdmissionController::TenantConfig tenant;
      tenant.name = registry.NameOf(w);
      tenant.tier = options.tiers.empty()
                        ? SlaTier::kStandard
                        : options.tiers[static_cast<std::size_t>(w)];
      // The tenant's share of the run's offered rate sizes its default
      // token bucket (an explicit rate= param overrides per tenant).
      tenant.offered_rps =
          total_share > 0.0
              ? offered_rps * shares[static_cast<std::size_t>(w)] /
                    total_share
              : 0.0;
      stats.SetWorkloadTier(w, tenant.tier);
      tenants.push_back(std::move(tenant));
    }
    admission.emplace(options.admission, std::move(tenants));
  }
  AdmissionController* admission_ptr =
      admission.has_value() ? &*admission : nullptr;
  // Cluster layer (docs/CLUSTER.md): tag every replica with its node and
  // stand up the router + network model. Constructed even for an explicit
  // one-node cluster — it then routes everything locally and surfaces
  // nothing, so its output stays byte-identical to the no-cluster path.
  std::optional<ClusterPool> cluster;
  if (options.cluster.enabled()) {
    cluster.emplace(options.cluster, pool, registry.Dataflows(),
                    options.cluster_nodes);
  }
  ClusterPool* cluster_ptr = cluster.has_value() ? &*cluster : nullptr;
  std::shared_ptr<obs::Observability> obs;
  if (options.trace.enabled) {
    obs = std::make_shared<obs::Observability>(options.trace, log);
    obs->meta.workload_names = registry.Names();
  }
  std::optional<Autoscaler> autoscaler;
  if (options.autoscale) {
    for (const ReplicaSpec& spec : replicas) {
      NSF_CHECK_MSG(spec.workloads.size() == 1,
                    "autoscaling needs a partitioned pool (every replica "
                    "dedicated to exactly one workload) — `nsflow plan` "
                    "emits one, or pass --partition with --mix");
    }
    autoscaler.emplace(registry, mix, pool, options);
    if (cluster_ptr != nullptr) {
      autoscaler->SetCluster(cluster_ptr);
    }
  }
  PipelineContext context(pool, stats, *log, arrivals, options,
                          autoscaler.has_value() ? &*autoscaler : nullptr,
                          admission_ptr, cluster_ptr, std::move(obs));
  ServeReport report = context.Run();
  report.log = log;
  report.dispatches = log->batches;
  return report;
}

}  // namespace nsflow::serve
