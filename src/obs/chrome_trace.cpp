#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/error.h"

// GCC 12 issues a spurious -Wrestrict for short string-literal assignments
// inlined into vector-growth paths (GCC PR105329); the copies here target
// freshly allocated, provably non-overlapping storage.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace nsflow::obs {

namespace {

constexpr int kRequestsPid = 1;
constexpr int kReplicasPid = 2;
constexpr int kAutoscalerPid = 3;

constexpr double kUsPerSecond = 1e6;

const char* CloseName(BatchClose close) {
  switch (close) {
    case BatchClose::kNone:
      return "";
    case BatchClose::kSizeCap:
      return "size_cap";
    case BatchClose::kDeadline:
      return "deadline";
    case BatchClose::kFlush:
      return "flush";
  }
  return "";
}

std::string WorkloadName(const TraceMeta& meta, std::int32_t workload) {
  if (workload >= 0 &&
      workload < static_cast<std::int32_t>(meta.workload_names.size())) {
    return meta.workload_names[static_cast<std::size_t>(workload)];
  }
  return "workload " + std::to_string(workload);
}

ChromeEvent Metadata(const char* what, int pid, int tid, std::string name) {
  ChromeEvent event;
  event.name = what;  // "process_name" / "thread_name".
  event.ph = "M";
  event.pid = pid;
  event.tid = tid;
  event.args["name"] = Json(std::move(name));
  return event;
}

ChromeEvent Instant(const InstantEvent& record, const TraceMeta& meta) {
  ChromeEvent event;
  event.ph = "i";
  event.ts_us = record.t_s * kUsPerSecond;
  event.scope = "t";
  switch (record.kind) {
    case InstantKind::kAutoscalerDecision:
      event.name = "decision";
      event.cat = "autoscaler";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kAutoscalerDeferred:
      event.name = "add deferred";
      event.cat = "autoscaler";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kReplicaAdded:
      event.name = "added";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaDraining:
      event.name = "draining";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaRetired:
      event.name = "retired";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaRefit:
      event.name = "refit";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaFailed:
      event.name = "failed";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaRecovered:
      event.name = "recovered";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kReplicaDerated:
      event.name = "derated";
      event.cat = "replica";
      event.pid = kReplicasPid;
      event.tid = record.replica;
      break;
    case InstantKind::kEnvironment:
      event.name = "environment";
      event.cat = "adversity";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kAdmissionShed:
      event.name = "shed";
      event.cat = "admission";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kAdmissionRetry:
      event.name = "retry";
      event.cat = "admission";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kAdmissionExpired:
      event.name = "expired";
      event.cat = "admission";
      event.pid = kAutoscalerPid;
      break;
    case InstantKind::kClusterRoute:
      event.name = "route";
      event.cat = "cluster";
      event.pid = kAutoscalerPid;
      break;
  }
  if (!record.detail.empty()) {
    event.args["detail"] = Json(record.detail);
  }
  if (record.workload >= 0) {
    event.args["workload"] = Json(WorkloadName(meta, record.workload));
  }
  return event;
}

ChromeEvent CounterEvent(double t_s, const char* name, const char* key,
                         Json value) {
  ChromeEvent event;
  event.name = name;
  event.ph = "C";
  event.cat = "autoscaler";
  event.ts_us = t_s * kUsPerSecond;
  event.pid = kAutoscalerPid;
  event.args[key] = std::move(value);
  return event;
}

}  // namespace

std::vector<ChromeEvent> BuildChromeTrace(const TraceData& data,
                                          const TraceMeta& meta,
                                          TraceDetail detail) {
  std::vector<ChromeEvent> events;
  // Deterministic section order: metadata, counters, instants, batches,
  // request spans. Each section preserves Drain()'s (time, seq) order.
  events.push_back(Metadata("process_name", kRequestsPid, 0, "requests"));
  events.push_back(Metadata("process_name", kReplicasPid, 0, "replicas"));
  events.push_back(Metadata("process_name", kAutoscalerPid, 0, "autoscaler"));
  for (std::size_t w = 0; w < meta.workload_names.size(); ++w) {
    events.push_back(Metadata("thread_name", kRequestsPid, static_cast<int>(w),
                              meta.workload_names[w]));
  }
  for (int r = 0; r < meta.replicas; ++r) {
    events.push_back(Metadata("thread_name", kReplicasPid, r,
                              "replica " + std::to_string(r)));
  }
  events.push_back(Metadata("thread_name", kAutoscalerPid, 0, "control loop"));

  for (const CounterSample& sample : data.counters) {
    events.push_back(CounterEvent(sample.t_s, "window_rate_rps", "rps",
                                  Json(sample.window_rate_rps)));
    events.push_back(CounterEvent(sample.t_s, "active_replicas", "replicas",
                                  Json(sample.active_replicas)));
    events.push_back(CounterEvent(sample.t_s, "queue_depth", "depth",
                                  Json(sample.queue_depth)));
  }

  for (const InstantEvent& instant : data.instants) {
    events.push_back(Instant(instant, meta));
  }

  for (const BatchSpan& batch : data.batches) {
    ChromeEvent event;
    event.name = WorkloadName(meta, batch.workload);
    event.cat = "batch";
    event.ph = "X";
    event.ts_us = batch.start_s * kUsPerSecond;
    event.dur_us = (batch.complete_s - batch.start_s) * kUsPerSecond;
    event.pid = kReplicasPid;
    event.tid = batch.replica;
    event.args["batch"] = Json(batch.batch_index);
    event.args["size"] = Json(batch.size);
    if (batch.close != BatchClose::kNone) {
      event.args["close"] = Json(CloseName(batch.close));
    }
    events.push_back(std::move(event));
  }

  for (const RequestSpan& span : data.requests) {
    const std::string id = std::to_string(span.request_id);
    ChromeEvent begin;
    begin.name = WorkloadName(meta, span.workload);
    begin.cat = "request";
    begin.ph = "b";
    begin.ts_us = span.arrival_s * kUsPerSecond;
    begin.pid = kRequestsPid;
    begin.tid = span.workload;
    begin.id = id;
    events.push_back(std::move(begin));

    if (detail == TraceDetail::kFull) {
      // Nested phase spans under the same async id: forming (arrival ->
      // batch close) and execution (dispatch -> completion); the gap
      // between them is the dispatch wait on a busy replica.
      ChromeEvent form_b;
      form_b.name = "form";
      form_b.cat = "request";
      form_b.ph = "b";
      form_b.ts_us = span.arrival_s * kUsPerSecond;
      form_b.pid = kRequestsPid;
      form_b.tid = span.workload;
      form_b.id = id;
      events.push_back(std::move(form_b));
      ChromeEvent form_e = events.back();
      form_e.ph = "e";
      form_e.ts_us = span.formed_s * kUsPerSecond;
      form_e.args.clear();
      events.push_back(std::move(form_e));

      ChromeEvent exec_b;
      exec_b.name = "execute";
      exec_b.cat = "request";
      exec_b.ph = "b";
      exec_b.ts_us = span.start_s * kUsPerSecond;
      exec_b.pid = kRequestsPid;
      exec_b.tid = span.workload;
      exec_b.id = id;
      events.push_back(std::move(exec_b));
      ChromeEvent exec_e = events.back();
      exec_e.ph = "e";
      exec_e.ts_us = span.complete_s * kUsPerSecond;
      events.push_back(std::move(exec_e));
    }

    ChromeEvent end;
    end.name = WorkloadName(meta, span.workload);
    end.cat = "request";
    end.ph = "e";
    end.ts_us = span.complete_s * kUsPerSecond;
    end.pid = kRequestsPid;
    end.tid = span.workload;
    end.id = id;
    end.args["batch"] = Json(span.batch_index);
    end.args["replica"] = Json(span.replica);
    end.args["batch_size"] = Json(span.batch_size);
    if (span.close != BatchClose::kNone) {
      end.args["close"] = Json(CloseName(span.close));
    }
    events.push_back(std::move(end));
  }
  return events;
}

std::string SerializeChromeTrace(const std::vector<ChromeEvent>& events) {
  JsonArray entries;
  entries.reserve(events.size());
  for (const ChromeEvent& event : events) {
    JsonObject entry;
    entry["name"] = Json(event.name);
    entry["ph"] = Json(event.ph);
    entry["pid"] = Json(event.pid);
    entry["tid"] = Json(event.tid);
    entry["ts"] = Json(event.ts_us);
    if (!event.cat.empty()) {
      entry["cat"] = Json(event.cat);
    }
    if (event.dur_us >= 0.0) {
      entry["dur"] = Json(event.dur_us);
    }
    if (!event.id.empty()) {
      entry["id"] = Json(event.id);
    }
    if (!event.scope.empty()) {
      entry["s"] = Json(event.scope);
    }
    if (!event.args.empty()) {
      entry["args"] = Json(event.args);
    }
    entries.push_back(Json(std::move(entry)));
  }
  JsonObject root;
  root["displayTimeUnit"] = Json("ms");
  root["traceEvents"] = Json(std::move(entries));
  return Json(std::move(root)).Dump(0);
}

std::vector<ChromeEvent> ParseChromeTrace(std::string_view text) {
  const Json root = Json::Parse(text);
  const JsonArray& entries = root.At("traceEvents").AsArray();
  std::vector<ChromeEvent> events;
  events.reserve(entries.size());
  for (const Json& entry : entries) {
    ChromeEvent event;
    event.name = entry.At("name").AsString();
    event.ph = entry.At("ph").AsString();
    event.pid = static_cast<int>(entry.At("pid").AsInt());
    event.tid = static_cast<int>(entry.At("tid").AsInt());
    event.ts_us = entry.At("ts").AsDouble();
    event.cat = entry.GetStringOr("cat", "");
    event.dur_us = entry.GetNumberOr("dur", -1.0);
    event.id = entry.GetStringOr("id", "");
    event.scope = entry.GetStringOr("s", "");
    if (entry.Contains("args")) {
      event.args = entry.At("args").AsObject();
    }
    events.push_back(std::move(event));
  }
  return events;
}

// --------------------------------------------------------------- binary

namespace {

// "NSFT" packed little-endian.
constexpr std::uint32_t kMagic = 'N' | ('S' << 8) | ('F' << 16) |
                                 (static_cast<std::uint32_t>('T') << 24);
constexpr std::uint32_t kVersion = 1;

// Encoded sizes: the header and each fixed-size record; an instant adds
// its detail's length.
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kRequestBytes = 72;
constexpr std::size_t kBatchBytes = 60;
constexpr std::size_t kInstantBytes = 32;
constexpr std::size_t kCounterBytes = 36;

std::size_t EncodedSize(const TraceData& data) {
  std::size_t size = kHeaderBytes + kRequestBytes * data.requests.size() +
                     kBatchBytes * data.batches.size() +
                     kInstantBytes * data.instants.size() +
                     kCounterBytes * data.counters.size();
  for (const InstantEvent& e : data.instants) {
    size += e.detail.size();
  }
  return size;
}

/// A cursor over an output allocated once at its exact encoded size. The
/// shift loops keep the bytes little-endian on any host; the compiler folds
/// each into a single store.
class Writer {
 public:
  explicit Writer(std::string& out)
      : cursor_(out.data()), end_(out.data() + out.size()) {}

  void U32(std::uint32_t v) { Put<4>(v); }
  void I64(std::int64_t v) { Put<8>(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Put<8>(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    std::memcpy(cursor_, s.data(), s.size());
    cursor_ += s.size();
  }
  /// Throws unless the writes filled the output exactly.
  void Finish() const { NSF_CHECK(cursor_ == end_); }

 private:
  template <int kBytes>
  void Put(std::uint64_t v) {
    unsigned char bytes[kBytes] = {};
    for (int i = 0; i < kBytes; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    std::memcpy(cursor_, bytes, kBytes);
    cursor_ += kBytes;
  }

  char* cursor_;
  char* end_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t U32() {
    Need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::int64_t I64() {
    Need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return static_cast<std::int64_t>(v);
  }
  double F64() {
    const auto bits = static_cast<std::uint64_t>(I64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    Need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// The next `n` bytes, as a view for a reader of their own.
  std::string_view Take(std::size_t n) {
    Need(n);
    const std::string_view taken = bytes_.substr(pos_, n);
    pos_ += n;
    return taken;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Throws unless `count` records of at least `record_bytes` each fit in
  /// the bytes left, so a header's count is checked before it is reserved.
  void NeedRecords(std::size_t count, std::size_t record_bytes) const {
    NSF_CHECK_MSG(count <= (bytes_.size() - pos_) / record_bytes,
                  "binary trace header declares more records than it holds");
  }

 private:
  void Need(std::size_t n) {
    NSF_CHECK_MSG(pos_ + n <= bytes_.size(), "truncated binary trace");
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string SerializeBinaryTrace(const TraceData& data) {
  std::string out(EncodedSize(data), '\0');
  Writer w(out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.I64(static_cast<std::int64_t>(data.requests.size()));
  w.I64(static_cast<std::int64_t>(data.batches.size()));
  w.I64(static_cast<std::int64_t>(data.instants.size()));
  w.I64(static_cast<std::int64_t>(data.counters.size()));
  w.I64(data.dropped);
  for (const RequestSpan& r : data.requests) {
    w.I64(r.request_id);
    w.U32(static_cast<std::uint32_t>(r.workload));
    w.U32(static_cast<std::uint32_t>(r.close));
    w.F64(r.arrival_s);
    w.F64(r.formed_s);
    w.F64(r.start_s);
    w.F64(r.complete_s);
    w.I64(r.batch_index);
    w.U32(static_cast<std::uint32_t>(r.replica));
    w.U32(static_cast<std::uint32_t>(r.batch_size));
    w.I64(r.seq);
  }
  for (const BatchSpan& b : data.batches) {
    w.I64(b.batch_index);
    w.U32(static_cast<std::uint32_t>(b.workload));
    w.U32(static_cast<std::uint32_t>(b.replica));
    w.U32(static_cast<std::uint32_t>(b.close));
    w.F64(b.formed_s);
    w.F64(b.start_s);
    w.F64(b.complete_s);
    w.I64(b.size);
    w.I64(b.seq);
  }
  for (const InstantEvent& e : data.instants) {
    w.F64(e.t_s);
    w.U32(static_cast<std::uint32_t>(e.kind));
    w.U32(static_cast<std::uint32_t>(e.replica));
    w.U32(static_cast<std::uint32_t>(e.workload));
    w.Str(e.detail);
    w.I64(e.seq);
  }
  for (const CounterSample& c : data.counters) {
    w.F64(c.t_s);
    w.F64(c.window_rate_rps);
    w.U32(static_cast<std::uint32_t>(c.active_replicas));
    w.I64(c.queue_depth);
    w.I64(c.seq);
  }
  w.Finish();
  return out;
}

namespace {

RequestSpan ReadRequest(Reader& r) {
  RequestSpan s;
  s.request_id = r.I64();
  s.workload = static_cast<std::int32_t>(r.U32());
  s.close = static_cast<BatchClose>(r.U32());
  s.arrival_s = r.F64();
  s.formed_s = r.F64();
  s.start_s = r.F64();
  s.complete_s = r.F64();
  s.batch_index = r.I64();
  s.replica = static_cast<std::int32_t>(r.U32());
  s.batch_size = static_cast<std::int32_t>(r.U32());
  s.seq = r.I64();
  return s;
}

BatchSpan ReadBatch(Reader& r) {
  BatchSpan b;
  b.batch_index = r.I64();
  b.workload = static_cast<std::int32_t>(r.U32());
  b.replica = static_cast<std::int32_t>(r.U32());
  b.close = static_cast<BatchClose>(r.U32());
  b.formed_s = r.F64();
  b.start_s = r.F64();
  b.complete_s = r.F64();
  b.size = r.I64();
  b.seq = r.I64();
  return b;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Whether a request record repeats every field its batch's span gives it.
/// Stamps compare by bits, so the record re-encodes to itself.
bool RepeatsBatch(const RequestSpan& s, const BatchSpan& b) {
  return s.batch_index == b.batch_index && s.workload == b.workload &&
         s.close == b.close && SameBits(s.formed_s, b.formed_s) &&
         SameBits(s.start_s, b.start_s) &&
         SameBits(s.complete_s, b.complete_s) && s.replica == b.replica &&
         s.batch_size == b.size;
}

/// Fills `log.requests` from `count` request records, which must be what
/// SerializeBinaryTrace writes for `log.batches`: the batches in
/// (complete_s, seq) order, each expanded member by member, every record
/// repeating its batch's fields. Throws on anything else.
void JoinRequests(Reader& records, std::size_t count, CompletionLog& log) {
  // Each batch's log index by batch_index, and its first member's slot.
  std::vector<std::pair<std::int64_t, std::size_t>> by_index;
  by_index.reserve(log.batches.size());
  std::vector<std::size_t> first;
  first.reserve(log.batches.size());
  std::size_t members = 0;
  for (const BatchSpan& batch : log.batches) {
    NSF_CHECK_MSG(static_cast<std::uint64_t>(batch.size) <= count - members,
                  "binary trace batch sizes exceed its request count");
    by_index.emplace_back(batch.batch_index, by_index.size());
    first.push_back(members);
    members += static_cast<std::size_t>(batch.size);
  }
  NSF_CHECK_MSG(members == count,
                "binary trace batch sizes do not sum to its request count");
  std::sort(by_index.begin(), by_index.end());
  NSF_CHECK_MSG(std::adjacent_find(by_index.begin(), by_index.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.first == b.first;
                                   }) == by_index.end(),
                "binary trace has two batches with one batch_index");

  log.requests.resize(count);
  const BatchSpan* batch = nullptr;  // The batch whose members are read.
  std::size_t slot = 0;              // Its first member's slot.
  std::int64_t member = 0;           // The next member to read.
  for (std::size_t k = 0; k < count; ++k) {
    const RequestSpan span = ReadRequest(records);
    const auto where = [k](const std::string& what) {
      return "binary trace request " + std::to_string(k) + " " + what;
    };
    if (batch == nullptr || member == batch->size) {
      const auto found = std::lower_bound(
          by_index.begin(), by_index.end(),
          std::make_pair(span.batch_index, std::size_t{0}));
      NSF_CHECK_MSG(
          found != by_index.end() && found->first == span.batch_index,
          where("names no batch"));
      const BatchSpan& next = log.batches[found->second];
      NSF_CHECK_MSG(
          batch == nullptr ||
              EarlierInTrace(*batch, next, &BatchSpan::complete_s),
          where("is out of (complete, seq) order"));
      batch = &next;
      slot = first[found->second];
      member = 0;
    }
    NSF_CHECK_MSG(RepeatsBatch(span, *batch),
                  where("disagrees with its batch"));
    // Unsigned, so a hostile seq cannot overflow.
    NSF_CHECK_MSG(static_cast<std::uint64_t>(span.seq) -
                          static_cast<std::uint64_t>(batch->seq) ==
                      static_cast<std::uint64_t>(member) + 1,
                  where("is not member " + std::to_string(member) +
                        " of its batch"));
    log.requests[slot + static_cast<std::size_t>(member)] = {span.request_id,
                                                             span.arrival_s};
    ++member;
  }
}

}  // namespace

TraceData ParseBinaryTrace(std::string_view bytes) {
  Reader r(bytes);
  const std::uint32_t magic = r.U32();
  NSF_CHECK_MSG(magic == kMagic, "not a binary nsflow trace (bad magic)");
  const std::uint32_t version = r.U32();
  NSF_CHECK_MSG(version == kVersion, "unsupported binary trace version " +
                                         std::to_string(version));
  const auto requests = static_cast<std::size_t>(r.I64());
  const auto batches = static_cast<std::size_t>(r.I64());
  const auto instants = static_cast<std::size_t>(r.I64());
  const auto counters = static_cast<std::size_t>(r.I64());
  const std::int64_t dropped = r.I64();
  // The request records name batches that follow them: set them aside
  // until the batches are read.
  r.NeedRecords(requests, kRequestBytes);
  Reader request_records(r.Take(requests * kRequestBytes));

  auto log = std::make_shared<CompletionLog>();
  r.NeedRecords(batches, kBatchBytes);
  log->batches.reserve(batches);
  for (std::size_t i = 0; i < batches; ++i) {
    const BatchSpan b = ReadBatch(r);
    NSF_CHECK_MSG(b.size > 0, "binary trace batch " +
                                  std::to_string(b.batch_index) +
                                  " has no member");
    NSF_CHECK_MSG(log->batches.empty() ||
                      EarlierInTrace(log->batches.back(), b,
                                     &BatchSpan::start_s),
                  "binary trace batch " + std::to_string(b.batch_index) +
                      " is out of (start, seq) order");
    log->batches.push_back(b);
  }
  r.NeedRecords(instants, kInstantBytes);
  std::vector<InstantEvent> instant_records;
  instant_records.reserve(instants);
  for (std::size_t i = 0; i < instants; ++i) {
    InstantEvent e;
    e.t_s = r.F64();
    e.kind = static_cast<InstantKind>(r.U32());
    e.replica = static_cast<std::int32_t>(r.U32());
    e.workload = static_cast<std::int32_t>(r.U32());
    e.detail = r.Str();
    e.seq = r.I64();
    instant_records.push_back(std::move(e));
  }
  r.NeedRecords(counters, kCounterBytes);
  std::vector<CounterSample> counter_records;
  counter_records.reserve(counters);
  for (std::size_t i = 0; i < counters; ++i) {
    CounterSample c;
    c.t_s = r.F64();
    c.window_rate_rps = r.F64();
    c.active_replicas = static_cast<std::int32_t>(r.U32());
    c.queue_depth = r.I64();
    c.seq = r.I64();
    counter_records.push_back(c);
  }
  NSF_CHECK_MSG(r.AtEnd(), "trailing bytes after binary trace");
  JoinRequests(request_records, requests, *log);

  TraceData data(log);
  data.instants = std::move(instant_records);
  data.counters = std::move(counter_records);
  data.dropped = dropped;
  return data;
}

}  // namespace nsflow::obs
