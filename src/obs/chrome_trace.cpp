#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/json.h"

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

/// Where an instant goes: its event name and category, and whether it sits
/// on its replica's track (pid 2, tid = replica) or on the control loop's
/// (pid 3, tid 0).
struct InstantTrack {
  const char* name;
  const char* cat;
  bool on_replica;
};

/// Indexed by InstantKind.
constexpr InstantTrack kInstantTracks[] = {
    {"decision", "autoscaler", false},      // kAutoscalerDecision
    {"add deferred", "autoscaler", false},  // kAutoscalerDeferred
    {"added", "replica", true},             // kReplicaAdded
    {"draining", "replica", true},          // kReplicaDraining
    {"retired", "replica", true},           // kReplicaRetired
    {"refit", "replica", true},             // kReplicaRefit
    {"failed", "replica", true},            // kReplicaFailed
    {"recovered", "replica", true},         // kReplicaRecovered
    {"derated", "replica", true},           // kReplicaDerated
    {"environment", "adversity", false},    // kEnvironment
    {"shed", "admission", false},           // kAdmissionShed
    {"retry", "admission", false},          // kAdmissionRetry
    {"expired", "admission", false},        // kAdmissionExpired
    {"route", "cluster", false},            // kClusterRoute
};
static_assert(std::size(kInstantTracks) ==
              static_cast<std::size_t>(InstantKind::kClusterRoute) + 1);

/// An entry's keys after "args", declared in the order Json::Dump sorts
/// them. An empty `cat` or `id` and a negative `dur_us` are left out;
/// `scoped` writes an instant's "s":"t".
struct Keys {
  std::string_view cat = {};
  double dur_us = -1.0;
  std::string_view id = {};
  std::string_view name = {};
  char ph = 'M';
  int pid = 0;
  bool scoped = false;
  int tid = 0;
  double ts_us = 0.0;
};

/// Appends trace_event entries to one output: an entry's args, if any, in
/// sorted key order, then End() with its other keys.
class EntryWriter {
 public:
  explicit EntryWriter(ChunkedOutput& out) : chunks_(out), out_(out.text()) {}

  void Arg(std::string_view key, double value) {
    ArgKey(key);
    FormatNumber(out_, value);
  }
  void Arg(std::string_view key, std::string_view value) {
    ArgKey(key);
    EscapeString(out_, value);
  }
  void End(const Keys& keys) {
    if (args_) {
      out_ += "},";
      args_ = false;
    } else {
      Open();
    }
    if (!keys.cat.empty()) {
      out_ += "\"cat\":";
      EscapeString(out_, keys.cat);
      out_ += ',';
    }
    if (keys.dur_us >= 0.0) {
      out_ += "\"dur\":";
      FormatNumber(out_, keys.dur_us);
      out_ += ',';
    }
    if (!keys.id.empty()) {
      out_ += "\"id\":";
      EscapeString(out_, keys.id);
      out_ += ',';
    }
    out_ += "\"name\":";
    EscapeString(out_, keys.name);
    out_ += ",\"ph\":\"";
    out_ += keys.ph;
    out_ += "\",\"pid\":";
    FormatNumber(out_, keys.pid);
    if (keys.scoped) {
      out_ += ",\"s\":\"t\"";
    }
    out_ += ",\"tid\":";
    FormatNumber(out_, keys.tid);
    out_ += ",\"ts\":";
    FormatNumber(out_, keys.ts_us);
    out_ += '}';
    chunks_.EntryDone();
  }

 private:
  void Open() { out_ += entries_++ == 0 ? "{" : ",{"; }
  void ArgKey(std::string_view key) {
    if (args_) {
      out_ += ',';
    } else {
      Open();
      out_ += "\"args\":{";
      args_ = true;
    }
    EscapeString(out_, key);
    out_ += ':';
  }

  ChunkedOutput& chunks_;
  std::string& out_;
  std::size_t entries_ = 0;
  bool args_ = false;  // Whether the open entry has args.
};

void WriteChromeTrace(const TraceData& data, const TraceMeta& meta,
                      TraceDetail detail, ChunkedOutput& out) {
  out.text() += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  EntryWriter w(out);
  std::string unnamed;  // "workload <id>" for an id the meta does not name.
  const auto workload_name = [&](std::int32_t workload) -> std::string_view {
    if (workload >= 0 &&
        workload < static_cast<std::int32_t>(meta.workload_names.size())) {
      return meta.workload_names[static_cast<std::size_t>(workload)];
    }
    unnamed = "workload " + std::to_string(workload);
    return unnamed;
  };

  // Deterministic section order: metadata, counters, instants, batches,
  // request spans. Each section keeps Drain()'s (time, seq) order.
  const auto metadata = [&w](const char* what, int pid, int tid,
                             std::string_view name) {
    w.Arg("name", name);
    w.End({.name = what, .ph = 'M', .pid = pid, .tid = tid});
  };
  metadata("process_name", kRequestsPid, 0, "requests");
  metadata("process_name", kReplicasPid, 0, "replicas");
  metadata("process_name", kAutoscalerPid, 0, "autoscaler");
  for (std::size_t i = 0; i < meta.workload_names.size(); ++i) {
    metadata("thread_name", kRequestsPid, static_cast<int>(i),
             meta.workload_names[i]);
  }
  for (int r = 0; r < meta.replicas; ++r) {
    metadata("thread_name", kReplicasPid, r, "replica " + std::to_string(r));
  }
  metadata("thread_name", kAutoscalerPid, 0, "control loop");

  const auto counter = [&w](double t_s, const char* name, const char* key,
                            double value) {
    w.Arg(key, value);
    w.End({.cat = "autoscaler",
           .name = name,
           .ph = 'C',
           .pid = kAutoscalerPid,
           .ts_us = t_s * kUsPerSecond});
  };
  for (const CounterSample& sample : data.counters) {
    counter(sample.t_s, "window_rate_rps", "rps", sample.window_rate_rps);
    counter(sample.t_s, "active_replicas", "replicas",
            sample.active_replicas);
    counter(sample.t_s, "queue_depth", "depth",
            static_cast<double>(sample.queue_depth));
  }

  for (const InstantEvent& instant : data.instants) {
    const auto kind = static_cast<std::size_t>(instant.kind);
    NSF_CHECK_MSG(kind < std::size(kInstantTracks),
                  "unknown instant kind " + std::to_string(kind));
    const InstantTrack& track = kInstantTracks[kind];
    if (!instant.detail.empty()) {
      w.Arg("detail", instant.detail);
    }
    if (instant.workload >= 0) {
      w.Arg("workload", workload_name(instant.workload));
    }
    w.End({.cat = track.cat,
           .name = track.name,
           .ph = 'i',
           .pid = track.on_replica ? kReplicasPid : kAutoscalerPid,
           .scoped = true,
           .tid = track.on_replica ? instant.replica : 0,
           .ts_us = instant.t_s * kUsPerSecond});
  }

  for (const BatchSpan& batch : data.batches) {
    w.Arg("batch", static_cast<double>(batch.batch_index));
    if (batch.close != BatchClose::kNone) {
      w.Arg("close", CloseName(batch.close));
    }
    w.Arg("size", static_cast<double>(batch.size));
    w.End({.cat = "batch",
           .dur_us = (batch.complete_s - batch.start_s) * kUsPerSecond,
           .name = workload_name(batch.workload),
           .ph = 'X',
           .pid = kReplicasPid,
           .tid = batch.replica,
           .ts_us = batch.start_s * kUsPerSecond});
  }

  for (const RequestSpan& span : data.requests) {
    char digits[24];
    const std::string_view id(
        digits,
        std::to_chars(digits, digits + sizeof digits, span.request_id).ptr -
            digits);
    const std::string_view name = workload_name(span.workload);
    const auto keys = [&](std::string_view phase, char ph, double t_s) {
      return Keys{.cat = "request",
                  .id = id,
                  .name = phase,
                  .ph = ph,
                  .pid = kRequestsPid,
                  .tid = span.workload,
                  .ts_us = t_s * kUsPerSecond};
    };
    w.End(keys(name, 'b', span.arrival_s));
    if (detail == TraceDetail::kFull) {
      // Nested phase spans under the same async id: forming (arrival ->
      // batch close) and execution (dispatch -> completion); the gap
      // between them is the dispatch wait on a busy replica.
      w.End(keys("form", 'b', span.arrival_s));
      w.End(keys("form", 'e', span.formed_s));
      w.End(keys("execute", 'b', span.start_s));
      w.End(keys("execute", 'e', span.complete_s));
    }
    w.Arg("batch", static_cast<double>(span.batch_index));
    w.Arg("batch_size", span.batch_size);
    if (span.close != BatchClose::kNone) {
      w.Arg("close", CloseName(span.close));
    }
    w.Arg("replica", span.replica);
    w.End(keys(name, 'e', span.complete_s));
  }
  out.text() += "]}";
  out.Finish();
}

}  // namespace

std::string SerializeChromeTrace(const TraceData& data, const TraceMeta& meta,
                                 TraceDetail detail) {
  ChunkedOutput out;
  WriteChromeTrace(data, meta, detail, out);
  return std::move(out.text());
}

void SerializeChromeTrace(const TraceData& data, const TraceMeta& meta,
                          TraceDetail detail, const ChunkSink& sink) {
  ChunkedOutput out(sink);
  WriteChromeTrace(data, meta, detail, out);
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

/// A close reason, which takes one of BatchClose's four values.
BatchClose ReadClose(Reader& r) {
  const std::uint32_t close = r.U32();
  NSF_CHECK_MSG(close <= static_cast<std::uint32_t>(BatchClose::kFlush),
                "binary trace close " + std::to_string(close) +
                    " is not a BatchClose");
  return static_cast<BatchClose>(close);
}

RequestSpan ReadRequest(Reader& r) {
  RequestSpan s;
  s.request_id = r.I64();
  s.workload = static_cast<std::int32_t>(r.U32());
  s.close = ReadClose(r);
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
  b.batch_index = LogField<std::uint32_t>(r.I64(), "batch_index");
  b.workload = static_cast<std::int32_t>(r.U32());
  b.replica = static_cast<std::int32_t>(r.U32());
  b.close = ReadClose(r);
  b.formed_s = r.F64();
  b.start_s = r.F64();
  b.complete_s = r.F64();
  b.size = LogField<std::int32_t>(r.I64(), "size");
  b.seq = LogField<std::uint32_t>(r.I64(), "seq");
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
    log.requests[slot + static_cast<std::size_t>(member)] = {
        LogField<std::uint32_t>(span.request_id, "request id"),
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
