// Chrome trace_event export — turn a drained TraceData into a JSON
// document Perfetto / chrome://tracing load directly, plus a compact
// binary encoding for long runs (docs/OBSERVABILITY.md).
//
// Track layout (process = track group, thread = track):
//   pid 1 "requests"    one thread per workload; each request is an async
//                       "b"/"e" span (id = request id) from arrival to
//                       completion. kFull detail nests "form" and
//                       "execute" phase spans under the same async id.
//   pid 2 "replicas"    one thread per replica; every dispatched batch is
//                       a complete "X" event spanning its execution, and
//                       replica lifecycle transitions (added / draining /
//                       retired / refit) are instant events on the track.
//   pid 3 "autoscaler"  decision instants (applied PoolDeltas, deferred
//                       adds) plus "C" counter series for the window rate,
//                       active replica count, and forming backlog.
//
// Timestamps are virtual seconds scaled to microseconds (the trace_event
// unit). Serialization goes through common/json's deterministic dump
// (sorted keys, bit-stable number formatting), so a fixed-seed run
// serializes bit-identically — and SerializeChromeTrace(ParseChromeTrace(
// text)) == text, the round-trip contract tests/obs_test.cpp pins.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "obs/trace_recorder.h"

namespace nsflow::obs {

/// How much of the request lifecycle the Chrome export expands.
/// Recording cost is identical — detail is an export-time choice.
enum class TraceDetail {
  kSpans,  // One async span per request + batch/replica/autoscaler tracks.
  kFull,   // Additionally nest per-request "form"/"execute" phase spans.
};

/// Run context the exporter needs beyond the raw records: track naming and
/// replica lifecycle spans (filled by the serve engine).
struct TraceMeta {
  std::vector<std::string> workload_names;  // Indexed by workload id.
  int replicas = 0;                         // Peak replica count.
  double duration_s = 0.0;                  // Virtual run horizon.
};

/// One trace_event entry. Optional fields use sentinels (`dur_us` < 0,
/// empty strings) so the serializer emits exactly the keys that are set —
/// which is what makes the typed parse -> re-emit round trip bit-exact.
struct ChromeEvent {
  std::string name;
  std::string cat;
  std::string ph;           // "X", "b", "e", "i", "C", "M".
  double ts_us = 0.0;
  double dur_us = -1.0;     // Only "X" events carry a duration.
  int pid = 0;
  int tid = 0;
  std::string id;           // Async ("b"/"e") correlation id; "" = absent.
  std::string scope;        // Instant ("i") scope; "" = absent.
  JsonObject args;          // Empty = omitted.
};

/// Expand records + metadata into the flat trace_event list.
std::vector<ChromeEvent> BuildChromeTrace(const TraceData& data,
                                          const TraceMeta& meta,
                                          TraceDetail detail);

/// {"displayTimeUnit": "ms", "traceEvents": [...]} as compact JSON.
/// Deterministic: sorted keys and bit-stable number formatting.
std::string SerializeChromeTrace(const std::vector<ChromeEvent>& events);

/// Inverse of SerializeChromeTrace (schema round trip, not a general
/// trace_event reader): re-serializing the parsed events reproduces the
/// input byte-for-byte.
std::vector<ChromeEvent> ParseChromeTrace(std::string_view text);

// ---- Compact binary encoding ("NSFT"): fixed-size little-endian records,
// doubles bit-copied, strings length-prefixed, at a fraction of the JSON
// size.

/// Encode a drained TraceData (magic "NSFT", version 1) with one
/// allocation of the exact encoded size: the request spans, batch spans,
/// instants and counters, each section in the order the TraceData holds.
std::string SerializeBinaryTrace(const TraceData& data);

/// Decode into a CompletionLog that the returned spans view, so the result
/// is the TraceData a run would drain. Accepts exactly what
/// SerializeBinaryTrace writes from a completion log, and so every file it
/// accepts re-encodes to its own bytes:
///   - the batch section is in strict (start_s, seq) order, every batch has
///     a member, no two share a batch_index, and the sizes sum to the
///     request count;
///   - the request section is the batches in strict (complete_s, seq)
///     order, each expanded member by member: member i names its batch's
///     batch_index, repeats its workload, close, stamps (bit for bit),
///     replica and size, and takes seq batch.seq + 1 + i.
/// Throws nsflow::Error on anything else: a record that breaks these
/// rules, a bad magic or version, truncation, trailing bytes, or a header
/// count larger than the remaining bytes could hold. NSFT does not carry
/// BatchSpan::egress_s or queue_depth; they decode as 0.
TraceData ParseBinaryTrace(std::string_view bytes);

}  // namespace nsflow::obs
