// Chrome trace_event export — write a drained TraceData as a JSON
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
//                       replica transitions (added / draining / retired /
//                       refit, and the adversity engine's failed /
//                       recovered / derated) are instant events on the
//                       track.
//   pid 3 "autoscaler"  decision instants (applied PoolDeltas, deferred
//                       adds), the environment, admission and cluster
//                       instants, and "C" counter series for the window
//                       rate, active replica count, and forming backlog.
//
// Timestamps are virtual seconds scaled to microseconds (the trace_event
// unit). The writer appends each entry straight to its output, keys in the
// order Json::Dump sorts them and values through common/json's own
// EscapeString and FormatNumber, so the document is the one Json::Dump(0)
// would write for it (tests/obs_test.cpp checks Json::Parse(text).Dump(0)
// == text) and a fixed-seed run serializes bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_recorder.h"

namespace nsflow::obs {

/// How much of the request lifecycle the Chrome export expands.
/// Recording cost is identical — detail is an export-time choice.
enum class TraceDetail {
  kSpans,  // One async span per request + batch/replica/autoscaler tracks.
  kFull,   // Additionally nest per-request "form"/"execute" phase spans.
};

/// Run context the exporter needs beyond the raw records, for naming the
/// tracks (filled by the serve engine).
struct TraceMeta {
  std::vector<std::string> workload_names;  // Indexed by workload id.
  int replicas = 0;                         // Peak replica count.
};

/// {"displayTimeUnit": "ms", "traceEvents": [...]} as compact JSON: the
/// metadata, counter, instant, batch and request entries, each section in
/// `data`'s order, appended to the one string returned. Holds nothing but
/// that output; throws on an instant of unknown kind.
std::string SerializeChromeTrace(const TraceData& data, const TraceMeta& meta,
                                 TraceDetail detail);

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
///     replica and size, and takes seq batch.seq + 1 + i;
///   - every value fits its completion log field: a batch_index, batch
///     seq or request id in [0, 2^32), a batch size below 2^31, and a
///     close (in either record) of 0 to 3.
/// Throws nsflow::Error on anything else: a record that breaks these
/// rules, a bad magic or version, truncation, trailing bytes, or a header
/// count larger than the remaining bytes could hold. NSFT does not carry
/// BatchSpan::egress_s; it decodes as 0.
TraceData ParseBinaryTrace(std::string_view bytes);

}  // namespace nsflow::obs
