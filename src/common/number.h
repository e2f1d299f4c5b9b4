// Strict numeric tokens for the spec grammar (common/spec.h) and the CLI's
// numeric flags, and their canonical printing.
#pragma once

#include <string>

namespace nsflow {

/// Parse `text` as a finite double. The whole token must parse — no
/// leading space, no trailing junk — and the value must be finite, so
/// "0.5x", "inf" and "nan" are all rejected. Throws `Error` ("bad numeric
/// value for <what>: '<text>'").
double ParseFiniteNumber(const std::string& text, const std::string& what);

/// Parse `text` as a decimal integer of type `Int` (int, std::int64_t or
/// std::uint64_t). The whole token must parse — no sign on unsigned types,
/// no leading '+' or space, no fraction or exponent — and the value must
/// fit `Int`, so "1e3", "4.9", "5abc" and an out-of-range value are all
/// rejected instead of truncated or wrapped. Throws `Error` ("bad integer
/// value for <what>: '<text>' (expected a whole number in [min, max])").
template <typename Int>
Int ParseInteger(const std::string& text, const std::string& what);

/// True when `value` has no fractional part — the spec grammar's integer
/// parameters are numbers that must also pass this.
bool IsWholeNumber(double value);

/// Shortest decimal form that parses back to exactly `value`; moderate
/// integers print as integers ("100", not "1e+02"). The spec grammar's
/// canonical form relies on this to round-trip bit-exactly.
std::string ShortestNumber(double value);

}  // namespace nsflow
