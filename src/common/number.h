// Strict numeric tokens for the `key=value` spec grammars (scenario,
// adversity, admission, cluster, and the `--mix` shares) and their
// canonical printing.
#pragma once

#include <string>

namespace nsflow {

/// Parse `text` as a finite double. The whole token must parse — no
/// leading space, no trailing junk — and the value must be finite, so
/// "0.5x", "inf" and "nan" are all rejected. Throws `Error` ("bad numeric
/// value for <what>: '<text>'").
double ParseFiniteNumber(const std::string& text, const std::string& what);

/// Shortest decimal form that parses back to exactly `value`; moderate
/// integers print as integers ("100", not "1e+02"). The spec grammars'
/// canonical `ToString` relies on this to round-trip bit-exactly.
std::string ShortestNumber(double value);

}  // namespace nsflow
