// The one text grammar behind every spec-valued flag
// (docs/SERVING.md#spec-grammar): `name[:key=value,...]` for the scenario,
// adversity, admission and cluster specs, and bare `key=value,...` lists
// for `--mix` and `--tiers`.
//
// Strict: every comma-separated entry must be `key=value` with a non-empty
// key, so an empty entry (a trailing or doubled comma, or `name:` with
// nothing after it) is an error, and so is a key given twice. Numeric
// values parse with ParseFiniteNumber. The canonical form lists the
// entries in key order with ShortestNumber values and parses back to the
// same spec bit-exactly.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace nsflow {

/// A spec's numeric parameters (std::map: the canonical key order).
using SpecParams = std::map<std::string, double>;

/// Calls `entry(key, value)` for each comma-separated `key=value` entry of
/// `text` in order, splitting each at its first '='. Empty text is one
/// empty entry. An entry that is empty, lacks '=' or has an empty key
/// throws `Error` ("bad <noun> '<entry>' (expected <shape>)"); a key seen
/// before throws `Error` ("duplicate <noun> '<key>'").
void ForEachSpecEntry(
    const std::string& text, const std::string& noun, const std::string& shape,
    const std::function<void(const std::string& key,
                             const std::string& value)>& entry);

/// One name of a `name[:key=value,...]` grammar and the keys it accepts.
struct SpecName {
  std::string_view name;
  std::string_view keys[7];   // Unused slots stay empty.
  std::string_view text_key;  // The one key whose value stays text, if any
                              // (trace's file); the rest are numbers.
};

/// A parsed `name[:key=value,...]` spec.
struct ParsedSpec {
  std::size_t name = 0;  // Index into SpecGrammar::names.
  SpecParams params;
  std::string text;  // The name's text_key value, "" when not given.
};

/// A `name[:key=value,...]` grammar: the caller's table of names and keys,
/// plus the two nouns its error messages use — `noun` ("adversity") in
/// "bad adversity parameter '<entry>'", "bad numeric value for adversity
/// parameter '<key>'" and range errors "adversity '<name>': ...";
/// `name_noun` ("adversity pattern") in "unknown adversity pattern
/// '<name>'" and "adversity pattern '<name>' has no parameter '<key>'".
struct SpecGrammar {
  std::string_view noun;
  std::string_view name_noun;
  std::span<const SpecName> names;

  /// Resolves the name and parses its entries. Throws `Error` on an unknown
  /// name, a malformed or repeated entry, an unknown key or a bad number.
  ParsedSpec Parse(const std::string& text) const;

  /// Canonical form: the name, then ':' and the entries joined by ',' — a
  /// non-empty `text` first as the name's text key, then `params` in key
  /// order with ShortestNumber values. Parse() gives the same spec back.
  std::string Format(std::size_t name, const SpecParams& params,
                     const std::string& text = "") const;
};

/// How a spec's Resolve reads its parameters: each read names the key's
/// default, and a failed range check throws `Error` ("<noun> '<name>':
/// <message>").
struct SpecReader {
  const SpecGrammar& grammar;
  std::size_t name;
  const SpecParams& params;

  /// The value given for `key`, or `fallback` when none was.
  double Number(const std::string& key, double fallback) const;

  /// Number(), required to be a whole number in [lo, INT_MAX], so the
  /// cast to int is exact ("<key> must be an integer in [<lo>,
  /// 2147483647]<note>").
  int Integer(const std::string& key, int fallback, int lo,
              const char* note = "") const;

  /// Throws unless `ok`.
  void Require(bool ok, std::string_view message) const;
};

}  // namespace nsflow
