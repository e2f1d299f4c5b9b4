#include "common/spec.h"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/number.h"

namespace nsflow {
namespace {

/// The "(known: a, b)" suffix of an unknown-name or unknown-key error;
/// empty when nothing is known.
std::string Known(std::span<const std::string_view> names) {
  std::string joined;
  for (const std::string_view name : names) {
    if (!name.empty()) {
      joined += (joined.empty() ? "" : ", ") + std::string(name);
    }
  }
  return joined.empty() ? "" : " (known: " + joined + ")";
}

}  // namespace

void ForEachSpecEntry(
    const std::string& text, const std::string& noun, const std::string& shape,
    const std::function<void(const std::string& key,
                             const std::string& value)>& entry) {
  std::set<std::string> seen;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = std::min(text.find(',', start), text.size());
    const std::string item = text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("bad " + noun + " '" + item + "' (expected " + shape + ")");
    }
    const std::string key = item.substr(0, eq);
    if (!seen.insert(key).second) {
      throw Error("duplicate " + noun + " '" + key + "'");
    }
    entry(key, item.substr(eq + 1));
    if (end == text.size()) {
      return;
    }
    start = end + 1;
  }
}

ParsedSpec SpecGrammar::Parse(const std::string& text) const {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  ParsedSpec parsed;
  while (parsed.name < names.size() && names[parsed.name].name != name) {
    ++parsed.name;
  }
  if (parsed.name == names.size()) {
    std::vector<std::string_view> all;
    for (const SpecName& known : names) {
      all.push_back(known.name);
    }
    throw Error("unknown " + std::string(name_noun) + " '" + name + "'" +
                Known(all));
  }
  if (colon == std::string::npos) {
    return parsed;
  }
  const SpecName& spec = names[parsed.name];
  const std::string param = std::string(noun) + " parameter";
  ForEachSpecEntry(
      text.substr(colon + 1), param, "key=value",
      [&](const std::string& key, const std::string& value) {
        if (std::find(std::begin(spec.keys), std::end(spec.keys), key) ==
            std::end(spec.keys)) {
          throw Error(std::string(name_noun) + " '" + name +
                      "' has no parameter '" + key + "'" + Known(spec.keys));
        }
        if (key == spec.text_key) {
          parsed.text = value;
        } else {
          parsed.params[key] =
              ParseFiniteNumber(value, param + " '" + key + "'");
        }
      });
  return parsed;
}

std::string SpecGrammar::Format(std::size_t name, const SpecParams& params,
                                const std::string& text) const {
  std::string out(names[name].name);
  char sep = ':';
  if (!text.empty()) {
    out += sep + std::string(names[name].text_key) + "=" + text;
    sep = ',';
  }
  for (const auto& [key, value] : params) {
    out += sep + key + "=" + ShortestNumber(value);
    sep = ',';
  }
  return out;
}

double SpecReader::Number(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int SpecReader::Integer(const std::string& key, int fallback, int lo,
                        const char* note) const {
  constexpr int kMax = std::numeric_limits<int>::max();
  const double value = Number(key, fallback);
  if (!(value >= lo && value <= kMax && IsWholeNumber(value))) {
    Require(false, key + " must be an integer in [" + std::to_string(lo) +
                       ", " + std::to_string(kMax) + "]" + note);
  }
  return static_cast<int>(value);
}

void SpecReader::Require(bool ok, std::string_view message) const {
  if (!ok) {
    throw Error(std::string(grammar.noun) + " '" +
                std::string(grammar.names[name].name) + "': " +
                std::string(message));
  }
}

}  // namespace nsflow
