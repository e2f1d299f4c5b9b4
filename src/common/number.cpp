#include "common/number.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/error.h"

namespace nsflow {

double ParseFiniteNumber(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    // No conversion, or out of range: `used` stays 0.
  }
  // std::stod skips leading whitespace and stops at the first character it
  // cannot use; both would let a malformed token through.
  if (used == 0 || used != text.size() ||
      std::isspace(static_cast<unsigned char>(text[0])) ||
      !std::isfinite(value)) {
    throw Error("bad numeric value for " + what + ": '" + text + "'");
  }
  return value;
}

template <typename Int>
Int ParseInteger(const std::string& text, const std::string& what) {
  Int value = 0;
  const char* end = text.data() + text.size();
  // std::from_chars takes no leading space or '+', and reports overflow
  // instead of wrapping; only a fully used token is accepted.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw Error("bad integer value for " + what + ": '" + text +
                "' (expected a whole number in [" +
                std::to_string(std::numeric_limits<Int>::min()) + ", " +
                std::to_string(std::numeric_limits<Int>::max()) + "])");
  }
  return value;
}

template int ParseInteger<int>(const std::string&, const std::string&);
template std::int64_t ParseInteger<std::int64_t>(const std::string&,
                                                 const std::string&);
template std::uint64_t ParseInteger<std::uint64_t>(const std::string&,
                                                   const std::string&);

bool IsWholeNumber(double value) { return value == std::floor(value); }

std::string ShortestNumber(double value) {
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

}  // namespace nsflow
