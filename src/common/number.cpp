#include "common/number.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
