#include "obs/completion_log.h"

#include <string>

#include "common/error.h"

namespace nsflow::obs {

void ThrowLogFieldRange(const char* field, std::int64_t value) {
  throw Error(std::string(field) + " " + std::to_string(value) +
              " does not fit its completion log field");
}

}  // namespace nsflow::obs
