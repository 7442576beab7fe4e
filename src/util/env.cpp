#include "util/env.h"

#include <cerrno>
#include <cstdlib>

#include "util/contracts.h"
#include "util/strings.h"

namespace gqa {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  GQA_EXPECTS_MSG(end != raw && *end == '\0',
                  std::string(name) + "='" + raw +
                      "' is not a base-10 integer");
  GQA_EXPECTS_MSG(errno != ERANGE, std::string(name) + "='" + raw +
                                       "' is out of the 64-bit range");
  return static_cast<std::int64_t>(value);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string v = to_lower(raw);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace gqa
