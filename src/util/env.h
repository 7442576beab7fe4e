// Environment-variable knobs for bench binaries. Full paper-scale settings
// are the defaults; CI or quick runs can shrink them, e.g.
//   GQA_EVAL_SCENES=4 ./build/bench/table4_segformer
// The complete knob table lives in README.md ("Environment knobs").
#pragma once

#include <cstdint>
#include <string>

namespace gqa {

/// Returns the integer value of env var `name`, or `fallback` when it is
/// unset or empty. A value that is not a whole base-10 integer (trailing
/// characters included) or lies outside int64 throws ContractViolation
/// naming the variable. Callers range-check the result before narrowing.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// Returns the string value of env var `name`, or `fallback` when unset.
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

/// True when env var `name` is set to a truthy value (1/true/yes/on).
[[nodiscard]] bool env_flag(const char* name, bool fallback = false);

}  // namespace gqa
