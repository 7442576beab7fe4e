// Rounding primitives used across quantization and fixed-point conversion.
// The paper's ⌊·⌉ operator is round-to-nearest; ties away from zero matches
// the behaviour of std::lround and of the RTL rounding stage we emit.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/contracts.h"

namespace gqa {

/// Exact power of two 2^e for normal-range exponents; same value as
/// std::ldexp(1.0, e) without the libm call (this sits on the GA's
/// per-genome hot path via round_to_grid).
[[nodiscard]] inline double exact_po2(int exponent) {
  GQA_EXPECTS(exponent >= -1022 && exponent <= 1023);
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(1023 + exponent) << 52);
}

enum class RoundMode {
  kNearestAway,  ///< round half away from zero (default, ⌊·⌉ in the paper)
  kNearestEven,  ///< round half to even (IEEE-754 style)
  kFloor,        ///< truncate toward negative infinity
  kCeil,         ///< toward positive infinity
  kTowardZero,   ///< truncate toward zero
};

namespace detail {

/// llround without the libm call: truncate (one cvttsd2si), then bump on a
/// half-or-more fraction. value - trunc(value) is exact in IEEE-754, so
/// this matches std::llround (round half away from zero) bit for bit.
[[nodiscard]] inline std::int64_t llround_away(double value) {
  if (std::abs(value) >= 9007199254740992.0) {  // 2^53: already integral
    return static_cast<std::int64_t>(value);
  }
  const auto i = static_cast<std::int64_t>(value);
  const double frac = value - static_cast<double>(i);
  return i + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
}

}  // namespace detail

/// Rounds `value` to an integer according to `mode`.
[[nodiscard]] inline std::int64_t round_to_int(double value,
                                               RoundMode mode = RoundMode::kNearestAway) {
  GQA_EXPECTS_MSG(std::isfinite(value), "cannot round non-finite value");
  switch (mode) {
    case RoundMode::kNearestAway:
      return detail::llround_away(value);
    case RoundMode::kNearestEven: {
      const double nearest = std::nearbyint(value);  // honors FE_TONEAREST
      return static_cast<std::int64_t>(nearest);
    }
    case RoundMode::kFloor:
      return static_cast<std::int64_t>(std::floor(value));
    case RoundMode::kCeil:
      return static_cast<std::int64_t>(std::ceil(value));
    case RoundMode::kTowardZero:
      return static_cast<std::int64_t>(std::trunc(value));
  }
  return 0;  // unreachable
}

/// Rounds `value` onto the grid of stride 2^-frac_bits (the paper's
/// ⌊v·2^λ⌉ / 2^λ fixed-point conversion).
[[nodiscard]] inline double round_to_grid(double value, int frac_bits,
                                          RoundMode mode = RoundMode::kNearestAway) {
  const double scale = exact_po2(frac_bits);  // 2^frac_bits
  return static_cast<double>(round_to_int(value * scale, mode)) / scale;
}

/// Right-shift with round-to-nearest-away on the shifted-out bits; the
/// behaviour of a hardware rounding shifter. `shift` must be >= 0.
///
/// Branch-free on the value's sign: the arithmetic shift floors, so adding
/// half the step rounds ties up, and subtracting [v < 0] turns a negative
/// tie (and only a tie) back down, i.e. away from zero. The same formula
/// is what the SIMD requantizer lanes compute (kernel/dispatch.h).
[[nodiscard]] inline std::int64_t shift_round(std::int64_t value, int shift) {
  GQA_EXPECTS(shift >= 0 && shift < 63);
  if (shift == 0) return value;
  const std::int64_t offset = std::int64_t{1} << (shift - 1);
  return (value + offset - static_cast<std::int64_t>(value < 0)) >> shift;
}

}  // namespace gqa
