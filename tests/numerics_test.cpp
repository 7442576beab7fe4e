// Tests for the numerics substrate: rounding, saturation, fixed-point
// formats, dyadic multipliers, and the reference non-linear functions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "numerics/dyadic.h"
#include "numerics/fxp.h"
#include "numerics/nonlinear.h"
#include "numerics/rounding.h"
#include "numerics/saturate.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace gqa {
namespace {

// -------------------------------------------------------------- rounding --

TEST(Rounding, NearestAwayTies) {
  EXPECT_EQ(round_to_int(2.5), 3);
  EXPECT_EQ(round_to_int(-2.5), -3);
  EXPECT_EQ(round_to_int(2.4), 2);
  EXPECT_EQ(round_to_int(-2.4), -2);
}

TEST(Rounding, OtherModes) {
  EXPECT_EQ(round_to_int(2.5, RoundMode::kFloor), 2);
  EXPECT_EQ(round_to_int(-2.5, RoundMode::kFloor), -3);
  EXPECT_EQ(round_to_int(2.1, RoundMode::kCeil), 3);
  EXPECT_EQ(round_to_int(-2.9, RoundMode::kTowardZero), -2);
}

TEST(Rounding, NonFiniteThrows) {
  EXPECT_THROW(round_to_int(std::nan("")), ContractViolation);
  EXPECT_THROW(round_to_int(INFINITY), ContractViolation);
}

TEST(Rounding, GridRounding) {
  EXPECT_DOUBLE_EQ(round_to_grid(0.8155, 5), std::round(0.8155 * 32) / 32);
  EXPECT_DOUBLE_EQ(round_to_grid(-0.815, 0), -1.0);
  EXPECT_DOUBLE_EQ(round_to_grid(0.49, 1), 0.5);
}

class ShiftRoundProperty : public ::testing::TestWithParam<int> {};

/// Round half away from zero of v / 2^shift by __int128 floor division of
/// the magnitude: independent of shift_round's shift-and-bias formula, and
/// exact where a double quotient is not (|v| > 2^53).
std::int64_t round_div_pow2_reference(std::int64_t v, int shift) {
  const __int128 step = static_cast<__int128>(1) << shift;
  const __int128 mag = v < 0 ? -static_cast<__int128>(v) : v;
  const __int128 q = (mag + step / 2) / step;
  return static_cast<std::int64_t>(v < 0 ? -q : q);
}

TEST_P(ShiftRoundProperty, MatchesInt128RoundHalfAwayFromZero) {
  const int shift = GetParam();
  constexpr std::int64_t kLimit = std::int64_t{1} << 62;
  std::vector<std::int64_t> values = {-1000001, -37, -1, 0, 1, 5, 999999,
                                      kLimit, -kLimit};
  Rng rng(0x5A1F + static_cast<std::uint64_t>(shift));
  for (int i = 0; i < 2000; ++i) {
    // Magnitudes spread over every bit length up to 2^62.
    const int bits = static_cast<int>(rng.uniform_int(0, 62));
    const std::int64_t mag = rng.uniform_int(0, std::int64_t{1} << bits);
    values.push_back(rng.uniform_int(0, 1) == 0 ? mag : -mag);
  }
  if (shift > 0) {
    // Every tie ±(2j+1)·2^(shift−1) within |v| ≤ 2^62 (the first 64 odd
    // multiples), and the values one either side of it.
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    for (std::int64_t j = 0; j < 64 && (2 * j + 1) <= kLimit / half; ++j) {
      for (const std::int64_t sign : {1, -1}) {
        const std::int64_t tie = sign * (2 * j + 1) * half;
        values.insert(values.end(), {tie - 1, tie, tie + 1});
      }
    }
  }
  for (const std::int64_t v : values) {
    ASSERT_EQ(shift_round(v, shift), round_div_pow2_reference(v, shift))
        << "v=" << v << " shift=" << shift;
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftRoundProperty, ::testing::Range(0, 63));

// -------------------------------------------------------------- saturate --

TEST(Saturate, BoundsAndClamping) {
  EXPECT_EQ(int_min(8, true), -128);
  EXPECT_EQ(int_max(8, true), 127);
  EXPECT_EQ(int_min(8, false), 0);
  EXPECT_EQ(int_max(8, false), 255);
  EXPECT_EQ(saturate(300, 8), 127);
  EXPECT_EQ(saturate(-300, 8), -128);
  EXPECT_EQ(saturate(42, 8), 42);
  EXPECT_EQ(saturate(-5, 8, false), 0);
}

TEST(Saturate, FitsPredicate) {
  EXPECT_TRUE(fits(127, 8));
  EXPECT_FALSE(fits(128, 8));
  EXPECT_TRUE(fits(255, 8, false));
  EXPECT_FALSE(fits(-1, 8, false));
}

TEST(Saturate, SatShlDetectsOverflowWithoutUb) {
  EXPECT_EQ(sat_shl(1, 3, 8), 8);
  EXPECT_EQ(sat_shl(100, 4, 8), 127);
  EXPECT_EQ(sat_shl(-100, 4, 8), -128);
  EXPECT_EQ(sat_shl(1, 40, 62), std::int64_t{1} << 40);
}

TEST(Saturate, SatAdd) {
  EXPECT_EQ(sat_add(100, 100, 8), 127);
  EXPECT_EQ(sat_add(-100, -100, 8), -128);
  EXPECT_EQ(sat_add(50, 20, 8), 70);
}

// ------------------------------------------------------------------- fxp --

TEST(Fxp, FormatProperties) {
  const FxpFormat fmt{8, 5, true};
  EXPECT_EQ(fmt.integer_bits(), 2);
  EXPECT_DOUBLE_EQ(fmt.resolution(), 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(fmt.min_value(), -4.0);
  EXPECT_DOUBLE_EQ(fmt.max_value(), 127.0 / 32.0);
  EXPECT_EQ(fmt.to_string(), "sQ2.5");
}

class FxpRoundTrip : public ::testing::TestWithParam<FxpFormat> {};

TEST_P(FxpRoundTrip, ErrorBoundedByHalfUlp) {
  const FxpFormat fmt = GetParam();
  for (double x = fmt.min_value(); x <= fmt.max_value(); x += 0.0371) {
    const double back = fxp_round(x, fmt);
    EXPECT_LE(std::abs(back - x), fmt.resolution() / 2 + 1e-12)
        << "x=" << x << " fmt=" << fmt.to_string();
  }
}

TEST_P(FxpRoundTrip, SaturatesOutOfRange) {
  const FxpFormat fmt = GetParam();
  EXPECT_EQ(fxp_encode(fmt.max_value() + 100.0, fmt),
            int_max(fmt.width, fmt.is_signed));
  EXPECT_EQ(fxp_encode(fmt.min_value() - 100.0, fmt),
            int_min(fmt.width, fmt.is_signed));
}

INSTANTIATE_TEST_SUITE_P(Formats, FxpRoundTrip,
                         ::testing::Values(FxpFormat{8, 5, true},
                                           FxpFormat{8, 7, true},
                                           FxpFormat{16, 5, true},
                                           FxpFormat{16, 12, true},
                                           FxpFormat{8, 4, false}));

TEST(Fxp, DecodeRejectsOutOfRangeCodes) {
  const FxpFormat fmt{8, 5, true};
  EXPECT_THROW(fxp_decode(128, fmt), ContractViolation);
  EXPECT_DOUBLE_EQ(fxp_decode(-128, fmt), -4.0);
}

TEST(Fxp, EncodeRejectsNonFinite) {
  EXPECT_THROW(fxp_encode(std::nan(""), FxpFormat{8, 5, true}),
               ContractViolation);
}

// ---------------------------------------------------------------- dyadic --

class DyadicAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(DyadicAccuracy, ApproximatesWithinHalfUlp) {
  const double real = GetParam();
  const Dyadic d = Dyadic::from_real(real, 15);
  // Relative error bounded by 2^-15 of the normalized mantissa.
  EXPECT_NEAR(d.real(), real, std::abs(real) * std::ldexp(1.0, -15));
}

INSTANTIATE_TEST_SUITE_P(Values, DyadicAccuracy,
                         ::testing::Values(0.5, 1.0, 0.0001, 123.456, -0.75,
                                           -3.14159, 0.333333, 1e-6, 2048.0));

TEST(Dyadic, ApplyMatchesRealMultiplication) {
  const Dyadic d = Dyadic::from_real(0.37);
  for (std::int64_t v : {-100000LL, -31LL, 0LL, 7LL, 12345LL}) {
    EXPECT_NEAR(static_cast<double>(d.apply(v)),
                static_cast<double>(v) * 0.37,
                std::abs(v * 0.37) * 1e-4 + 0.51);
  }
}

TEST(Dyadic, ZeroAndErrors) {
  EXPECT_EQ(Dyadic::from_real(0.0).mult, 0);
  EXPECT_THROW(Dyadic::from_real(std::nan("")), ContractViolation);
}

TEST(Dyadic, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(0.25));
  EXPECT_TRUE(is_power_of_two(64.0));
  EXPECT_FALSE(is_power_of_two(0.3));
  EXPECT_FALSE(is_power_of_two(-2.0));
  EXPECT_EQ(nearest_po2_exponent(0.25), -2);
  EXPECT_EQ(nearest_po2_exponent(0.3), -2);  // round(log2 0.3) = -2
  EXPECT_EQ(nearest_po2_exponent(3.0), 2);   // round(1.585) = 2
  EXPECT_THROW(nearest_po2_exponent(0.0), ContractViolation);
}

// ------------------------------------------------------------- nonlinear --

TEST(Nonlinear, ReferenceValues) {
  EXPECT_NEAR(eval_op(Op::kGelu, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_op(Op::kGelu, 10.0), 10.0, 1e-6);
  EXPECT_NEAR(eval_op(Op::kHswish, -3.0), 0.0, 1e-12);
  EXPECT_NEAR(eval_op(Op::kHswish, 3.0), 3.0, 1e-12);
  EXPECT_NEAR(eval_op(Op::kHswish, 1.0), 1.0 * 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(eval_op(Op::kExp, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(eval_op(Op::kDiv, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_op(Op::kRsqrt, 4.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_op(Op::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(eval_op(Op::kSilu, 0.0), 0.0, 1e-12);
}

TEST(Nonlinear, DomainViolationsThrow) {
  EXPECT_THROW(eval_op(Op::kDiv, 0.0), ContractViolation);
  EXPECT_THROW(eval_op(Op::kRsqrt, -1.0), ContractViolation);
}

TEST(Nonlinear, RegistryLookups) {
  EXPECT_EQ(op_info(Op::kGelu).name, "GELU");
  EXPECT_EQ(op_from_name("gelu"), Op::kGelu);
  EXPECT_EQ(op_from_name("RSQRT"), Op::kRsqrt);
  EXPECT_THROW(op_from_name("nosuch"), ContractViolation);
  EXPECT_EQ(paper_ops().size(), 5u);
  EXPECT_GE(all_ops().size(), 10u);
}

TEST(Nonlinear, Table1Ranges) {
  EXPECT_DOUBLE_EQ(op_info(Op::kGelu).range_lo, -4.0);
  EXPECT_DOUBLE_EQ(op_info(Op::kExp).range_lo, -8.0);
  EXPECT_DOUBLE_EQ(op_info(Op::kExp).range_hi, 0.0);
  EXPECT_DOUBLE_EQ(op_info(Op::kDiv).range_lo, 0.5);
  EXPECT_DOUBLE_EQ(op_info(Op::kRsqrt).range_lo, 0.25);
  EXPECT_TRUE(op_info(Op::kGelu).scale_dependent);
  EXPECT_FALSE(op_info(Op::kDiv).scale_dependent);
}

}  // namespace
}  // namespace gqa
