// Differential conformance suite for the runtime-dispatched SIMD kernel
// backends (kernel/dispatch.h): every registered non-scalar backend is run
// against the scalar oracle and must match code-for-code and bit-for-bit —
// across bus widths 4..16, span lengths covering every vector-tail residue,
// unaligned span offsets, saturation boundary codes, and extreme (shifter-
// limit) scale exponents. Hosts whose probe rejects a backend SKIP loudly;
// a host with no SIMD backend at all skips the differential tests rather
// than letting them pass silently against nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "kernel/dispatch.h"
#include "kernel/int_pwl_unit.h"
#include "numerics/dyadic.h"
#include "quant/requant.h"
#include "pwl/quantized_table.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqa {
namespace {

using kernel::BackendScope;
using kernel::KernelBackend;

PwlTable gelu_like_table() {
  PwlTable t;
  t.breakpoints = {-2.75, -1.5, -0.75, -0.25, 0.25, 1.0, 2.0};
  t.slopes = {0.0, -0.0625, 0.03125, 0.34375, 0.65625, 0.96875, 1.03125, 1.0};
  t.intercepts = {0.0, -0.15625, 0.0, 0.21875, 0.0, -0.09375, -0.15625, 0.0};
  return t;
}

IntPwlUnit make_unit(int bits, int scale_exp) {
  const QuantParams input{std::ldexp(1.0, scale_exp), bits, true};
  return IntPwlUnit(quantize_table(gelu_like_table(), input, 5, 8));
}

/// Non-scalar backends whose capability probe passes on this host.
std::vector<const KernelBackend*> available_simd_backends() {
  std::vector<const KernelBackend*> out;
  for (const KernelBackend* b : kernel::registry()) {
    if (std::string(b->name) != "scalar" && kernel::backend_available(*b)) {
      out.push_back(b);
    }
  }
  return out;
}

/// Registered backends the host cannot run must be reported, never silently
/// skipped inside loops — tests use this to emit one visible SKIP.
std::vector<std::string> unavailable_backend_names() {
  std::vector<std::string> out;
  for (const KernelBackend* b : kernel::registry()) {
    if (!kernel::backend_available(*b)) out.emplace_back(b->name);
  }
  return out;
}

#define GQA_SKIP_WITHOUT_SIMD_BACKEND(backends)                            \
  do {                                                                     \
    if ((backends).empty()) {                                              \
      GTEST_SKIP() << "no runnable SIMD backend on this host (scalar "     \
                      "oracle only); nothing to differentiate";            \
    }                                                                      \
  } while (false)

/// Codes covering the interesting structure of a `bits`-wide bus: both
/// saturation boundaries, the breakpoint span, and seeded uniform fill.
std::vector<std::int64_t> make_codes(Rng& rng, int bits, std::size_t len) {
  const std::int64_t lo = int_min(bits, true);
  const std::int64_t hi = int_max(bits, true);
  std::vector<std::int64_t> codes(len);
  for (std::size_t i = 0; i < len; ++i) codes[i] = rng.uniform_int(lo, hi);
  if (len >= 1) codes[0] = lo;
  if (len >= 2) codes[1] = hi;
  if (len >= 3) codes[len - 1] = hi;  // boundary in a vector-tail position
  return codes;
}

/// Runs `fn(q_span, out_span)` with the spans placed at `offset` inside
/// oversized buffers, so the vector loops see unaligned bases.
template <typename Out, typename Fn>
std::vector<Out> eval_at_offset(const std::vector<std::int64_t>& codes,
                                std::size_t offset, const Fn& fn) {
  std::vector<std::int64_t> in(codes.size() + offset + 4, 0);
  std::vector<Out> out(codes.size() + offset + 4, Out{});
  std::copy(codes.begin(), codes.end(), in.begin() + offset);
  fn(std::span<const std::int64_t>(in.data() + offset, codes.size()),
     std::span<Out>(out.data() + offset, codes.size()));
  return {out.begin() + static_cast<std::ptrdiff_t>(offset),
          out.begin() + static_cast<std::ptrdiff_t>(offset + codes.size())};
}

TEST(SimdBackendRegistry, ScalarAlwaysRegisteredAndLast) {
  const auto& backends = kernel::registry();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(std::string(backends.back()->name), "scalar");
  EXPECT_TRUE(kernel::backend_available(*backends.back()));
  // `auto` resolves to something runnable on every host.
  EXPECT_TRUE(kernel::backend_available(kernel::resolve_backend("auto")));
}

TEST(SimdBackendRegistry, UnknownOrUnavailableNamesFailLoudly) {
  EXPECT_THROW((void)kernel::resolve_backend("avx1999"), ContractViolation);
  for (const std::string& name : unavailable_backend_names()) {
    EXPECT_THROW((void)kernel::resolve_backend(name), ContractViolation)
        << "naming unavailable backend '" << name
        << "' must fail, not silently fall back to scalar";
  }
}

TEST(SimdBackendRegistry, BackendScopeRestoresPreviousBackend) {
  const std::string before = kernel::active().name;
  {
    BackendScope scalar("scalar");
    EXPECT_EQ(std::string(kernel::active().name), "scalar");
  }
  EXPECT_EQ(std::string(kernel::active().name), before);
}

// Every registered-but-unrunnable backend shows up as a SKIP here (one test
// per host state), so CI output never silently passes a backend it never
// executed.
TEST(SimdBackendRegistry, ReportsBackendsThisHostCannotRun) {
  const std::vector<std::string> missing = unavailable_backend_names();
  if (!missing.empty()) {
    std::string joined;
    for (const std::string& name : missing) joined += name + " ";
    GTEST_SKIP() << "backends compiled in but not runnable here: " << joined;
  }
  SUCCEED();
}

TEST(SimdPwlDifferential, EvalCodesBitIdenticalAcrossWidthsAndResidues) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x51D0);
  for (const KernelBackend* backend : backends) {
    for (int bits = 4; bits <= 16; ++bits) {
      // Scale exponents at both shifter extremes: -16 is the barrel-shift
      // limit (b << 16 saturates hard), 0 exercises the negative-shift
      // rounding path, -6 is a paper-typical activation scale.
      for (const int scale_exp : {0, -6, -16}) {
        const IntPwlUnit unit = make_unit(bits, scale_exp);
        // Lengths 0..9 hit every tail residue of 4- and 8-wide lanes (and
        // the empty span); 67 adds a long span with a 3-residue tail.
        for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4}, std::size_t{5},
                                std::size_t{6}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{67}}) {
          const std::vector<std::int64_t> codes = make_codes(rng, bits, len);
          const std::size_t offset = len % 4;
          std::vector<std::int64_t> expected, actual;
          {
            BackendScope scope("scalar");
            expected = eval_at_offset<std::int64_t>(
                codes, offset, [&](auto in, auto out) { unit.eval_codes(in, out); });
          }
          {
            BackendScope scope(backend->name);
            actual = eval_at_offset<std::int64_t>(
                codes, offset, [&](auto in, auto out) { unit.eval_codes(in, out); });
          }
          ASSERT_EQ(expected, actual)
              << backend->name << " bits=" << bits << " S=2^" << scale_exp
              << " len=" << len << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdPwlDifferential, RealEvalsBitIdenticalIncludingSaturation) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xB17C0DE);
  for (const KernelBackend* backend : backends) {
    for (int bits = 4; bits <= 16; bits += 3) {
      for (const int scale_exp : {-1, -6, -16}) {
        const IntPwlUnit unit = make_unit(bits, scale_exp);
        for (std::size_t len = 1; len <= 13; ++len) {
          std::vector<std::int64_t> codes = make_codes(rng, bits, len);
          const std::size_t offset = (len + 1) % 4;
          auto check = [&](const char* what, const auto& eval) {
            std::vector<double> expected, actual;
            {
              BackendScope scope("scalar");
              expected = eval_at_offset<double>(codes, offset, eval);
            }
            {
              BackendScope scope(backend->name);
              actual = eval_at_offset<double>(codes, offset, eval);
            }
            ASSERT_EQ(expected.size(), actual.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
              // Bit-for-bit, not just value-equal.
              ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
                        std::bit_cast<std::uint64_t>(actual[i]))
                  << what << " " << backend->name << " bits=" << bits
                  << " S=2^" << scale_exp << " len=" << len << " i=" << i
                  << " q=" << codes[i];
            }
          };
          check("eval_reals_from_codes", [&](auto in, auto out) {
            unit.eval_reals_from_codes(in, out);
          });
          // Over-range codes (the saturated entry point's whole reason to
          // exist): both immediate neighbours of the bus edge and far
          // out-of-range magnitudes.
          codes[0] = int_max(bits, true) + 1;
          if (len >= 2) codes[1] = int_min(bits, true) - 1;
          if (len >= 3) codes[2] = std::int64_t{1} << 40;
          if (len >= 4) codes[3] = -(std::int64_t{1} << 40);
          check("eval_reals_from_codes_saturated", [&](auto in, auto out) {
            unit.eval_reals_from_codes_saturated(in, out);
          });
        }
      }
    }
  }
}

TEST(SimdPwlDifferential, OverRangeCodeThrowsUnderEveryBackend) {
  for (const KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    BackendScope scope(backend->name);
    const IntPwlUnit unit = make_unit(8, -2);
    // A violating code in a vector body position and in a tail position.
    const std::vector<std::int64_t> body = {1, 2, 3, 128, 4, 5, 6, 7};
    const std::vector<std::int64_t> tail = {1, 2, 3, 4, -129};
    std::vector<std::int64_t> out(body.size());
    std::vector<std::int64_t> out_tail(tail.size());
    EXPECT_THROW(unit.eval_codes(body, out), ContractViolation)
        << backend->name;
    EXPECT_THROW(unit.eval_codes(tail, out_tail), ContractViolation)
        << backend->name;
  }
}

TEST(SimdPwlDifferential, WideBusFallbackIsBackendInvariant) {
  // >16-bit buses have no dense table and must stay on the scalar
  // binary-search fallback under every backend — identical results, no
  // dispatch.
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  const QuantParams input{std::ldexp(1.0, -12), 18, true};
  const IntPwlUnit unit(quantize_table(gelu_like_table(), input, 5, 8));
  std::vector<std::int64_t> codes;
  for (std::int64_t q = -131072; q <= 131071; q += 4099) codes.push_back(q);
  std::vector<std::int64_t> expected(codes.size());
  {
    BackendScope scope("scalar");
    unit.eval_codes(codes, expected);
  }
  for (const KernelBackend* backend : backends) {
    BackendScope scope(backend->name);
    std::vector<std::int64_t> actual(codes.size());
    unit.eval_codes(codes, actual);
    EXPECT_EQ(expected, actual) << backend->name;
  }
}

// ------------------------------------------------------- row kernel ops ---

TEST(SimdRowKernelDifferential, DotProductMatchesScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xD07);
  for (const KernelBackend* backend : backends) {
    if (backend->ops.dot_i32_i8 == nullptr) continue;
    for (std::size_t len = 0; len <= 33; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> a(len + offset + 8, 0);
        std::vector<std::int8_t> w(len + offset + 8, 0);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = static_cast<std::int32_t>(rng.uniform_int(-32768, 32767));
          w[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        if (len >= 2) {  // activation/weight extremes in-lane
          a[offset] = 32767;
          w[offset] = -128;
          a[offset + len - 1] = -32768;
          w[offset + len - 1] = 127;
        }
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < len; ++i) {
          expected += static_cast<std::int64_t>(a[offset + i]) * w[offset + i];
        }
        EXPECT_EQ(expected,
                  backend->ops.dot_i32_i8(a.data() + offset, w.data() + offset,
                                          len))
            << backend->name << " len=" << len << " offset=" << offset;
      }
    }
  }
}

/// The int64 oracle of one gemm4x16_i16_i8 tile, reading the panel through
/// its documented layout: weight (o, k) of the tile's 16 outputs is byte
/// 32·(k/2) + 2·o + k%2.
std::vector<std::int64_t> tile_reference(const std::int16_t* a,
                                         std::size_t lda,
                                         const std::int8_t* panel,
                                         std::size_t kp,
                                         const std::int32_t* bias16) {
  std::vector<std::int64_t> c(4 * 16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t o = 0; o < 16; ++o) {
      std::int64_t sum = bias16[o];
      for (std::size_t k = 0; k < 2 * kp; ++k) {
        sum += static_cast<std::int64_t>(a[r * lda + k]) *
               panel[32 * (k / 2) + 2 * o + k % 2];
      }
      c[r * 16 + o] = sum;
    }
  }
  return c;
}

/// Runs the backend's tile into a sentinel-filled C with row stride `ldc`,
/// returns the 4 × 16 block, and fails if any lane past a row's 16 outputs
/// was written.
std::vector<std::int64_t> run_tile(const KernelBackend& backend,
                                   const std::int16_t* a, std::size_t lda,
                                   const std::int8_t* panel, std::size_t kp,
                                   const std::int32_t* bias16,
                                   std::size_t c_offset, std::size_t ldc) {
  constexpr std::int32_t kSentinel = 0x5EEDBEEF;
  std::vector<std::int32_t> buf(c_offset + 4 * ldc, kSentinel);
  std::int32_t* c = buf.data() + c_offset;
  backend.ops.gemm4x16_i16_i8(a, lda, panel, kp, bias16, c, ldc);
  std::vector<std::int64_t> got(4 * 16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t o = 0; o < ldc; ++o) {
      if (o < 16) {
        got[r * 16 + o] = c[r * ldc + o];
      } else {
        EXPECT_EQ(c[r * ldc + o], kSentinel)
            << backend.name << " wrote past output 15 of row " << r;
      }
    }
  }
  return got;
}

TEST(SimdRowKernelDifferential, GemmTileMatchesInt64Loop) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  constexpr std::int16_t kMax = std::numeric_limits<std::int16_t>::max();
  constexpr std::int32_t kBias = 1 << 30;
  Rng rng(0x6E44);
  for (const KernelBackend* backend : backends) {
    if (backend->ops.gemm4x16_i16_i8 == nullptr) continue;
    // Any int16 codes and biases within ±2^30 keep even kp = 40 inside the
    // caller's bound: 2^30 + 80·32768·128 < INT32_MAX.
    for (std::size_t kp = 0; kp <= 40; ++kp) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        // An odd A row stride misaligns rows 1-3 too; C rows are wider
        // than the tile, and every pointer is offset from its allocation.
        const std::size_t lda = 2 * kp + 3;
        const std::size_t ldc = 17 + offset;
        std::vector<std::int16_t> a(offset + 4 * lda);
        std::vector<std::int8_t> panel(offset + 32 * kp);
        std::vector<std::int32_t> bias(offset + 16);
        for (std::int16_t& v : a) {
          v = static_cast<std::int16_t>(rng.uniform_int(kMin, kMax));
        }
        for (std::int8_t& v : panel) {
          v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        for (std::int32_t& v : bias) {
          v = static_cast<std::int32_t>(rng.uniform_int(-kBias, kBias));
        }
        std::int16_t* as = a.data() + offset;
        std::int8_t* ps = panel.data() + offset;
        std::int32_t* bs = bias.data() + offset;
        bs[0] = kBias;
        bs[15] = -kBias;
        if (kp >= 1) {
          // INT16_MIN/MAX codes against -128/127 weights in the first and
          // last k-pair, on both halves of the panel.
          for (std::size_t r = 0; r < 4; ++r) {
            as[r * lda] = r % 2 == 0 ? kMin : kMax;
            as[r * lda + 2 * kp - 1] = r % 2 == 0 ? kMax : kMin;
          }
          for (std::size_t o = 0; o < 16; ++o) {
            ps[2 * o] = o % 2 == 0 ? -128 : 127;
            ps[32 * (kp - 1) + 2 * o + 1] = o % 2 == 0 ? 127 : -128;
          }
        }
        EXPECT_EQ(tile_reference(as, lda, ps, kp, bs),
                  run_tile(*backend, as, lda, ps, kp, bs, offset, ldc))
            << backend->name << " kp=" << kp << " offset=" << offset;
      }
    }
  }
}

TEST(SimdRowKernelDifferential, GemmTileExactAtTheInt32Bound) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  // max|bias| + k·max|a|·128 = INT32_MAX exactly, with k = 128 and
  // |a| = 32767. Every weight is -128, so rows 0 and 2 (a = -32767) climb
  // from +B to INT32_MAX on the even outputs, and rows 1 and 3 (a = +32767)
  // fall from -B to -INT32_MAX on the odd ones.
  constexpr std::size_t kKp = 64;
  constexpr std::int64_t kA = 32767;
  constexpr std::int64_t kIntMax = std::numeric_limits<std::int32_t>::max();
  constexpr auto kB =
      static_cast<std::int32_t>(kIntMax - 2 * kKp * kA * 128);
  std::vector<std::int16_t> a(4 * 2 * kKp);
  for (std::size_t r = 0; r < 4; ++r) {
    std::fill(a.begin() + static_cast<std::ptrdiff_t>(r * 2 * kKp),
              a.begin() + static_cast<std::ptrdiff_t>((r + 1) * 2 * kKp),
              static_cast<std::int16_t>(r % 2 == 0 ? -kA : kA));
  }
  const std::vector<std::int8_t> panel(32 * kKp, -128);
  std::vector<std::int32_t> bias(16);
  for (std::size_t o = 0; o < 16; ++o) bias[o] = o % 2 == 0 ? kB : -kB;
  const std::vector<std::int64_t> expected =
      tile_reference(a.data(), 2 * kKp, panel.data(), kKp, bias.data());
  ASSERT_EQ(expected[0], kIntMax);
  ASSERT_EQ(expected[16 + 1], -kIntMax);
  for (const KernelBackend* backend : backends) {
    if (backend->ops.gemm4x16_i16_i8 == nullptr) continue;
    EXPECT_EQ(expected, run_tile(*backend, a.data(), 2 * kKp, panel.data(),
                                 kKp, bias.data(), 0, 16))
        << backend->name;
  }
}

TEST(SimdRowKernelDifferential, AxpySumSsqMatchScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0xA6B);
  for (const KernelBackend* backend : backends) {
    for (std::size_t len = 0; len <= 21; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> x(len + offset + 4, 0);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = static_cast<std::int32_t>(rng.uniform_int(-2048, 2047));
        }
        const std::int32_t* xs = x.data() + offset;
        if (backend->ops.axpy_i32 != nullptr) {
          const std::int32_t wgt =
              static_cast<std::int32_t>(rng.uniform_int(-128, 127));
          std::vector<std::int32_t> acc(len, 7);
          std::vector<std::int32_t> expected = acc;
          for (std::size_t i = 0; i < len; ++i) expected[i] += wgt * xs[i];
          backend->ops.axpy_i32(acc.data(), xs, wgt, len);
          EXPECT_EQ(expected, acc)
              << backend->name << " len=" << len << " offset=" << offset;
        }
        if (backend->ops.sum_i32 != nullptr) {
          std::int64_t expected = 0;
          for (std::size_t i = 0; i < len; ++i) expected += xs[i];
          EXPECT_EQ(expected, backend->ops.sum_i32(xs, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
        if (backend->ops.ssq_centered_i32 != nullptr && len > 0) {
          const std::int64_t dim = static_cast<std::int64_t>(len);
          std::int64_t sum = 0;
          for (std::size_t i = 0; i < len; ++i) sum += xs[i];
          std::int64_t expected = 0;
          for (std::size_t i = 0; i < len; ++i) {
            const std::int64_t c = dim * xs[i] - sum;
            expected += c * c;
          }
          EXPECT_EQ(expected, backend->ops.ssq_centered_i32(xs, dim, sum, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
      }
    }
  }
  // A row at the depthwise plane bound: |bias| + 9·|x|·128 with |bias| =
  // 127 and |x| = 1,864,135 is exactly INT32_MAX. Nine taps of w = -128
  // drive even lanes (bias 127, x = -|x|) to INT32_MAX and odd lanes (bias
  // -127, x = +|x|) to -INT32_MAX, in the vector body and the tail alike.
  constexpr std::int32_t kX = 1864135;
  constexpr std::size_t kLen = 21;
  ASSERT_EQ(127 + 9 * std::int64_t{128} * kX,
            std::numeric_limits<std::int32_t>::max());
  std::vector<std::int32_t> x(kLen);
  std::vector<std::int32_t> seed(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    x[i] = i % 2 == 0 ? -kX : kX;
    seed[i] = i % 2 == 0 ? 127 : -127;
  }
  for (const KernelBackend* backend : backends) {
    if (backend->ops.axpy_i32 == nullptr) continue;
    std::vector<std::int32_t> acc = seed;
    for (int tap = 0; tap < 9; ++tap) {
      backend->ops.axpy_i32(acc.data(), x.data(), -128, kLen);
    }
    for (std::size_t i = 0; i < kLen; ++i) {
      EXPECT_EQ(seed[i] + 9 * std::int64_t{-128} * x[i], acc[i])
          << backend->name << " plane-bound row i=" << i;
    }
    EXPECT_EQ(acc[0], std::numeric_limits<std::int32_t>::max());
  }
}

/// LayerNorm::forward_int's pass-2 loop over one row, verbatim: the scalar
/// oracle of layernorm_affine_i32.
void layernorm_affine_oracle(const std::int32_t* x, std::int64_t dim,
                             std::int64_t sum, double inv_sigma_q,
                             const float* gamma, const float* beta,
                             const QuantParams& out_qp, std::int32_t* y,
                             std::size_t n) {
  for (std::size_t d = 0; d < n; ++d) {
    const std::int64_t c = dim * x[d] - sum;
    const double norm = static_cast<double>(c) * inv_sigma_q / dim;
    const double val = gamma[d] * norm + beta[d];
    y[d] = static_cast<std::int32_t>(out_qp.quantize(val));
  }
}

/// One layernorm_affine_i32 call against the oracle, element by element;
/// also checks that the kernel writes exactly `n` outputs. `what()` names
/// the case and is only built on a failure.
template <typename What>
void expect_affine_matches(const KernelBackend& backend,
                           const std::int32_t* x, std::int64_t dim,
                           std::int64_t sum, double inv_sigma,
                           const float* gamma, const float* beta,
                           const QuantParams& out_qp, std::size_t n,
                           const What& what) {
  std::vector<std::int32_t> want(n);
  layernorm_affine_oracle(x, dim, sum, inv_sigma, gamma, beta, out_qp,
                          want.data(), n);
  std::vector<std::int32_t> got(n + 1, -7);
  backend.ops.layernorm_affine_i32(x, dim, sum, inv_sigma, gamma, beta,
                                   out_qp.scale,
                                   bus_bounds(out_qp.bits, out_qp.is_signed),
                                   got.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(want[i], got[i]) << backend.name << " " << what() << " i=" << i
                               << " x=" << x[i] << " gamma=" << gamma[i]
                               << " beta=" << beta[i];
  }
  ASSERT_EQ(got[n], -7) << backend.name << " wrote past the row: "
                        << what();
}

TEST(SimdRowKernelDifferential, LayerNormAffineMatchesScalarLoop) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x1A7E);
  constexpr std::size_t kMaxLen = 67;
  const float affine[] = {0.0F, 1e-3F, -1e-3F, 1.0F, -1.0F, 8.0F, -8.0F};
  const std::int64_t dims[] = {2, 32, 256, 4096};
  std::vector<QuantParams> outs;
  for (const int bits : {4, 8, 16, 31}) {
    outs.push_back({1.0, bits, true});
    outs.push_back({1.0, bits, false});
  }
  for (const KernelBackend* backend : backends) {
    if (backend->ops.layernorm_affine_i32 == nullptr) continue;
    // Input codes on an 8- and a 16-bit bus (2·4096·2^15 keeps every
    // |dim·x − sum| inside int32, the call-site gate), with the bus
    // extremes spread through the pool so body and tail both see them.
    for (const int in_bits : {8, 16}) {
      const BusBounds in = bus_bounds(in_bits, true);
      std::vector<std::int32_t> x(kMaxLen + 3);
      std::vector<float> gamma(x.size());
      std::vector<float> beta(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<std::int32_t>(
            i % 5 == 0 ? (i % 10 == 0 ? in.lo : in.hi)
                       : rng.uniform_int(in.lo, in.hi));
        gamma[i] = affine[rng.uniform_int(0, 6)];
        beta[i] = affine[rng.uniform_int(0, 6)];
      }
      for (const std::int64_t dim : dims) {
        const std::int64_t sum = rng.uniform_int(dim * in.lo, dim * in.hi);
        const double inv_sigma =
            std::ldexp(1.0 + rng.canonical(), -in_bits / 2);
        for (int e = -12; e <= 4; ++e) {
          for (QuantParams out : outs) {
            out.scale = std::ldexp(1.0, e);
            for (std::size_t len = 0; len <= kMaxLen; ++len) {
              for (std::size_t offset = 0; offset <= 3; ++offset) {
                expect_affine_matches(
                    *backend, x.data() + offset, dim, sum, inv_sigma,
                    gamma.data() + offset, beta.data() + offset, out, len,
                    [&] {
                      return "in_bits=" + std::to_string(in_bits) +
                             " dim=" + std::to_string(dim) + " out=" +
                             out.to_string() + " len=" + std::to_string(len) +
                             " offset=" + std::to_string(offset);
                    });
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdRowKernelDifferential, LayerNormAffineRoundsTiesAwayAndFallsBack) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  const QuantParams out{1.0, 16, true};
  // Exact ±k.5 ties: with dim 2, inv_sigma 1, γ 1 and β 0, an odd
  // c = 2x − sum makes norm = c/2 a half-integer, and with out_scale 1 it
  // is the quotient itself. β = ±(k + 1/2)·2^-3 with γ 0 and out_scale 2^-3
  // ties through the other operand.
  std::vector<std::int32_t> xs;
  for (std::int32_t v = -40; v <= 40; ++v) xs.push_back(v);
  const std::vector<float> ones(xs.size(), 1.0F);
  const std::vector<float> zeros(xs.size(), 0.0F);
  std::vector<float> tie_beta(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    tie_beta[i] = std::ldexp(static_cast<float>(xs[i]) + 0.5F, -3);
  }
  // FMA-sensitive lanes: γ·norm rounds onto a tie that the exact product
  // misses, so a fused γ·norm + β lands on the other side of it. With
  // dim 2, x 1 and sum 0, norm equals inv_sigma exactly; the lanes are
  // searched for with std::fma as the fused reference.
  std::vector<float> fma_gamma;
  std::vector<double> fma_norm;
  Rng rng(0xF3A);
  for (int trial = 0; trial < 256 && fma_gamma.size() < 8; ++trial) {
    const auto g = static_cast<float>(1.0 + rng.canonical());
    const double norm = 1024.5 / g;
    const double fused = std::fma(static_cast<double>(g), norm, -1024.0);
    const double unfused = static_cast<double>(g) * norm + -1024.0;
    if (round_to_int(fused) != round_to_int(unfused)) {
      fma_gamma.push_back(g);
      fma_norm.push_back(norm);
    }
  }
  ASSERT_FALSE(fma_gamma.empty()) << "no FMA-sensitive lane found";
  for (const KernelBackend* backend : backends) {
    if (backend->ops.layernorm_affine_i32 == nullptr) continue;
    for (const std::int64_t sum : {-1, 1, 3}) {
      expect_affine_matches(*backend, xs.data(), 2, sum, 1.0, ones.data(),
                            zeros.data(), out, xs.size(), [&] {
                              return "c ties, sum=" + std::to_string(sum);
                            });
    }
    expect_affine_matches(*backend, xs.data(), 2, 0, 1.0, zeros.data(),
                          tie_beta.data(), QuantParams{0.125, 16, true},
                          xs.size(), [] { return "beta ties"; });
    for (std::size_t k = 0; k < fma_gamma.size(); ++k) {
      // Four identical lanes, so the vector body (not the tail) runs them.
      const std::vector<std::int32_t> one(4, 1);
      const std::vector<float> g(4, fma_gamma[k]);
      const std::vector<float> b(4, -1024.0F);
      expect_affine_matches(*backend, one.data(), 2, 0, fma_norm[k], g.data(),
                            b.data(), out, 4,
                            [] { return "FMA-sensitive lane"; });
    }
    // One lane at 127·2^48 ≥ 2^53 (inside int64) among ordinary lanes: the
    // oracle's cast and clamp, not the vector rounding, decide it.
    std::vector<std::int32_t> big(8, 0);
    big[5] = 127;
    const std::vector<float> g8(8, 1.0F);
    const std::vector<float> b8(8, 0.25F);
    expect_affine_matches(*backend, big.data(), 2, 0, std::ldexp(1.0, 48),
                          g8.data(), b8.data(), QuantParams{1.0, 31, true}, 8,
                          [] { return "one lane >= 2^53"; });
    // One infinite lane (c·inv_sigma overflows; every other c is 0) must
    // throw the oracle's ContractViolation, in the vector body (lane 2) and
    // in the tail (lane 9 of 10).
    const std::vector<float> g10(10, 1.0F);
    const std::vector<float> b10(10, 0.25F);
    for (const std::size_t lane : {std::size_t{2}, std::size_t{9}}) {
      std::vector<std::int32_t> row(10, 3);
      row[lane] = 4;
      std::vector<std::int32_t> sink(row.size());
      EXPECT_THROW(layernorm_affine_oracle(row.data(), 2, 6, 1e308, g10.data(),
                                           b10.data(), out, sink.data(),
                                           row.size()),
                   ContractViolation);
      EXPECT_THROW(backend->ops.layernorm_affine_i32(
                       row.data(), 2, 6, 1e308, g10.data(), b10.data(),
                       out.scale, bus_bounds(out.bits, out.is_signed),
                       sink.data(), row.size()),
                   ContractViolation)
          << backend->name << " infinite lane " << lane;
    }
  }
}

/// Requantizer::apply's body for an arbitrary {mult, shift} pair (the class
/// only builds its multiplier from a scale ratio), narrowed as callers do.
std::int32_t requant_oracle(const Dyadic& m, const QuantParams& out,
                            std::int32_t acc) {
  return static_cast<std::int32_t>(
      saturate(m.apply(acc), out.bits, out.is_signed));
}

TEST(SimdRowKernelDifferential, RequantMatchesRequantizerApply) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  Rng rng(0x5E0A);
  // Multipliers: Dyadic::from_real over ratios 2^-40..2^8 (exact powers of
  // two and seeded non-po2 mantissas), then hand-built extremes.
  std::vector<Dyadic> mults;
  for (int e = -40; e <= 8; ++e) {
    mults.push_back(Requantizer(std::ldexp(1.0, e), QuantParams{1.0, 8, true})
                        .multiplier());
    mults.push_back(Dyadic::from_real(std::ldexp(1.0 + rng.canonical(), e)));
  }
  mults.push_back({3, 0});
  mults.push_back({-5, 0});
  mults.push_back({kMax, 62});
  mults.push_back({-kMax, 62});
  mults.push_back({1, 62});
  mults.push_back({-12345, 20});
  mults.push_back({kMax, 31});
  mults.push_back({-kMax, 45});
  std::vector<QuantParams> buses;
  for (const int bits : {4, 8, 16, 31}) {
    buses.push_back({1.0, bits, true});
    buses.push_back({1.0, bits, false});
  }
  // Accumulator pool: seeded int32 values with the extremes spread through
  // it, so every length/offset window sees some of them in body and tail.
  std::vector<std::int32_t> pool(67 + 3 + 8);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i] = static_cast<std::int32_t>(rng.uniform_int(kMin, kMax));
  }
  const std::int32_t extremes[] = {kMin, kMax, 0, 1, -1};
  for (std::size_t i = 0; i < pool.size(); i += 3) {
    pool[i] = extremes[(i / 3) % 5];
  }
  for (const KernelBackend* backend : backends) {
    if (backend->ops.requant_i32 == nullptr) continue;
    for (const Dyadic& m : mults) {
      for (const QuantParams& out : buses) {
        const BusBounds bus = bus_bounds(out.bits, out.is_signed);
        for (std::size_t len = 0; len <= 67; ++len) {
          for (std::size_t offset = 0; offset <= 3; ++offset) {
            const std::int32_t* acc = pool.data() + offset;
            std::vector<std::int32_t> y(len + 1, -7);
            backend->ops.requant_i32(acc, m.mult, m.shift, bus, y.data(), len);
            std::vector<std::int32_t> in_place(acc, acc + len);
            backend->ops.requant_i32(in_place.data(), m.mult, m.shift, bus,
                                     in_place.data(), len);
            for (std::size_t i = 0; i < len; ++i) {
              const std::int32_t want = requant_oracle(m, out, acc[i]);
              ASSERT_EQ(want, y[i])
                  << backend->name << " " << m.to_string() << " bus "
                  << out.to_string() << " len=" << len << " offset=" << offset
                  << " acc=" << acc[i];
              ASSERT_EQ(want, in_place[i])
                  << backend->name << " in place " << m.to_string();
            }
            ASSERT_EQ(y[len], -7) << backend->name << " wrote past the row";
          }
        }
      }
    }
    // Every rounding tie: with mult 1, ±(2j+1)·2^(s−1) lies exactly halfway
    // between two multiples of 2^s, for each shift 1..31.
    const QuantParams wide{1.0, 31, true};
    for (int s = 1; s <= 31; ++s) {
      std::vector<std::int32_t> ties;
      const std::int64_t half = std::int64_t{1} << (s - 1);
      for (std::int64_t j = 0; (2 * j + 1) * half <= kMax && j < 40; ++j) {
        ties.push_back(static_cast<std::int32_t>((2 * j + 1) * half));
        ties.push_back(static_cast<std::int32_t>(-(2 * j + 1) * half));
      }
      std::vector<std::int32_t> y(ties.size());
      backend->ops.requant_i32(ties.data(), 1, s,
                               bus_bounds(wide.bits, wide.is_signed), y.data(),
                               ties.size());
      for (std::size_t i = 0; i < ties.size(); ++i) {
        EXPECT_EQ(requant_oracle(Dyadic{1, s}, wide, ties[i]), y[i])
            << backend->name << " tie " << ties[i] << " at shift " << s;
      }
    }
  }
}

TEST(SimdRowKernelDifferential, MaxAndSubWidenMatchScalarReference) {
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  Rng rng(0x3A1);
  for (const KernelBackend* backend : backends) {
    for (std::size_t len = 1; len <= 37; ++len) {
      for (std::size_t offset = 0; offset <= 3; ++offset) {
        std::vector<std::int32_t> x(len + offset + 8, 0);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = static_cast<std::int32_t>(
              rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::max()));
        }
        const std::int32_t* xs = x.data() + offset;
        std::int32_t peak = xs[0];
        for (std::size_t i = 1; i < len; ++i) peak = std::max(peak, xs[i]);
        if (backend->ops.max_i32 != nullptr) {
          EXPECT_EQ(peak, backend->ops.max_i32(xs, len))
              << backend->name << " len=" << len << " offset=" << offset;
        }
        if (backend->ops.sub_scalar_widen_i32 != nullptr) {
          std::vector<std::int64_t> out(len, 0);
          backend->ops.sub_scalar_widen_i32(xs, peak, out.data(), len);
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(xs[i]) - peak, out[i])
                << backend->name << " len=" << len << " offset=" << offset
                << " i=" << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ threading ---

TEST(SimdKernelConcurrency, ConcurrentSpansMatchScalarUnderDispatch) {
  // Read-only dispatch under a thread-pool fan-out: many lanes stream
  // disjoint spans through one unit while the active backend is the
  // dispatched one. TSan sees the atomic backend load racing nothing; the
  // results must equal the scalar oracle's.
  const auto backends = available_simd_backends();
  GQA_SKIP_WITHOUT_SIMD_BACKEND(backends);
  const IntPwlUnit unit = make_unit(8, -4);
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 97;  // odd: every lane ends in a vector tail
  Rng rng(0xC0C0);
  std::vector<std::int64_t> codes(kRows * kCols);
  for (auto& c : codes) c = rng.uniform_int(-128, 127);
  std::vector<std::int64_t> expected(codes.size());
  {
    BackendScope scope("scalar");
    unit.eval_codes(codes, expected);
  }
  ThreadPool pool(4);
  for (const KernelBackend* backend : backends) {
    BackendScope scope(backend->name);
    std::vector<std::int64_t> actual(codes.size());
    pool.parallel_for(kRows, [&](std::size_t row) {
      const std::span<const std::int64_t> in(codes.data() + row * kCols,
                                             kCols);
      const std::span<std::int64_t> out(actual.data() + row * kCols, kCols);
      unit.eval_codes(in, out);
    });
    EXPECT_EQ(expected, actual) << backend->name;
  }
}

}  // namespace
}  // namespace gqa
