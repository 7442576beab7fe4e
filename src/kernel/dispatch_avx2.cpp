// AVX2 backend. This translation unit is compiled with -mavx2 on x86-64
// (see CMakeLists.txt); the runtime CPUID probe keeps hosts without the
// AVX2 bit on the scalar oracle, so nothing here executes unless the CPU
// advertises the extension.
//
// Every kernel is bit-identical to its scalar oracle by construction:
//  - integer sums reorder freely (no overflow inside the bus widths the
//    call sites guarantee), so lane-parallel accumulation is exact;
//  - 32x32->64 signed multiplies (_mm256_mul_epi32) are exact whenever
//    both operands fit int32, which the PwlTableView eligibility
//    invariants and the call-site gates guarantee;
//  - the int16 x int8 GEMM tile (_mm256_madd_epi16 into int32 lanes) is
//    exact because its caller bounds max|bias| + k·max|a|·128 ≤ INT32_MAX,
//    which caps every partial sum of a row; the int32 depthwise axpy
//    likewise;
//  - the requantizer's rounding shift is the branch-free shift_round
//    identity on exact int64 products, with the missing 64-bit arithmetic
//    shift emulated by a logical shift plus sign extension;
//  - AVX2 has no 64-bit min/max, so saturation clamps are compare+blend
//    against the same BusBounds the scalar clamp_to_bus uses;
//  - int64->double uses the 2^52+2^51 magic-constant trick, exact for
//    |v| < 2^51 (the view guarantees acc fits 50 bits), and the acc_scale
//    multiply is a single-rounded elementwise op — the same operation the
//    scalar path performs;
//  - LayerNorm's affine pass runs the scalar loop's IEEE double operations
//    in the same order in every lane (multiply, divide, widen γ/β, multiply,
//    add, divide, then round half away from zero via an exact truncated
//    fraction), never contracted into an FMA (-ffp-contract=off).
// Each kernel ends with a scalar tail loop for the n % lane_width rump,
// except the GEMM tile, whose caller pads rows and outputs to its shape.
#include "kernel/dispatch.h"

#if defined(__x86_64__) || defined(_M_X64)

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "numerics/rounding.h"
#include "util/contracts.h"

namespace gqa::kernel {

namespace {

bool probe_avx2() { return __builtin_cpu_supports("avx2") != 0; }

/// Scalar replica of one dense-table pwl step (tail elements and the
/// violation re-check). Identical arithmetic to IntPwlUnit::eval_code with
/// the dense segment table: k·q then saturating add of the aligned
/// intercept.
std::int64_t pwl_acc_one(const PwlTableView& t, std::int64_t code) {
  const std::size_t seg = static_cast<std::size_t>(
      t.seg_of_code[static_cast<std::size_t>(code - t.code_lo)]);
  return clamp_to_bus(t.k_code[seg] * code + t.b_aligned[seg], t.acc);
}

/// Throws the oracle's exact precondition when any of the `n` codes is
/// outside the input bus (the vector path detects "some lane bad" and
/// delegates here so the exception carries the same message).
void require_in_bus(const PwlTableView& t, const std::int64_t* q,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    GQA_EXPECTS_MSG(q[i] >= t.in.lo && q[i] <= t.in.hi,
                    "input code exceeds the input bus width");
  }
}

/// Clamp int64 lanes to [lo, hi] (compare+blend; no 64-bit min/max in AVX2).
inline __m256i clamp_epi64(__m256i v, __m256i lo, __m256i hi) {
  v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
  v = _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v));
  return v;
}

/// int64 lanes -> double lanes, exact for |v| < 2^51: integer-adding v to
/// the bit pattern of the double 2^52+2^51 produces the double value
/// 2^52+2^51+v exactly (v lands in the mantissa with ULP 1).
inline __m256d i64_to_f64(__m256i v) {
  const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  const __m256i biased = _mm256_add_epi64(v, _mm256_castpd_si256(magic));
  return _mm256_sub_pd(_mm256_castsi256_pd(biased), magic);
}

/// Core dense-table step for 4 codes: segment gather (1-byte entries via a
/// 4-byte gather + mask; the table is padded with 3 trailing bytes), slope
/// and aligned-intercept gathers, exact 32x32->64 multiply, saturating add.
inline __m256i pwl_gather_acc(const PwlTableView& t, __m256i qv,
                              __m256i code_lo, __m256i acc_lo,
                              __m256i acc_hi) {
  const __m256i idx64 = _mm256_sub_epi64(qv, code_lo);
  // The index fits 17 bits (<= 16-bit bus), so the low dword of each lane
  // is the whole index; compress the 4 low dwords into a __m128i.
  const __m128i idx32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      idx64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
  __m256i kv, bv;
  if (t.k_of_code != nullptr) {
    kv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), idx32, 8);
    bv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), idx32, 8);
  } else {
    const __m128i seg = _mm_and_si128(
        _mm_i32gather_epi32(reinterpret_cast<const int*>(t.seg_of_code),
                            idx32, 1),
        _mm_set1_epi32(0xFF));
    kv = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg, 8);
    bv = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg, 8);
  }
  const __m256i acc = _mm256_add_epi64(_mm256_mul_epi32(kv, qv), bv);
  return clamp_epi64(acc, acc_lo, acc_hi);
}

/// Two independent 4-lane accumulator vectors (an 8-code step).
struct Acc8 {
  __m256i lo;
  __m256i hi;
};

/// 8-code dense-table step: one 8-lane segment gather feeds two
/// independent 4-lane slope/intercept gather chains, so the gather
/// latencies overlap instead of serializing (the 4-code step leaves the
/// gather unit idle between iterations).
inline Acc8 pwl_gather_acc8(const PwlTableView& t, __m256i q0, __m256i q1,
                            __m256i code_lo, __m256i acc_lo, __m256i acc_hi) {
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i lo0 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_sub_epi64(q0, code_lo), perm));
  const __m128i lo1 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_sub_epi64(q1, code_lo), perm));
  __m256i k0, b0, k1, b1;
  if (t.k_of_code != nullptr) {
    // Small bus: per-code parameter tables — four fully independent
    // gathers, the code index addresses slope and intercept directly.
    k0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), lo0, 8);
    b0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), lo0, 8);
    k1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.k_of_code), lo1, 8);
    b1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_of_code), lo1, 8);
  } else {
    const __m256i idx32 = _mm256_set_m128i(lo1, lo0);
    const __m256i seg8 = _mm256_and_si256(
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(t.seg_of_code),
                               idx32, 1),
        _mm256_set1_epi32(0xFF));
    const __m128i seg0 = _mm256_castsi256_si128(seg8);
    const __m128i seg1 = _mm256_extracti128_si256(seg8, 1);
    k0 = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg0, 8);
    b0 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg0, 8);
    k1 = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(t.k_code),
                                seg1, 8);
    b1 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(t.b_aligned), seg1, 8);
  }
  Acc8 r;
  r.lo = clamp_epi64(_mm256_add_epi64(_mm256_mul_epi32(k0, q0), b0), acc_lo,
                     acc_hi);
  r.hi = clamp_epi64(_mm256_add_epi64(_mm256_mul_epi32(k1, q1), b1), acc_lo,
                     acc_hi);
  return r;
}

void avx2_pwl_eval_codes(const PwlTableView& t, const std::int64_t* q,
                         std::int64_t* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i q1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(q0, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q0)),
        _mm256_or_si256(_mm256_cmpgt_epi64(q1, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q1)));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 8);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), acc.lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), acc.hi);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(qv, in_hi),
                                        _mm256_cmpgt_epi64(in_lo, qv));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi));
  }
  for (; i < n; ++i) {
    require_in_bus(t, q + i, 1);
    out[i] = pwl_acc_one(t, q[i]);
  }
}

void avx2_pwl_eval_reals(const PwlTableView& t, const std::int64_t* q,
                         double* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  const __m256d scale = _mm256_set1_pd(t.acc_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i q1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4));
    const __m256i bad = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpgt_epi64(q0, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q0)),
        _mm256_or_si256(_mm256_cmpgt_epi64(q1, in_hi),
                        _mm256_cmpgt_epi64(in_lo, q1)));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 8);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc.lo), scale));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(i64_to_f64(acc.hi), scale));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(qv, in_hi),
                                        _mm256_cmpgt_epi64(in_lo, qv));
    if (!_mm256_testz_si256(bad, bad)) require_in_bus(t, q + i, 4);
    const __m256i acc = pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc), scale));
  }
  for (; i < n; ++i) {
    require_in_bus(t, q + i, 1);
    out[i] = static_cast<double>(pwl_acc_one(t, q[i])) * t.acc_scale;
  }
}

void avx2_pwl_eval_reals_sat(const PwlTableView& t, const std::int64_t* q,
                             double* out, std::size_t n) {
  const __m256i code_lo = _mm256_set1_epi64x(t.code_lo);
  const __m256i in_lo = _mm256_set1_epi64x(t.in.lo);
  const __m256i in_hi = _mm256_set1_epi64x(t.in.hi);
  const __m256i acc_lo = _mm256_set1_epi64x(t.acc.lo);
  const __m256i acc_hi = _mm256_set1_epi64x(t.acc.hi);
  const __m256d scale = _mm256_set1_pd(t.acc_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q0 = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)), in_lo,
        in_hi);
    const __m256i q1 = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 4)),
        in_lo, in_hi);
    const Acc8 acc = pwl_gather_acc8(t, q0, q1, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc.lo), scale));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(i64_to_f64(acc.hi), scale));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i qv = clamp_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)), in_lo,
        in_hi);
    const __m256i acc = pwl_gather_acc(t, qv, code_lo, acc_lo, acc_hi);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(i64_to_f64(acc), scale));
  }
  for (; i < n; ++i) {
    const std::int64_t code = clamp_to_bus(q[i], t.in);
    out[i] = static_cast<double>(pwl_acc_one(t, code)) * t.acc_scale;
  }
}

/// Odd int32 lanes moved into even position (the operand _mm256_mul_epi32
/// reads), so even and odd products both come out as exact int64s.
inline __m256i odd_dwords(__m256i v) {
  return _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 1, 1));
}

std::int64_t avx2_dot_i32_i8(const std::int32_t* a, const std::int8_t* w,
                             std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // The 8 exact products, pairwise summed into 4 int64 lanes.
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i wv = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i)));
    const __m256i even = _mm256_mul_epi32(av, wv);
    const __m256i odd = _mm256_mul_epi32(odd_dwords(av), odd_dwords(wv));
    acc = _mm256_add_epi64(acc, _mm256_add_epi64(even, odd));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += static_cast<std::int64_t>(a[i]) * w[i];
  return sum;
}

/// Two int16 codes (one k-pair of an activation row) broadcast to all 8
/// dword lanes.
inline __m256i broadcast_pair(const std::int16_t* a) {
  std::int32_t pair;
  std::memcpy(&pair, a, sizeof(pair));
  return _mm256_set1_epi32(pair);
}

/// acc += the 8 int32 pair sums av·w of one k-pair (vpmaddwd).
inline __m256i mac_pair(__m256i acc, __m256i av, __m256i w) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(av, w));
}

void avx2_gemm4x16_i16_i8(const std::int16_t* a, std::size_t lda,
                          const std::int8_t* panel, std::size_t kp,
                          const std::int32_t* bias16, std::int32_t* c,
                          std::size_t ldc) {
  // cR_lo/cR_hi: outputs 0-7 / 8-15 of row R, seeded with the bias. Named
  // registers, not an array: GCC spills an indexed accumulator array.
  const __m256i b_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias16));
  const __m256i b_hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias16 + 8));
  __m256i c0_lo = b_lo, c0_hi = b_hi, c1_lo = b_lo, c1_hi = b_hi;
  __m256i c2_lo = b_lo, c2_hi = b_hi, c3_lo = b_lo, c3_hi = b_hi;
  for (std::size_t j = 0; j < kp; ++j) {
    // The k-pair's 32 weight bytes widened to the int16 (even, odd) pairs
    // of outputs 0-7 and 8-15, shared by all 4 rows; |w| ≤ 128 keeps each
    // pair sum exact.
    const std::int8_t* wp = panel + 32 * j;
    const __m256i w_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wp)));
    const __m256i w_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wp + 16)));
    __m256i av = broadcast_pair(a + 2 * j);
    c0_lo = mac_pair(c0_lo, av, w_lo);
    c0_hi = mac_pair(c0_hi, av, w_hi);
    av = broadcast_pair(a + lda + 2 * j);
    c1_lo = mac_pair(c1_lo, av, w_lo);
    c1_hi = mac_pair(c1_hi, av, w_hi);
    av = broadcast_pair(a + 2 * lda + 2 * j);
    c2_lo = mac_pair(c2_lo, av, w_lo);
    c2_hi = mac_pair(c2_hi, av, w_hi);
    av = broadcast_pair(a + 3 * lda + 2 * j);
    c3_lo = mac_pair(c3_lo, av, w_lo);
    c3_hi = mac_pair(c3_hi, av, w_hi);
  }
  const auto store = [](std::int32_t* row, __m256i lo, __m256i hi) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + 8), hi);
  };
  store(c, c0_lo, c0_hi);
  store(c + ldc, c1_lo, c1_hi);
  store(c + 2 * ldc, c2_lo, c2_hi);
  store(c + 3 * ldc, c3_lo, c3_hi);
}

void avx2_axpy_i32(std::int32_t* acc, const std::int32_t* x, std::int32_t w,
                   std::size_t n) {
  const __m256i wv = _mm256_set1_epi32(w);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i sum = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)),
        _mm256_mullo_epi32(xv, wv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), sum);
  }
  for (; i < n; ++i) acc[i] += w * x[i];
}

/// The dyadic requantizer on 4 exact int64 products: round half away from
/// zero as p + 2^(s−1) − [p<0] (`half` and `neg_on` are zero when s = 0),
/// then an arithmetic right shift, which AVX2 lacks for 64-bit lanes:
/// shift logically, then sign-extend from bit 63−s as (v ^ m) − m with
/// m = 2^(63−s). Finally the bus clamp.
inline __m256i requant_epi64(__m256i p, __m256i half, __m256i neg_on,
                             __m128i count, __m256i sign_bit, __m256i lo,
                             __m256i hi) {
  const __m256i neg =
      _mm256_and_si256(_mm256_cmpgt_epi64(_mm256_setzero_si256(), p), neg_on);
  const __m256i biased = _mm256_add_epi64(_mm256_add_epi64(p, half), neg);
  const __m256i shifted = _mm256_sub_epi64(
      _mm256_xor_si256(_mm256_srl_epi64(biased, count), sign_bit), sign_bit);
  return clamp_epi64(shifted, lo, hi);
}

void avx2_requant_i32(const std::int32_t* acc, std::int32_t mult, int shift,
                      BusBounds out, std::int32_t* y, std::size_t n) {
  const __m256i mv = _mm256_set1_epi32(mult);
  const __m256i half = _mm256_set1_epi64x(
      shift > 0 ? std::int64_t{1} << (shift - 1) : 0);
  const __m256i neg_on = _mm256_set1_epi64x(shift > 0 ? -1 : 0);
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m256i sign_bit = _mm256_set1_epi64x(
      static_cast<long long>(std::uint64_t{1} << (63 - shift)));
  const __m256i lo = _mm256_set1_epi64x(out.lo);
  const __m256i hi = _mm256_set1_epi64x(out.hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    // Even dwords multiply in place; odd dwords move down first. Both give
    // exact int64 products of the sign-extended int32 operands.
    const __m256i even = requant_epi64(_mm256_mul_epi32(av, mv), half, neg_on,
                                       count, sign_bit, lo, hi);
    const __m256i odd =
        requant_epi64(_mm256_mul_epi32(_mm256_srli_epi64(av, 32), mv), half,
                      neg_on, count, sign_bit, lo, hi);
    // Low dword of each int64 result (static_cast's narrowing) back into
    // its element's position.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(y + i),
        _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA));
  }
  for (; i < n; ++i) {
    y[i] = static_cast<std::int32_t>(clamp_to_bus(
        shift_round(static_cast<std::int64_t>(acc[i]) * mult, shift), out));
  }
}

std::int64_t avx2_sum_i32(const std::int32_t* x, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i))));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += x[i];
  return sum;
}

std::int64_t avx2_ssq_centered_i32(const std::int32_t* x, std::int64_t dim,
                                   std::int64_t sum, std::size_t n) {
  const __m256i dimv = _mm256_set1_epi64x(dim);
  const __m256i sumv = _mm256_set1_epi64x(sum);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    // c = dim·x − sum fits int32 (call-site gate), so c·c via the 32-bit
    // multiply is exact.
    const __m256i c = _mm256_sub_epi64(_mm256_mul_epi32(dimv, xv), sumv);
    acc = _mm256_add_epi64(acc, _mm256_mul_epi32(c, c));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t ssq = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const std::int64_t c = dim * x[i] - sum;
    ssq += c * c;
  }
  return ssq;
}

/// The scalar oracle's affine step for one element (LayerNorm::forward_int
/// pass 2): the tail, and the lanes the vector rounding cannot represent.
std::int32_t layernorm_affine_one(std::int32_t x, std::int64_t dim,
                                  std::int64_t sum, double inv_sigma,
                                  float gamma, float beta, double out_scale,
                                  BusBounds out) {
  const std::int64_t c = dim * x - sum;
  const double norm =
      static_cast<double>(c) * inv_sigma / static_cast<double>(dim);
  const double val = gamma * norm + beta;
  return static_cast<std::int32_t>(
      clamp_to_bus(round_to_int(val / out_scale), out));
}

void avx2_layernorm_affine_i32(const std::int32_t* x, std::int64_t dim,
                               std::int64_t sum, double inv_sigma,
                               const float* gamma, const float* beta,
                               double out_scale, BusBounds out,
                               std::int32_t* y, std::size_t n) {
  const __m256i dimv = _mm256_set1_epi64x(dim);
  const __m256i sumv = _mm256_set1_epi64x(sum);
  const __m256d inv = _mm256_set1_pd(inv_sigma);
  const __m256d dimd = _mm256_set1_pd(static_cast<double>(dim));
  const __m256d scale = _mm256_set1_pd(out_scale);
  // `out` lies inside int32, so both bounds are exact doubles.
  const __m256d lo = _mm256_set1_pd(static_cast<double>(out.lo));
  const __m256d hi = _mm256_set1_pd(static_cast<double>(out.hi));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two53 = _mm256_set1_pd(9007199254740992.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // c = dim·x − sum, exact in int64 lanes; it fits int32 (the caller's
    // gate), so the magic-constant conversion to double is exact.
    const __m256i xv = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    const __m256i c = _mm256_sub_epi64(_mm256_mul_epi32(dimv, xv), sumv);
    const __m256d norm = _mm256_div_pd(_mm256_mul_pd(i64_to_f64(c), inv), dimd);
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(gamma + i));
    const __m256d b = _mm256_cvtps_pd(_mm_loadu_ps(beta + i));
    const __m256d q =
        _mm256_div_pd(_mm256_add_pd(_mm256_mul_pd(g, norm), b), scale);
    // llround_away: truncate, then step away from zero when the exact
    // fraction q − trunc(q) reaches ±0.5.
    const __m256d t =
        _mm256_round_pd(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_sub_pd(q, t);
    const __m256d up =
        _mm256_and_pd(_mm256_cmp_pd(frac, half, _CMP_GE_OQ), one);
    const __m256d down =
        _mm256_and_pd(_mm256_cmp_pd(frac, neg_half, _CMP_LE_OQ), one);
    const __m256d r = _mm256_sub_pd(_mm256_add_pd(t, up), down);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(y + i),
        _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(r, lo), hi)));
    // NaN, ±inf and |q| ≥ 2^53 fail this compare: those lanes take the
    // scalar expression, which throws or casts exactly as the oracle does.
    const __m256d exact =
        _mm256_cmp_pd(_mm256_and_pd(q, abs_mask), two53, _CMP_LT_OQ);
    if (_mm256_movemask_pd(exact) != 0xF) {
      for (std::size_t j = i; j < i + 4; ++j) {
        y[j] = layernorm_affine_one(x[j], dim, sum, inv_sigma, gamma[j],
                                    beta[j], out_scale, out);
      }
    }
  }
  for (; i < n; ++i) {
    y[i] = layernorm_affine_one(x[i], dim, sum, inv_sigma, gamma[i], beta[i],
                                out_scale, out);
  }
}

std::int32_t avx2_max_i32(const std::int32_t* x, std::size_t n) {
  std::int32_t best = x[0];
  std::size_t i = 0;
  if (n >= 8) {
    __m256i mv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
    for (i = 8; i + 8 <= n; i += 8) {
      mv = _mm256_max_epi32(
          mv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)));
    }
    __m128i m = _mm_max_epi32(_mm256_castsi256_si128(mv),
                              _mm256_extracti128_si256(mv, 1));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    best = _mm_cvtsi128_si32(m);
  }
  for (; i < n; ++i) best = best > x[i] ? best : x[i];
  return best;
}

void avx2_sub_scalar_widen_i32(const std::int32_t* x, std::int32_t sub,
                               std::int64_t* out, std::size_t n) {
  const __m256i sv = _mm256_set1_epi64x(sub);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi64(xv, sv));
  }
  for (; i < n; ++i) out[i] = static_cast<std::int64_t>(x[i]) - sub;
}

}  // namespace

const KernelBackend kAvx2Backend{
    .name = "avx2",
    .probe = probe_avx2,
    .ops =
        KernelOps{
            .pwl_eval_codes = avx2_pwl_eval_codes,
            .pwl_eval_reals = avx2_pwl_eval_reals,
            .pwl_eval_reals_sat = avx2_pwl_eval_reals_sat,
            .dot_i32_i8 = avx2_dot_i32_i8,
            .gemm4x16_i16_i8 = avx2_gemm4x16_i16_i8,
            .axpy_i32 = avx2_axpy_i32,
            .requant_i32 = avx2_requant_i32,
            .sum_i32 = avx2_sum_i32,
            .ssq_centered_i32 = avx2_ssq_centered_i32,
            .layernorm_affine_i32 = avx2_layernorm_affine_i32,
            .max_i32 = avx2_max_i32,
            .sub_scalar_widen_i32 = avx2_sub_scalar_widen_i32,
        },
};

}  // namespace gqa::kernel

#else  // x86-64 built without -mavx2: register an unavailable placeholder

namespace gqa::kernel {

const KernelBackend kAvx2Backend{
    .name = "avx2",
    .probe = [] { return false; },
    .ops = KernelOps{},
};

}  // namespace gqa::kernel

#endif  // __AVX2__

#endif  // __x86_64__ || _M_X64
