// Runtime-dispatched SIMD kernel backends (modeled on ggml-cpu's arch
// dispatch): every integer hot path keeps its scalar loop verbatim as the
// oracle, and a backend may vectorize it behind a function table. A null
// entry in the table means "use the scalar oracle" — so the `scalar`
// backend is simply the all-null table and the call sites fall through to
// the loops that have always been there.
//
// Selection happens once, at first use: the highest-priority backend whose
// capability probe (cpuid) passes wins, unless GQA_KERNEL_BACKEND
// pins a specific backend by name (`scalar`, `avx2`, or `auto`).
// Naming a backend the host cannot run fails loudly (ContractViolation) —
// a silent scalar fallback would make "I benchmarked AVX2" a lie.
//
// Bit-identity contract: a backend op must produce exactly the bytes the
// scalar oracle produces, for every input the call site is allowed to pass.
// Integer reductions reorder freely (integer addition is associative in the
// no-overflow domain the buses guarantee); floating-point reductions may
// NOT be vectorized (FP addition is not associative), which is why the
// Softmax exp-sum stays scalar. Elementwise FP lanes are allowed when each
// lane performs the scalar's exact IEEE operation sequence — same
// operations, same order, no FMA contraction (the build pins
// -ffp-contract=off) — because every such operation is correctly rounded
// whatever the lane order (layernorm_affine_i32). The dyadic requantizer is
// integer math (exact multiply, rounding shift, clamp) and vectorizes
// exactly. The differential suite (tests/simd_kernel_test.cpp) and the
// checksum-gated kernel_simd bench section enforce the contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/saturate.h"

namespace gqa::kernel {

/// Flattened, trivially-copyable view of an IntPwlUnit's deployment
/// artifacts, rebuilt per call from the owning unit (never stored — the
/// unit's vectors may relocate when the unit is copied or moved).
///
/// Eligibility invariants the unit guarantees before handing out a view:
///  - `seg_of_code` is the dense code->segment table (input bus <= 16 bits)
///    padded with 3 trailing bytes so 4-byte vector gathers never read
///    out of bounds;
///  - slope codes fit int32 (param width <= 32), so a 32x32->64 multiply
///    is exact;
///  - |accumulator| < 2^50, so the int64->double conversion trick in the
///    AVX2 lanes is exact.
struct PwlTableView {
  const std::uint8_t* seg_of_code = nullptr;
  const std::int64_t* k_code = nullptr;
  const std::int64_t* b_aligned = nullptr;
  /// Per-code slope/intercept tables (k_of_code[q-code_lo] ==
  /// k_code[seg_of_code[q-code_lo]], same for b): present only for small
  /// buses, where they let a SIMD lane gather its parameters directly from
  /// the code index — two independent gathers instead of the dependent
  /// segment-then-parameter gather chain. Null on larger buses (the memory
  /// cost is 16 bytes per code); kernels must fall back to seg_of_code.
  const std::int64_t* k_of_code = nullptr;
  const std::int64_t* b_of_code = nullptr;
  std::int64_t code_lo = 0;
  BusBounds in;   ///< input-bus clamp/contract bounds
  BusBounds acc;  ///< accumulator saturation bounds
  double acc_scale = 0.0;
};

/// Byte offset of weight (o, j) of a {outs, k} int8 matrix packed into GEMM
/// panels of 16 outputs × kp = ⌈k/2⌉ k-pairs: k-pair j/2 of panel o/16 is
/// 32 bytes holding (o%16, even j), (o%16, odd j) pairs. Outputs past
/// `outs` and the odd-k pad hold zero.
constexpr std::size_t gemm_panel_offset(std::size_t o, std::size_t j,
                                        std::size_t kp) {
  return ((o / 16) * kp + j / 2) * 32 + (o % 16) * 2 + j % 2;
}

/// Function table of one backend. Null entry == "scalar oracle handles it".
struct KernelOps {
  /// IntPwlUnit::eval_codes body: contract-checks each code against the
  /// input bus (throwing the same ContractViolation as the oracle), then
  /// gathers segment/slope/intercept and saturating-adds into `out`.
  void (*pwl_eval_codes)(const PwlTableView&, const std::int64_t* q,
                         std::int64_t* out, std::size_t n) = nullptr;
  /// IntPwlUnit::eval_reals_from_codes body (same contract check; output is
  /// double(acc) * acc_scale, a single-rounded elementwise multiply).
  void (*pwl_eval_reals)(const PwlTableView&, const std::int64_t* q,
                         double* out, std::size_t n) = nullptr;
  /// IntPwlUnit::eval_reals_from_codes_saturated body (over-range codes
  /// clamp to the input bus instead of failing the precondition).
  void (*pwl_eval_reals_sat)(const PwlTableView&, const std::int64_t* q,
                             double* out, std::size_t n) = nullptr;
  /// Σ a[i]·w[i] with int64 accumulation over contiguous int8 weights. No
  /// model path calls it since the GEMM weights moved into panels; it stays
  /// for perfbench's `kernel.dot_i32_i8_ns` probe and the kernel_simd bench.
  std::int64_t (*dot_i32_i8)(const std::int32_t* a, const std::int8_t* w,
                             std::size_t n) = nullptr;
  /// One 4-row × 16-output tile of the integer GEMM behind Linear and the
  /// dense Conv2d: c[r·ldc + o] = bias16[o] + Σ_j a[r·lda + j]·w(o, j) for
  /// r < 4, o < 16, j < 2·kp, with w(o, j) at panel[gemm_panel_offset(o,
  /// j, kp)] (one panel), so each k-pair's 32 bytes widen straight into
  /// `vpmaddwd` operands. Caller guarantees max|bias16| + 2·kp·max|a|·128
  /// ≤ INT32_MAX, which bounds every partial sum in any order, so the int32
  /// result is exact. Scalar oracle: the int64 loops of Linear and Conv2d.
  void (*gemm4x16_i16_i8)(const std::int16_t* a, std::size_t lda,
                          const std::int8_t* panel, std::size_t kp,
                          const std::int32_t* bias16, std::int32_t* c,
                          std::size_t ldc) = nullptr;
  /// acc[i] += w·x[i] over an int32 row. Caller: the depthwise
  /// Conv2d::forward_int lowering, one stride-1 output row per kernel tap,
  /// which guarantees |bias| + taps·|w·x| ≤ INT32_MAX, so no lane wraps.
  void (*axpy_i32)(std::int32_t* acc, const std::int32_t* x, std::int32_t w,
                   std::size_t n) = nullptr;
  /// y[i] = clamp_to_bus(shift_round(int64(acc[i])·mult, shift), out),
  /// narrowed to int32 as static_cast would — Requantizer::apply on an int32
  /// accumulator row. `y` may alias `acc`. Caller guarantees 0 ≤ shift < 63
  /// (the products are exact: |acc·mult| ≤ 2^62). Callers: the tfm
  /// requantize_row helper behind every GEMM row, depthwise plane, residual
  /// operand and model-head alignment.
  void (*requant_i32)(const std::int32_t* acc, std::int32_t mult, int shift,
                      BusBounds out, std::int32_t* y, std::size_t n) = nullptr;
  /// Σ x[i] widened to int64 (LayerNorm row sum).
  std::int64_t (*sum_i32)(const std::int32_t* x, std::size_t n) = nullptr;
  /// Σ (dim·x[i] − sum)² — the D-scaled centered second moment of a
  /// LayerNorm row. Caller guarantees |dim·x − sum| fits int32.
  std::int64_t (*ssq_centered_i32)(const std::int32_t* x, std::int64_t dim,
                                   std::int64_t sum, std::size_t n) = nullptr;
  /// LayerNorm's affine pass over one row:
  ///   c = dim·x[i] − sum;  v = γ[i]·((double(c)·inv_sigma)/dim) + β[i];
  ///   y[i] = clamp_to_bus(round_to_int(v / out_scale), out)
  /// in exactly the scalar loop's IEEE double operations and order (γ and
  /// β widen from float). A lane whose quotient is non-finite or at least
  /// 2^53 in magnitude is recomputed by the scalar expression, so
  /// round_to_int's ContractViolation and its cast stay the oracle's.
  /// Caller guarantees |dim·x − sum| fits int32 (the ssq_centered_i32
  /// gate) and that `out` lies inside int32.
  void (*layernorm_affine_i32)(const std::int32_t* x, std::int64_t dim,
                               std::int64_t sum, double inv_sigma,
                               const float* gamma, const float* beta,
                               double out_scale, BusBounds out,
                               std::int32_t* y, std::size_t n) = nullptr;
  /// Row max (Softmax peak); n >= 1.
  std::int32_t (*max_i32)(const std::int32_t* x, std::size_t n) = nullptr;
  /// out[i] = int64(x[i]) − sub (Softmax max-subtracted differences).
  void (*sub_scalar_widen_i32)(const std::int32_t* x, std::int32_t sub,
                               std::int64_t* out, std::size_t n) = nullptr;
};

/// One registered backend: a stable name (lint rule R6 demands it appear in
/// the docs/ARCHITECTURE.md backend table), a runtime capability probe, and
/// the op table.
struct KernelBackend {
  const char* name;
  bool (*probe)();
  KernelOps ops;
};

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2 backend descriptor, defined in dispatch_avx2.cpp (the only TU
/// compiled with -mavx2; the CPUID probe gates execution at runtime).
extern const KernelBackend kAvx2Backend;
#endif

/// All compiled-in backends, highest dispatch priority first; `scalar` is
/// always present and always last.
[[nodiscard]] const std::vector<const KernelBackend*>& registry();

/// True when the backend's capability probe passes on this host.
[[nodiscard]] bool backend_available(const KernelBackend& backend);

/// The backend hot paths dispatch through. Resolved on first call from
/// GQA_KERNEL_BACKEND (default `auto` = best available); later reads are a
/// single atomic load.
[[nodiscard]] const KernelBackend& active();

/// Resolves a backend by name. `auto` picks the highest-priority backend
/// whose probe passes; a concrete name must name a registered backend that
/// is available on this host, else ContractViolation.
[[nodiscard]] const KernelBackend& resolve_backend(const std::string& name);

/// RAII override of the active backend (tests and the kernel_simd bench
/// flip between `scalar` and the dispatched backend with this). The swap is
/// an atomic store — data-race free — but scopes are not meant to nest
/// concurrently: establish the scope before fanning work out.
class BackendScope {
 public:
  explicit BackendScope(const std::string& name);
  ~BackendScope();

  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace gqa::kernel
