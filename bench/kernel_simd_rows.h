// The dispatched-kernel rows shared by bench/micro_simd_kernel.cpp (a
// table) and tools/bench_to_json.cpp (BENCH_kernel.json's `kernel_simd`
// section): each kernel op of the active backend timed against the scalar
// loop its call site runs when the op is null. Every row first runs both
// sides once, untimed, and compares their outputs, so the bit-identity
// gate never depends on what the timing rounds did.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/approximator.h"
#include "kernel/dispatch.h"
#include "kernel/int_pwl_unit.h"
#include "quant/requant.h"
#include "util/rng.h"

namespace gqa::bench {

struct KernelSimdRow {
  std::string key;    ///< BENCH_kernel.json key (the op's name)
  std::string label;  ///< table label
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool identical = false;
};

/// One row. `run_scalar` and `run_simd` each run the op `loops` times and
/// leave their outputs where `same` compares them. Both run once before any
/// timing; then each is timed best-of-`reps`, and the outputs are compared
/// again, which also keeps the timed work from being optimized away as
/// dead. Without the op (`has_simd` false) the dispatched column repeats
/// the scalar time.
template <typename Scalar, typename Simd, typename Same>
KernelSimdRow kernel_simd_row(std::string key, std::string label, int reps,
                              bool has_simd, const Scalar& run_scalar,
                              const Simd& run_simd, const Same& same) {
  KernelSimdRow row{std::move(key), std::move(label)};
  run_scalar();
  if (has_simd) run_simd();
  row.identical = !has_simd || same();
  row.scalar_ms = time_best_ms(reps, run_scalar);
  row.simd_ms = has_simd ? time_best_ms(reps, run_simd) : row.scalar_ms;
  if (has_simd) row.identical = same() && row.identical;
  return row;
}

/// Every row over `batch`-element inputs, `loops` op calls per timing round
/// (ns per item = ms·1e6 / (batch·loops)), under the active backend.
inline std::vector<KernelSimdRow> kernel_simd_rows(int reps, std::size_t batch,
                                                   int loops) {
  const std::string dispatched = kernel::active().name;
  const kernel::KernelOps& ops = kernel::active().ops;
  std::vector<KernelSimdRow> rows;

  // Dense-table PWL eval, per bus width (the Table 1 INT8 row and the
  // W16A16 hardware row), under the scalar oracle vs the active backend.
  const Approximator gelu = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  const auto pwl_row = [&](const char* key, const char* label,
                           const IntPwlUnit& unit, std::int64_t code_lo,
                           std::int64_t code_hi) {
    std::vector<std::int64_t> codes(batch);
    std::int64_t q = code_lo;
    const std::int64_t step = 1 + (code_hi - code_lo) / 512;
    for (std::int64_t& c : codes) {
      c = q;
      q = q >= code_hi ? code_lo : std::min(q + step, code_hi);
    }
    std::vector<double> ref(batch), out(batch);
    const auto run = [&](const std::string& backend, std::vector<double>& y) {
      kernel::BackendScope scope(backend);
      for (int l = 0; l < loops; ++l) unit.eval_reals_from_codes(codes, y);
    };
    rows.push_back(kernel_simd_row(
        key, label, reps, true, [&] { run("scalar", ref); },
        [&] { run(dispatched, out); }, [&] { return ref == out; }));
  };
  pwl_row("pwl_eval_int8", "PWL eval INT8", gelu.make_unit(-4), -128, 127);
  pwl_row("pwl_eval_int16", "PWL eval INT16", gelu.make_unit(-10, 16), -32768,
          32767);

  // Integer row kernels against inline copies of their call sites' scalar
  // loops.
  Rng rng(0x51DB);
  std::vector<std::int32_t> acts(batch);
  std::vector<std::int8_t> weights(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    acts[i] = static_cast<std::int32_t>(rng.uniform_int(-32768, 32767));
    weights[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  {
    std::int64_t scalar_sum = 0, simd_sum = 0;
    rows.push_back(kernel_simd_row(
        "dot_i32_i8", "GEMM dot i32*i8", reps, ops.dot_i32_i8 != nullptr,
        [&] {
          scalar_sum = 0;
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; ++i) {
              scalar_sum += static_cast<std::int64_t>(acts[i]) * weights[i];
            }
          }
        },
        [&] {
          simd_sum = 0;
          for (int l = 0; l < loops; ++l) {
            simd_sum += ops.dot_i32_i8(acts.data(), weights.data(), batch);
          }
        },
        [&] { return scalar_sum == simd_sum; }));
  }
  {
    // One GEMM tile: 4 rows of batch/4 8-bit codes (what Linear hands the
    // GEMM) narrowed to int16, against one 16-output panel, vs the int64
    // loop over the panel layout. An item is one code meeting 16 outputs.
    const std::size_t kp = batch / 8;
    std::vector<std::int16_t> block(8 * kp);
    std::vector<std::int8_t> panel(32 * kp);
    for (std::int16_t& v : block) {
      v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));
    }
    for (std::int8_t& v : panel) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    std::vector<std::int32_t> bias(16);
    for (std::int32_t& v : bias) {
      v = static_cast<std::int32_t>(rng.uniform_int(-65536, 65536));
    }
    std::vector<std::int64_t> scalar_sums(4 * 16), simd_sums(4 * 16);
    rows.push_back(kernel_simd_row(
        "gemm4x16_i16_i8", "GEMM tile i16*i8 (4x16)", reps,
        ops.gemm4x16_i16_i8 != nullptr,
        [&] {
          std::fill(scalar_sums.begin(), scalar_sums.end(), 0);
          for (int l = 0; l < loops; ++l) {
            for (std::size_t r = 0; r < 4; ++r) {
              for (std::size_t o = 0; o < 16; ++o) {
                std::int64_t acc = bias[o];
                for (std::size_t j = 0; j < 2 * kp; ++j) {
                  acc += static_cast<std::int64_t>(block[r * 2 * kp + j]) *
                         panel[kernel::gemm_panel_offset(o, j, kp)];
                }
                scalar_sums[r * 16 + o] += acc;
              }
            }
          }
        },
        [&] {
          std::fill(simd_sums.begin(), simd_sums.end(), 0);
          for (int l = 0; l < loops; ++l) {
            std::int32_t tile[4 * 16];
            ops.gemm4x16_i16_i8(block.data(), 2 * kp, panel.data(), kp,
                                bias.data(), tile, 16);
            for (std::size_t i = 0; i < 4 * 16; ++i) simd_sums[i] += tile[i];
          }
        },
        [&] { return scalar_sums == simd_sums; }));
  }
  {
    std::int64_t scalar_sum = 0, simd_sum = 0;
    rows.push_back(kernel_simd_row(
        "sum_i32", "LayerNorm row sum", reps, ops.sum_i32 != nullptr,
        [&] {
          scalar_sum = 0;
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; ++i) scalar_sum += acts[i];
          }
        },
        [&] {
          simd_sum = 0;
          for (int l = 0; l < loops; ++l) {
            simd_sum += ops.sum_i32(acts.data(), batch);
          }
        },
        [&] { return scalar_sum == simd_sum; }));
  }
  {
    std::int32_t scalar_peak = 0, simd_peak = 0;
    rows.push_back(kernel_simd_row(
        "max_i32", "Softmax row max", reps, ops.max_i32 != nullptr,
        [&] {
          for (int l = 0; l < loops; ++l) {
            std::int32_t peak = acts[0];
            for (std::size_t i = 1; i < batch; ++i) {
              peak = std::max(peak, acts[i]);
            }
            scalar_peak = peak;
          }
        },
        [&] {
          for (int l = 0; l < loops; ++l) {
            simd_peak = ops.max_i32(acts.data(), batch);
          }
        },
        [&] { return scalar_peak == simd_peak; }));
  }
  constexpr std::size_t kRow = 256;  // a SegFormer stage-4 row width
  {
    // The dyadic requantizer behind every GEMM row: 256-wide int32
    // accumulator rows onto an 8-bit bus (non-po2 ratio, both ends
    // saturating), against the per-element Requantizer::apply loop.
    const Requantizer rq(1.0, QuantParams{500.0, 8, true});
    const Dyadic& m = rq.multiplier();
    const BusBounds bus = bus_bounds(8, true);
    std::vector<std::int32_t> accs(batch);
    for (std::int32_t& v : accs) {
      v = static_cast<std::int32_t>(rng.uniform_int(-65536, 65536));
    }
    std::vector<std::int32_t> scalar_out(batch), simd_out(batch);
    rows.push_back(kernel_simd_row(
        "requant_i32", "Requantize i32 row (8-bit bus)", reps,
        ops.requant_i32 != nullptr,
        [&] {
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; ++i) {
              scalar_out[i] = static_cast<std::int32_t>(rq.apply(accs[i]));
            }
          }
        },
        [&] {
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; i += kRow) {
              ops.requant_i32(accs.data() + i, m.mult, m.shift, bus,
                              simd_out.data() + i, kRow);
            }
          }
        },
        [&] { return scalar_out == simd_out; }));
  }
  {
    // LayerNorm's affine pass on 256-wide rows of 8-bit codes onto an 8-bit
    // bus (tails saturating), against LayerNorm::forward_int's scalar loop.
    const QuantParams out_qp{4.0 / 127.0, 8, true};
    const BusBounds bus = bus_bounds(out_qp.bits, out_qp.is_signed);
    std::vector<std::int32_t> codes(batch);
    std::vector<float> gamma(kRow), beta(kRow);
    for (std::int32_t& v : codes) {
      v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    }
    for (std::size_t d = 0; d < kRow; ++d) {
      gamma[d] = static_cast<float>(rng.normal(1.0, 0.05));
      beta[d] = static_cast<float>(rng.normal(0.0, 0.05));
    }
    std::vector<std::int64_t> sums(batch / kRow);
    for (std::size_t i = 0; i < batch; ++i) sums[i / kRow] += codes[i];
    const double inv_sigma = 1.0 / 74.0;  // ~1/σ of uniform 8-bit codes
    const auto dim = static_cast<std::int64_t>(kRow);
    std::vector<std::int32_t> scalar_out(batch), simd_out(batch);
    rows.push_back(kernel_simd_row(
        "layernorm_affine_i32", "LayerNorm affine row (8-bit bus)", reps,
        ops.layernorm_affine_i32 != nullptr,
        [&] {
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; ++i) {
              const std::size_t d = i % kRow;
              const std::int64_t c = dim * codes[i] - sums[i / kRow];
              const double norm = static_cast<double>(c) * inv_sigma / dim;
              const double val = gamma[d] * norm + beta[d];
              scalar_out[i] = static_cast<std::int32_t>(out_qp.quantize(val));
            }
          }
        },
        [&] {
          for (int l = 0; l < loops; ++l) {
            for (std::size_t i = 0; i < batch; i += kRow) {
              ops.layernorm_affine_i32(codes.data() + i, dim, sums[i / kRow],
                                       inv_sigma, gamma.data(), beta.data(),
                                       out_qp.scale, bus, simd_out.data() + i,
                                       kRow);
            }
          }
        },
        [&] { return scalar_out == simd_out; }));
  }
  return rows;
}

}  // namespace gqa::bench
