// SIMD kernel dispatch throughput: the dense-table PWL eval, the integer
// row kernels and the dyadic requantizer timed under the scalar oracle vs the runtime-dispatched
// backend (kernel/dispatch.h), per bus width. Every row is checksum-gated:
// the dispatched outputs must be bit-identical to the scalar oracle's, and
// any divergence exits non-zero (CI runs this in smoke mode as the
// dispatch-layer bit-identity gate).
//
// On hosts without a SIMD backend the dispatched column equals the scalar
// column (speedup ~1.0) and the gate passes trivially — the table's
// "Backend" header says which case you are looking at.
//
// Env knobs: GQA_BENCH_REPS (default 5) best-of rounds per timing,
//            GQA_KERNEL_BACKEND pins the dispatched backend under test.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/approximator.h"
#include "kernel/dispatch.h"
#include "kernel/int_pwl_unit.h"
#include "quant/requant.h"
#include "util/rng.h"

using namespace gqa;

namespace {

constexpr std::size_t kBatch = 8192;
constexpr int kLoops = 64;

/// Best-of-N wall time of `fn` in milliseconds.
template <typename Fn>
double time_best_ms(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

struct Row {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool identical = false;
};

void add_row(TablePrinter& table, const char* name, const Row& r,
             bool& all_ok) {
  const double items = static_cast<double>(kBatch) * kLoops;
  table.add_row({name, fixed(r.scalar_ms * 1e6 / items, 2),
                 fixed(r.simd_ms * 1e6 / items, 2),
                 fixed(r.scalar_ms / r.simd_ms, 2),
                 r.identical ? "yes" : "NO"});
  all_ok = all_ok && r.identical;
}

Row pwl_row(const IntPwlUnit& unit, std::int64_t code_lo, std::int64_t code_hi,
            const std::string& dispatched, int reps) {
  std::vector<std::int64_t> codes(kBatch);
  std::int64_t q = code_lo;
  const std::int64_t step = 1 + (code_hi - code_lo) / 512;
  for (std::size_t i = 0; i < kBatch; ++i) {
    codes[i] = q;
    q = q >= code_hi ? code_lo : std::min(q + step, code_hi);
  }
  std::vector<double> out(kBatch), ref(kBatch);
  const auto run = [&] {
    for (int l = 0; l < kLoops; ++l) unit.eval_reals_from_codes(codes, out);
  };
  Row r;
  {
    kernel::BackendScope scope("scalar");
    r.scalar_ms = time_best_ms(reps, run);
    ref = out;
  }
  {
    kernel::BackendScope scope(dispatched);
    r.simd_ms = time_best_ms(reps, run);
  }
  r.identical = ref == out;
  return r;
}

}  // namespace

int main() {
  const int reps = static_cast<int>(env_int("GQA_BENCH_REPS", 5));
  const std::string dispatched = kernel::active().name;
  const kernel::KernelOps& ops = kernel::active().ops;

  TablePrinter table({"Kernel", "Scalar ns/item", "Dispatched ns/item",
                      "Speedup", "Bit-identical"});
  table.set_title("SIMD kernel dispatch (backend: " + dispatched + ")");
  bool all_ok = true;

  const Approximator gelu = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  add_row(table, "PWL eval INT8",
          pwl_row(gelu.make_unit(-4), -128, 127, dispatched, reps), all_ok);
  add_row(table, "PWL eval INT16",
          pwl_row(gelu.make_unit(-10, 16), -32768, 32767, dispatched, reps),
          all_ok);

  Rng rng(0x51DB);
  std::vector<std::int32_t> acts(kBatch);
  std::vector<std::int8_t> weights(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    acts[i] = static_cast<std::int32_t>(rng.uniform_int(-32768, 32767));
    weights[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  {
    Row r;
    std::int64_t scalar_sum = 0, simd_sum = 0;
    r.scalar_ms = time_best_ms(reps, [&] {
      scalar_sum = 0;
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          scalar_sum += static_cast<std::int64_t>(acts[i]) * weights[i];
        }
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.dot_i32_i8 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        simd_sum = 0;
        for (int l = 0; l < kLoops; ++l) {
          simd_sum += ops.dot_i32_i8(acts.data(), weights.data(), kBatch);
        }
      });
      r.identical = scalar_sum == simd_sum;
    }
    add_row(table, "GEMM dot i32*i8", r, all_ok);
  }
  {
    // The GEMM's 4-row block on 8-bit activation codes narrowed to int16
    // (what the integer GEMM hands it), against four scalar dot loops.
    std::vector<std::int16_t> acts16(kBatch);
    std::vector<std::int8_t> rows4(4 * kBatch);
    for (std::int16_t& v : acts16) {
      v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));
    }
    for (std::int8_t& v : rows4) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    Row r;
    std::vector<std::int64_t> scalar_sums(4), simd_sums(4);
    r.scalar_ms = time_best_ms(reps, [&] {
      std::fill(scalar_sums.begin(), scalar_sums.end(), 0);
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t row = 0; row < 4; ++row) {
          for (std::size_t i = 0; i < kBatch; ++i) {
            scalar_sums[row] += static_cast<std::int64_t>(acts16[i]) *
                                rows4[row * kBatch + i];
          }
        }
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.dot4_i16_i8 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        std::fill(simd_sums.begin(), simd_sums.end(), 0);
        for (int l = 0; l < kLoops; ++l) {
          std::int32_t out[4];
          ops.dot4_i16_i8(acts16.data(), rows4.data(), kBatch, kBatch, out);
          for (std::size_t row = 0; row < 4; ++row) simd_sums[row] += out[row];
        }
      });
      r.identical = scalar_sums == simd_sums;
    }
    add_row(table, "GEMM dot4 i16*i8 (4 rows)", r, all_ok);
  }
  {
    Row r;
    std::int64_t scalar_sum = 0, simd_sum = 0;
    r.scalar_ms = time_best_ms(reps, [&] {
      scalar_sum = 0;
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) scalar_sum += acts[i];
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.sum_i32 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        simd_sum = 0;
        for (int l = 0; l < kLoops; ++l) {
          simd_sum += ops.sum_i32(acts.data(), kBatch);
        }
      });
      r.identical = scalar_sum == simd_sum;
    }
    add_row(table, "LayerNorm row sum", r, all_ok);
  }
  {
    Row r;
    std::int32_t scalar_peak = 0, simd_peak = 0;
    r.scalar_ms = time_best_ms(reps, [&] {
      for (int l = 0; l < kLoops; ++l) {
        std::int32_t peak = acts[0];
        for (std::size_t i = 1; i < kBatch; ++i) peak = std::max(peak, acts[i]);
        scalar_peak = peak;
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.max_i32 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        for (int l = 0; l < kLoops; ++l) {
          simd_peak = ops.max_i32(acts.data(), kBatch);
        }
      });
      r.identical = scalar_peak == simd_peak;
    }
    add_row(table, "Softmax row max", r, all_ok);
  }

  {
    // The dyadic requantizer behind every GEMM row: 256-wide int32
    // accumulator rows (a Linear's output width) onto an 8-bit bus, against
    // the per-element Requantizer::apply loop. The ratio is not a power of
    // two, and the accumulators span enough to saturate both ends.
    constexpr std::size_t kRow = 256;
    const Requantizer rq(1.0, QuantParams{500.0, 8, true});
    const Dyadic& m = rq.multiplier();
    const BusBounds bus = bus_bounds(8, true);
    std::vector<std::int32_t> accs(kBatch);
    for (std::int32_t& v : accs) {
      v = static_cast<std::int32_t>(rng.uniform_int(-65536, 65536));
    }
    std::vector<std::int32_t> scalar_out(kBatch), simd_out(kBatch);
    Row r;
    r.scalar_ms = time_best_ms(reps, [&] {
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          scalar_out[i] = static_cast<std::int32_t>(rq.apply(accs[i]));
        }
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.requant_i32 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        for (int l = 0; l < kLoops; ++l) {
          for (std::size_t i = 0; i < kBatch; i += kRow) {
            ops.requant_i32(accs.data() + i, m.mult, m.shift, bus,
                            simd_out.data() + i, kRow);
          }
        }
      });
      r.identical = scalar_out == simd_out;
    }
    add_row(table, "Requantize i32 row (8-bit bus)", r, all_ok);
  }

  {
    // LayerNorm's affine pass on 256-wide rows of 8-bit codes (SegFormer's
    // widest stage) onto an 8-bit bus, against LayerNorm::forward_int's
    // scalar loop; the output scale saturates the tails.
    constexpr std::size_t kRow = 256;
    const QuantParams out_qp{4.0 / 127.0, 8, true};
    const BusBounds bus = bus_bounds(out_qp.bits, out_qp.is_signed);
    std::vector<std::int32_t> codes(kBatch);
    std::vector<float> gamma(kRow), beta(kRow);
    for (std::int32_t& v : codes) {
      v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    }
    for (std::size_t d = 0; d < kRow; ++d) {
      gamma[d] = static_cast<float>(rng.normal(1.0, 0.05));
      beta[d] = static_cast<float>(rng.normal(0.0, 0.05));
    }
    std::vector<std::int64_t> sums(kBatch / kRow);
    for (std::size_t i = 0; i < kBatch; ++i) sums[i / kRow] += codes[i];
    const double inv_sigma = 1.0 / 74.0;  // ~1/σ of uniform 8-bit codes
    const auto dim = static_cast<std::int64_t>(kRow);
    std::vector<std::int32_t> scalar_out(kBatch), simd_out(kBatch);
    Row r;
    r.scalar_ms = time_best_ms(reps, [&] {
      for (int l = 0; l < kLoops; ++l) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::size_t d = i % kRow;
          const std::int64_t c = dim * codes[i] - sums[i / kRow];
          const double norm = static_cast<double>(c) * inv_sigma / dim;
          const double val = gamma[d] * norm + beta[d];
          scalar_out[i] = static_cast<std::int32_t>(out_qp.quantize(val));
        }
      }
    });
    r.simd_ms = r.scalar_ms;
    r.identical = true;
    if (ops.layernorm_affine_i32 != nullptr) {
      r.simd_ms = time_best_ms(reps, [&] {
        for (int l = 0; l < kLoops; ++l) {
          for (std::size_t i = 0; i < kBatch; i += kRow) {
            ops.layernorm_affine_i32(codes.data() + i, dim, sums[i / kRow],
                                     inv_sigma, gamma.data(), beta.data(),
                                     out_qp.scale, bus, simd_out.data() + i,
                                     kRow);
          }
        }
      });
      r.identical = scalar_out == simd_out;
    }
    add_row(table, "LayerNorm affine row (8-bit bus)", r, all_ok);
  }

  bench::emit(table, "simd_kernel");
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: dispatched kernel outputs diverged from the scalar "
                 "oracle\n");
    return 1;
  }
  return 0;
}
