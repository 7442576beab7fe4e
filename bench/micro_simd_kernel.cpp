// SIMD kernel dispatch throughput: the dense-table PWL eval, the integer
// row kernels, the GEMM tile and the dyadic requantizer timed under the
// scalar oracle vs the runtime-dispatched backend (kernel/dispatch.h); the
// rows are bench/kernel_simd_rows.h's. Every row is checksum-gated: the
// dispatched outputs must be bit-identical to the scalar oracle's, and
// any divergence exits non-zero (CI runs this in smoke mode as the
// dispatch-layer bit-identity gate).
//
// On hosts without a SIMD backend the dispatched column equals the scalar
// column (speedup ~1.0) and the gate passes trivially — the table's
// "Backend" header says which case you are looking at.
//
// Env knobs: GQA_BENCH_REPS (default 5, at least 1) best-of rounds per
//            timing, GQA_KERNEL_BACKEND pins the dispatched backend under
//            test.
#include <cstdio>

#include "bench_util.h"
#include "kernel_simd_rows.h"

using namespace gqa;

int main() {
  constexpr std::size_t kBatch = 8192;
  constexpr int kLoops = 64;
  const int reps = bench::bench_reps(5);
  const std::string dispatched = kernel::active().name;

  TablePrinter table({"Kernel", "Scalar ns/item", "Dispatched ns/item",
                      "Speedup", "Bit-identical"});
  table.set_title("SIMD kernel dispatch (backend: " + dispatched + ")");
  bool all_ok = true;
  const double items = static_cast<double>(kBatch) * kLoops;
  for (const bench::KernelSimdRow& r :
       bench::kernel_simd_rows(reps, kBatch, kLoops)) {
    table.add_row({r.label, fixed(r.scalar_ms * 1e6 / items, 2),
                   fixed(r.simd_ms * 1e6 / items, 2),
                   fixed(r.scalar_ms / r.simd_ms, 2),
                   r.identical ? "yes" : "NO"});
    all_ok = all_ok && r.identical;
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
