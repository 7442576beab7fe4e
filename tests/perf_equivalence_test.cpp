// Equivalence guarantees of the performance engine: memoized GA runs and
// the sort-free repair must be bit-identical to the plain path, the prefix-sum
// objective must agree with the naive per-code scan, the batched kernel
// APIs must reproduce per-element evaluation exactly, the NonlinearProvider
// must survive concurrent hammering on cold caches, and every tfm kernel
// backend must reproduce the scalar oracle's forward codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/protocol.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "kernel/int_pwl_unit.h"
#include "kernel/multirange_unit.h"
#include "pwl/fit_grid.h"
#include "scoped_env.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/modules.h"
#include "tfm/nonlinear_provider.h"
#include "util/contracts.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqa {
namespace {

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleLaneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(round + 1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), round + 1);
  }
}

TEST(ThreadPool, PooledForChunksPartitionsExactly) {
  // Chunk bounds must tile [0, count) exactly — no empty or out-of-range
  // chunk for awkward counts (regression: ceil-division used to emit a
  // trailing chunk with lo > count, underflowing span lengths downstream).
  ThreadPool pool2(2), pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    for (std::size_t count : {0UL, 1UL, 2UL, 7UL, 33UL, 145UL, 1000UL}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h = 0;
      std::atomic<int> bad_bounds{0};
      pooled_for_chunks(pool, count, [&](std::size_t lo, std::size_t hi) {
        if (lo >= hi || hi > count) {
          ++bad_bounds;
          return;
        }
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
      EXPECT_EQ(bad_bounds.load(), 0) << "count=" << count;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, GlobalPoolThreadsRangeChecksTheEnvKnob) {
  // Only the lane count is computed: no pool is built from these values.
  constexpr const char* kVar = "GQA_NUM_THREADS";
  {
    test::ScopedEnv env(kVar, "3");
    EXPECT_EQ(global_pool_threads(), 3);
  }
  for (const char* automatic : {static_cast<const char*>(nullptr), "", "0"}) {
    test::ScopedEnv env(kVar, automatic);
    EXPECT_GE(global_pool_threads(), 1);
  }
  // Past INT_MAX used to narrow to a garbage int; trailing characters were
  // dropped; negatives silently meant "hardware concurrency".
  for (const char* bad : {"2147483648", "4294967299", "-1", "2x"}) {
    test::ScopedEnv env(kVar, bad);
    EXPECT_THROW((void)global_pool_threads(), ContractViolation) << bad;
  }
}

// --------------------------------------------------------- GA memoize --

GqaConfig quick_fit_config(bool memoize) {
  GqaConfig cfg = GqaConfig::preset(Op::kGelu, 8,
                                    MutationKind::kRoundingMutation);
  cfg.ga.population_size = 20;
  cfg.ga.generations = 25;
  cfg.ga.seed = 0xABCD;
  cfg.ga.memoize_fitness = memoize;
  cfg.fitness = GqaConfig::Fitness::kDeployedMean;  // exercises the objective
  return cfg;
}

void expect_identical_fits(const GqaFitResult& a, const GqaFitResult& b) {
  EXPECT_EQ(a.ga.best, b.ga.best);
  EXPECT_EQ(a.ga.best_fitness, b.ga.best_fitness);
  EXPECT_EQ(a.ga.history, b.ga.history);
  EXPECT_EQ(a.ga.evaluations, b.ga.evaluations);
  EXPECT_EQ(a.fxp_table.breakpoints, b.fxp_table.breakpoints);
  EXPECT_EQ(a.fxp_table.slopes, b.fxp_table.slopes);
  EXPECT_EQ(a.fxp_table.intercepts, b.fxp_table.intercepts);
  ASSERT_EQ(a.per_scale.size(), b.per_scale.size());
  for (std::size_t i = 0; i < a.per_scale.size(); ++i) {
    EXPECT_EQ(a.per_scale[i].breakpoints, b.per_scale[i].breakpoints);
    EXPECT_EQ(a.per_scale[i].deployed_mse, b.per_scale[i].deployed_mse);
  }
}

TEST(GaParallel, MemoizationBitIdenticalAndHitsCache) {
  const GqaFitResult plain = fit_gqa_lut(quick_fit_config(false));
  const GqaFitResult memoized = fit_gqa_lut(quick_fit_config(true));
  expect_identical_fits(plain, memoized);
  // Elite re-injection alone guarantees recurring genomes.
  EXPECT_GT(memoized.ga.cache_hits, 0);
  EXPECT_EQ(plain.ga.cache_hits, 0);
  EXPECT_EQ(memoized.ga.evaluations, plain.ga.evaluations);
}

TEST(GaMemo, TableOnePresetHitCountsPinned) {
  // Table 1's GELU preset (Np = 50, T = 500) scores ~650 distinct genomes;
  // every other evaluation is a memo hit. A key change that silently stops
  // hitting shows up here as a wrong count, not only as a slowdown.
  const GqaFitResult fit = fit_gqa_lut(
      GqaConfig::preset(Op::kGelu, 8, MutationKind::kRoundingMutation));
  EXPECT_EQ(fit.ga.evaluations, 25000);
  EXPECT_EQ(fit.ga.cache_hits, 24353);
}

// ------------------------------------------------------ sort-free repair --

/// repair_breakpoints before its is_sorted guard: it sorted unconditionally.
void repair_always_sorting(Genome& genome, double lo, double hi,
                           double min_separation) {
  std::sort(genome.begin(), genome.end());
  const std::size_t n = genome.size();
  if (n == 0) return;
  for (double& p : genome) p = std::clamp(p, lo, hi);
  for (std::size_t i = 1; i < n; ++i) {
    genome[i] = std::max(genome[i], genome[i - 1] + min_separation);
  }
  genome[n - 1] = std::min(genome[n - 1], hi);
  for (std::size_t i = n - 1; i > 0; --i) {
    genome[i - 1] = std::min(genome[i - 1], genome[i] - min_separation);
  }
  genome[0] = std::max(genome[0], lo);
}

TEST(RepairBreakpoints, SortFreeRepairBitIdenticalToAlwaysSorting) {
  // The one input where the two can differ: a sorted genome longer than
  // std::sort's 16-element insertion-sort cutoff that holds both -0.0 and
  // +0.0. They compare equal, so introsort may swap them while the guarded
  // repair leaves them in place. No operator produces it: Rounding Mutation
  // snaps through an integer, and uniform init and Gaussian steps cannot
  // yield -0.0. So signed zeros are drawn only for genomes of <= 16.
  const double lo = -4.0;
  const double hi = 4.0;
  Rng rng(0x5EB7);
  int sorted_long = 0;
  int unsorted_long = 0;
  for (int trial = 0; trial < 840; ++trial) {
    const auto n = static_cast<std::size_t>(trial % 21);  // 0..20
    const int kind = (trial / 21) % 4;
    if (kind == 3 && n > 16) continue;
    Genome g(n);
    for (double& p : g) {
      switch (kind) {
        case 0:  // continuous, partly outside [lo, hi]
          p = rng.uniform(-6.0, 6.0);
          break;
        case 1:  // quarter grid: repeats and gaps below the separation
          p = 0.25 * static_cast<double>(
                         static_cast<int>(rng.index(49)) - 24);
          break;
        case 2:  // one tight cluster, gaps far below the separation
          p = 1.5 + 1e-3 * rng.uniform(-1.0, 1.0);
          break;
        default:  // signed zeros among small repeats
          p = std::array<double, 4>{-0.0, 0.0, -0.5, 0.5}[rng.index(4)];
          break;
      }
    }
    const bool sort_first = (trial / 84) % 2 == 1;
    if (sort_first) std::sort(g.begin(), g.end());
    if (n > 16 && std::is_sorted(g.begin(), g.end())) ++sorted_long;
    if (n > 16 && !std::is_sorted(g.begin(), g.end())) ++unsorted_long;
    for (double min_separation : {0.0, 0.01, 0.3}) {
      Genome expected = g;
      Genome actual = g;
      repair_always_sorting(expected, lo, hi, min_separation);
      repair_breakpoints(actual, lo, hi, min_separation);
      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_TRUE(actual.empty() ||
                  std::memcmp(actual.data(), expected.data(),
                              actual.size() * sizeof(double)) == 0)
          << "trial " << trial << " kind " << kind << " n " << n
          << " min_separation " << min_separation;
    }
  }
  EXPECT_GT(sorted_long, 0);
  EXPECT_GT(unsorted_long, 0);
}

// -------------------------------------------- prefix-sum objective check --

TEST(ObjectivePrefixSum, MatchesNaiveScanAcrossRandomGenomes) {
  const OpInfo& info = op_info(Op::kGelu);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 1, 2, 3, 4, 5, 6});

  Rng rng(0xFEED);
  for (int trial = 0; trial < 64; ++trial) {
    Genome g(7);
    for (double& p : g) p = rng.uniform(info.range_lo, info.range_hi);
    repair_breakpoints(g, info.range_lo, info.range_hi, 0.01);

    const std::vector<double> fast = objective.per_scale_mse(g);
    const std::vector<double> naive = objective.per_scale_mse_naive(g);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      // The closed-form SSE is algebraically exact; only double rounding
      // differs from the sequential scan.
      EXPECT_NEAR(fast[i], naive[i], 1e-9 * std::max(1.0, naive[i]))
          << "trial=" << trial << " scale index " << i;
    }
  }
}

TEST(ObjectivePrefixSum, HandlesCollapsedAndBoundaryBreakpoints) {
  const OpInfo& info = op_info(Op::kExp);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 2, 4, 6});

  // Breakpoints that quantize onto the same code at coarse scales, plus
  // breakpoints pinned to the range edges.
  const std::vector<Genome> genomes = {
      {-7.99, -7.9, -7.8, -0.2, -0.1, -0.05, -0.01},
      {-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, -0.5},
      {-7.5, -7.49, -7.48, -7.47, -7.46, -7.45, -7.44},
  };
  for (const Genome& g : genomes) {
    const std::vector<double> fast = objective.per_scale_mse(g);
    const std::vector<double> naive = objective.per_scale_mse_naive(g);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-9 * std::max(1.0, naive[i]));
    }
  }
}

TEST(ObjectivePrefixSum, OperatorAveragesPerScale) {
  const OpInfo& info = op_info(Op::kGelu);
  const FitGrid grid = FitGrid::make(info.f, info.range_lo, info.range_hi);
  const QuantAwareObjective objective(grid, 5, {0, 3, 6});
  const Genome g = {-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0};
  const std::vector<double> per = objective.per_scale_mse(g);
  double mean = 0.0;
  for (double m : per) mean += m;
  mean /= static_cast<double>(per.size());
  EXPECT_DOUBLE_EQ(objective(g), mean);
}

// ------------------------------------------------- batched kernel checks --

PwlTable gelu_like_table() {
  PwlTable t;
  t.breakpoints = {-2.75, -1.5, -0.75, -0.25, 0.25, 1.0, 2.0};
  t.slopes = {0.0, -0.0625, 0.03125, 0.34375, 0.65625, 0.96875, 1.03125, 1.0};
  t.intercepts = {0.0, -0.15625, 0.0, 0.21875, 0.0, -0.09375, -0.15625, 0.0};
  return t;
}

TEST(BatchedKernel, EvalCodesBitIdenticalOverFullInputRange) {
  for (int scale_exp : {0, -2, -4, -6}) {
    const QuantParams input{std::ldexp(1.0, scale_exp), 8, true};
    const QuantizedPwlTable qt =
        quantize_table(gelu_like_table(), input, 5, 8);
    const IntPwlUnit unit(qt);

    std::vector<std::int64_t> codes;
    for (std::int64_t q = -128; q <= 127; ++q) codes.push_back(q);
    std::vector<std::int64_t> batch(codes.size());
    std::vector<double> batch_real(codes.size());
    unit.eval_codes(codes, batch);
    unit.eval_reals_from_codes(codes, batch_real);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], unit.eval_code(codes[i]))
          << "q=" << codes[i] << " S=2^" << scale_exp;
      EXPECT_EQ(batch_real[i], unit.eval_real_from_code(codes[i]));
    }
  }
}

TEST(BatchedKernel, SixteenBitBusUsesDenseTableBitIdentically) {
  const QuantParams input{std::ldexp(1.0, -8), 16, true};
  IntPwlUnitConfig cfg;
  cfg.acc_bits = 32;
  const QuantizedPwlTable qt = quantize_table(gelu_like_table(), input, 5, 8);
  const IntPwlUnit unit(qt, cfg);
  std::vector<std::int64_t> codes;
  for (std::int64_t q = -32768; q <= 32767; q += 7) codes.push_back(q);
  std::vector<std::int64_t> batch(codes.size());
  unit.eval_codes(codes, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], unit.eval_code(codes[i])) << "q=" << codes[i];
  }
}

TEST(BatchedKernel, EvalCodesEnforcesBusWidthAndSizes) {
  const QuantParams input{0.25, 8, true};
  const IntPwlUnit unit(quantize_table(gelu_like_table(), input, 5, 8));
  std::vector<std::int64_t> codes = {0, 128};
  std::vector<std::int64_t> out(2);
  EXPECT_THROW(unit.eval_codes(codes, out), ContractViolation);
  std::vector<std::int64_t> short_out(1);
  codes = {0, 1};
  EXPECT_THROW(unit.eval_codes(codes, short_out), ContractViolation);
}

TEST(BatchedKernel, MultiRangeBatchBitIdentical) {
  for (Op op : {Op::kDiv, Op::kRsqrt}) {
    const Approximator approx = Approximator::fit(op, Method::kGqaNoRm, {});
    const MultiRangeUnit unit = approx.make_multirange_unit();
    std::vector<std::int64_t> codes;
    for (std::int64_t c = 1 << 12; c <= (1 << 24); c += 100003) {
      codes.push_back(c);
    }
    std::vector<double> batch(codes.size());
    unit.eval_fxp_batch(codes, 16, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], unit.eval_fxp(codes[i], 16))
          << op_info(op).name << " code=" << codes[i];
    }
  }
}

// ---------------------------------------------- provider batched parity --

TEST(ProviderBatch, ActivationBatchesBitIdenticalToScalar) {
  const auto provider = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kGelu, Op::kExp});

  std::vector<std::int64_t> codes;
  for (std::int64_t q = -160; q <= 160; ++q) codes.push_back(q);  // saturates
  std::vector<double> batch(codes.size());
  for (int sx : {0, -3, -6}) {
    provider.gelu_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.gelu_code(codes[i], sx));
    }
    provider.exp_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.exp_code(codes[i], sx));
    }
    // HSWISH is not replaced -> exact backend path must agree too.
    provider.hswish_codes(codes, sx, batch);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(batch[i], provider.hswish_code(codes[i], sx));
    }
  }
}

TEST(ProviderBatch, WideRangeBatchesBitIdenticalToScalar) {
  const auto provider = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kDiv, Op::kRsqrt});
  std::vector<std::int64_t> codes;
  for (std::int64_t c = 1; c <= (1 << 22); c = c * 3 + 1) codes.push_back(c);
  std::vector<double> batch(codes.size());
  provider.recip_fxp_batch(codes, 16, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], provider.recip_fxp(codes[i], 16));
  }
  provider.rsqrt_fxp_batch(codes, 16, batch);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(batch[i], provider.rsqrt_fxp(codes[i], 16));
  }

  std::vector<std::int64_t> bad = {0};
  std::vector<double> out(1);
  EXPECT_THROW(provider.recip_fxp_batch(bad, 16, out), ContractViolation);
  EXPECT_THROW(provider.rsqrt_fxp_batch(bad, 16, out), ContractViolation);
}

// ------------------------------------------- provider concurrency safety --

int test_threads() {
  return static_cast<int>(env_int("GQA_TEST_THREADS", 4));
}

/// Fitted once; copies start with cold unit caches (caches are per-copy
/// deployment artifacts, only the fitted tables are shared state).
const tfm::NonlinearProvider& gelu_rsqrt_master() {
  static const auto master = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kGelu, Op::kRsqrt});
  return master;
}

// Regression test for the lazy unit-cache data race: before the caches were
// guarded, the first concurrent gelu_codes/rsqrt_fxp_batch calls on a fresh
// provider raced to insert into the mutable std::maps. Run under
// TSan/ASan CI to keep the fix enforced; mismatch counting doubles as a
// functional check (gtest assertions stay on the main thread).
TEST(ProviderConcurrency, ColdCacheHammerBitIdenticalToSerial) {
  const int lanes = std::max(2, test_threads());
  std::vector<std::int64_t> act_codes;
  for (std::int64_t q = -140; q <= 140; ++q) act_codes.push_back(q);
  std::vector<std::int64_t> wide_codes;
  for (std::int64_t c = 1; c <= (1 << 20); c = c * 5 + 3) wide_codes.push_back(c);
  const std::vector<int> exps = {0, -2, -4, -6};

  // Serial reference from an independent cold copy.
  const tfm::NonlinearProvider ref = gelu_rsqrt_master();
  std::map<int, std::vector<double>> ref_act;
  for (int e : exps) {
    ref_act[e].resize(act_codes.size());
    ref.gelu_codes(act_codes, e, ref_act[e]);
  }
  std::vector<double> ref_wide(wide_codes.size());
  ref.rsqrt_fxp_batch(wide_codes, 16, ref_wide);

  for (int round = 0; round < 3; ++round) {
    const tfm::NonlinearProvider provider = gelu_rsqrt_master();  // cold
    std::atomic<long> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(lanes));
    for (int t = 0; t < lanes; ++t) {
      workers.emplace_back([&] {
        std::vector<double> act(act_codes.size());
        std::vector<double> wide(wide_codes.size());
        for (int rep = 0; rep < 4; ++rep) {
          for (int e : exps) {
            provider.gelu_codes(act_codes, e, act);
            for (std::size_t i = 0; i < act.size(); ++i) {
              if (act[i] != ref_act[e][i]) ++mismatches;
            }
          }
          provider.rsqrt_fxp_batch(wide_codes, 16, wide);
          for (std::size_t i = 0; i < wide.size(); ++i) {
            if (wide[i] != ref_wide[i]) ++mismatches;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

TEST(ProviderConcurrency, WarmUpRacesEvaluationSafely) {
  // warm_up publishes snapshots atomically, so it may run while other
  // threads evaluate — hammer exactly that interleaving.
  std::vector<std::int64_t> act_codes;
  for (std::int64_t q = -128; q <= 127; ++q) act_codes.push_back(q);
  const std::vector<int> exps = {0, -1, -2, -3, -4, -5, -6};
  const tfm::NonlinearProvider ref = gelu_rsqrt_master();
  std::map<int, std::vector<double>> ref_act;
  for (int e : exps) {
    ref_act[e].resize(act_codes.size());
    ref.gelu_codes(act_codes, e, ref_act[e]);
  }

  const tfm::NonlinearProvider provider = gelu_rsqrt_master();  // cold
  std::atomic<long> mismatches{0};
  std::atomic<bool> stop{false};
  std::thread warmer([&] {
    while (!stop.load()) {
      for (int e : exps) provider.warm_up({Op::kGelu, Op::kRsqrt}, {e});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < std::max(2, test_threads() - 1); ++t) {
    readers.emplace_back([&] {
      std::vector<double> act(act_codes.size());
      for (int rep = 0; rep < 8; ++rep) {
        for (int e : exps) {
          provider.gelu_codes(act_codes, e, act);
          for (std::size_t i = 0; i < act.size(); ++i) {
            if (act[i] != ref_act[e][i]) ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  warmer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ProviderConcurrency, WarmedUpProviderServesLockFreeTier) {
  const tfm::NonlinearProvider provider = gelu_rsqrt_master();
  const std::vector<int> exps = {0, -3, -6};
  provider.warm_up({Op::kGelu, Op::kRsqrt}, exps);
  // warm_up on replaced ops must change nothing observable...
  std::vector<std::int64_t> codes = {-128, -5, 0, 7, 127};
  std::vector<double> warmed(codes.size()), cold(codes.size());
  const tfm::NonlinearProvider fresh = gelu_rsqrt_master();
  for (int e : exps) {
    provider.gelu_codes(codes, e, warmed);
    fresh.gelu_codes(codes, e, cold);
    EXPECT_EQ(warmed, cold) << "exp " << e;
  }
  // ...including ops it does not replace (warm_up skips them) and scales
  // outside the warmed set (served by the guarded overflow tier).
  provider.warm_up({Op::kExp, Op::kDiv}, exps);
  provider.gelu_codes(codes, -8, warmed);
  fresh.gelu_codes(codes, -8, cold);
  EXPECT_EQ(warmed, cold);
}

// ------------------------------------------------- kernel backend parity --

Rng eq_rng() { return Rng(0x7EAD); }

/// One full-replacement provider shared by the equivalence tests (fitting
/// all five ops once keeps the suite fast).
const tfm::NonlinearProvider& full_provider() {
  static const auto p = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  return p;
}

/// Runs `forward()` under the scalar oracle and then under every runnable
/// registered backend, asserting byte-identical results.
template <typename Fn>
void expect_backend_invariant(const Fn& forward, const char* what) {
  const auto reference = [&] {
    kernel::BackendScope scope("scalar");
    return forward();
  }();
  for (const kernel::KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    kernel::BackendScope scope(backend->name);
    const auto got = forward();
    ASSERT_EQ(reference.shape(), got.shape()) << what;
    EXPECT_EQ(reference.data(), got.data())
        << what << " diverges under kernel backend " << backend->name;
  }
}

TEST(KernelBackendParity, LinearForwardBitIdenticalUnderEveryBackend) {
  Rng rng = eq_rng();
  // Row counts cover every tail of the 4-row tile (a lone row through
  // 3 full tiles plus one), output counts every tail of the 16-output panel
  // (1, 15, 17, 31, 33) next to whole panels, and in_features odd and even
  // k (the odd-k zero pad) from 1 to the patch-embed's 147.
  for (const int in : {1, 2, 3, 27, 33, 147}) {
    for (const int out : {1, 15, 16, 17, 31, 32, 33}) {
      tfm::Linear lin(in, out, rng);
      tfm::Tensor calib = tfm::Tensor::randn(tfm::Shape{13, in}, rng, 1.0);
      (void)lin.calibrate(calib);
      const QuantParams in_qp{calib.amax() / 127.0, 8, true};
      (void)lin.freeze(in_qp, tfm::QuantPolicy{});
      for (const int rows : {1, 2, 3, 4, 5, 7, 8, 9, 13}) {
        tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{rows, in}, rng, 1.0);
        const tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
        const std::string what = "Linear int rows=" + std::to_string(rows) +
                                 " in=" + std::to_string(in) +
                                 " out=" + std::to_string(out);
        expect_backend_invariant([&] { return lin.forward_int(qx); },
                                 what.c_str());
      }
    }
  }

  // One code too wide for int16 sends its row (row 6, inside the tile of
  // rows 4-7) to the int64 loop, while the other rows keep the int16 tile.
  {
    tfm::Linear lin(33, 17, rng);
    tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{13, 33}, rng, 1.0);
    (void)lin.calibrate(x);
    const QuantParams in_qp{x.amax() / 127.0, 8, true};
    (void)lin.freeze(in_qp, tfm::QuantPolicy{});
    tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
    qx.at(6, 10) = 1 << 20;
    expect_backend_invariant([&] { return lin.forward_int(qx); },
                             "Linear int with one 1<<20 code");
  }

  // A 16-bit input bus with in_features 1024: a row keeps the int16 tile
  // only while every |code| <= INT32_MAX / (1024·128) = 16383. Output 0
  // has full-scale weights (codes ±127), so a row of 32767-magnitude codes
  // matching their signs sums past INT32_MAX and is exact only on the
  // int64 path.
  {
    constexpr int kIn = 1024;
    tfm::Linear lin(kIn, 5, rng);
    for (int k = 0; k < kIn; ++k) {
      lin.weights().at(0, k) = k % 3 == 0 ? -1.0F : 1.0F;
    }
    tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{6, kIn}, rng, 1.0);
    for (int k = 0; k < kIn; ++k) {  // rows 0-1 stay inside the bound
      x.at(0, k) *= 0.25F;
      x.at(1, k) *= 0.25F;
    }
    (void)lin.calibrate(x);
    const QuantParams in_qp{x.amax() / 32767.0, 16, true};
    (void)lin.freeze(in_qp, tfm::QuantPolicy{});
    tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
    for (int k = 0; k < kIn; ++k) {
      const std::int32_t sign = k % 3 == 0 ? -1 : 1;
      qx.at(2, k) = sign * 16383;  // at the bound: int16 tile, still exact
      qx.at(3, k) = sign * 16384;  // one past it: int64 loop
      qx.at(4, k) = sign * 32767;  // int32 would wrap: int64 loop
    }
    expect_backend_invariant([&] { return lin.forward_int(qx); },
                             "Linear int on a 16-bit bus, in=1024");
  }

  // Biases near ±2^30 tighten the int32 bound to max|bias| + k·|a|·128 ≤
  // INT32_MAX: with k = 1024 a row keeps the int16 tile only while every
  // |code| <= (INT32_MAX − 2^30) / (1024·128) = 8191. A 16383 row passes
  // the bias-free bound, yet its biased sum on output 0 (bias +2^30, weights
  // matching the codes' signs) is past INT32_MAX: exact only in int64.
  {
    constexpr int kIn = 1024;
    tfm::Linear lin(kIn, 6, rng);
    for (int k = 0; k < kIn; ++k) {
      lin.weights().at(0, k) = k % 3 == 0 ? -1.0F : 1.0F;
    }
    for (int o = 0; o < 6; ++o) {
      // ±1e4 over an accumulator scale of ~1e-6 saturates quantize_bias to
      // the 31-bit bus: 2^30 − 1 and −2^30.
      lin.bias().at(o) = o % 2 == 0 ? 1e4F : -1e4F;
    }
    tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{7, kIn}, rng, 1.0);
    for (int k = 0; k < kIn; ++k) x.at(0, k) *= 0.2F;  // row 0 stays inside
    (void)lin.calibrate(x);
    const QuantParams in_qp{x.amax() / 32767.0, 16, true};
    (void)lin.freeze(in_qp, tfm::QuantPolicy{});
    tfm::QTensor qx = tfm::QTensor::quantize(x, in_qp);
    for (int k = 0; k < kIn; ++k) {
      const std::int32_t sign = k % 3 == 0 ? -1 : 1;
      qx.at(1, k) = sign * 8191;    // at the biased bound: int16 tile
      qx.at(2, k) = sign * 8192;    // one past it: int64 loop
      qx.at(3, k) = sign * 16383;   // biased sum wraps int32: int64 loop
      qx.at(4, k) = -sign * 16383;  // the same on the negative side
    }
    expect_backend_invariant([&] { return lin.forward_int(qx); },
                             "Linear int with biases near +-2^30");
  }
}

struct ConvCase {
  int in_ch, out_ch, kernel, stride, pad;
  bool depthwise;
  int h, w;
};

/// Builds `c` with seeded weights, calibrates and freezes it on a seeded
/// input, and checks its integer forward under every backend — once
/// without a workspace and once through `ws`, which hands the lowering
/// scratch buffers earlier cases left dirty.
void expect_conv_backend_invariant(const ConvCase& c, Rng& rng,
                                   tfm::Workspace& ws) {
  tfm::Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng,
                   c.depthwise);
  tfm::Tensor x =
      tfm::Tensor::randn(tfm::Shape{c.in_ch, c.h, c.w}, rng, 1.0);
  (void)conv.calibrate(x);
  const QuantParams qp{x.amax() / 127.0, 8, true};
  (void)conv.freeze(qp, tfm::QuantPolicy{});
  const tfm::QTensor qx = tfm::QTensor::quantize(x, qp);
  const std::string what =
      std::string(c.depthwise ? "depthwise" : "dense") + " Conv2d int in=" +
      std::to_string(c.in_ch) + " out=" + std::to_string(c.out_ch) +
      " k=" + std::to_string(c.kernel) + " s=" + std::to_string(c.stride) +
      " p=" + std::to_string(c.pad) + " " + std::to_string(c.h) + "x" +
      std::to_string(c.w);
  expect_backend_invariant([&] { return conv.forward_int(qx); },
                           what.c_str());
  expect_backend_invariant([&] { return conv.forward_int(qx, &ws); },
                           what.c_str());
}

/// Every Conv2d shape of the default SegformerB0Like and EfficientViTB0Like
/// (the serving models), derived from their configs.
std::vector<ConvCase> default_model_convs() {
  std::vector<ConvCase> cases;
  const tfm::SegformerConfig seg;
  int side = seg.image_size;
  int in_ch = seg.in_channels;
  for (std::size_t s = 0; s < 4; ++s) {
    const int dim = seg.dims[s];
    if (s == 0) {
      cases.push_back({in_ch, dim, 7, 4, 3, false, side, side});
      side /= 4;
    } else {
      cases.push_back({in_ch, dim, 3, 2, 1, false, side, side});
      side /= 2;
    }
    const int sr = seg.sr_ratios[s];
    if (sr > 1) cases.push_back({dim, dim, sr, sr, 0, false, side, side});
    const int hidden = dim * seg.mlp_ratio;
    cases.push_back({hidden, hidden, 3, 1, 1, true, side, side});
    in_ch = dim;
  }
  const tfm::EfficientViTConfig ev;
  const auto& w = ev.widths;
  side = ev.image_size;
  cases.push_back({ev.in_channels, w[0], 3, 2, 1, false, side, side});
  side /= 2;
  // MbConv: 1x1 expand, 3x3 depthwise (block stride), 1x1 project.
  auto mbconv = [&](int in, int out, int stride) {
    const int hidden = in * ev.expand;
    cases.push_back({in, hidden, 1, 1, 0, false, side, side});
    cases.push_back({hidden, hidden, 3, stride, 1, true, side, side});
    side /= stride;
    cases.push_back({hidden, out, 1, 1, 0, false, side, side});
  };
  mbconv(w[0], w[1], 2);
  mbconv(w[1], w[2], 2);
  mbconv(w[2], w[2], 1);  // stage 3 (and the EViT-3 FFN, same shape)
  mbconv(w[2], w[3], 2);
  mbconv(w[3], w[3], 1);  // EViT-4 FFN
  side *= 2;              // multi-scale head runs at H/8
  cases.push_back({w[2] + w[3], ev.head_dim, 1, 1, 0, false, side, side});
  cases.push_back({ev.head_dim, ev.num_classes, 1, 1, 0, false, side, side});
  return cases;
}

TEST(KernelBackendParity, ConvForwardsBitIdenticalUnderEveryBackend) {
  Rng rng = eq_rng();
  tfm::Workspace ws;
  // Seeded sweep over the lowering's edge cases: kernels 1-7, strides 1-4,
  // padding 0..k (wider than the kernel's reach included), odd H != W, and
  // channel counts that are not multiples of 4 or 8, so GEMM output tails,
  // im2col zero rows and empty depthwise tap ranges all occur.
  const std::vector<int> channels = {1, 2, 3, 5, 6, 7, 9, 13};
  for (int trial = 0; trial < 120; ++trial) {
    ConvCase c;
    c.kernel = static_cast<int>(rng.uniform_int(1, 7));
    c.stride = static_cast<int>(rng.uniform_int(1, 4));
    c.pad = static_cast<int>(rng.uniform_int(0, c.kernel));
    c.depthwise = trial % 2 == 1;
    c.in_ch = channels[rng.index(channels.size())];
    c.out_ch = c.depthwise ? c.in_ch : channels[rng.index(channels.size())];
    const int min_side = std::max(1, c.kernel - 2 * c.pad);
    c.h = (min_side + static_cast<int>(rng.uniform_int(0, 10))) | 1;
    c.w = (min_side + static_cast<int>(rng.uniform_int(0, 10))) | 1;
    if (c.w == c.h) c.w += 2;
    expect_conv_backend_invariant(c, rng, ws);
  }
  for (const ConvCase& c : default_model_convs()) {
    expect_conv_backend_invariant(c, rng, ws);
  }
  // 1x1, stride-1, unpadded convs read their input in place (row p of the
  // GEMM is pixel p, strided by H·W). H·W = 35 and 9 leave a 3- and
  // 1-pixel tail tile; the channel counts are odd on both sides.
  for (const int in_ch : {1, 3, 17, 33}) {
    for (const int out_ch : {1, 15, 17, 33}) {
      expect_conv_backend_invariant({in_ch, out_ch, 1, 1, 0, false, 5, 7},
                                    rng, ws);
      expect_conv_backend_invariant({in_ch, out_ch, 1, 1, 0, false, 3, 3},
                                    rng, ws);
    }
  }
  // One out-of-bound code sends its pixel (inside the tile of pixels
  // 8-11) down the int64 loop, which reads the input with the same
  // H·W stride.
  {
    tfm::Conv2d conv(13, 17, 1, 1, 0, rng);
    tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{13, 5, 7}, rng, 1.0);
    (void)conv.calibrate(x);
    const QuantParams qp{x.amax() / 127.0, 8, true};
    (void)conv.freeze(qp, tfm::QuantPolicy{});
    tfm::QTensor qx = tfm::QTensor::quantize(x, qp);
    qx.at(6, 1, 2) = 1 << 20;
    expect_backend_invariant([&] { return conv.forward_int(qx, &ws); },
                             "1x1 Conv2d int with one 1<<20 code");
  }

  // A depthwise call whose input breaks the int32 plane bound (|bias| +
  // 9·max|x|·128 > INT32_MAX) runs the scalar loop as a whole. One 1<<21
  // code alone breaks it; a 3x3 patch of them under channel 0's full-scale
  // (+127) weights also sums past INT32_MAX, which an int32 plane would
  // wrap.
  {
    tfm::Conv2d conv(6, 6, 3, 1, 1, rng, /*depthwise=*/true);
    for (int ky = 0; ky < 3; ++ky) {
      for (int kx = 0; kx < 3; ++kx) conv.weights().at(0, 0, ky, kx) = 10.0F;
    }
    tfm::Tensor x = tfm::Tensor::randn(tfm::Shape{6, 9, 11}, rng, 1.0);
    (void)conv.calibrate(x);
    const QuantParams qp{x.amax() / 127.0, 8, true};
    (void)conv.freeze(qp, tfm::QuantPolicy{});
    tfm::QTensor qx = tfm::QTensor::quantize(x, qp);
    qx.at(3, 4, 5) = 1 << 21;
    expect_backend_invariant([&] { return conv.forward_int(qx, &ws); },
                             "depthwise Conv2d int with one 1<<21 code");
    for (int y = 3; y <= 5; ++y) {
      for (int xx = 6; xx <= 8; ++xx) qx.at(0, y, xx) = 1 << 21;
    }
    expect_backend_invariant([&] { return conv.forward_int(qx, &ws); },
                             "depthwise Conv2d int summing past INT32_MAX");
  }
}

TEST(KernelBackendParity, LayerNormAndSoftmaxBitIdenticalUnderEveryBackend) {
  Rng rng = eq_rng();
  // dim=33: row sums end in a vector tail; 32, 64, 160 and 256 are
  // SegFormer's stage widths.
  for (const int dim : {33, 32, 64, 160, 256}) {
    tfm::LayerNorm ln(dim, rng);
    tfm::Tensor xl = tfm::Tensor::randn(tfm::Shape{11, dim}, rng, 1.5);
    (void)ln.calibrate(xl);
    const QuantParams ln_qp{xl.amax() / 127.0, 8, true};
    (void)ln.freeze(ln_qp, tfm::QuantPolicy{});
    const tfm::QTensor qxl = tfm::QTensor::quantize(xl, ln_qp);
    const std::string what = "LayerNorm int dim=" + std::to_string(dim);
    expect_backend_invariant(
        [&] { return ln.forward_int(qxl, full_provider()); }, what.c_str());
  }

  tfm::Tensor xs = tfm::Tensor::randn(tfm::Shape{9, 13}, rng, 2.0);
  const QuantParams sm_qp = make_po2_params(xs.amax() / 127.0, 8);
  const tfm::QTensor qxs = tfm::QTensor::quantize(xs, sm_qp);
  expect_backend_invariant(
      [&] { return tfm::Softmax::forward_int(qxs, full_provider()); },
      "Softmax int");
}

/// Activation::forward_int's per-element epilogue before the code table:
/// int64 staging, one batched provider call, then out_qp.quantize.
std::vector<std::int32_t> activation_reference(
    Op op, const tfm::NonlinearProvider& nl, int sx, const QuantParams& out_qp,
    const std::vector<std::int32_t>& x) {
  std::vector<std::int64_t> codes(x.size());
  std::vector<double> vals(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) codes[i] = x[i];
  if (op == Op::kGelu) {
    nl.gelu_codes(codes, sx, vals);
  } else {
    nl.hswish_codes(codes, sx, vals);
  }
  std::vector<std::int32_t> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = static_cast<std::int32_t>(out_qp.quantize(vals[i]));
  }
  return y;
}

TEST(KernelBackendParity, ActivationCodeTableMatchesPerElementEpilogue) {
  Rng rng = eq_rng();
  const auto exact = tfm::NonlinearProvider::exact();
  const auto exp_only =
      tfm::NonlinearProvider::with_method(Method::kGqaRm, {Op::kExp});
  const std::pair<const char*, const tfm::NonlinearProvider*> providers[] = {
      {"exact", &exact},
      {"GQA-RM replacing the op", &full_provider()},
      {"GQA-RM replacing EXP only", &exp_only}};
  // The 20-bit bus has no table and takes the per-element loop.
  const std::pair<int, bool> buses[] = {
      {8, true}, {8, false}, {4, true}, {16, true}, {20, true}};
  for (const Op op : {Op::kGelu, Op::kHswish}) {
    for (const auto& [bits, is_signed] : buses) {
      // Codes span about ±8 whatever the width.
      const QuantParams in_qp{std::ldexp(1.0, 4 - bits), bits, is_signed};
      tfm::Activation act(op);
      (void)act.calibrate(tfm::Tensor::randn(tfm::Shape{256}, rng, 3.0));
      (void)act.freeze(in_qp, tfm::QuantPolicy{});
      // Every bus code, then INT32_MIN, INT32_MAX, lo − 1 and hi + 1.
      const BusBounds bus = bus_bounds(bits, is_signed);
      const auto span = static_cast<std::size_t>(bus.hi - bus.lo + 1);
      std::vector<std::int32_t> seq;
      for (std::int64_t q = bus.lo; q <= bus.hi; ++q) {
        seq.push_back(static_cast<std::int32_t>(q));
      }
      for (const std::int64_t q :
           {std::int64_t{std::numeric_limits<std::int32_t>::min()},
            std::int64_t{std::numeric_limits<std::int32_t>::max()},
            bus.lo - 1, bus.hi + 1}) {
        seq.push_back(static_cast<std::int32_t>(q));
      }
      for (const auto& [name, nl] : providers) {
        const QuantParams out_qp =
            act.forward_int(tfm::QTensor(tfm::Shape{1}, in_qp), *nl).params();
        const std::vector<std::int32_t> want =
            activation_reference(op, *nl, in_qp.po2_exponent(), out_qp, seq);
        for (const std::size_t size : {std::size_t{1}, span - 1, span,
                                       3 * span + 7}) {
          // Tensors smaller than the bus also start at the off-bus codes,
          // so they meet both the lookup alone and the patch pass.
          for (const std::size_t start : {std::size_t{0}, span}) {
            if (start != 0 && size >= span) continue;
            tfm::QTensor x(tfm::Shape{static_cast<int>(size)}, in_qp);
            for (std::size_t i = 0; i < size; ++i) {
              x.data()[i] = seq[(start + i) % seq.size()];
            }
            for (const kernel::KernelBackend* backend : kernel::registry()) {
              if (!kernel::backend_available(*backend)) continue;
              kernel::BackendScope scope(backend->name);
              const tfm::QTensor got = act.forward_int(x, *nl);
              for (std::size_t i = 0; i < size; ++i) {
                ASSERT_EQ(want[(start + i) % seq.size()], got.data()[i])
                    << op_info(op).name << " " << name << " "
                    << in_qp.to_string() << " size=" << size
                    << " start=" << start << " code=" << x.data()[i]
                    << " backend=" << backend->name;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelBackendParity, ResidualAddSaturatesBothEndsUnderEveryBackend) {
  Rng rng = eq_rng();
  // Calibrated on nearly cancelling operands, the output scale is far
  // finer than either input's, so same-signed operand codes saturate the
  // sum (and each requantized operand) at both ends of the bus. 37x13
  // elements end in a vector tail.
  tfm::Tensor a = tfm::Tensor::randn(tfm::Shape{37, 13}, rng, 1.0);
  tfm::Tensor b = a;
  for (float& v : b.data()) v = -v * 0.9F;
  tfm::ResidualAdd add;
  (void)add.calibrate(a, b);
  const QuantParams a_qp{a.amax() / 127.0, 8, true};
  const QuantParams b_qp{b.amax() / 127.0, 8, true};
  (void)add.freeze(a_qp, b_qp, tfm::QuantPolicy{});
  tfm::QTensor qa = tfm::QTensor::quantize(a, a_qp);
  tfm::QTensor qb = tfm::QTensor::quantize(a, b_qp);  // same signs as qa
  qa.at(0, 0) = 127;
  qb.at(0, 0) = 127;
  qa.at(36, 12) = -128;
  qb.at(36, 12) = -128;
  tfm::Workspace ws;
  const tfm::QTensor reference = [&] {
    kernel::BackendScope scope("scalar");
    return add.forward_int(qa, qb, &ws);
  }();
  const auto& codes = reference.data();
  ASSERT_NE(std::find(codes.begin(), codes.end(), reference.params().qmax()),
            codes.end());
  ASSERT_NE(std::find(codes.begin(), codes.end(), reference.params().qmin()),
            codes.end());
  expect_backend_invariant([&] { return add.forward_int(qa, qb); },
                           "ResidualAdd int saturating at both ends");
  expect_backend_invariant([&] { return add.forward_int(qa, qb, &ws); },
                           "ResidualAdd int through a workspace");
}

TEST(ThreadedSweep, ScaleSweepBitIdenticalToSerial) {
  const Approximator approx = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  SweepOptions serial_opts;
  const ScaleSweepResult serial = sweep_scale_mse(approx, serial_opts);
  SweepOptions threaded_opts;
  threaded_opts.num_threads = 4;
  ThreadPool external(4);
  SweepOptions pooled_opts;
  pooled_opts.pool = &external;  // caller-owned pool, no per-sweep spawn
  for (const SweepOptions& opts : {threaded_opts, pooled_opts}) {
    const ScaleSweepResult threaded = sweep_scale_mse(approx, opts);
    ASSERT_EQ(serial.points.size(), threaded.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(serial.points[i].exponent, threaded.points[i].exponent);
      EXPECT_EQ(serial.points[i].mse, threaded.points[i].mse);
      EXPECT_EQ(serial.points[i].samples, threaded.points[i].samples);
    }
  }
}

}  // namespace
}  // namespace gqa
