// Microbenchmark (google-benchmark): wall-clock cost of fitting one
// operator with each method. Highlights the paper's data-budget claim:
// GQA-LUT needs only the 0.35-0.8K-point fitness grid while NN-LUT trains
// on 100K samples. The *_Seed* / *_Fast* pair and the objective micros
// quantify the fitness engine: prefix-sum deployed MSE and fitness
// memoization versus the seed's per-code scan.
#include <benchmark/benchmark.h>

#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "nnlut/nn_lut.h"
#include "util/rng.h"

namespace {

using namespace gqa;

void BM_Fit_GqaRm_Gelu(benchmark::State& state) {
  for (auto _ : state) {
    GqaConfig config = GqaConfig::preset(Op::kGelu, 8,
                                         MutationKind::kRoundingMutation);
    config.ga.seed = 0xF00;
    benchmark::DoNotOptimize(fit_gqa_lut(config).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaRm_Gelu)->Unit(benchmark::kMillisecond);

// Seed-vs-engine pairs: the seed path scores the deployed-mean objective
// with the per-code scan and without memoization; the engine path uses
// prefix sums + the fitness memo. INT8 uses the Table 1 activation grids;
// INT16 the W16A16 deployment grids, whose ~200x larger code lattice is
// where O(codes) -> O(segments) dominates.
GqaConfig engine_config(bool fast, int input_bits) {
  GqaConfig config = GqaConfig::preset(Op::kGelu, 8,
                                       MutationKind::kRoundingMutation);
  config.ga.seed = 0xF00;
  config.fitness = GqaConfig::Fitness::kDeployedMean;
  config.input_bits = input_bits;
  if (input_bits >= 16) {
    config.deployment_scale_exps = {8, 9, 10, 11, 12, 13, 14};
    config.ga.generations = 50;
  }
  config.use_naive_objective = !fast;
  config.ga.memoize_fitness = fast;
  return config;
}

void BM_Fit_GqaRm_Gelu_SeedSerial(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_gqa_lut(engine_config(false, 8)).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaRm_Gelu_SeedSerial)->Unit(benchmark::kMillisecond);

void BM_Fit_GqaRm_Gelu_Memo(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_gqa_lut(engine_config(true, 8)).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaRm_Gelu_Memo)->Unit(benchmark::kMillisecond);

void BM_Fit_GqaRm_Gelu_Int16_SeedSerial(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_gqa_lut(engine_config(false, 16)).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaRm_Gelu_Int16_SeedSerial)->Unit(benchmark::kMillisecond);

void BM_Fit_GqaRm_Gelu_Int16_Memo(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_gqa_lut(engine_config(true, 16)).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaRm_Gelu_Int16_Memo)->Unit(benchmark::kMillisecond);

// Objective micro: naive per-code scan vs prefix-sum closed form over the
// same deterministic genome stream.
struct ObjectiveFixture {
  FitGrid grid;
  QuantAwareObjective objective;
  std::vector<Genome> genomes;

  explicit ObjectiveFixture(int input_bits)
      : grid(FitGrid::make(op_info(Op::kGelu).f, -4.0, 4.0)),
        objective(grid, 5,
                  input_bits >= 16
                      ? std::vector<int>{8, 9, 10, 11, 12, 13, 14}
                      : std::vector<int>{0, 1, 2, 3, 4, 5, 6},
                  input_bits) {
    Rng rng(0x5EED);
    for (int i = 0; i < 64; ++i) {
      Genome g(7);
      for (double& p : g) p = rng.uniform(-4.0, 4.0);
      repair_breakpoints(g, -4.0, 4.0, 0.01);
      genomes.push_back(std::move(g));
    }
  }
};

const ObjectiveFixture& objective_fixture(int input_bits) {
  static const ObjectiveFixture fixture8(8);
  static const ObjectiveFixture fixture16(16);
  return input_bits >= 16 ? fixture16 : fixture8;
}

template <bool kNaive, int kBits>
void BM_Objective_PerScaleMse(benchmark::State& state) {
  const ObjectiveFixture& f = objective_fixture(kBits);
  std::size_t i = 0;
  for (auto _ : state) {
    const Genome& g = f.genomes[i % f.genomes.size()];
    if constexpr (kNaive) {
      benchmark::DoNotOptimize(f.objective.per_scale_mse_naive(g));
    } else {
      benchmark::DoNotOptimize(f.objective.per_scale_mse(g));
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Objective_PerScaleMse<true, 8>)->Name("BM_Objective_Naive_Int8");
BENCHMARK(BM_Objective_PerScaleMse<false, 8>)
    ->Name("BM_Objective_PrefixSum_Int8");
BENCHMARK(BM_Objective_PerScaleMse<true, 16>)
    ->Name("BM_Objective_Naive_Int16");
BENCHMARK(BM_Objective_PerScaleMse<false, 16>)
    ->Name("BM_Objective_PrefixSum_Int16");

void BM_Fit_GqaGaussian_Gelu(benchmark::State& state) {
  for (auto _ : state) {
    GqaConfig config = GqaConfig::preset(Op::kGelu, 8, MutationKind::kGaussian);
    config.ga.seed = 0xF00;
    benchmark::DoNotOptimize(fit_gqa_lut(config).fxp_mse);
  }
}
BENCHMARK(BM_Fit_GqaGaussian_Gelu)->Unit(benchmark::kMillisecond);

void BM_Fit_NnLut_Gelu(benchmark::State& state) {
  for (auto _ : state) {
    NnLutConfig config = NnLutConfig::preset(Op::kGelu, 8);
    config.seed = 0xF00;
    benchmark::DoNotOptimize(fit_nn_lut(config).fxp_mse);
  }
}
BENCHMARK(BM_Fit_NnLut_Gelu)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
