// Tests for the generic genetic optimizer: operator behaviour, determinism,
// elitist monotonicity, convergence on a known optimum, and the fitness
// memo's byte-exact keys and first-scored (`fresh`) hook contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <span>

#include "genetic/genetic.h"
#include "util/contracts.h"

namespace gqa {
namespace {

TEST(Crossover, SwapsASegmentAndPreservesUnion) {
  Genome a = {1, 2, 3, 4, 5};
  Genome b = {10, 20, 30, 40, 50};
  Rng rng(3);
  GeneticOptimizer::segment_swap_crossover(a, b, rng);
  // Every element still belongs to {original a} or {original b}, positionwise.
  int swapped = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool kept = a[i] == static_cast<double>(i + 1);
    const bool took = a[i] == static_cast<double>((i + 1) * 10);
    EXPECT_TRUE(kept || took);
    if (took) {
      EXPECT_DOUBLE_EQ(b[i], static_cast<double>(i + 1));
      ++swapped;
    }
  }
  EXPECT_GE(swapped, 1);  // a segment of length >= 1 always swaps
}

TEST(Crossover, MismatchedLengthsThrow) {
  Genome a = {1, 2};
  Genome b = {1, 2, 3};
  Rng rng(1);
  EXPECT_THROW(GeneticOptimizer::segment_swap_crossover(a, b, rng),
               ContractViolation);
}

TEST(GaConfig, Validation) {
  GaConfig bad;
  bad.population_size = 1;
  EXPECT_THROW(GeneticOptimizer{bad}, ContractViolation);
  bad = GaConfig{};
  bad.crossover_prob = 1.5;
  EXPECT_THROW(GeneticOptimizer{bad}, ContractViolation);
  bad = GaConfig{};
  bad.tournament_size = 100;
  EXPECT_THROW(GeneticOptimizer{bad}, ContractViolation);
  bad = GaConfig{};
  bad.elite_count = bad.population_size;
  EXPECT_THROW(GeneticOptimizer{bad}, ContractViolation);
}

GaConfig quick_config(std::uint64_t seed = 7) {
  GaConfig cfg;
  cfg.population_size = 20;
  cfg.generations = 60;
  cfg.seed = seed;
  return cfg;
}

/// Sphere function: optimum at (0.3, -0.7, 1.1).
double sphere(const Genome& g) {
  const double t0 = g[0] - 0.3;
  const double t1 = g[1] + 0.7;
  const double t2 = g[2] - 1.1;
  return t0 * t0 + t1 * t1 + t2 * t2;
}

GaResult run_sphere(const GaConfig& cfg) {
  const InitFn init = [](Rng& rng) {
    Genome g(3);
    for (double& v : g) v = rng.uniform(-5.0, 5.0);
    return g;
  };
  const MutateFn mutate = [](Genome& g, Rng& rng) {
    for (double& v : g) {
      if (rng.bernoulli(0.5)) v += rng.normal(0.0, 0.3);
    }
  };
  return GeneticOptimizer(cfg).run(init, sphere, mutate);
}

TEST(GeneticOptimizer, ConvergesOnSphere) {
  const GaResult result = run_sphere(quick_config());
  EXPECT_LT(result.best_fitness, 0.05);
  EXPECT_NEAR(result.best[0], 0.3, 0.3);
  EXPECT_NEAR(result.best[1], -0.7, 0.3);
  EXPECT_NEAR(result.best[2], 1.1, 0.3);
}

TEST(GeneticOptimizer, DeterministicPerSeed) {
  const GaResult a = run_sphere(quick_config(123));
  const GaResult b = run_sphere(quick_config(123));
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.history, b.history);
  const GaResult c = run_sphere(quick_config(124));
  EXPECT_NE(a.best, c.best);
}

TEST(GeneticOptimizer, BestFitnessMonotoneWithElitism) {
  const GaResult result = run_sphere(quick_config());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_EQ(result.evaluations, 20 * 60);
}

/// A genome's bit patterns: the identity the fitness memo keys on.
std::vector<std::uint64_t> bits_of(const Genome& g) {
  std::vector<std::uint64_t> bits(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(g[i]);
  }
  return bits;
}

TEST(GeneticOptimizer, HookObservesEveryGeneration) {
  const InitFn init = [](Rng& rng) {
    Genome g(3);
    for (double& v : g) v = rng.uniform(-1.0, 1.0);
    return g;
  };
  const MutateFn mutate = [](Genome& g, Rng& rng) {
    g[0] += rng.normal(0.0, 0.1);
  };
  for (const bool memoize : {false, true}) {
    SCOPED_TRACE(memoize ? "memoized" : "plain");
    GaConfig cfg = quick_config();
    cfg.memoize_fitness = memoize;
    int calls = 0;
    std::size_t pop_seen = 0;
    std::int64_t fresh_total = 0;
    std::set<std::vector<std::uint64_t>> scored;  // genomes listed fresh
    const PopulationHook hook = [&](int gen, const std::vector<Genome>& pop,
                                    const std::vector<double>& scores,
                                    std::span<const std::size_t> fresh) {
      EXPECT_EQ(gen, calls);
      EXPECT_EQ(pop.size(), scores.size());
      pop_seen = pop.size();
      ++calls;
      fresh_total += static_cast<std::int64_t>(fresh.size());
      EXPECT_EQ(std::adjacent_find(fresh.begin(), fresh.end(),
                                   std::greater_equal<>()),
                fresh.end())
          << "fresh indices not ascending in generation " << gen;
      if (!memoize) {
        ASSERT_EQ(fresh.size(), pop.size());
        for (std::size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(fresh[i], i);
        return;
      }
      for (const std::size_t i : fresh) {
        ASSERT_LT(i, pop.size());
        EXPECT_TRUE(scored.insert(bits_of(pop[i])).second)
            << "genome listed fresh twice, generation " << gen;
      }
      // Every individual was listed in this generation or an earlier one.
      for (const Genome& g : pop) EXPECT_EQ(scored.count(bits_of(g)), 1u);
    };
    const GaResult result =
        GeneticOptimizer(cfg).run(init, sphere, mutate, {}, hook);
    EXPECT_EQ(calls, cfg.generations);
    EXPECT_EQ(pop_seen, static_cast<std::size_t>(cfg.population_size));
    // Fresh genomes are exactly the memo's misses.
    EXPECT_EQ(fresh_total + result.cache_hits, result.evaluations);
    if (memoize) {
      EXPECT_GT(result.cache_hits, 0);
    }
  }
}

TEST(GeneticOptimizer, MemoKeysAreByteExact) {
  // {-0.0} and {+0.0} compare equal as doubles. A value-equality memo would
  // score one and hand its score to the other; the byte-keyed memo scores
  // each bit pattern exactly once.
  GaConfig cfg;
  cfg.population_size = 10;
  cfg.generations = 5;
  cfg.tournament_size = 1;  // random selection keeps both signs around
  cfg.memoize_fitness = true;
  int inits = 0;
  const InitFn init = [&inits](Rng&) {
    return Genome{inits++ % 2 == 0 ? -0.0 : 0.0};
  };
  const MutateFn mutate = [](Genome&, Rng&) {};
  int fitness_calls = 0;
  const FitnessFn fitness = [&fitness_calls](const Genome& g) {
    ++fitness_calls;
    return std::signbit(g[0]) ? 1.0 : 0.0;
  };
  std::set<std::uint64_t> patterns;
  const PopulationHook hook = [&](int, const std::vector<Genome>& pop,
                                  const std::vector<double>& scores,
                                  std::span<const std::size_t>) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      patterns.insert(std::bit_cast<std::uint64_t>(pop[i][0]));
      EXPECT_EQ(scores[i], std::signbit(pop[i][0]) ? 1.0 : 0.0);
    }
  };
  (void)GeneticOptimizer(cfg).run(init, fitness, mutate, {}, hook);
  EXPECT_EQ(patterns.size(), 2u);
  EXPECT_EQ(static_cast<std::size_t>(fitness_calls), patterns.size());
}

TEST(GeneticOptimizer, RepairEnforcedAfterOperators) {
  // Repair clamps genomes into [0, 1]; the result must respect it.
  GaConfig cfg = quick_config();
  const InitFn init = [](Rng& rng) {
    Genome g(2);
    for (double& v : g) v = rng.uniform(-10.0, 10.0);
    return g;
  };
  const MutateFn mutate = [](Genome& g, Rng& rng) {
    g[0] += rng.normal(0.0, 5.0);
  };
  const RepairFn repair = [](Genome& g) {
    for (double& v : g) v = std::clamp(v, 0.0, 1.0);
  };
  const FitnessFn fitness = [](const Genome& g) {
    return (g[0] - 2.0) * (g[0] - 2.0) + g[1] * g[1];  // pulls toward 2
  };
  const GaResult result = GeneticOptimizer(cfg).run(init, fitness, mutate, repair);
  EXPECT_LE(result.best[0], 1.0);
  EXPECT_GE(result.best[0], 0.0);
  EXPECT_NEAR(result.best[0], 1.0, 0.05);  // clamped optimum
}

TEST(GeneticOptimizer, MissingCallbacksThrow) {
  const GeneticOptimizer ga(quick_config());
  const InitFn init = [](Rng&) { return Genome{0.0}; };
  const MutateFn mutate = [](Genome&, Rng&) {};
  EXPECT_THROW((void)ga.run(nullptr, sphere, mutate), ContractViolation);
  EXPECT_THROW((void)ga.run(init, nullptr, mutate), ContractViolation);
  EXPECT_THROW((void)ga.run(init, sphere, nullptr), ContractViolation);
}

}  // namespace
}  // namespace gqa
