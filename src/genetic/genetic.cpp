#include "genetic/genetic.h"

#include <limits>
#include <utility>

#include "util/contracts.h"

namespace gqa {

GeneticOptimizer::GeneticOptimizer(GaConfig config) : config_(config) {
  GQA_EXPECTS(config_.population_size >= 2);
  GQA_EXPECTS(config_.generations >= 1);
  GQA_EXPECTS(config_.crossover_prob >= 0.0 && config_.crossover_prob <= 1.0);
  GQA_EXPECTS(config_.mutation_prob >= 0.0 && config_.mutation_prob <= 1.0);
  GQA_EXPECTS(config_.tournament_size >= 1 &&
              config_.tournament_size <= config_.population_size);
  GQA_EXPECTS(config_.elite_count >= 0 &&
              config_.elite_count < config_.population_size);
}

void GeneticOptimizer::segment_swap_crossover(Genome& a, Genome& b, Rng& rng) {
  GQA_EXPECTS(a.size() == b.size());
  if (a.empty()) return;
  const std::size_t n = a.size();
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  for (std::size_t i = lo; i <= hi; ++i) std::swap(a[i], b[i]);
}

GaResult GeneticOptimizer::run(const InitFn& init, const FitnessFn& fitness,
                               const MutateFn& mutate, const RepairFn& repair,
                               const PopulationHook& hook) const {
  GQA_EXPECTS_MSG(init != nullptr, "GA needs an initializer");
  GQA_EXPECTS_MSG(fitness != nullptr, "GA needs a fitness function");
  GQA_EXPECTS_MSG(mutate != nullptr, "GA needs a mutation operator");

  Rng rng(config_.seed);
  const auto pop_size = static_cast<std::size_t>(config_.population_size);

  std::vector<Genome> population;
  population.reserve(pop_size);
  for (std::size_t i = 0; i < pop_size; ++i) {
    Genome g = init(rng);
    if (repair) repair(g);
    population.push_back(std::move(g));
  }

  GaResult result;
  result.best_fitness = std::numeric_limits<double>::infinity();
  result.history.reserve(static_cast<std::size_t>(config_.generations));

  // Every per-generation buffer is allocated here, once per run. Selection
  // copy-assigns its winners into `next`, reusing each genome's capacity,
  // and swaps the two populations.
  std::vector<Genome> next = population;
  std::vector<double> scores(pop_size);
  // Memo across generations: elites are re-injected verbatim and tournament
  // winners duplicate, so identical byte patterns recur often. `slots`
  // points each individual at its memo entry; entries survive rehashing.
  GenomeTable<double> memo;
  std::vector<double*> slots(pop_size);
  std::vector<std::size_t> fresh;  // first-time genomes, the ones scored
  fresh.reserve(pop_size);

  const auto evaluate_population = [&] {
    fresh.clear();
    if (!config_.memoize_fitness) {
      for (std::size_t i = 0; i < pop_size; ++i) {
        fresh.push_back(i);
        scores[i] = fitness(population[i]);
      }
    } else {
      // One hash per genome; only a miss copies it into the memo, with a
      // placeholder score so a duplicate later in this generation hits.
      for (std::size_t i = 0; i < pop_size; ++i) {
        const auto [it, inserted] = memo.try_emplace(population[i], 0.0);
        slots[i] = &it->second;
        if (inserted) {
          fresh.push_back(i);
        } else {
          ++result.cache_hits;
        }
      }
      for (std::size_t i : fresh) *slots[i] = fitness(population[i]);
      for (std::size_t i = 0; i < pop_size; ++i) scores[i] = *slots[i];
    }
    result.evaluations += static_cast<std::int64_t>(pop_size);
  };

  for (int gen = 0; gen < config_.generations; ++gen) {
    // Genetic operators (Alg. 1 lines 9-16): each individual may cross with
    // a random partner and may mutate.
    for (std::size_t i = 0; i < pop_size; ++i) {
      if (rng.canonical() < config_.crossover_prob) {
        std::size_t j = rng.index(pop_size - 1);
        if (j >= i) ++j;  // uniform over population \ {i}
        segment_swap_crossover(population[i], population[j], rng);
        if (repair) {
          repair(population[i]);
          repair(population[j]);
        }
      }
      if (rng.canonical() < config_.mutation_prob) {
        mutate(population[i], rng);
        if (repair) repair(population[i]);
      }
    }

    // Evaluation. Track the generation's best index and copy the genome at
    // most once per generation instead of on every improvement.
    evaluate_population();
    std::size_t gen_best = 0;
    for (std::size_t i = 1; i < pop_size; ++i) {
      if (scores[i] < scores[gen_best]) gen_best = i;
    }
    if (scores[gen_best] < result.best_fitness) {
      result.best_fitness = scores[gen_best];
      result.best = population[gen_best];
    }
    result.history.push_back(result.best_fitness);
    if (hook) hook(gen, population, scores, fresh);

    // Tournament selection (Alg. 1 line 18) into the next generation, with
    // the global elite re-injected so progress is never lost.
    std::size_t filled = 0;
    for (int e = 0; e < config_.elite_count; ++e) next[filled++] = result.best;
    for (; filled < pop_size; ++filled) {
      std::size_t winner = rng.index(pop_size);
      for (int t = 1; t < config_.tournament_size; ++t) {
        const std::size_t challenger = rng.index(pop_size);
        if (scores[challenger] < scores[winner]) winner = challenger;
      }
      next[filled] = population[winner];
    }
    population.swap(next);
  }

  GQA_ENSURES(!result.best.empty() || config_.generations == 0);
  return result;
}

}  // namespace gqa
