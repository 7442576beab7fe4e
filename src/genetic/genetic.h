// Generic real-coded genetic optimizer implementing the evolutionary loop of
// Algorithm 1: stochastic segment-swap crossover, pluggable mutation, 3-way
// tournament selection, and single-elite preservation so the best fitness is
// monotone non-increasing across generations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace gqa {

/// Hyperparameters of the evolutionary loop. Defaults match Table 1's
/// common settings (Np = 50, T = 500, θc = 0.7, θm = 0.2).
struct GaConfig {
  int population_size = 50;     ///< Np
  int generations = 500;        ///< T
  double crossover_prob = 0.7;  ///< θc
  double mutation_prob = 0.2;   ///< θm
  int tournament_size = 3;
  int elite_count = 1;          ///< individuals copied verbatim each round
  std::uint64_t seed = 0xC0FFEE;
  /// Cache scores by genome bytes so elite re-injections and tournament
  /// duplicates are never re-scored. Requires a pure fitness function, so
  /// the generic default is off; GqaConfig (whose objectives are pure)
  /// turns it on.
  bool memoize_fitness = false;
};

using Genome = std::vector<double>;

/// Hash of a genome's bytes (std::hash<std::string_view> over them). Not
/// noexcept on purpose: libstdc++'s unordered containers then cache each
/// node's hash code, so a stored genome is never re-hashed.
struct GenomeHash {
  std::size_t operator()(const Genome& genome) const {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(genome.data()),
        genome.size() * sizeof(double)));
  }
};

/// Byte equality: same length and identical bytes. -0.0 and +0.0 differ,
/// so a lookup never returns an entry stored under another bit pattern.
struct GenomeEqual {
  bool operator()(const Genome& a, const Genome& b) const noexcept {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  }
};

/// The one genome-keyed table: the GA's fitness memo and GQA-LUT's
/// deployed-mean stash. Lookups take a population genome directly; only an
/// insertion copies it.
template <typename T>
using GenomeTable = std::unordered_map<Genome, T, GenomeHash, GenomeEqual>;

/// Fitness: lower is better (the paper uses MSE).
using FitnessFn = std::function<double(const Genome&)>;
/// In-place mutation of one genome.
using MutateFn = std::function<void(Genome&, Rng&)>;
/// In-place constraint repair (sorting, clipping, separation).
using RepairFn = std::function<void(Genome&)>;
/// Creates one random genome.
using InitFn = std::function<Genome(Rng&)>;
/// Observation hook called once per generation after fitness evaluation,
/// before selection: (generation, population, scores, fresh). `fresh` lists,
/// in ascending order, the indices whose genome was scored for the first
/// time in the run — the memo's misses, or every index when memoization is
/// off. Used by GQA-LUT to archive deployment-ready candidates across the
/// whole evolution.
using PopulationHook = std::function<void(
    int, const std::vector<Genome>&, const std::vector<double>&,
    std::span<const std::size_t>)>;

struct GaResult {
  Genome best;
  double best_fitness = 0.0;
  std::vector<double> history;  ///< best-so-far fitness after each generation
  std::int64_t evaluations = 0; ///< genomes scored (cache hits included)
  std::int64_t cache_hits = 0;  ///< scores served from the memo cache
};

class GeneticOptimizer {
 public:
  explicit GeneticOptimizer(GaConfig config);

  /// Runs the evolutionary loop. All functions must be valid; `repair` may
  /// be empty when genomes are unconstrained.
  [[nodiscard]] GaResult run(const InitFn& init, const FitnessFn& fitness,
                             const MutateFn& mutate,
                             const RepairFn& repair = {},
                             const PopulationHook& hook = {}) const;

  /// Swaps a random contiguous segment between two genomes of equal length
  /// (Algorithm 1 line 12). Exposed for direct testing.
  static void segment_swap_crossover(Genome& a, Genome& b, Rng& rng);

  [[nodiscard]] const GaConfig& config() const { return config_; }

 private:
  GaConfig config_;
};

}  // namespace gqa
