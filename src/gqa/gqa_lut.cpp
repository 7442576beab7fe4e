#include "gqa/gqa_lut.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "gqa/objective.h"
#include "util/contracts.h"

namespace gqa {

std::string mutation_kind_name(MutationKind kind) {
  switch (kind) {
    case MutationKind::kGaussian: return "GQA-LUT w/o RM";
    case MutationKind::kRoundingMutation: return "GQA-LUT w/ RM";
  }
  return "?";
}

GqaConfig GqaConfig::preset(Op op, int entries, MutationKind mutation) {
  GqaConfig cfg;
  cfg.op = op;
  const OpInfo& info = op_info(op);
  cfg.range_lo = info.range_lo;
  cfg.range_hi = info.range_hi;
  cfg.entries = entries;
  cfg.mutation = mutation;
  cfg.per_scale_champions = mutation == MutationKind::kRoundingMutation;

  // Table 1: per-operator θr and mutate ranges [ma, mb] for 8/16 entries.
  switch (op) {
    case Op::kGelu:
      cfg.rm = entries >= 16 ? RmParams{0.05, 0, 6} : RmParams{0.05, 0, 6};
      break;
    case Op::kHswish:
      cfg.rm = entries >= 16 ? RmParams{0.05, 2, 6} : RmParams{0.05, 0, 6};
      break;
    case Op::kExp:
      cfg.rm = entries >= 16 ? RmParams{0.05, 0, 6} : RmParams{0.05, 2, 6};
      break;
    case Op::kDiv:
    case Op::kRsqrt:
      cfg.rm = RmParams{0.0, 0, 6};  // θr = 0 disables RM mutation
      // FXP-input operators deploy breakpoints on the λ-frac grid
      // (Table 2), not on activation-scale grids.
      cfg.deployment_scale_exps = {cfg.lambda};
      break;
    default:
      cfg.rm = RmParams{0.05, 0, 6};  // extension ops inherit GELU's setting
      break;
  }
  return cfg;
}

void GqaConfig::validate() const {
  GQA_EXPECTS_MSG(range_lo < range_hi, "search range must be non-empty");
  GQA_EXPECTS_MSG(entries >= 2, "pwl needs at least two entries");
  GQA_EXPECTS_MSG(lambda >= 0 && lambda <= 16, "lambda out of range");
  GQA_EXPECTS_MSG(grid_step > 0.0, "grid step must be positive");
  GQA_EXPECTS_MSG(min_separation >= 0.0, "separation must be non-negative");
  GQA_EXPECTS_MSG(input_bits >= 4 && input_bits <= 32,
                  "objective input width out of range");
  GQA_EXPECTS_MSG(
      static_cast<double>(entries) * min_separation < range_hi - range_lo,
      "too many entries for the range at this separation");
}

void repair_breakpoints(Genome& genome, double lo, double hi,
                        double min_separation) {
  // Both mutation operators sort last, and a crossover whose swapped
  // segment fits its new neighbours stays sorted; on sorted input std::sort
  // would move nothing but still cost a pass.
  if (!std::is_sorted(genome.begin(), genome.end())) {
    std::sort(genome.begin(), genome.end());
  }
  const std::size_t n = genome.size();
  if (n == 0) return;
  // Clip into the open interval, then sweep forward enforcing separation;
  // a backward sweep fixes any overflow past the upper bound.
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

GqaFitResult fit_gqa_lut(const GqaConfig& config) {
  config.validate();
  const FitGrid grid = FitGrid::make(op_info(config.op).f, config.range_lo,
                                     config.range_hi, config.grid_step);
  const QuantAwareObjective objective(grid, config.lambda,
                                      config.deployment_scale_exps,
                                      config.input_bits);
  return fit_gqa_lut(config, grid, objective);
}

GqaFitResult fit_gqa_lut(const GqaConfig& config, const FitGrid& grid,
                         const QuantAwareObjective& objective) {
  config.validate();
  const auto nb = static_cast<std::size_t>(config.breakpoint_count());
  const InitFn init = [&config, nb](Rng& rng) {
    Genome g(nb);
    for (double& p : g) p = rng.uniform(config.range_lo, config.range_hi);
    std::sort(g.begin(), g.end());
    return g;
  };

  const auto deployed_per_scale = [&config, &objective](const Genome& g) {
    return config.use_naive_objective ? objective.per_scale_mse_naive(g)
                                      : objective.per_scale_mse(g);
  };

  // When the deployed mean is both the fitness and the champion criterion,
  // the fitness pass stashes its per-scale vector for the hook to consume,
  // so no genome's objective is ever computed twice in one generation. The
  // naive-objective ablation stays unshared: the seed path it emulates
  // recomputed too.
  const bool share_per_scale =
      config.per_scale_champions &&
      config.fitness == GqaConfig::Fitness::kDeployedMean &&
      !config.use_naive_objective;
  GenomeTable<std::vector<double>> per_scale_stash;

  FitnessFn fitness;
  switch (config.fitness) {
    case GqaConfig::Fitness::kFxpAware:
      fitness = [&grid, &config](const Genome& g) {
        return grid.fitness_fxp(g, config.lambda);
      };
      break;
    case GqaConfig::Fitness::kFp32:
      fitness = [&grid](const Genome& g) { return grid.fitness(g); };
      break;
    case GqaConfig::Fitness::kDeployedMean:
      fitness = [&deployed_per_scale, &per_scale_stash,
                 share_per_scale](const Genome& g) {
        std::vector<double> mses = deployed_per_scale(g);
        double total = 0.0;
        for (double m : mses) total += m;
        const double mean = total / static_cast<double>(mses.size());
        if (share_per_scale) per_scale_stash.try_emplace(g, std::move(mses));
        return mean;
      };
      break;
  }

  MutateFn mutate;
  if (config.mutation == MutationKind::kRoundingMutation) {
    mutate = make_rounding_mutation(config.rm);
  } else {
    const double sigma =
        config.gaussian_sigma_frac * (config.range_hi - config.range_lo);
    mutate = make_gaussian_mutation(sigma);
  }

  const RepairFn repair = [&config](Genome& g) {
    repair_breakpoints(g, config.range_lo, config.range_hi,
                       config.min_separation);
  };

  // Champion archive: for every deployment grid keep the individual whose
  // Eq.-3-deployed MSE is lowest across the whole evolution, not just the
  // final generation (freshly snapped candidates rarely survive selection
  // but are exactly what deployment at that grid needs).
  const std::vector<int>& exps = config.deployment_scale_exps;
  std::vector<ScaleCandidate> archive(exps.size());
  for (std::size_t i = 0; i < exps.size(); ++i) {
    archive[i].scale_exp = exps[i];
    archive[i].deployed_mse = std::numeric_limits<double>::infinity();
  }
  PopulationHook hook;
  if (config.per_scale_champions) {
    // Only first-time genomes (`fresh`) can improve the archive: a repeat's
    // per-scale MSEs are unchanged and the archive only improves on strict
    // <. With memoization off `fresh` lists every index, so that knob still
    // selects the seed path for benchmarking.
    hook = [&archive, &deployed_per_scale, &per_scale_stash, share_per_scale](
               int, const std::vector<Genome>& population,
               const std::vector<double>&, std::span<const std::size_t> fresh) {
      for (std::size_t idx : fresh) {
        const Genome& g = population[idx];
        std::vector<double> mses;
        if (share_per_scale) {
          if (auto node = per_scale_stash.extract(g)) {
            mses = std::move(node.mapped());
          }
        }
        if (mses.empty()) mses = deployed_per_scale(g);
        for (std::size_t i = 0; i < archive.size(); ++i) {
          if (mses[i] < archive[i].deployed_mse) {
            archive[i].deployed_mse = mses[i];
            archive[i].breakpoints = g;
          }
        }
      }
    };
  }

  GqaFitResult result;
  result.config = config;
  result.ga =
      GeneticOptimizer(config.ga).run(init, fitness, mutate, repair, hook);

  result.fp_table = grid.fit_table(result.ga.best, config.fit_strategy);
  result.fp_table.validate();
  result.fp_mse = grid.mse_of(result.fp_table);
  result.fxp_table = result.fp_table.rounded_to_fxp(config.lambda);
  result.fxp_mse = grid.mse_of(result.fxp_table);

  if (config.per_scale_champions) {
    for (ScaleCandidate& cand : archive) {
      GQA_ASSERT(!cand.breakpoints.empty());
      cand.fxp_table = grid.fit_table(cand.breakpoints, config.fit_strategy)
                           .rounded_to_fxp(config.lambda);
      result.per_scale.push_back(std::move(cand));
    }
  }

  GQA_ENSURES(result.fp_table.entries() == config.entries);
  return result;
}

const ScaleCandidate* GqaFitResult::candidate_for(int scale_exp) const {
  for (const ScaleCandidate& cand : per_scale) {
    if (cand.scale_exp == scale_exp) return &cand;
  }
  return nullptr;
}

const PwlTable& GqaFitResult::table_for_scale(int scale_exp) const {
  const ScaleCandidate* cand = candidate_for(scale_exp);
  return cand != nullptr ? cand->fxp_table : fxp_table;
}

}  // namespace gqa
