// GQA-LUT (Algorithm 1): genetic search over breakpoint sets with
// quantization-aware fixed-point conversion. This is the paper's primary
// contribution; see rounding_mutation.h for the RM extension (Algorithm 2).
#pragma once

#include <string>

#include "genetic/genetic.h"
#include "gqa/objective.h"
#include "gqa/rounding_mutation.h"
#include "numerics/nonlinear.h"
#include "pwl/fit_grid.h"
#include "pwl/pwl_table.h"

namespace gqa {

/// Which mutation operator drives the search.
enum class MutationKind {
  kGaussian,          ///< GQA-LUT w/o RM (normal noise, §3.2)
  kRoundingMutation,  ///< GQA-LUT w/ RM (Algorithm 2)
};

[[nodiscard]] std::string mutation_kind_name(MutationKind kind);

/// Full configuration of one GQA-LUT fit. Defaults follow Table 1's common
/// row (Nb = 7 ⇒ 8 entries, Np = 50, θc = 0.7, θm = 0.2, T = 500, λ = 5).
struct GqaConfig {
  Op op = Op::kGelu;
  double range_lo = -4.0;  ///< Rn
  double range_hi = 4.0;   ///< Rp
  int entries = 8;         ///< N (breakpoint count Nb = N-1)
  int lambda = 5;          ///< decimal bits of slopes/intercepts
  double grid_step = 0.01; ///< fitness grid step (Table 1 "data size")
  MutationKind mutation = MutationKind::kRoundingMutation;
  RmParams rm;             ///< used when mutation == kRoundingMutation
  double gaussian_sigma_frac = 0.05;  ///< sigma = frac * (Rp - Rn) for w/o RM
  /// GA loop settings; every GQA fitness variant is pure, so score
  /// memoization is safe and on by default here.
  GaConfig ga = {.memoize_fitness = true};
  FitStrategy fit_strategy = FitStrategy::kLeastSquares;
  double min_separation = 0.01;  ///< repair: minimum breakpoint spacing
  /// GA fitness variants (see DESIGN.md §5 for the interpretation note):
  ///  * kFxpAware (default): MSE of the candidate pwl after the λ-bit FXP
  ///    conversion of slopes/intercepts (Alg. 1 line 22) — quantization-
  ///    aware in (k, b), blind to the deployment scale.
  ///  * kFp32: plain FP32 MSE (Algorithm 1 read literally; ablation).
  ///  * kDeployedMean: mean Eq.-3-deployed MSE across all deployment
  ///    scales (oracle ablation).
  enum class Fitness { kFxpAware, kFp32, kDeployedMean };
  Fitness fitness = Fitness::kFxpAware;
  /// Input code width for the deployed-MSE objective (Eq. 3 clipping);
  /// 16 matches the paper's W16A16 hardware row.
  int input_bits = 8;
  /// Benchmark/ablation knob: score deployed MSE with the seed's O(codes)
  /// per-code scan instead of the prefix-sum closed form. Same results up
  /// to double rounding, dramatically slower on fine deployment grids.
  bool use_naive_objective = false;
  /// Deployment breakpoint grids 2^-s for which evolution archives its best
  /// candidate (the per-scale champions used at deployment). Presets use
  /// s = 0..6 (the paper's scale sweep S = 2^0..2^-6) for scale-dependent
  /// ops and s = λ for the fixed-point-input ops DIV/RSQRT (Table 2).
  std::vector<int> deployment_scale_exps = {0, 1, 2, 3, 4, 5, 6};
  /// Whether deployment uses the per-scale champion archive. Preset: true
  /// for Rounding Mutation (whose grid-snapped candidates make the
  /// population a multi-precision pool — "born to handle data with
  /// changeful precision"), false for the Gaussian variant, which deploys
  /// the single fitness-best table (the "straightforward" flow whose
  /// breakpoint deviation Fig. 2 analyses). Flip for ablations.
  bool per_scale_champions = true;

  [[nodiscard]] int breakpoint_count() const { return entries - 1; }

  /// Table 1 preset for (op, entries, mutation kind). `entries` must be 8 or
  /// 16 for the RM mutate-range presets; other sizes inherit the 8-entry RM
  /// range.
  [[nodiscard]] static GqaConfig preset(Op op, int entries,
                                        MutationKind mutation);

  void validate() const;
};

/// Deployment-ready champion archived for one breakpoint grid 2^-s. The
/// Rounding-Mutation population keeps injecting grid-snapped candidates, so
/// for every deployment scale the archive holds an individual whose
/// quantized breakpoints deviate little — the mechanism behind the paper's
/// "RM is born to handle data with changeful precision".
struct ScaleCandidate {
  int scale_exp = 0;          ///< s, deployment scale S = 2^-s
  Genome breakpoints;         ///< unquantized champion breakpoints
  double deployed_mse = 0.0;  ///< Eq.-3-deployed MSE at this scale
  PwlTable fxp_table;         ///< λ-rounded table built from the champion
};

/// Outcome of a fit: the FP-domain table, the λ-rounded FXP table
/// (Alg. 1 line 22), their grid MSEs, the GA trace, and the per-scale
/// champion archive.
struct GqaFitResult {
  GqaConfig config;
  PwlTable fp_table;
  PwlTable fxp_table;
  double fp_mse = 0.0;
  double fxp_mse = 0.0;
  GaResult ga;
  std::vector<ScaleCandidate> per_scale;

  /// Champion for a deployment scale, or nullptr when s was not archived.
  [[nodiscard]] const ScaleCandidate* candidate_for(int scale_exp) const;
  /// Champion table for s, falling back to the fitness-best fxp_table.
  [[nodiscard]] const PwlTable& table_for_scale(int scale_exp) const;
};

/// Runs Algorithm 1 end to end.
[[nodiscard]] GqaFitResult fit_gqa_lut(const GqaConfig& config);

/// The same fit over the grid and objective the one-argument overload
/// builds from `config`, so restarts that differ only in `ga.seed` share
/// one build.
[[nodiscard]] GqaFitResult fit_gqa_lut(const GqaConfig& config,
                                       const FitGrid& grid,
                                       const QuantAwareObjective& objective);

/// Repair operator shared with tests: clip into (Rn, Rp), sort, and enforce
/// minimum separation.
void repair_breakpoints(Genome& genome, double lo, double hi,
                        double min_separation);

}  // namespace gqa
