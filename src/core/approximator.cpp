#include "core/approximator.h"

#include <cstdio>
#include <limits>

#include "pwl/serialize.h"
#include "util/contracts.h"
#include "util/json.h"

namespace gqa {

std::string method_name(Method method) {
  switch (method) {
    case Method::kNnLut: return "NN-LUT";
    case Method::kGqaNoRm: return "GQA-LUT w/o RM";
    case Method::kGqaRm: return "GQA-LUT w/ RM";
  }
  return "?";
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> methods = {Method::kNnLut, Method::kGqaNoRm,
                                              Method::kGqaRm};
  return methods;
}

namespace {

std::uint64_t derive_seed(Op op, Method method, const FitOptions& options) {
  if (options.seed != 0) return options.seed;
  // Stable seed so every bench reproduces the same tables.
  return 0x9E3779B97F4A7C15ULL ^
         (static_cast<std::uint64_t>(op) << 16) ^
         (static_cast<std::uint64_t>(method) << 8) ^
         static_cast<std::uint64_t>(options.entries);
}

/// Bump when the fitting pipeline's numerics change (GA operators, NN-LUT
/// training, λ-rounding): cached artifacts keyed under the old version
/// stop matching, so a stale cache can never mask a fitter change.
constexpr int kFitCodeVersion = 1;

std::string double_repr(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return std::string(buf);
}

}  // namespace

ArtifactKey Approximator::cache_key(Op op, Method method,
                                    const FitOptions& options, int input_bits,
                                    const std::vector<int>& scale_exps) {
  // Canonical, space-free encoding of every fit() input plus the
  // deployment shape (bus width, scale grid) the artifact serves.
  std::string id = "op=" + op_info(op).name;
  id += ";m=" + std::to_string(static_cast<int>(method));
  id += ";e=" + std::to_string(options.entries);
  id += ";l=" + std::to_string(options.lambda);
  id += ";s=" + std::to_string(options.seed);
  id += ";r=" + std::to_string(options.ga_restarts);
  id += ";g=" + (options.ga_generations ? std::to_string(*options.ga_generations)
                                        : std::string("auto"));
  id += ";ep=" + (options.nn_epochs ? std::to_string(*options.nn_epochs)
                                    : std::string("auto"));
  id += ";lo=" + (options.range_lo ? double_repr(*options.range_lo)
                                   : std::string("auto"));
  id += ";hi=" + (options.range_hi ? double_repr(*options.range_hi)
                                   : std::string("auto"));
  id += ";fs=" + std::to_string(static_cast<int>(options.fit_strategy));
  id += ";bus=" + std::to_string(input_bits);
  id += ";grid=";
  for (std::size_t i = 0; i < scale_exps.size(); ++i) {
    if (i > 0) id += "_";
    id += std::to_string(scale_exps[i]);
  }
  return ArtifactKey{"approximator", std::move(id), kFitCodeVersion};
}

Approximator Approximator::fit_cached(Op op, Method method,
                                      const FitOptions& options,
                                      const ArtifactStore* store,
                                      int input_bits,
                                      const std::vector<int>& scale_exps) {
  if (store != nullptr) {
    const ArtifactKey key =
        cache_key(op, method, options, input_bits, scale_exps);
    if (const std::optional<std::string> payload = store->load(key)) {
      try {
        Approximator approx = from_json(Json::parse(*payload));
        if (approx.op_ == op && approx.method_ == method) return approx;
      } catch (const std::exception&) {
        // Checksum passed but the payload does not decode (schema drift
        // within one format version — a bug, not disk rot). Fall through
        // to the refit; the publish below overwrites the bad artifact.
      }
    }
    Approximator approx = fit(op, method, options);
    try {
      store->publish(key, approx.to_json().dump());
    } catch (const std::exception&) {
      // A failed publish (I/O error, injected cache_write fault) costs
      // only the next cold fit — never the request.
    }
    return approx;
  }
  return fit(op, method, options);
}

Approximator Approximator::fit(Op op, Method method,
                               const FitOptions& options) {
  GQA_EXPECTS(options.entries >= 2);
  GQA_EXPECTS(options.ga_restarts >= 1);

  Approximator approx;
  approx.op_ = op;
  approx.method_ = method;
  approx.lambda_ = options.lambda;
  const std::uint64_t seed = derive_seed(op, method, options);

  if (method == Method::kNnLut) {
    NnLutConfig cfg = NnLutConfig::preset(op, options.entries);
    cfg.lambda = options.lambda;
    cfg.seed = seed;
    if (options.nn_epochs) cfg.epochs = *options.nn_epochs;
    if (options.range_lo) cfg.range_lo = *options.range_lo;
    if (options.range_hi) cfg.range_hi = *options.range_hi;
    const NnLutFitResult result = fit_nn_lut(cfg);
    approx.fp_table_ = result.fp_table;
    approx.fxp_table_ = result.fxp_table;
    return approx;
  }

  const MutationKind kind = method == Method::kGqaRm
                                ? MutationKind::kRoundingMutation
                                : MutationKind::kGaussian;
  GqaConfig cfg = GqaConfig::preset(op, options.entries, kind);
  cfg.lambda = options.lambda;
  cfg.fit_strategy = options.fit_strategy;
  if (options.ga_generations) cfg.ga.generations = *options.ga_generations;
  if (options.range_lo) cfg.range_lo = *options.range_lo;
  if (options.range_hi) cfg.range_hi = *options.range_hi;

  // Restarts differ only in the GA seed, so they share grid and objective.
  cfg.validate();
  const FitGrid grid = FitGrid::make(op_info(op).f, cfg.range_lo,
                                     cfg.range_hi, cfg.grid_step);
  const QuantAwareObjective objective(grid, cfg.lambda,
                                      cfg.deployment_scale_exps,
                                      cfg.input_bits);
  double best_fitness = std::numeric_limits<double>::infinity();
  std::map<int, double> best_deployed;
  for (int r = 0; r < options.ga_restarts; ++r) {
    cfg.ga.seed = seed + static_cast<std::uint64_t>(r) * 0x51D;
    const GqaFitResult result = fit_gqa_lut(cfg, grid, objective);
    if (result.ga.best_fitness < best_fitness) {
      best_fitness = result.ga.best_fitness;
      approx.fp_table_ = result.fp_table;
      approx.fxp_table_ = result.fxp_table;
    }
    // Merge per-scale champion archives across restarts.
    for (const ScaleCandidate& cand : result.per_scale) {
      const auto it = best_deployed.find(cand.scale_exp);
      if (it == best_deployed.end() || cand.deployed_mse < it->second) {
        best_deployed[cand.scale_exp] = cand.deployed_mse;
        approx.scale_tables_[cand.scale_exp] = cand.fxp_table;
      }
    }
  }
  return approx;
}

const PwlTable& Approximator::table_for_scale(int scale_exp) const {
  const auto it = scale_tables_.find(scale_exp);
  return it != scale_tables_.end() ? it->second : fxp_table_;
}

Approximator Approximator::from_table(Op op, Method method, PwlTable fxp_table,
                                      int lambda) {
  fxp_table.validate();
  Approximator approx;
  approx.op_ = op;
  approx.method_ = method;
  approx.lambda_ = lambda;
  approx.fp_table_ = fxp_table;
  approx.fxp_table_ = std::move(fxp_table);
  return approx;
}

QuantizedPwlTable Approximator::quantized(const QuantParams& input,
                                          int param_bits) const {
  // Deployment grid exponent s from S = 2^-s.
  const int s = -input.po2_exponent();
  return quantize_table(table_for_scale(s), input, lambda_, param_bits);
}

IntPwlUnit Approximator::make_unit(int scale_exp, int input_bits,
                                   int param_bits) const {
  const QuantParams input{std::ldexp(1.0, scale_exp), input_bits, true};
  return IntPwlUnit(quantized(input, param_bits));
}

MultiRangeUnit Approximator::make_multirange_unit(
    int input_bits, int param_bits,
    std::optional<MultiRangeConfig> config) const {
  const MultiRangeConfig range =
      config ? *config : MultiRangeConfig::preset_for(op_);
  const QuantParams input{std::ldexp(1.0, -lambda_), input_bits, true};
  return MultiRangeUnit(quantized(input, param_bits), range);
}

Json Approximator::to_json() const {
  Json j = Json::object();
  j["op"] = Json(op_info(op_).name);
  j["method"] = Json(static_cast<int>(method_));
  j["lambda"] = Json(lambda_);
  j["fp_table"] = pwl_to_json(fp_table_);
  j["fxp_table"] = pwl_to_json(fxp_table_);
  Json scales = Json::array();
  for (const auto& [exp, table] : scale_tables_) {
    Json entry = Json::object();
    entry["scale_exp"] = Json(exp);
    entry["table"] = pwl_to_json(table);
    scales.push_back(std::move(entry));
  }
  j["scale_tables"] = std::move(scales);
  return j;
}

Approximator Approximator::from_json(const Json& j) {
  Approximator approx;
  approx.op_ = op_from_name(j.at("op").as_string());
  approx.method_ = static_cast<Method>(j.at("method").as_int());
  approx.lambda_ = static_cast<int>(j.at("lambda").as_int());
  approx.fp_table_ = pwl_from_json(j.at("fp_table"));
  approx.fxp_table_ = pwl_from_json(j.at("fxp_table"));
  if (j.contains("scale_tables")) {
    const Json& scales = j.at("scale_tables");
    for (std::size_t i = 0; i < scales.size(); ++i) {
      const Json& entry = scales.at(i);
      approx.scale_tables_[static_cast<int>(entry.at("scale_exp").as_int())] =
          pwl_from_json(entry.at("table"));
    }
  }
  return approx;
}

void Approximator::save(const std::string& path) const {
  // Atomic publish: a crash mid-save must not leave a truncated document
  // that only fails at next load.
  write_file_atomic(path, to_json().dump());
}

Approximator Approximator::load(const std::string& path) {
  return from_json(Json::parse(read_file(path)));
}

}  // namespace gqa
