// `fit_cold`: the offline path of the system. Every served op is fitted
// cold at both bus widths through Approximator::fit_cached against a fresh,
// empty ArtifactStore (a fit plus an atomic publish), then read back by a
// second fit_cached of the same key, which must return the same fit.
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/approximator.h"
#include "eval/protocol.h"
#include "tfm/nonlinear_provider.h"
#include "util/artifact_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct FitKey {
  gqa::Op op;
  int bits;
};

/// The served op set (the paper's five operators) at both bus widths.
std::vector<FitKey> served_keys() {
  std::vector<FitKey> keys;
  for (int bits : {8, 16}) {
    for (gqa::Op op : gqa::paper_ops()) keys.push_back({op, bits});
  }
  return keys;
}

/// GA seed sets: a fixed panel the rounds cycle through, starting at an
/// offset taken from the benchmark seed. fit_mse averages the whole panel,
/// so it repeats exactly from run to run and moves only when the fitting
/// code changes what it produces.
constexpr int kSeedSets = 8;
/// Set-up repetitions whose median is setup_s.
constexpr int kSetupReps = 15;

gqa::FitOptions fit_options(int seed_set) {
  gqa::FitOptions options;
  options.entries = 8;
  // Nonzero: 0 would fall back to the fixed (op, method)-derived seed.
  options.seed = 0xB0B0 + static_cast<std::uint64_t>(seed_set) * 7919;
  return options;
}

std::string store_dir(const Args& args, int round) {
  return args.scratch + "/store-" + std::to_string(getpid()) + "-" +
         std::to_string(round);
}

}  // namespace

void run_fit_cold(const Args& args, RunResult& result) {
  const std::vector<FitKey> keys = served_keys();
  const std::vector<int> scale_exps =
      gqa::tfm::NonlinearProvider::deployment_scale_exps();
  Tracer tracer(args.trace);

  // Set-up: a fresh store root, opened and scanned empty, plus each key's
  // fixed fit cost before evolution starts (presets, sampling grids,
  // initial population, table build) — measured as a one-generation fit.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string dir = store_dir(args, -1 - rep);
    const Clock::time_point t0 = Clock::now();
    fs::create_directories(dir);
    const gqa::ArtifactStore store(dir);
    result.check(store.verify_all(false).empty(), "fresh store not empty");
    gqa::FitOptions one_generation = fit_options(0);
    one_generation.ga_generations = 1;
    for (const FitKey& key : keys) {
      (void)gqa::Approximator::fit(key.op, gqa::Method::kGqaRm,
                                   one_generation);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    fs::remove_all(dir);
  }

  std::vector<double> cold_ms, hit_ms;
  std::vector<std::vector<double>> per_key_ms(keys.size());
  // The first round of each panel set keeps its fits for fit_mse.
  std::vector<std::pair<std::size_t, gqa::Approximator>> kept;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  int round = 0;
  for (; Clock::now() < end || round < kSeedSets; ++round) {
    const int seed_set =
        static_cast<int>((args.seed + static_cast<std::uint64_t>(round)) %
                         kSeedSets);
    const gqa::FitOptions options = fit_options(seed_set);
    const std::string dir = store_dir(args, round);
    fs::create_directories(dir);
    const gqa::ArtifactStore store(dir);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const FitKey& key = keys[k];
      const auto request = static_cast<std::int64_t>(
          static_cast<std::size_t>(round) * keys.size() + k);
      ++result.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        gqa::Approximator cold = gqa::Approximator::fit_cached(
            key.op, gqa::Method::kGqaRm, options, &store, key.bits,
            scale_exps);
        const Clock::time_point t1 = Clock::now();
        gqa::Approximator hit = gqa::Approximator::fit_cached(
            key.op, gqa::Method::kGqaRm, options, &store, key.bits,
            scale_exps);
        const Clock::time_point t2 = Clock::now();
        tracer.record("core.fit_cached.cold", t0, t1, 0, request);
        tracer.record("core.fit_cached.hit", t1, t2, 0, request);
        const std::string cold_json = cold.to_json().dump(-1);
        result.check(hit.to_json().dump(-1) == cold_json,
                     "fit_cached hit differs from its cold fit (" +
                         gqa::op_info(key.op).name + " INT" +
                         std::to_string(key.bits) + ")");
        if (t0 < end) {
          per_key_ms[k].push_back(ms_between(t0, t1));
          cold_ms.push_back(ms_between(t0, t1));
          hit_ms.push_back(ms_between(t1, t2));
        }
        if (round < kSeedSets) kept.emplace_back(k, std::move(cold));
      } catch (const std::exception& e) {
        ++result.failed;
        result.check(false, std::string("fit failed: ") + e.what());
      }
    }
    fs::remove_all(dir);
  }
  const double window_s =
      std::chrono::duration<double>(end - start).count();

  // Operator-level MSE (the paper's Table 3 protocol) of every kept fit.
  double mse_sum = 0.0;
  int mse_count = 0;
  for (const auto& [k, fit] : kept) {
    gqa::SweepOptions sweep;
    sweep.input_bits = keys[k].bits;
    mse_sum += gqa::operator_level_mse(fit, sweep);
    ++mse_count;
  }

  Json per_key = Json::object();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (per_key_ms[k].empty()) continue;
    per_key[gqa::op_info(keys[k].op).name + "_int" +
            std::to_string(keys[k].bits)] = Json(median(per_key_ms[k]));
  }
  result.report["cold_fit_ms_p50_per_key"] = std::move(per_key);
  result.report["fits_cold"] = Json(static_cast<int>(cold_ms.size()));
  result.report["rounds"] = Json(round);
  result.report["keys_per_round"] = Json(static_cast<int>(keys.size()));
  result.report["error_frac"] =
      Json(static_cast<double>(result.failed) /
           static_cast<double>(std::max<std::int64_t>(1, result.attempted)));
  Metrics& m = result.end_to_end;
  m.set("setup_s", median(setup_s), "s");
  m.set("throughput", static_cast<double>(cold_ms.size()) / window_s, "1/s");
  m.set("latency_p50_ms", quantile(cold_ms, 0.5), "ms");
  m.set("latency_p99_ms", quantile(cold_ms, 0.99), "ms");
  m.set("fit_mse", mse_sum / std::max(1, mse_count), "mse");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  if (args.trace) {
    Metrics& l = result.per_layer;
    l.set("core.fit_cached_hit_ms.p50", median(hit_ms), "ms");
    tracer.write(args.scratch + "/trace-fit_cold.json");
    result.report["spans"] = Json(static_cast<int>(tracer.size()));
  }
}

}  // namespace perfbench
