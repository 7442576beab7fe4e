// Emits the repo's perf-trajectory artifacts BENCH_fit.json,
// BENCH_kernel.json, BENCH_model.json, and BENCH_serve.json: deterministic
// wall-clock comparisons of the performance engine against the
// seed-equivalent paths.
//
//   fit    — GQA-LUT fitting with the deployed-mean objective: seed serial
//            per-code scan vs prefix-sum objective + memoized, 4-thread GA;
//            its `fit_cache` entry compares provider warm-up latency cold
//            (no store), cold-with-publish, and from a persistent-cache hit
//            (util/artifact_store.h), gated on the warmed units being
//            bit-identical to the storeless cold fit.
//   kernel — per-code provider/unit evaluation vs the batched span APIs.
//   model  — table4/table5-style end-to-end serial forward passes
//            (SegFormer and EfficientViT, int + fp).
//   serve  — scene-batched InferenceEngine (images/s) vs the serial
//            per-image loop, with a bit-identity checksum gate; its
//            `coserve` entry measures the async two-model Server
//            (eval/server.h) against the serial loops, and its
//            `coserve_continuous` entry pits the continuous-batching
//            scheduler's streaming-callback client against a lockstep
//            batch-at-a-time client on the same server — same gates; its
//            `serve_stream` entry drives a streaming session
//            (Server::open_stream) with an open-loop fixed-rate frame
//            source at 0.5x/1x/2x the measured capacity, reporting
//            sustained fps, drop counts, and deadline-miss rate, gated on
//            served frames being bit-identical to serial forwards.
//
// Every expected section must be emitted: a skipped or failed section is
// reported and the tool exits non-zero, so a stale BENCH_*.json can never
// masquerade as a fresh one.
//
// Usage: bench_to_json [output_dir]   (default: current directory)
// Knobs: GQA_BENCH_GENERATIONS (default 200) bounds the fit comparison;
//        GQA_BENCH_REPS (default 3, at least 1) repetitions, best run kept;
//        GQA_SERVE_SCENES (default 12) images per serving dispatch.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_util.h"
#include "../bench/kernel_simd_rows.h"
#include "core/approximator.h"
#include "util/artifact_store.h"
#include "eval/engine.h"
#include "eval/scene.h"
#include "eval/server.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/nonlinear_provider.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace gqa;

using bench::time_best_ms;

/// INT8 deployment grids (the Table 1 activation sweep) or INT16 grids
/// (the W16A16 hardware row: finer activation scales, ~200x more codes —
/// the regime where the O(codes) -> O(segments) rewrite dominates).
std::vector<int> deployment_exps(int input_bits) {
  if (input_bits >= 16) return {8, 9, 10, 11, 12, 13, 14};
  return {0, 1, 2, 3, 4, 5, 6};
}

GqaConfig fit_config(bool fast, int generations, int input_bits) {
  GqaConfig config =
      GqaConfig::preset(Op::kGelu, 8, MutationKind::kRoundingMutation);
  config.ga.seed = 0xF00;
  config.ga.generations = generations;
  config.fitness = GqaConfig::Fitness::kDeployedMean;
  config.input_bits = input_bits;
  config.deployment_scale_exps = deployment_exps(input_bits);
  // Seed path: per-code objective scan, no memoization — what the repo did
  // before the fitness engine. Fast: prefix sums + memo.
  config.use_naive_objective = !fast;
  config.ga.memoize_fitness = fast;
  return config;
}

Json width_report(int input_bits, int generations, int reps) {
  const FitGrid grid = FitGrid::make(op_info(Op::kGelu).f, -4.0, 4.0);
  const QuantAwareObjective objective(grid, 5, deployment_exps(input_bits),
                                      input_bits);
  std::vector<Genome> genomes;
  Rng rng(0x5EED);
  const int count = input_bits >= 16 ? 16 : 256;
  for (int i = 0; i < count; ++i) {
    Genome g(7);
    for (double& p : g) p = rng.uniform(-4.0, 4.0);
    repair_breakpoints(g, -4.0, 4.0, 0.01);
    genomes.push_back(std::move(g));
  }
  double sink = 0.0;
  const double naive_ms = time_best_ms(reps, [&] {
    for (const Genome& g : genomes) {
      for (double m : objective.per_scale_mse_naive(g)) sink += m;
    }
  });
  const double prefix_ms = time_best_ms(reps, [&] {
    for (const Genome& g : genomes) {
      for (double m : objective.per_scale_mse(g)) sink += m;
    }
  });

  // End-to-end fit: seed-equivalent serial scan vs the full engine.
  const double fit_seed_ms = time_best_ms(reps, [&] {
    sink += fit_gqa_lut(fit_config(false, generations, input_bits)).fxp_mse;
  });
  const double fit_fast_ms = time_best_ms(reps, [&] {
    sink += fit_gqa_lut(fit_config(true, generations, input_bits)).fxp_mse;
  });

  Json j = Json::object();
  j["input_bits"] = Json(input_bits);
  j["generations"] = Json(generations);
  j["objective_naive_us_per_genome"] =
      Json(naive_ms * 1e3 / static_cast<double>(genomes.size()));
  j["objective_prefix_us_per_genome"] =
      Json(prefix_ms * 1e3 / static_cast<double>(genomes.size()));
  j["objective_speedup"] = Json(naive_ms / prefix_ms);
  j["fit_seed_serial_ms"] = Json(fit_seed_ms);
  j["fit_memo_ms"] = Json(fit_fast_ms);
  j["fit_speedup"] = Json(fit_seed_ms / fit_fast_ms);
  j["checksum"] = Json(sink);  // keeps the work observable
  return j;
}

/// Persistent-cache deployment warm-up: the same warm_up_deployment() call
/// timed cold (caching disabled), cold-with-publish (empty store), and from
/// a cache hit (populated store). Checksum-gated like the serving sections:
/// the cache-served units must be bit-identical to the storeless cold fit,
/// so the latency win can never hide a wrong artifact.
Json fit_cache_section(int reps, bool& bit_identical) {
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/gqa_bench_fit_cache";
  const std::set<Op> ops = {Op::kGelu, Op::kHswish};
  const auto warm_once = [&] {
    const auto nl = tfm::NonlinearProvider::with_method(Method::kGqaRm, ops);
    nl.warm_up_deployment();
    return nl;
  };

  double cold_ms = 1e300, publish_ms = 1e300, hit_ms = 1e300;
  for (int r = 0; r < std::max(reps, 3); ++r) {
    {
      CacheScope no_cache{""};
      Timer timer;
      (void)warm_once();
      cold_ms = std::min(cold_ms, timer.milliseconds());
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    CacheScope cache{dir};
    {
      Timer timer;
      (void)warm_once();
      publish_ms = std::min(publish_ms, timer.milliseconds());
    }
    {
      Timer timer;
      (void)warm_once();
      hit_ms = std::min(hit_ms, timer.milliseconds());
    }
  }

  // Bit-identity gate: a cache-hit provider against a storeless cold one.
  bool identical = true;
  {
    CacheScope cache{dir};
    const auto warmed = warm_once();
    CacheScope no_cache{""};
    const auto cold = warm_once();
    for (std::int64_t q = -128; q <= 127 && identical; ++q) {
      identical = warmed.gelu_code(q, -3) == cold.gelu_code(q, -3) &&
                  warmed.hswish_code(q, -2) == cold.hswish_code(q, -2);
    }
  }
  int artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++artifacts;
  }
  fs::remove_all(dir);

  Json j = Json::object();
  j["ops"] = Json("GELU,HSWISH");
  j["artifacts_published"] = Json(artifacts);
  j["cold_fit_ms"] = Json(cold_ms);
  j["fit_and_publish_ms"] = Json(publish_ms);
  j["cache_hit_ms"] = Json(hit_ms);
  j["hit_speedup"] = Json(cold_ms / hit_ms);
  j["bit_identical"] = Json(identical);
  bit_identical = bit_identical && identical;
  return j;
}

Json fit_report(int reps, bool& bit_identical) {
  const int generations =
      static_cast<int>(env_int("GQA_BENCH_GENERATIONS", 200));
  Json j = Json::object();
  j["bench"] = Json("fit");
  j["op"] = Json("GELU");
  j["int8"] = width_report(8, generations, reps);
  j["int16"] = width_report(16, std::max(10, generations / 8), reps);
  j["fit_cache"] = fit_cache_section(reps, bit_identical);
  return j;
}

/// SIMD dispatch microbenchmarks: bench/kernel_simd_rows.h's rows (the
/// dense-table PWL eval per bus width, the integer row kernels and the GEMM
/// tile) timed under the scalar oracle and under the dispatched backend.
/// Every row is checksum-gated — the dispatched outputs must equal the
/// scalar oracle's bit for bit, so a throughput win can never hide a
/// numerics change. On hosts where the dispatched backend IS scalar, rows
/// report speedup 1.0 and the gate passes trivially.
Json kernel_simd_section(int reps, bool& bit_identical) {
  constexpr std::size_t kBatch = 4096;
  constexpr int kLoops = 64;
  const double items = static_cast<double>(kBatch) * kLoops;
  Json j = Json::object();
  j["kernel_backend"] = Json(std::string(kernel::active().name));
  for (const bench::KernelSimdRow& row :
       bench::kernel_simd_rows(reps, kBatch, kLoops)) {
    Json r = Json::object();
    r["scalar_ns_per_item"] = Json(row.scalar_ms * 1e6 / items);
    r["dispatched_ns_per_item"] = Json(row.simd_ms * 1e6 / items);
    r["speedup"] = Json(row.scalar_ms / row.simd_ms);
    r["bit_identical"] = Json(row.identical);
    bit_identical = bit_identical && row.identical;
    j[row.key] = std::move(r);
  }
  return j;
}

Json kernel_report(int reps, bool& bit_identical) {
  constexpr std::size_t kBatch = 4096;
  constexpr int kLoops = 64;

  std::vector<std::int64_t> codes(kBatch);
  std::int64_t q = -128;
  for (std::size_t i = 0; i < kBatch; ++i) {
    codes[i] = q;
    q = q >= 127 ? -128 : q + 1;
  }
  std::vector<double> out(kBatch);
  const double items =
      static_cast<double>(kBatch) * static_cast<double>(kLoops);

  const auto provider =
      tfm::NonlinearProvider::with_method(Method::kGqaRm, {Op::kGelu});
  const double provider_scalar_ms = time_best_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = provider.gelu_code(codes[i], -4);
      }
    }
  });
  const double provider_batch_ms = time_best_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) provider.gelu_codes(codes, -4, out);
  });

  const Approximator gelu = Approximator::fit(Op::kGelu, Method::kGqaRm, {});
  const IntPwlUnit unit = gelu.make_unit(-4);
  const double unit_scalar_ms = time_best_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        out[i] = unit.eval_real_from_code(codes[i]);
      }
    }
  });
  const double unit_batch_ms = time_best_ms(reps, [&] {
    for (int l = 0; l < kLoops; ++l) unit.eval_reals_from_codes(codes, out);
  });

  Json j = Json::object();
  j["bench"] = Json("kernel");
  j["op"] = Json("GELU");
  j["batch"] = Json(static_cast<int>(kBatch));
  j["provider_per_code_ns_per_item"] = Json(provider_scalar_ms * 1e6 / items);
  j["provider_batched_ns_per_item"] = Json(provider_batch_ms * 1e6 / items);
  j["provider_batch_speedup"] = Json(provider_scalar_ms / provider_batch_ms);
  j["unit_per_code_ns_per_item"] = Json(unit_scalar_ms * 1e6 / items);
  j["unit_batched_ns_per_item"] = Json(unit_batch_ms * 1e6 / items);
  j["unit_batch_speedup"] = Json(unit_scalar_ms / unit_batch_ms);
  j["kernel_simd"] = kernel_simd_section(reps, bit_identical);
  return j;
}

/// End-to-end serial forward timings of one frozen model, integer and fp
/// paths, with a checksum of the integer logit codes.
template <typename ModelT>
Json model_section(const ModelT& model, const tfm::Tensor& image,
                   const tfm::NonlinearProvider& nl, int reps) {
  std::int64_t checksum = 0;
  const double int_serial_ms = time_best_ms(reps, [&] {
    const tfm::QTensor y = model.forward_int(image, nl);
    checksum = 0;
    for (std::int32_t v : y.data()) checksum += v;
  });
  const double fp_serial_ms =
      time_best_ms(reps, [&] { (void)model.forward_fp(image); });

  Json j = Json::object();
  j["int_serial_ms"] = Json(int_serial_ms);
  j["fp_serial_ms"] = Json(fp_serial_ms);
  j["logit_code_checksum"] = Json(static_cast<double>(checksum));
  return j;
}

Json model_report(int reps) {
  Json j = Json::object();
  j["bench"] = Json("model");

  // SegFormer slice (table4 op inventory: EXP/GELU/DIV/RSQRT) at reduced
  // width so the bench stays CI-sized.
  {
    tfm::SegformerConfig cfg;
    cfg.image_size = 48;
    cfg.num_classes = 8;
    cfg.dims = {16, 32, 64, 128};
    cfg.heads = {1, 2, 2, 4};
    cfg.sr_ratios = {4, 2, 1, 1};
    cfg.depths = {1, 1, 1, 1};
    cfg.decoder_dim = 64;
    tfm::SegformerB0Like model(cfg);
    Rng rng(0x5E6F);
    const tfm::Tensor image =
        tfm::Tensor::randn(tfm::Shape{3, 48, 48}, rng, 0.8);
    model.calibrate(image);
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});
    nl.warm_up({Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt},
               tfm::NonlinearProvider::deployment_scale_exps());
    j["segformer"] = model_section(model, image, nl, reps);
  }

  // EfficientViT slice (table5 inventory: HSWISH/DIV).
  {
    tfm::EfficientViTConfig cfg;
    cfg.image_size = 48;
    cfg.num_classes = 8;
    cfg.widths = {12, 24, 48, 96};
    cfg.expand = 4;
    cfg.head_dim = 96;
    tfm::EfficientViTB0Like model(cfg);
    Rng rng(0xEF17);
    const tfm::Tensor image =
        tfm::Tensor::randn(tfm::Shape{3, 48, 48}, rng, 0.8);
    model.calibrate(image);
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kHswish, Op::kDiv});
    nl.warm_up({Op::kHswish, Op::kDiv},
               tfm::NonlinearProvider::deployment_scale_exps());
    j["efficientvit"] = model_section(model, image, nl, reps);
  }
  return j;
}

/// The serving sections' shared bit-identity metric: one int64 sum over
/// every logit code of every image. The committed gate is this checksum
/// (plus per-request equality in coserve), so there is exactly one
/// definition for all serving comparisons.
std::int64_t checksum(const std::vector<tfm::QTensor>& logits) {
  std::int64_t sum = 0;
  for (const tfm::QTensor& t : logits) {
    for (std::int32_t v : t.data()) sum += v;
  }
  return sum;
}

/// Middle element after sorting — the round statistic of the serving
/// sections (robust to one-off bursts on a shared box).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Scene-batched serving vs the seed-equivalent serial loop. Engine(1)
/// isolates workspace reuse (same dispatch order, no threads); the wide
/// row adds image-level parallelism across the process pool. A checksum
/// mismatch marks bit_identical=false, which the smoke gate rejects.
template <typename ModelT>
Json serve_section(const ModelT& model, const tfm::NonlinearProvider& nl,
                   const std::vector<tfm::Tensor>& images, int reps) {
  const double n = static_cast<double>(images.size());
  EngineOptions one;
  one.num_threads = 1;
  const InferenceEngine engine1(one);
  const InferenceEngine wide;  // persistent process pool

  // Interleave rounds (serial, engine(1), engine(N)) and compare MEDIANS:
  // on a shared box one variant can catch a single abnormally fast or slow
  // window, which best-of would hand to whichever variant got lucky, while
  // alternating rounds give every variant the same drift exposure and the
  // median ignores the bursts. Serving rounds are cheap, so a higher round
  // floor than the other reports keeps the committed ratios stable.
  std::vector<tfm::QTensor> serial, batched1, batchedw;
  std::vector<double> serial_rounds, engine1_rounds, wide_rounds;
  for (int rep = 0; rep < std::max(reps, 9); ++rep) {
    serial_rounds.push_back(time_best_ms(1, [&] {
      serial.clear();
      for (const tfm::Tensor& img : images) {
        serial.push_back(model.forward_int(img, nl));
      }
    }));
    engine1_rounds.push_back(time_best_ms(1, [&] {
      batched1 = engine1.forward_int(model, images, nl);
    }));
    wide_rounds.push_back(time_best_ms(1, [&] {
      batchedw = wide.forward_int(model, images, nl);
    }));
  }
  // Speedups come from PAIRED rounds: each round's serial and engine runs
  // are adjacent in time, so their ratio cancels the slow clock drift that
  // independent medians still absorb on a shared box.
  std::vector<double> engine1_ratio, wide_ratio;
  for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
    engine1_ratio.push_back(serial_rounds[i] / engine1_rounds[i]);
    wide_ratio.push_back(serial_rounds[i] / wide_rounds[i]);
  }
  const double serial_ms = median(serial_rounds);
  const double engine1_speedup = median(engine1_ratio);
  const double wide_speedup = median(wide_ratio);
  const bool identical = checksum(serial) == checksum(batched1) &&
                         checksum(serial) == checksum(batchedw);

  // Engine throughputs are reported relative to the paired-round serial
  // baseline (serial median x paired speedup), so every number reflects
  // the drift-cancelled comparison.
  const double serial_ips = n / (serial_ms * 1e-3);
  Json j = Json::object();
  j["scenes"] = Json(static_cast<int>(images.size()));
  j["threads"] = Json(wide.threads());
  j["serial_images_per_s"] = Json(serial_ips);
  j["engine1_images_per_s"] = Json(serial_ips * engine1_speedup);
  j["engine_wide_images_per_s"] = Json(serial_ips * wide_speedup);
  j["engine1_speedup"] = Json(engine1_speedup);
  j["engine_wide_speedup"] = Json(wide_speedup);
  j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
  j["bit_identical"] = Json(identical);
  return j;
}

/// Async two-model co-serving (gqa::Server) vs the serial per-image loops,
/// in ONE interleaved round loop so every variant shares the same serial
/// baseline and every committed ratio — including continuous vs
/// batch-at-a-time — is drift-cancelled:
///   server1    ticket client (submit all, wait all) on a 1-lane server —
///              isolates the front-end overhead + workspace reuse;
///   wide       the same ticket client on the process pool; submit-all/
///              wait-all is the batch-at-a-time shape (the old dispatcher
///              collected and barriered exactly like this), so it doubles
///              as the `lockstep` baseline of the coserve_continuous entry;
///   continuous the continuous-batching client on the same wide server:
///              every request carries a result callback, drain() is the
///              only synchronization point, no per-ticket wait barrier.
/// Emits the `coserve` and `coserve_continuous` entries.
struct CoserveReports {
  Json coserve;
  Json coserve_continuous;
};
CoserveReports coserve_sections(const tfm::SegformerB0Like& seg,
                                const tfm::EfficientViTB0Like& evit,
                                const std::vector<tfm::Tensor>& images,
                                int reps) {
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  const auto serve_stream = [&](Server& server, int seg_id, int evit_id) {
    std::vector<Server::Ticket> tickets;
    for (const tfm::Tensor& img : images) {
      tickets.push_back(server.submit(seg_id, img));
      tickets.push_back(server.submit(evit_id, img));
    }
    std::vector<tfm::QTensor> results;
    for (const Server::Ticket t : tickets) results.push_back(server.wait(t));
    return results;
  };

  ServerOptions one;
  one.num_threads = 1;
  Server server1(nl, one);
  const int s1_seg = server1.register_model(seg, "segformer");
  const int s1_evit = server1.register_model(evit, "efficientvit");
  Server wide(nl, {});  // process pool
  const int sw_seg = wide.register_model(seg, "segformer");
  const int sw_evit = wide.register_model(evit, "efficientvit");

  // The continuous-batching client on the wide server (the benches'
  // shared bench::serve_stream_continuous: streaming callbacks, lock-free
  // pre-assigned result slots, drain as the only sync point). A backend
  // error is rethrown after the drain, failing the section through
  // emit_artifact's catch and thereby the manifest gate.
  const std::size_t total = 2 * images.size();
  const auto continuous_stream = [&] {
    return bench::serve_stream_continuous(
        wide, bench::mixed_request_list(sw_seg, sw_evit, images));
  };

  // Interleaved rounds, median-of-paired-ratios — same protocol as the
  // engine serve sections (drift-cancelled on a shared box).
  std::vector<tfm::QTensor> serial, served1, servedw, streamed;
  std::vector<double> serial_rounds, server1_rounds, wide_rounds,
      continuous_rounds;
  for (int rep = 0; rep < std::max(reps, 9); ++rep) {
    serial_rounds.push_back(time_best_ms(1, [&] {
      serial.clear();
      for (const tfm::Tensor& img : images) {
        serial.push_back(seg.forward_int(img, nl));
        serial.push_back(evit.forward_int(img, nl));
      }
    }));
    server1_rounds.push_back(time_best_ms(1, [&] {
      served1 = serve_stream(server1, s1_seg, s1_evit);
    }));
    wide_rounds.push_back(time_best_ms(1, [&] {
      servedw = serve_stream(wide, sw_seg, sw_evit);
    }));
    continuous_rounds.push_back(
        time_best_ms(1, [&] { streamed = continuous_stream(); }));
  }
  std::vector<double> server1_ratio, wide_ratio, continuous_ratio;
  for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
    server1_ratio.push_back(serial_rounds[i] / server1_rounds[i]);
    wide_ratio.push_back(serial_rounds[i] / wide_rounds[i]);
    continuous_ratio.push_back(serial_rounds[i] / continuous_rounds[i]);
  }
  bool identical = checksum(serial) == checksum(served1) &&
                   checksum(serial) == checksum(servedw) &&
                   checksum(serial) == checksum(streamed);
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].data() == served1[i].data() &&
                serial[i].data() == servedw[i].data() &&
                serial[i].data() == streamed[i].data();
  }

  const double n = static_cast<double>(serial.size());
  const double serial_rps = n / (median(serial_rounds) * 1e-3);
  CoserveReports reports;
  {
    Json j = Json::object();
    j["requests"] = Json(static_cast<int>(serial.size()));
    j["threads"] = Json(wide.lanes());
    j["serial_requests_per_s"] = Json(serial_rps);
    j["server1_requests_per_s"] = Json(serial_rps * median(server1_ratio));
    j["server_wide_requests_per_s"] = Json(serial_rps * median(wide_ratio));
    j["server1_speedup"] = Json(median(server1_ratio));
    j["server_wide_speedup"] = Json(median(wide_ratio));
    j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
    j["bit_identical"] = Json(identical);
    reports.coserve = std::move(j);
  }
  {
    // The lockstep (batch-at-a-time) baseline is the wide ticket client:
    // same server, same pool, full submit/wait barrier per round. Both
    // numbers are derived from the SAME serial rounds, so the committed
    // continuous-vs-coserve comparison cannot be skewed by clock drift
    // between sections.
    Json j = Json::object();
    j["requests"] = Json(static_cast<int>(total));
    j["threads"] = Json(wide.lanes());
    j["serial_requests_per_s"] = Json(serial_rps);
    j["lockstep_requests_per_s"] = Json(serial_rps * median(wide_ratio));
    j["continuous_requests_per_s"] =
        Json(serial_rps * median(continuous_ratio));
    j["continuous_vs_lockstep"] =
        Json(median(continuous_ratio) / median(wide_ratio));
    j["logit_code_checksum"] = Json(static_cast<double>(checksum(serial)));
    j["bit_identical"] = Json(identical);
    reports.coserve_continuous = std::move(j);
  }
  return reports;
}

/// Degraded-throughput entry: the continuous two-model stream with the
/// scheduler/backend chaos points armed and a per-request retry budget.
/// Rounds interleave clean and degraded passes on the same server
/// (drift-cancelled ratio, like every committed serving number), and the
/// section is checksum-gated: every request that reports success under
/// injected faults must be bit-identical to its serial reference — fault
/// tolerance must never trade correctness for availability.
Json serve_degraded_section(const tfm::SegformerB0Like& seg,
                            const tfm::EfficientViTB0Like& evit,
                            const std::vector<tfm::Tensor>& images, int reps,
                            bool& bit_identical) {
  const char* kChaosSpec = "scheduler:0.05:101,backend:0.1:102";
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
  Server wide(nl, {});  // process pool
  const int seg_id = wide.register_model(seg, "segformer");
  const int evit_id = wide.register_model(evit, "efficientvit");
  const std::vector<std::pair<int, const tfm::Tensor*>> requests =
      bench::mixed_request_list(seg_id, evit_id, images);

  // Serial references in request order, for the per-success bit-identity
  // gate below.
  std::vector<std::vector<std::int32_t>> refs;
  refs.reserve(requests.size());
  for (const tfm::Tensor& img : images) {
    refs.push_back(seg.forward_int(img, nl).data());
    refs.push_back(evit.forward_int(img, nl).data());
  }

  SubmitOptions retrying;
  retrying.max_attempts = 4;  // rides through the injected transients

  std::vector<double> clean_rounds, degraded_rounds;
  std::size_t failed = 0, admission_rejected = 0;
  bool successes_identical = true;
  for (int rep = 0; rep < std::max(reps, 5); ++rep) {
    {
      fault::FaultScope quiet{""};
      bench::FaultyStreamResult clean;
      clean_rounds.push_back(time_best_ms(
          1, [&] { clean = bench::serve_stream_faulty(wide, requests,
                                                      retrying); }));
    }
    {
      fault::FaultScope chaos{kChaosSpec};
      bench::FaultyStreamResult degraded;
      degraded_rounds.push_back(time_best_ms(
          1, [&] { degraded = bench::serve_stream_faulty(wide, requests,
                                                         retrying); }));
      failed += degraded.failed;
      admission_rejected += degraded.admission_rejected;
      for (std::size_t i = 0; i < degraded.results.size(); ++i) {
        if (degraded.results[i].has_value()) {
          successes_identical =
              successes_identical && degraded.results[i]->data() == refs[i];
        }
      }
    }
  }
  std::vector<double> ratio;
  for (std::size_t i = 0; i < clean_rounds.size(); ++i) {
    ratio.push_back(clean_rounds[i] / degraded_rounds[i]);
  }
  const Server::Stats stats = wide.stats();
  const double total = static_cast<double>(requests.size());
  const double clean_rps = total / (median(clean_rounds) * 1e-3);

  Json j = Json::object();
  j["requests"] = Json(static_cast<int>(requests.size()));
  j["threads"] = Json(wide.lanes());
  j["fault_spec"] = Json(std::string(kChaosSpec));
  j["max_attempts"] = Json(retrying.max_attempts);
  j["clean_requests_per_s"] = Json(clean_rps);
  j["degraded_requests_per_s"] = Json(clean_rps * median(ratio));
  j["degraded_vs_clean"] = Json(median(ratio));
  j["failed_requests"] = Json(static_cast<int>(failed));
  j["admission_rejected"] = Json(static_cast<int>(admission_rejected));
  j["retries"] = Json(static_cast<double>(stats.retries));
  j["faults_injected"] = Json(static_cast<double>(stats.faults_injected));
  j["bit_identical"] = Json(successes_identical);
  bit_identical = bit_identical && successes_identical;
  return j;
}

/// Open-loop streaming sessions (Server::open_stream): a fixed-rate frame
/// source pushed at 0.5x/1x/2x the measured single-stream capacity (the
/// median serial forward time — a stream delivers in frame order with one
/// frame in flight, so lanes do not multiply its capacity). The real-time
/// figure of merit is what a viewer actually gets: sustained fps, how
/// much the drop policy shed, and the deadline-miss rate. Gate: every
/// frame the stream served must be bit-identical to a serial forward of
/// the same image — load shedding must never corrupt what IS delivered.
Json serve_stream_section(const tfm::SegformerB0Like& seg,
                          const std::vector<tfm::Tensor>& images, int reps,
                          bool& bit_identical) {
  const auto nl = tfm::NonlinearProvider::with_method(
      Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});

  // Serial references double as the capacity measurement. Untimed warm
  // pass first: the provider fits its LUT units lazily on first use, and
  // timing the fits would inflate the capacity estimate.
  for (const tfm::Tensor& img : images) (void)seg.forward_int(img, nl);
  std::vector<std::vector<std::int32_t>> refs;
  std::vector<double> frame_times;
  for (const tfm::Tensor& img : images) {
    Timer timer;
    refs.push_back(seg.forward_int(img, nl).data());
    frame_times.push_back(timer.milliseconds());
  }
  const double frame_ms = median(frame_times);
  const double capacity_fps = 1e3 / frame_ms;

  Server server(nl, {});
  const int model = server.register_model(seg, "segformer");
  StreamOptions so;
  so.drop_policy = DropPolicy::kDropOldest;
  so.deadline =
      std::chrono::milliseconds(static_cast<std::int64_t>(2.0 * frame_ms) + 1);
  const std::size_t frames = std::min<std::size_t>(
      std::max<std::size_t>(2 * images.size(), 8), 32);
  const int rounds = std::max(reps, 3);

  Json j = Json::object();
  j["capacity_fps"] = Json(capacity_fps);
  j["serial_frame_ms"] = Json(frame_ms);
  j["drop_policy"] = Json("drop_oldest");
  j["frames_per_round"] = Json(static_cast<int>(frames));
  j["rounds"] = Json(rounds);
  bool identical = true;
  const std::pair<const char*, double> rates[] = {
      {"under_capacity", 0.5}, {"at_capacity", 1.0}, {"over_capacity", 2.0}};
  for (const auto& [key, rate] : rates) {
    const double offered_fps = rate * capacity_fps;
    const auto interval = std::chrono::microseconds(
        static_cast<std::int64_t>(1e6 / offered_fps));
    const Server::Stats before = server.stats();
    std::vector<double> fps;
    std::size_t pushed = 0, served = 0;
    for (int rep = 0; rep < rounds; ++rep) {
      const bench::StreamOpenLoopResult run =
          bench::run_stream_open_loop(server, model, images, frames,
                                      interval, so);
      fps.push_back(static_cast<double>(run.served.size()) /
                    (run.wall_ms * 1e-3));
      pushed += run.pushed.size();
      served += run.served.size();
      for (const auto& [ticket, idx] : run.pushed) {
        const auto it = run.served.find(ticket);
        if (it != run.served.end()) {
          identical = identical && it->second.data() == refs[idx];
        }
      }
    }
    const Server::Stats after = server.stats();
    const std::uint64_t dropped = after.frames_dropped - before.frames_dropped;
    const std::uint64_t coalesced =
        after.frames_coalesced - before.frames_coalesced;
    const std::uint64_t misses =
        after.deadline_misses - before.deadline_misses;
    Json r = Json::object();
    r["offered_fps"] = Json(offered_fps);
    r["sustained_fps"] = Json(median(fps));
    r["pushed"] = Json(static_cast<int>(pushed));
    r["served"] = Json(static_cast<int>(served));
    r["dropped"] = Json(static_cast<double>(dropped));
    r["coalesced"] = Json(static_cast<double>(coalesced));
    r["deadline_misses"] = Json(static_cast<double>(misses));
    r["deadline_miss_pct"] = Json(
        100.0 * static_cast<double>(misses) / static_cast<double>(pushed));
    j[key] = std::move(r);
  }
  j["bit_identical"] = Json(identical);
  bit_identical = bit_identical && identical;
  return j;
}

Json serve_report(int reps, bool& bit_identical) {
  // Full default (B0-like) model sizes at 64x64: the deployment shape, and
  // the regime where activation buffers are big enough for the workspace
  // reuse to beat the allocator instead of measuring scheduler noise.
  const int scenes = static_cast<int>(env_int("GQA_SERVE_SCENES", 12));
  SceneOptions scene;
  scene.size = 64;
  std::vector<tfm::Tensor> images;
  for (const LabeledScene& s : make_scene_set(scene, scenes, 0x5E21)) {
    images.push_back(s.image);
  }

  tfm::SegformerB0Like segformer;
  segformer.calibrate(images.front());
  segformer.freeze();
  tfm::EfficientViTB0Like efficientvit;
  efficientvit.calibrate(images.front());
  efficientvit.freeze();

  Json j = Json::object();
  j["bench"] = Json("serve");
  {
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});
    j["segformer"] = serve_section(segformer, nl, images, reps);
    bit_identical = bit_identical && j["segformer"]["bit_identical"].as_bool();
  }
  {
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kHswish, Op::kDiv});
    j["efficientvit"] = serve_section(efficientvit, nl, images, reps);
    bit_identical =
        bit_identical && j["efficientvit"]["bit_identical"].as_bool();
  }
  CoserveReports coserve =
      coserve_sections(segformer, efficientvit, images, reps);
  bit_identical = bit_identical && coserve.coserve["bit_identical"].as_bool();
  j["coserve"] = std::move(coserve.coserve);
  j["coserve_continuous"] = std::move(coserve.coserve_continuous);
  j["serve_degraded"] =
      serve_degraded_section(segformer, efficientvit, images, reps,
                             bit_identical);
  j["serve_stream"] = serve_stream_section(segformer, images, reps,
                                           bit_identical);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const int reps = bench::bench_reps(3);

  // The completeness manifest: every name here must be emitted below, or
  // the tool exits non-zero. A section that fails (or is silently skipped
  // by a future edit) can therefore never leave a stale BENCH_*.json
  // pretending to be fresh.
  const std::vector<std::string> expected = {
      "fit",     "fit_cache",
      "kernel",  "kernel_simd",
      "model",   "serve",
      "coserve", "coserve_continuous",
      "serve_degraded", "serve_stream"};
  std::vector<std::string> emitted;
  bool all_identical = true;

  // `nested` lists manifest entries the artifact carries as sub-sections;
  // each is recorded only when actually present in the emitted JSON, so
  // the completeness gate notices if one silently disappears.
  const auto emit_artifact = [&](const char* name, const char* file,
                                 const std::vector<std::string>& nested,
                                 const std::function<Json()>& build) {
    try {
      const Json j = build();
      write_file(out_dir + "/" + std::string(file), j.dump() + "\n");
      std::printf("%s\n", j.dump().c_str());
      emitted.push_back(name);
      for (const std::string& key : nested) {
        if (j.contains(key)) emitted.push_back(key);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_to_json: section '%s' failed: %s\n", name,
                   e.what());
    }
  };

  emit_artifact("fit", "BENCH_fit.json", {"fit_cache"},
                [&] { return fit_report(reps, all_identical); });
  emit_artifact("kernel", "BENCH_kernel.json", {"kernel_simd"},
                [&] { return kernel_report(reps, all_identical); });
  emit_artifact("model", "BENCH_model.json", {},
                [&] { return model_report(reps); });
  emit_artifact("serve", "BENCH_serve.json",
                {"coserve", "coserve_continuous", "serve_degraded",
                 "serve_stream"},
                [&] { return serve_report(reps, all_identical); });

  const std::vector<std::string> missing = missing_entries(expected, emitted);
  if (!missing.empty()) {
    std::fprintf(stderr, "bench_to_json: missing bench sections: %s\n",
                 join(missing, ", ").c_str());
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_to_json: a checksum-gated section diverged from its "
                 "serial reference (bit_identical=false)\n");
    return 1;
  }
  return 0;
}
