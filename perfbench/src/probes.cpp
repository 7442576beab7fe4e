// The traced run's layer split: every per-layer metric the workload's own
// traced loop did not already produce. Each probe calls one layer through
// its public API, on the same kernel backend and with the same frozen
// models and deployment provider the serving workloads use.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <unistd.h>

#include "core/approximator.h"
#include "genetic/genetic.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "serving.h"
#include "tfm/modules.h"
#include "util/artifact_store.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using gqa::QuantParams;
using gqa::Rng;
using gqa::tfm::QTensor;
using gqa::tfm::Shape;
using gqa::tfm::Tensor;

/// Median wall time of `fn` in milliseconds over `reps` calls, after one
/// untimed call.
double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

void set_missing(Metrics& m, const std::string& name, double value,
                 const std::string& unit) {
  if (!m.has(name)) m.set(name, value, unit);
}

// ------------------------------------------------------------ replays ---

/// Conv output size (the same arithmetic the Conv2d module uses).
int conv_out(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// A random activation tensor and its power-of-two 8-bit quantization.
struct Input {
  Tensor fp;
  QTensor q;
  QuantParams qp;
};

Input make_input(Shape shape, Rng& rng, double stddev = 1.0) {
  Input in;
  in.fp = Tensor::randn(std::move(shape), rng, stddev);
  gqa::RangeObserver obs;
  obs.observe(std::span<const float>(in.fp.data()));
  in.qp = obs.make_po2(8);
  in.q = QTensor::quantize(in.fp, in.qp);
  return in;
}

/// Per-forward module times: each entry accumulates calls x per-call ms.
/// `top` sums the modules that partition the forward (no nesting), the
/// numerator of replay_coverage.
struct ReplaySplit {
  std::map<std::string, double> ms;
  double top = 0.0;
  void add(const std::string& kind, int calls, double per_call_ms,
           bool top_level) {
    ms[kind] += calls * per_call_ms;
    if (top_level) top += calls * per_call_ms;
  }
};

constexpr int kReplayReps = 9;
const gqa::tfm::QuantPolicy kPolicy;

double time_linear(int rows, int in, int out, Rng& rng) {
  gqa::tfm::Linear m(in, out, rng);
  const Input x = make_input(Shape{rows, in}, rng);
  (void)m.calibrate(x.fp);
  (void)m.freeze(x.qp, kPolicy);
  return median_ms(kReplayReps, [&] { (void)m.forward_int(x.q); });
}

double time_conv(int in_ch, int out_ch, int k, int stride, int pad, int h,
                 bool depthwise, Rng& rng) {
  gqa::tfm::Conv2d m(in_ch, out_ch, k, stride, pad, rng, depthwise);
  const Input x = make_input(Shape{in_ch, h, h}, rng);
  (void)m.calibrate(x.fp);
  (void)m.freeze(x.qp, kPolicy);
  return median_ms(kReplayReps, [&] { (void)m.forward_int(x.q); });
}

double time_layernorm(int rows, int dim, const gqa::tfm::NonlinearProvider& nl,
                      Rng& rng) {
  gqa::tfm::LayerNorm m(dim, rng);
  const Input x = make_input(Shape{rows, dim}, rng);
  (void)m.calibrate(x.fp);
  (void)m.freeze(x.qp, kPolicy);
  return median_ms(kReplayReps, [&] { (void)m.forward_int(x.q, nl); });
}

double time_softmax(int rows, int cols, const gqa::tfm::NonlinearProvider& nl,
                    Rng& rng) {
  const Input x = make_input(Shape{rows, cols}, rng, 2.0);
  return median_ms(kReplayReps, [&] {
    (void)gqa::tfm::Softmax::forward_int(x.q, nl);
  });
}

double time_activation(gqa::Op op, Shape shape,
                       const gqa::tfm::NonlinearProvider& nl, Rng& rng) {
  gqa::tfm::Activation m(op);
  const Input x = make_input(std::move(shape), rng, 2.0);
  (void)m.calibrate(x.fp);
  (void)m.freeze(x.qp, kPolicy);
  return median_ms(kReplayReps, [&] { (void)m.forward_int(x.q, nl); });
}

double time_residual(Shape shape, Rng& rng) {
  gqa::tfm::ResidualAdd m;
  const Input a = make_input(shape, rng);
  const Input b = make_input(shape, rng);
  (void)m.calibrate(a.fp, b.fp);
  (void)m.freeze(a.qp, b.qp, kPolicy);
  return median_ms(kReplayReps, [&] { (void)m.forward_int(a.q, b.q); });
}

/// SegFormer forward split, with every shape derived from the default
/// SegformerConfig. The structural constants (patch-embedding kernels,
/// the spatial-reduction conv, the Mix-FFN depthwise conv) are those of
/// tfm/models/segformer.cpp and tfm/modules.cpp.
ReplaySplit replay_segformer(const gqa::tfm::NonlinearProvider& nl,
                             int& logits_side) {
  const gqa::tfm::SegformerConfig c;
  Rng rng(0x5E6F);
  ReplaySplit split;
  int in_ch = c.in_channels;
  int side = c.image_size;
  std::vector<int> stage_side;
  for (std::size_t s = 0; s < c.dims.size(); ++s) {
    const int d = c.dims[s];
    const int depth = c.depths[s];
    const int heads = c.heads[s];
    const int sr = c.sr_ratios[s];
    const int k = s == 0 ? 7 : 3, stride = s == 0 ? 4 : 2, pad = s == 0 ? 3 : 1;
    split.add("conv2d", 1,
              time_conv(in_ch, d, k, stride, pad, side, false, rng), true);
    side = conv_out(side, k, stride, pad);
    stage_side.push_back(side);
    const int n = side * side;
    const int hidden = d * c.mlp_ratio;

    // Per block: ln1, attention, add1, ln2, Mix-FFN, add2; per stage also
    // the embedding and output norms.
    split.add("layernorm", 2 + 2 * depth, time_layernorm(n, d, nl, rng), true);
    split.add("residual_add", 2 * depth, time_residual(Shape{n, d}, rng),
              true);
    {
      gqa::tfm::AttentionSR attn(d, heads, sr, rng);
      const Input x = make_input(Shape{n, d}, rng);
      (void)attn.calibrate(x.fp, side, side);
      (void)attn.freeze(x.qp, kPolicy);
      split.add("attention_sr", depth, median_ms(kReplayReps, [&] {
                  (void)attn.forward_int(x.q, side, side, nl);
                }),
                true);
      const int kv_side = sr > 1 ? conv_out(side, sr, sr, 0) : side;
      const int m = kv_side * kv_side;
      split.add("linear", 2 * depth, time_linear(n, d, d, rng), false);
      split.add("linear", 2 * depth, time_linear(m, d, d, rng), false);
      if (sr > 1) {
        split.add("conv2d", depth,
                  time_conv(d, d, sr, sr, 0, side, false, rng), false);
      }
      split.add("softmax", depth * heads, time_softmax(n, m, nl, rng), false);
    }
    {
      gqa::tfm::MixFfn ffn(d, hidden, rng);
      const Input x = make_input(Shape{n, d}, rng);
      (void)ffn.calibrate(x.fp, side, side);
      (void)ffn.freeze(x.qp, kPolicy);
      split.add("mix_ffn", depth, median_ms(kReplayReps, [&] {
                  (void)ffn.forward_int(x.q, side, side, nl);
                }),
                true);
      split.add("linear", depth, time_linear(n, d, hidden, rng), false);
      split.add("linear", depth, time_linear(n, hidden, d, rng), false);
      split.add("conv2d", depth,
                time_conv(hidden, hidden, 3, 1, 1, side, true, rng), false);
      split.add("gelu", depth,
                time_activation(gqa::Op::kGelu, Shape{hidden, side, side}, nl,
                                rng),
                false);
    }
    in_ch = d;
  }
  // All-MLP decode head at 1/4 resolution.
  const int n0 = stage_side.front() * stage_side.front();
  for (std::size_t s = 0; s < c.dims.size(); ++s) {
    const int n = stage_side[s] * stage_side[s];
    split.add("linear", 1, time_linear(n, c.dims[s], c.decoder_dim, rng),
              true);
  }
  split.add("linear", 1, time_linear(n0, 4 * c.decoder_dim, c.decoder_dim, rng),
            true);
  split.add("linear", 1, time_linear(n0, c.decoder_dim, c.num_classes, rng),
            true);
  logits_side = stage_side.front();
  return split;
}

/// One MBConv: times the block (top level) and its nested parts.
int replay_mbconv(int in_ch, int out_ch, int expand, int stride, int side,
                  const gqa::tfm::NonlinearProvider& nl, Rng& rng,
                  ReplaySplit& split) {
  gqa::tfm::MbConv block(in_ch, out_ch, expand, stride, rng);
  const Input x = make_input(Shape{in_ch, side, side}, rng);
  (void)block.calibrate(x.fp);
  (void)block.freeze(x.qp, kPolicy);
  split.add("mbconv", 1, median_ms(kReplayReps, [&] {
              (void)block.forward_int(x.q, nl);
            }),
            true);
  const int wide = in_ch * expand;
  const int out_side = conv_out(side, 3, stride, 1);
  split.add("conv2d", 1, time_conv(in_ch, wide, 1, 1, 0, side, false, rng),
            false);
  split.add("hswish", 1,
            time_activation(gqa::Op::kHswish, Shape{wide, side, side}, nl, rng),
            false);
  split.add("conv2d", 1, time_conv(wide, wide, 3, stride, 1, side, true, rng),
            false);
  split.add("hswish", 1,
            time_activation(gqa::Op::kHswish, Shape{wide, out_side, out_side},
                            nl, rng),
            false);
  split.add("conv2d", 1,
            time_conv(wide, out_ch, 1, 1, 0, out_side, false, rng), false);
  if (in_ch == out_ch && stride == 1) {
    split.add("residual_add", 1,
              time_residual(Shape{out_ch, out_side, out_side}, rng), false);
  }
  return out_side;
}

/// EfficientViT forward split from the default EfficientViTConfig (the
/// stage layout of tfm/models/efficientvit.cpp).
ReplaySplit replay_efficientvit(const gqa::tfm::NonlinearProvider& nl,
                               int& logits_side) {
  const gqa::tfm::EfficientViTConfig c;
  Rng rng(0xEF17);
  ReplaySplit split;
  const std::vector<int>& w = c.widths;
  split.add("conv2d", 1,
            time_conv(c.in_channels, w[0], 3, 2, 1, c.image_size, false, rng),
            true);
  int side = conv_out(c.image_size, 3, 2, 1);
  split.add("hswish", 1,
            time_activation(gqa::Op::kHswish, Shape{w[0], side, side}, nl, rng),
            true);
  side = replay_mbconv(w[0], w[1], c.expand, 2, side, nl, rng, split);
  side = replay_mbconv(w[1], w[2], c.expand, 2, side, nl, rng, split);
  side = replay_mbconv(w[2], w[2], c.expand, 1, side, nl, rng, split);
  const int side3 = side;
  const auto evit_module = [&](int dim, int s) {
    gqa::tfm::LinearAttention attn(dim, rng);
    const Input x = make_input(Shape{s * s, dim}, rng);
    (void)attn.calibrate(x.fp);
    (void)attn.freeze(x.qp, kPolicy);
    split.add("linear_attention", 1, median_ms(kReplayReps, [&] {
                (void)attn.forward_int(x.q, nl);
              }),
              true);
    split.add("residual_add", 1, time_residual(Shape{dim, s, s}, rng), true);
    (void)replay_mbconv(dim, dim, c.expand, 1, s, nl, rng, split);
  };
  evit_module(w[2], side3);
  side = replay_mbconv(w[2], w[3], c.expand, 2, side3, nl, rng, split);
  evit_module(w[3], side);
  split.add("conv2d", 1,
            time_conv(w[2] + w[3], c.head_dim, 1, 1, 0, side3, false, rng),
            true);
  split.add("hswish", 1,
            time_activation(gqa::Op::kHswish, Shape{c.head_dim, side3, side3},
                            nl, rng),
            true);
  split.add("conv2d", 1,
            time_conv(c.head_dim, c.num_classes, 1, 1, 0, side3, false, rng),
            true);
  logits_side = side3;
  return split;
}

void replay_metrics(const std::string& model, const ReplaySplit& split,
                    const std::vector<std::string>& kinds, double forward_ms,
                    Metrics& out) {
  for (const std::string& kind : kinds) {
    const auto it = split.ms.find(kind);
    out.set("tfm." + model + "." + kind + "_ms",
            it == split.ms.end() ? 0.0 : it->second, "ms");
  }
  out.set("tfm." + model + ".replay_coverage", split.top / forward_ms,
          "frac");
}

// ----------------------------------------------------- provider/kernel ---

constexpr std::size_t kItems = 4096;
constexpr int kItemReps = 41;

/// ns per item of `fn`, which processes kItems items per call.
double ns_per_item(const std::function<void()>& fn) {
  return median_ms(kItemReps, fn) * 1e6 / static_cast<double>(kItems);
}

std::vector<std::int64_t> codes_in(std::int64_t lo, std::int64_t hi,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> q(kItems);
  for (std::int64_t& v : q) v = rng.uniform_int(lo, hi);
  return q;
}

/// Wide fixed-point inputs spread log-uniformly over 2^-4 .. 2^12 (the
/// Softmax denominators and LayerNorm variances the multi-range units see).
std::vector<std::int64_t> wide_codes(int frac, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> q(kItems);
  for (std::int64_t& v : q) {
    v = static_cast<std::int64_t>(
        std::ldexp(1.0, frac) * std::exp2(rng.uniform(-4.0, 12.0)));
    v = std::max<std::int64_t>(v, 1);
  }
  return q;
}

/// Activation scale exponents the probes cycle through (inside the
/// provider's deployment window).
constexpr int kScaleExps[] = {-6, -5, -4, -3, -2};

void provider_metrics(const gqa::tfm::NonlinearProvider& nl, Metrics& out) {
  const std::vector<std::int64_t> q = codes_in(-128, 127, 0xC0DE);
  std::vector<double> y(kItems);
  const auto act = [&](void (gqa::tfm::NonlinearProvider::*fn)(
                           std::span<const std::int64_t>, int,
                           std::span<double>) const) {
    double sum = 0.0;
    for (int e : kScaleExps) {
      sum += ns_per_item([&] { (nl.*fn)(q, e, y); });
    }
    return sum / static_cast<double>(std::size(kScaleExps));
  };
  out.set("tfm.provider.exp_codes_ns",
          act(&gqa::tfm::NonlinearProvider::exp_codes), "ns");
  out.set("tfm.provider.gelu_codes_ns",
          act(&gqa::tfm::NonlinearProvider::gelu_codes), "ns");
  out.set("tfm.provider.hswish_codes_ns",
          act(&gqa::tfm::NonlinearProvider::hswish_codes), "ns");
  constexpr int kFrac = 16;
  const std::vector<std::int64_t> wide = wide_codes(kFrac, 0xD1F);
  out.set("tfm.provider.recip_fxp_batch_ns",
          ns_per_item([&] { nl.recip_fxp_batch(wide, kFrac, y); }), "ns");
  out.set("tfm.provider.rsqrt_fxp_batch_ns",
          ns_per_item([&] { nl.rsqrt_fxp_batch(wide, kFrac, y); }), "ns");
}

void kernel_metrics(Metrics& out) {
  const gqa::Approximator gelu =
      gqa::Approximator::fit(gqa::Op::kGelu, gqa::Method::kGqaRm);
  const gqa::Approximator div =
      gqa::Approximator::fit(gqa::Op::kDiv, gqa::Method::kGqaRm);
  std::vector<std::int64_t> acc(kItems);
  {
    const gqa::IntPwlUnit unit = gelu.make_unit(-4, 8);
    const std::vector<std::int64_t> q = codes_in(-128, 127, 0x18);
    out.set("kernel.pwl_eval_int8_ns",
            ns_per_item([&] { unit.eval_codes(q, acc); }), "ns");
  }
  {
    const gqa::IntPwlUnit unit = gelu.make_unit(-12, 16);
    const std::vector<std::int64_t> q = codes_in(-32768, 32767, 0x116);
    out.set("kernel.pwl_eval_int16_ns",
            ns_per_item([&] { unit.eval_codes(q, acc); }), "ns");
  }
  {
    const gqa::MultiRangeUnit unit = div.make_multirange_unit();
    const std::vector<std::int64_t> q = wide_codes(16, 0x3A);
    std::vector<double> y(kItems);
    out.set("kernel.multirange_eval_ns",
            ns_per_item([&] { unit.eval_fxp_batch(q, 16, y); }), "ns");
  }
  // Row kernels straight from the active backend's op table (null entries
  // would mean the scalar oracle, which the call sites inline).
  const gqa::kernel::KernelOps& ops = gqa::kernel::active().ops;
  Rng rng(0xD07);
  std::vector<std::int32_t> a(kItems);
  std::vector<std::int8_t> w(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    a[i] = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    w[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  volatile std::int64_t sink = 0;
  out.set("kernel.dot_i32_i8_ns", ns_per_item([&] {
            if (ops.dot_i32_i8 != nullptr) {
              sink = ops.dot_i32_i8(a.data(), w.data(), kItems);
            } else {
              std::int64_t s = 0;
              for (std::size_t i = 0; i < kItems; ++i) {
                s += static_cast<std::int64_t>(a[i]) * w[i];
              }
              sink = s;
            }
          }),
          "ns");
  out.set("kernel.sum_i32_ns", ns_per_item([&] {
            if (ops.sum_i32 != nullptr) {
              sink = ops.sum_i32(a.data(), kItems);
            } else {
              std::int64_t s = 0;
              for (std::int32_t v : a) s += v;
              sink = s;
            }
          }),
          "ns");
  out.set("kernel.max_i32_ns", ns_per_item([&] {
            if (ops.max_i32 != nullptr) {
              sink = ops.max_i32(a.data(), kItems);
            } else {
              sink = *std::max_element(a.begin(), a.end());
            }
          }),
          "ns");
}

// ------------------------------------------------- gqa/genetic/core ---

/// Deployment grids of the W8 (s = 0..6) and W16 (s = 8..14) rows.
std::vector<int> width_exps(int bits) {
  return bits >= 16 ? std::vector<int>{8, 9, 10, 11, 12, 13, 14}
                    : std::vector<int>{0, 1, 2, 3, 4, 5, 6};
}

void fit_side_metrics(const Args& args, Metrics& out) {
  const gqa::FitGrid grid =
      gqa::FitGrid::make(gqa::op_info(gqa::Op::kGelu).f, -4.0, 4.0);
  for (int bits : {8, 16}) {
    const std::string tag = bits == 8 ? "int8" : "int16";
    const gqa::QuantAwareObjective objective(grid, 5, width_exps(bits), bits);
    Rng rng(0x5EED);
    std::vector<gqa::Genome> genomes(64, gqa::Genome(7));
    for (gqa::Genome& g : genomes) {
      for (double& p : g) p = rng.uniform(-4.0, 4.0);
      gqa::repair_breakpoints(g, -4.0, 4.0, 0.01);
    }
    volatile double sink = 0.0;
    out.set("gqa.objective_us_per_genome." + tag,
            median_ms(7, [&] {
              for (const gqa::Genome& g : genomes) {
                sink = objective.per_scale_mse(g).front();
              }
            }) * 1e3 / static_cast<double>(genomes.size()),
            "us");

    gqa::GqaConfig config = gqa::GqaConfig::preset(
        gqa::Op::kGelu, 8, gqa::MutationKind::kRoundingMutation);
    config.ga.seed = 0xF00;
    config.fitness = gqa::GqaConfig::Fitness::kDeployedMean;
    config.input_bits = bits;
    config.deployment_scale_exps = width_exps(bits);
    out.set("gqa.fit_gqa_lut_ms." + tag,
            median_ms(3, [&] { sink = gqa::fit_gqa_lut(config).fxp_mse; }),
            "ms");

    // core: one Approximator fit per served op at this width (no store).
    double total = 0.0;
    for (gqa::Op op : gqa::paper_ops()) {
      total += median_ms(1, [&] {
        (void)gqa::Approximator::fit_cached(
            op, gqa::Method::kGqaRm, gqa::FitOptions{}, nullptr, bits,
            gqa::tfm::NonlinearProvider::deployment_scale_exps());
      });
    }
    out.set("core.fit_ms." + tag,
            total / static_cast<double>(gqa::paper_ops().size()), "ms");
  }

  // The GA's own cost: Table 1 preset loop with a constant fitness.
  {
    const gqa::GeneticOptimizer ga(gqa::GaConfig{});
    const auto init = [](Rng& rng) {
      gqa::Genome g(7);
      for (double& p : g) p = rng.uniform(-4.0, 4.0);
      return g;
    };
    const auto fitness = [](const gqa::Genome&) { return 1.0; };
    const auto mutate = [](gqa::Genome& g, Rng& rng) {
      g[rng.index(g.size())] += rng.normal(0.0, 0.1);
    };
    const auto repair = [](gqa::Genome& g) {
      gqa::repair_breakpoints(g, -4.0, 4.0, 0.01);
    };
    out.set("genetic.ga_overhead_ms", median_ms(3, [&] {
              (void)ga.run(init, fitness, mutate, repair);
            }),
            "ms");
  }

  // Artifact store publish/load of a real approximator payload.
  {
    const std::string dir =
        args.scratch + "/probe-store-" + std::to_string(getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    const gqa::ArtifactStore store(dir);
    const gqa::FitOptions options;
    const std::vector<int> exps =
        gqa::tfm::NonlinearProvider::deployment_scale_exps();
    const gqa::ArtifactKey key = gqa::Approximator::cache_key(
        gqa::Op::kGelu, gqa::Method::kGqaRm, options, 8, exps);
    const std::string payload =
        gqa::Approximator::fit(gqa::Op::kGelu, gqa::Method::kGqaRm, options)
            .to_json()
            .dump();
    out.set("util.artifact_publish_ms.p50",
            median_ms(15, [&] { store.publish(key, payload); }), "ms");
    out.set("util.artifact_load_ms.p50",
            median_ms(15, [&] { (void)store.load(key); }), "ms");
    set_missing(out, "core.fit_cached_hit_ms.p50", median_ms(15, [&] {
                  (void)gqa::Approximator::fit_cached(
                      gqa::Op::kGelu, gqa::Method::kGqaRm, options, &store, 8,
                      exps);
                }),
                "ms");
    fs::remove_all(dir);
  }
}

}  // namespace

void run_layer_probes(const Args& args, RunResult& result) {
  Metrics& out = result.per_layer;
  const std::vector<Model> models = {Model::kSegformer, Model::kEfficientVit};
  const std::vector<Tensor> images = make_images(args.seed, 8);
  std::unique_ptr<ServingStack> stack = build_stack(
      models, images.front(), std::make_unique<RequestBook>(4096, true));
  set_missing(out, "tfm.calibrate_freeze_ms", stack->calibrate_freeze_ms,
              "ms");
  set_missing(out, "tfm.provider.warm_up_deployment_ms", stack->warm_up_ms,
              "ms");

  // Serial forwards (also the references of the eval probe below).
  std::vector<std::vector<double>> forward_ms;
  const References refs =
      reference_outputs(*stack, models, images, forward_ms);
  double forward_p50[2];
  for (Model m : models) {
    const auto i = static_cast<std::size_t>(m);
    forward_p50[i] = median(forward_ms[i]);
    set_missing(out, std::string("tfm.") + model_name(m) + ".forward_int_ms.p50",
                forward_p50[i], "ms");
  }

  // Eval probe: a short run of the stream_open camera streams fills the
  // eval metrics a workload's own loop did not produce.
  {
    GeneratorStats generator;
    const gqa::Server::Stats before = stack->server->stats();
    const WorkloadWindow window = run_open_loop(
        *stack, camera_streams(), images, refs, 0.5, 2.0, generator);
    const gqa::Server::Stats after = stack->server->stats();
    Metrics probe;
    Tracer tracer(true);
    eval_span_metrics(*stack->book, window, tracer, probe);
    out.merge_missing(probe);
    set_missing(out, "eval.frames_dropped",
                static_cast<double>(after.frames_dropped - before.frames_dropped),
                "count");
    set_missing(out, "eval.deadline_misses",
                static_cast<double>(after.deadline_misses -
                                    before.deadline_misses),
                "count");
    set_missing(out, "eval.retries",
                static_cast<double>(after.retries - before.retries), "count");
    set_missing(out, "eval.generator_lag_ms.p99",
                generator.lag_ms.empty() ? 0.0
                                         : quantile(generator.lag_ms, 0.99),
                "ms");
    set_missing(out, "eval.frames_pushed_late",
                static_cast<double>(generator.pushed_late), "count");
    for (std::size_t id = 0; id < stack->book->size(); ++id) {
      result.check(!stack->book->at(id).mismatch,
                   "eval probe: served result differs from serial forward");
    }
  }

  // Module replays.
  {
    int seg_side = 0, evit_side = 0;
    const ReplaySplit seg = replay_segformer(*stack->provider, seg_side);
    replay_metrics("segformer", seg,
                   {"linear", "conv2d", "layernorm", "softmax", "gelu",
                    "attention_sr", "mix_ffn", "residual_add"},
                   forward_p50[0], out);
    const ReplaySplit evit = replay_efficientvit(*stack->provider, evit_side);
    replay_metrics("efficientvit", evit,
                   {"conv2d", "hswish", "linear_attention", "mbconv",
                    "residual_add"},
                   forward_p50[1], out);
    const QTensor& seg_logits = refs[0].front();
    const QTensor& evit_logits = refs[1].front();
    result.check(seg_logits.shape()[1] == seg_side &&
                     evit_logits.shape()[1] == evit_side,
                 "module replay shapes disagree with the models' logits");
  }

  provider_metrics(*stack->provider, out);
  kernel_metrics(out);
  fit_side_metrics(args, out);
}

}  // namespace perfbench
