// Scene-batched inference engine guarantees: engine-batched results must be
// bit-identical to the sequential serial loop for both models at 1/2/4/8
// lanes, with cold and pre-warmed providers; and Workspace reuse must never
// alias live tensors (consecutive forwards through one workspace give
// identical codes).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eval/engine.h"
#include "eval/scene.h"
#include "kernel/dispatch.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/workspace.h"
#include "util/rng.h"

namespace gqa {
namespace {

std::vector<tfm::Tensor> test_images(int count, int size) {
  SceneOptions scene;
  scene.size = size;
  std::vector<tfm::Tensor> images;
  for (const LabeledScene& s : make_scene_set(scene, count, 0xBA7C)) {
    images.push_back(s.image);
  }
  return images;
}

tfm::SegformerB0Like frozen_segformer(const tfm::Tensor& calib) {
  tfm::SegformerConfig cfg;
  cfg.image_size = 32;
  cfg.num_classes = 5;
  cfg.dims = {8, 16, 16, 16};
  cfg.heads = {1, 2, 2, 2};
  cfg.sr_ratios = {4, 2, 1, 1};
  cfg.depths = {1, 1, 1, 1};
  cfg.decoder_dim = 16;
  tfm::SegformerB0Like model(cfg);
  model.calibrate(calib);
  model.freeze();
  return model;
}

tfm::EfficientViTB0Like frozen_efficientvit(const tfm::Tensor& calib) {
  tfm::EfficientViTConfig cfg;
  cfg.image_size = 32;
  cfg.num_classes = 5;
  cfg.widths = {8, 12, 16, 24};
  cfg.expand = 2;
  cfg.head_dim = 24;
  tfm::EfficientViTB0Like model(cfg);
  model.calibrate(calib);
  model.freeze();
  return model;
}

tfm::NonlinearProvider full_provider_cold() {
  return tfm::NonlinearProvider::with_method(
      Method::kGqaRm,
      {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt});
}

template <typename ModelT>
void expect_engine_matches_serial(const ModelT& model,
                                  const std::vector<tfm::Tensor>& images) {
  // Serial reference: the seed-style loop, no pool, no workspace.
  const tfm::NonlinearProvider serial_nl = full_provider_cold();
  std::vector<tfm::QTensor> serial_int;
  std::vector<tfm::Tensor> serial_fp;
  for (const tfm::Tensor& img : images) {
    serial_int.push_back(model.forward_int(img, serial_nl));
    serial_fp.push_back(model.forward_fp(img));
  }

  for (int threads : {1, 2, 4, 8}) {
    for (bool warm : {false, true}) {
      EngineOptions options;
      options.num_threads = threads;
      options.warm_provider = warm;
      const InferenceEngine engine(options);
      EXPECT_EQ(engine.threads(), threads);
      // A fresh provider per run keeps the cold-cache case genuinely cold.
      const tfm::NonlinearProvider nl = full_provider_cold();
      const std::vector<tfm::QTensor> got_int =
          engine.forward_int(model, images, nl);
      const std::vector<tfm::Tensor> got_fp = engine.forward_fp(model, images);
      ASSERT_EQ(got_int.size(), serial_int.size());
      for (std::size_t i = 0; i < images.size(); ++i) {
        EXPECT_EQ(serial_int[i].data(), got_int[i].data())
            << "int image " << i << " threads=" << threads << " warm=" << warm;
        EXPECT_EQ(serial_fp[i].data(), got_fp[i].data())
            << "fp image " << i << " threads=" << threads << " warm=" << warm;
      }
      // Label batches must agree with per-image argmax of the serial runs.
      const std::vector<std::vector<int>> labels =
          engine.labels_int(model, images, nl);
      for (std::size_t i = 0; i < images.size(); ++i) {
        EXPECT_EQ(labels[i], ModelT::argmax_labels(serial_int[i]))
            << "labels image " << i << " threads=" << threads;
      }
    }
  }
}

TEST(InferenceEngine, SegformerBatchBitIdenticalAt1248Threads) {
  const std::vector<tfm::Tensor> images = test_images(6, 32);
  expect_engine_matches_serial(frozen_segformer(images.front()), images);
}

TEST(InferenceEngine, EfficientViTBatchBitIdenticalAt1248Threads) {
  const std::vector<tfm::Tensor> images = test_images(6, 32);
  expect_engine_matches_serial(frozen_efficientvit(images.front()), images);
}

TEST(InferenceEngine, ForwardsBitIdenticalUnderEveryKernelBackend) {
  // End-to-end gate for the SIMD dispatch layer: a full quantized forward
  // through both models must produce byte-identical codes under every
  // runnable backend and the scalar oracle — the differential suite checks
  // the kernels in isolation, this checks them composed through real
  // Linear/Conv/LayerNorm/Softmax call sites.
  const std::vector<tfm::Tensor> images = test_images(3, 32);
  const tfm::SegformerB0Like segformer = frozen_segformer(images.front());
  const tfm::EfficientViTB0Like evit = frozen_efficientvit(images.front());
  EngineOptions options;
  options.num_threads = 2;
  const InferenceEngine engine(options);

  auto run_all = [&] {
    const tfm::NonlinearProvider nl = full_provider_cold();
    std::vector<std::vector<std::int32_t>> out;
    for (const tfm::QTensor& t : engine.forward_int(segformer, images, nl)) {
      out.push_back(t.data());
    }
    for (const tfm::QTensor& t : engine.forward_int(evit, images, nl)) {
      out.push_back(t.data());
    }
    return out;
  };

  std::vector<std::vector<std::int32_t>> reference;
  {
    kernel::BackendScope scope("scalar");
    reference = run_all();
  }
  bool ran_simd = false;
  for (const kernel::KernelBackend* backend : kernel::registry()) {
    if (!kernel::backend_available(*backend)) continue;
    kernel::BackendScope scope(backend->name);
    EXPECT_EQ(reference, run_all()) << backend->name;
    if (std::string(backend->name) != "scalar") ran_simd = true;
  }
  if (!ran_simd) {
    GTEST_SKIP() << "only the scalar oracle is runnable on this host; "
                    "differential coverage was scalar-vs-scalar";
  }
}

TEST(InferenceEngine, ReusedEngineServesRepeatedDispatches) {
  // The same engine (and so the same workspace pool) must serve many
  // dispatches without drift — this is the steady-state serving loop.
  const std::vector<tfm::Tensor> images = test_images(3, 32);
  const tfm::SegformerB0Like model = frozen_segformer(images.front());
  const tfm::NonlinearProvider nl = full_provider_cold();
  EngineOptions options;
  options.num_threads = 2;
  const InferenceEngine engine(options);
  const std::vector<tfm::QTensor> first = engine.forward_int(model, images, nl);
  for (int round = 0; round < 3; ++round) {
    const std::vector<tfm::QTensor> again =
        engine.forward_int(model, images, nl);
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(first[i].data(), again[i].data()) << "round " << round;
    }
  }
}

// ------------------------------------------------------- workspace reuse --

TEST(Workspace, TwoConsecutiveForwardsGiveIdenticalCodes) {
  // The aliasing check: the second forward reuses the first one's released
  // buffers, so any live-tensor aliasing or stale-content leak would change
  // its codes.
  const std::vector<tfm::Tensor> images = test_images(2, 32);
  const tfm::SegformerB0Like seg = frozen_segformer(images.front());
  const tfm::EfficientViTB0Like evit = frozen_efficientvit(images.front());
  const tfm::NonlinearProvider nl = full_provider_cold();

  tfm::Workspace ws;
  for (const tfm::Tensor& img : images) {
    const tfm::QTensor ref_int = seg.forward_int(img, nl);
    const tfm::Tensor ref_fp = seg.forward_fp(img);
    const tfm::QTensor a = seg.forward_int(img, nl, nullptr, &ws);
    const tfm::QTensor b = seg.forward_int(img, nl, nullptr, &ws);
    EXPECT_EQ(ref_int.data(), a.data());
    EXPECT_EQ(a.data(), b.data());
    const tfm::Tensor fa = seg.forward_fp(img, &ws);
    const tfm::Tensor fb = seg.forward_fp(img, &ws);
    EXPECT_EQ(ref_fp.data(), fa.data());
    EXPECT_EQ(fa.data(), fb.data());
  }
  // Same workspace across models: buckets are size-keyed, not model-keyed.
  const tfm::QTensor ev_ref = evit.forward_int(images[0], nl);
  const tfm::QTensor ev_a = evit.forward_int(images[0], nl, nullptr, &ws);
  const tfm::QTensor ev_b = evit.forward_int(images[0], nl, nullptr, &ws);
  EXPECT_EQ(ev_ref.data(), ev_a.data());
  EXPECT_EQ(ev_a.data(), ev_b.data());
  EXPECT_GT(ws.parked(), 0U);
}

TEST(Workspace, AcquireZeroFillsRecycledStorage) {
  // Sizes are above the internal small-buffer floor so the buffers really
  // flow through the pool (tiny ones bypass it by design).
  tfm::Workspace ws;
  tfm::Tensor t = ws.tensor(tfm::Shape{64, 64});
  for (float& v : t.data()) v = 7.5F;
  ws.release(std::move(t));
  const tfm::Tensor again = ws.tensor(tfm::Shape{64, 64});
  for (float v : again.data()) EXPECT_EQ(v, 0.0F);

  tfm::QTensor q = ws.qtensor(tfm::Shape{48, 48}, QuantParams{0.5, 8, true});
  for (std::int32_t& v : q.data()) v = -3;
  ws.release(std::move(q));
  const tfm::QTensor q2 =
      ws.qtensor(tfm::Shape{48, 48}, QuantParams{0.5, 8, true});
  for (std::int32_t v : q2.data()) EXPECT_EQ(v, 0);

  std::vector<std::int64_t> s = ws.i64(4096);
  s[0] = 42;
  ws.release(std::move(s));
  const std::vector<std::int64_t> s2 = ws.i64(4096);
  EXPECT_EQ(s2[0], 0);

  // Tiny buffers bypass the pool but must still come back zeroed.
  tfm::Tensor small = ws.tensor(tfm::Shape{4, 4});
  for (float& v : small.data()) v = 1.0F;
  ws.release(std::move(small));
  const tfm::Tensor small2 = ws.tensor(tfm::Shape{4, 4});
  for (float v : small2.data()) EXPECT_EQ(v, 0.0F);
}

TEST(Workspace, AdoptsForeignTensorsAndMatchesSizeClasses) {
  tfm::Workspace ws;
  ws.release(tfm::Tensor(tfm::Shape{2, 2048}));  // never acquired here
  EXPECT_EQ(ws.parked(), 1U);
  // Same size class, different shape: the bucket matches on element count.
  const tfm::Tensor t = ws.tensor(tfm::Shape{4096});
  EXPECT_EQ(ws.parked(), 0U);
  EXPECT_EQ(t.numel(), 4096);
  // Steady-state serving must stop touching the allocator entirely.
  ws.release(tfm::Tensor(tfm::Shape{4096}));
  (void)ws.tensor(tfm::Shape{4096});
  (void)ws.tensor(tfm::Shape{4096});
  EXPECT_EQ(ws.stats().grows, 0U);
}

TEST(Workspace, ModelForwardsAllocateNothingAfterTheFirst) {
  // workspace.h promises that after the first image a forward makes no
  // allocator calls. Default-size models (the serving shapes) through one
  // workspace each: every acquire from the second forward on must reuse a
  // parked buffer that already covers it.
  const std::vector<tfm::Tensor> images = test_images(6, 64);
  tfm::SegformerB0Like seg;
  seg.calibrate(images.front());
  seg.freeze();
  tfm::EfficientViTB0Like evit;
  evit.calibrate(images.front());
  evit.freeze();
  const tfm::NonlinearProvider nl = full_provider_cold();
  auto expect_steady = [&](const auto& model, const char* name) {
    tfm::Workspace ws;
    for (std::size_t i = 0; i < images.size(); ++i) {
      const tfm::Workspace::Stats before = ws.stats();
      (void)model.forward_int(images[i], nl, nullptr, &ws);
      if (i < 1) continue;
      EXPECT_GT(ws.stats().acquires, before.acquires) << name;
      EXPECT_EQ(ws.stats().fresh, before.fresh) << name << " forward " << i + 1;
      EXPECT_EQ(ws.stats().grows, before.grows) << name << " forward " << i + 1;
    }
  };
  expect_steady(seg, "segformer");
  expect_steady(evit, "efficientvit");
}

// The EfficientViT task must use EfficientViT's own argmax (regression:
// it silently borrowed SegformerB0Like's static).
TEST(ArgmaxLabels, EfficientViTHasItsOwnStatic) {
  tfm::Tensor logits(tfm::Shape{3, 2, 2});
  logits.at(0, 0, 0) = 1.0F;  // pixel (0,0): class 0
  logits.at(2, 0, 1) = 2.0F;  // pixel (0,1): class 2
  logits.at(1, 1, 0) = 3.0F;  // pixel (1,0): class 1
  // pixel (1,1): all equal -> lowest class id wins (0)
  const std::vector<int> expected = {0, 2, 1, 0};
  EXPECT_EQ(tfm::EfficientViTB0Like::argmax_labels(logits), expected);
  EXPECT_EQ(tfm::SegformerB0Like::argmax_labels(logits), expected);

  tfm::QTensor q(tfm::Shape{3, 2, 2}, QuantParams{1.0, 8, true});
  q.at(0, 0, 0) = 5;
  q.at(2, 0, 1) = 6;
  q.at(1, 1, 0) = 7;
  EXPECT_EQ(tfm::EfficientViTB0Like::argmax_labels(q), expected);
  EXPECT_EQ(tfm::SegformerB0Like::argmax_labels(q), expected);
}

}  // namespace
}  // namespace gqa
