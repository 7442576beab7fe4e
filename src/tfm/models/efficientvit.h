// EfficientViT-B0-like lightweight segmentation model (§4.2, Table 5).
//
// Linear-attention ViT for edge devices: convolutional stem, MBConv stages
// with HSWISH activations, EfficientViT modules (ReLU linear attention +
// MBConv) in the deep stages, and a light segmentation head. Its only
// non-linear operators are HSWISH and DIV — exactly the Table 5 rows.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tfm/modules.h"

namespace gqa::tfm {

struct EfficientViTConfig {
  int image_size = 64;
  int in_channels = 3;
  int num_classes = 19;
  std::vector<int> widths = {12, 24, 48, 96};  ///< B0-like channel widths
  int expand = 4;
  int head_dim = 96;
  std::uint64_t seed = 0xEF17;
};

class EfficientViTB0Like {
 public:
  explicit EfficientViTB0Like(const EfficientViTConfig& config = {});

  /// FP32 logits {num_classes, H/8, W/8}. A non-null workspace reuses
  /// layer-output storage across calls (bit-identical, one workspace per
  /// thread).
  [[nodiscard]] Tensor forward_fp(const Tensor& image,
                                  Workspace* ws = nullptr) const;

  /// FP32 penultimate features {H/8·W/8, head_dim} (post-HSWISH tokens).
  [[nodiscard]] Tensor penultimate_fp(const Tensor& image,
                                      Workspace* ws = nullptr) const;

  /// Trains the final classifier (softmax linear probe) on labels at
  /// H/8 x W/8 resolution. Must run before calibrate()/freeze().
  void train_classifier(const std::vector<Tensor>& images,
                        const std::vector<std::vector<int>>& eighth_labels,
                        int epochs = 40, double learning_rate = 0.15);

  void calibrate(const Tensor& image);
  void freeze();
  /// Integer-only logits; the workspace works as in forward_fp.
  [[nodiscard]] QTensor forward_int(const Tensor& image,
                                    const NonlinearProvider& nl,
                                    // perfbench/src/serving.cpp passes nullptr
                                    std::nullptr_t = nullptr,
                                    Workspace* ws = nullptr) const;

  /// Per-pixel argmax labels of a logits map {C, h, w}. Every model exposes
  /// its own static so generic harnesses (SegTask) can write
  /// ModelT::argmax_labels without silently borrowing another model's.
  [[nodiscard]] static std::vector<int> argmax_labels(const Tensor& logits);
  [[nodiscard]] static std::vector<int> argmax_labels(const QTensor& logits);

  [[nodiscard]] const EfficientViTConfig& config() const { return config_; }

 private:
  struct EvitModule {
    std::unique_ptr<LinearAttention> attn;
    ResidualAdd add;
    std::unique_ptr<MbConv> ffn;
  };

  EfficientViTConfig config_;
  std::unique_ptr<Conv2d> stem_;
  Activation stem_act_{Op::kHswish};
  std::unique_ptr<MbConv> stage1_, stage2_, stage3_;
  EvitModule evit3_, evit4_;
  std::unique_ptr<MbConv> stage4_;
  // Multi-scale head at H/8: concat(stage3 @ H/8, upsample(stage4 @ H/16)),
  // 1x1 conv + HSWISH, classifier.
  std::unique_ptr<Conv2d> head_conv_;
  Activation head_act_{Op::kHswish};
  std::unique_ptr<Conv2d> classifier_;
  RangeObserver input_obs_;
  RangeObserver fuse_obs_;
  QuantParams input_qp_, fuse_qp_;
  Requantizer rq_f3_, rq_f4_;
  bool frozen_ = false;
};

}  // namespace gqa::tfm
