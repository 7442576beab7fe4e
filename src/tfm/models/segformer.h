// Segformer-B0-like semantic segmentation model (§4.2, Table 4).
//
// Same op inventory and architecture family as Segformer-B0 — overlapped
// patch embeddings, spatial-reduction attention (EXP + DIV via Softmax),
// Mix-FFN with GELU, LayerNorm (RSQRT) everywhere, and the all-MLP decode
// head — at reduced input resolution so the CPU reproduction stays fast.
// The FP32 path acts as the teacher; forward_int runs the integer-only
// pipeline with non-linearities served by a NonlinearProvider.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tfm/modules.h"

namespace gqa::tfm {

struct SegformerConfig {
  int image_size = 64;
  int in_channels = 3;
  int num_classes = 19;               ///< Cityscapes classes
  std::vector<int> dims = {32, 64, 160, 256};   ///< B0 widths
  std::vector<int> heads = {1, 2, 5, 8};
  std::vector<int> sr_ratios = {8, 4, 2, 1};
  std::vector<int> depths = {2, 2, 2, 2};
  int mlp_ratio = 4;
  int decoder_dim = 128;
  std::uint64_t seed = 0x5E6F;
};

class SegformerB0Like {
 public:
  explicit SegformerB0Like(const SegformerConfig& config = {});

  /// FP32 logits {num_classes, H/4, W/4}. A non-null workspace reuses
  /// layer-output storage across calls (bit-identical, one workspace per
  /// thread).
  [[nodiscard]] Tensor forward_fp(const Tensor& image,
                                  Workspace* ws = nullptr) const;

  /// FP32 penultimate features: relu(fused decode tokens), {H/4·W/4, dim}.
  [[nodiscard]] Tensor penultimate_fp(const Tensor& image,
                                      Workspace* ws = nullptr) const;

  /// Trains the final classifier (softmax linear probe, frozen backbone)
  /// on labels at H/4 x W/4 resolution — the reproduction's stand-in for
  /// Cityscapes fine-tuning. Must run before calibrate()/freeze().
  void train_classifier(const std::vector<Tensor>& images,
                        const std::vector<std::vector<int>>& quarter_labels,
                        int epochs = 40, double learning_rate = 0.15);

  /// Runs the FP32 path recording activation ranges.
  void calibrate(const Tensor& image);

  /// Builds the integer model (weights, scales, requantizers).
  void freeze();

  /// Integer-only logits; the image is quantized at the input observer's
  /// power-of-two scale. A non-null workspace reuses layer-output storage
  /// as in forward_fp.
  [[nodiscard]] QTensor forward_int(const Tensor& image,
                                    const NonlinearProvider& nl,
                                    // perfbench/src/serving.cpp passes nullptr
                                    std::nullptr_t = nullptr,
                                    Workspace* ws = nullptr) const;

  /// Per-pixel argmax labels of a logits map {C, h, w}.
  [[nodiscard]] static std::vector<int> argmax_labels(const Tensor& logits);
  [[nodiscard]] static std::vector<int> argmax_labels(const QTensor& logits);

  [[nodiscard]] const SegformerConfig& config() const { return config_; }

 private:
  struct Block {
    std::unique_ptr<LayerNorm> ln1, ln2;
    std::unique_ptr<AttentionSR> attn;
    std::unique_ptr<MixFfn> ffn;
    ResidualAdd add1, add2;
  };
  struct Stage {
    std::unique_ptr<Conv2d> patch_embed;
    std::unique_ptr<LayerNorm> embed_norm;
    std::vector<Block> blocks;
    std::unique_ptr<LayerNorm> out_norm;
    QuantParams token_qp;  ///< frozen activation params entering the blocks
  };

  SegformerConfig config_;
  std::vector<Stage> stages_;
  // All-MLP decode head: per-stage linear to decoder_dim, nearest-neighbour
  // upsample to 1/4 resolution, concat, fuse, classify.
  std::vector<std::unique_ptr<Linear>> head_linears_;
  std::unique_ptr<Linear> head_fuse_;
  std::unique_ptr<Linear> head_classifier_;
  RangeObserver input_obs_;
  QuantParams input_qp_;
  // Common scale the upsampled per-stage features are requantized onto.
  RangeObserver head_obs_;
  QuantParams head_qp_;
  std::vector<Requantizer> head_rq_;
  bool frozen_ = false;
};

}  // namespace gqa::tfm
