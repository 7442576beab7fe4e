#include "tfm/models/segformer.h"

#include <cmath>

#include "tfm/probe.h"
#include "util/contracts.h"

namespace gqa::tfm {

namespace {

/// Nearest-neighbour upsample of a {C,h,w} map to {C,H,W} (integer-exact:
/// codes are replicated, scales unchanged).
template <typename T>
T upsample_nearest(const T& x, int out_h, int out_w,
                   Workspace* ws = nullptr) {
  const int c = x.shape()[0];
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  T y = [&] {
    if constexpr (std::is_same_v<T, QTensor>) {
      return ws_qtensor(ws, Shape{c, out_h, out_w}, x.params());
    } else {
      return ws_tensor(ws, Shape{c, out_h, out_w});
    }
  }();
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < out_h; ++oy) {
      const int iy = oy * h / out_h;
      for (int ox = 0; ox < out_w; ++ox) {
        const int ix = ox * w / out_w;
        y.at(ch, oy, ox) = x.at(ch, iy, ix);
      }
    }
  }
  return y;
}

}  // namespace

SegformerB0Like::SegformerB0Like(const SegformerConfig& config)
    : config_(config) {
  GQA_EXPECTS(config.dims.size() == 4 && config.heads.size() == 4 &&
              config.sr_ratios.size() == 4 && config.depths.size() == 4);
  GQA_EXPECTS(config.image_size % 32 == 0 || config.image_size % 16 == 0);
  Rng rng(config.seed);

  int in_ch = config.in_channels;
  for (int s = 0; s < 4; ++s) {
    Stage stage;
    const int dim = config.dims[static_cast<std::size_t>(s)];
    // Overlapped patch embedding: 7x7 stride 4 for stage 0, 3x3 stride 2
    // afterwards (Segformer design).
    if (s == 0) {
      stage.patch_embed = std::make_unique<Conv2d>(in_ch, dim, 7, 4, 3, rng);
    } else {
      stage.patch_embed = std::make_unique<Conv2d>(in_ch, dim, 3, 2, 1, rng);
    }
    stage.embed_norm = std::make_unique<LayerNorm>(dim, rng);
    for (int b = 0; b < config.depths[static_cast<std::size_t>(s)]; ++b) {
      Block block;
      block.ln1 = std::make_unique<LayerNorm>(dim, rng);
      block.attn = std::make_unique<AttentionSR>(
          dim, config.heads[static_cast<std::size_t>(s)],
          config.sr_ratios[static_cast<std::size_t>(s)], rng);
      block.ln2 = std::make_unique<LayerNorm>(dim, rng);
      block.ffn = std::make_unique<MixFfn>(dim, dim * config.mlp_ratio, rng);
      stage.blocks.push_back(std::move(block));
    }
    stage.out_norm = std::make_unique<LayerNorm>(dim, rng);
    stages_.push_back(std::move(stage));
    in_ch = dim;
  }

  for (int s = 0; s < 4; ++s) {
    head_linears_.push_back(std::make_unique<Linear>(
        config.dims[static_cast<std::size_t>(s)], config.decoder_dim, rng));
  }
  head_fuse_ = std::make_unique<Linear>(4 * config.decoder_dim,
                                        config.decoder_dim, rng);
  head_classifier_ =
      std::make_unique<Linear>(config.decoder_dim, config.num_classes, rng);
  head_rq_.resize(4);
}

Tensor SegformerB0Like::penultimate_fp(const Tensor& image,
                                       Workspace* ws) const {
  GQA_EXPECTS(image.shape().rank() == 3 &&
              image.shape()[0] == config_.in_channels);
  Tensor x = image;
  std::vector<Tensor> features;
  for (const Stage& stage : stages_) {
    Tensor map = stage.patch_embed->forward_fp(x, ws);
    if (&stage != &stages_.front()) ws_release(ws, std::move(x));
    const int h = map.shape()[1];
    const int w = map.shape()[2];
    Tensor map_tokens = to_tokens(map, ws);
    ws_release(ws, std::move(map));
    Tensor tokens = stage.embed_norm->forward_fp(map_tokens, ws);
    ws_release(ws, std::move(map_tokens));
    for (const Block& block : stage.blocks) {
      Tensor n1 = block.ln1->forward_fp(tokens, ws);
      Tensor a = block.attn->forward_fp(n1, h, w, ws);
      ws_release(ws, std::move(n1));
      Tensor sum1 = block.add1.forward_fp(tokens, a, ws);
      ws_release(ws, std::move(a));
      ws_release(ws, std::move(tokens));
      tokens = std::move(sum1);
      Tensor n2 = block.ln2->forward_fp(tokens, ws);
      Tensor f = block.ffn->forward_fp(n2, h, w, ws);
      ws_release(ws, std::move(n2));
      Tensor sum2 = block.add2.forward_fp(tokens, f, ws);
      ws_release(ws, std::move(f));
      ws_release(ws, std::move(tokens));
      tokens = std::move(sum2);
    }
    Tensor normed = stage.out_norm->forward_fp(tokens, ws);
    ws_release(ws, std::move(tokens));
    x = from_tokens(normed, h, w, ws);
    ws_release(ws, std::move(normed));
    features.push_back(x);
  }

  // Decode head at 1/4 resolution.
  const int oh = features[0].shape()[1];
  const int ow = features[0].shape()[2];
  Tensor fused = ws_tensor(ws, Shape{oh * ow, 4 * config_.decoder_dim});
  for (int s = 0; s < 4; ++s) {
    Tensor& feat = features[static_cast<std::size_t>(s)];
    Tensor feat_tokens = to_tokens(feat, ws);
    Tensor proj = head_linears_[static_cast<std::size_t>(s)]->forward_fp(
        feat_tokens, ws);
    ws_release(ws, std::move(feat_tokens));
    Tensor proj_map = from_tokens(proj, feat.shape()[1], feat.shape()[2], ws);
    ws_release(ws, std::move(proj));
    Tensor up = upsample_nearest(proj_map, oh, ow, ws);
    ws_release(ws, std::move(proj_map));
    Tensor up_tokens = to_tokens(up, ws);
    ws_release(ws, std::move(up));
    for (int i = 0; i < oh * ow; ++i) {
      for (int d = 0; d < config_.decoder_dim; ++d) {
        fused.at(i, s * config_.decoder_dim + d) = up_tokens.at(i, d);
      }
    }
    ws_release(ws, std::move(up_tokens));
    ws_release(ws, std::move(feat));
  }
  Tensor y = head_fuse_->forward_fp(fused, ws);
  ws_release(ws, std::move(fused));
  for (float& v : y.data()) v = std::max(v, 0.0F);  // head ReLU
  return y;
}

Tensor SegformerB0Like::forward_fp(const Tensor& image, Workspace* ws) const {
  Tensor y = penultimate_fp(image, ws);
  const int side = config_.image_size / 4;
  Tensor logits = head_classifier_->forward_fp(y, ws);
  ws_release(ws, std::move(y));
  Tensor out = from_tokens(logits, side, side);
  ws_release(ws, std::move(logits));
  return out;
}

void SegformerB0Like::train_classifier(
    const std::vector<Tensor>& images,
    const std::vector<std::vector<int>>& quarter_labels, int epochs,
    double learning_rate) {
  GQA_EXPECTS(images.size() == quarter_labels.size() && !images.empty());
  std::vector<Tensor> features;
  features.reserve(images.size());
  for (const Tensor& image : images) features.push_back(penultimate_fp(image));
  (void)train_softmax_probe(
      features, quarter_labels, config_.num_classes,
      std::span<float>(head_classifier_->weights().data()),
      std::span<float>(head_classifier_->bias().data()), epochs, learning_rate,
      config_.seed ^ 0x7EA1);
}

void SegformerB0Like::calibrate(const Tensor& image) {
  input_obs_.observe(std::span<const float>(image.data()));
  Tensor x = image;
  std::vector<Tensor> features;
  for (Stage& stage : stages_) {
    Tensor map = stage.patch_embed->calibrate(x);
    const int h = map.shape()[1];
    const int w = map.shape()[2];
    Tensor tokens = stage.embed_norm->calibrate(to_tokens(map));
    for (Block& block : stage.blocks) {
      Tensor a = block.attn->calibrate(block.ln1->calibrate(tokens), h, w);
      tokens = block.add1.calibrate(tokens, a);
      Tensor f = block.ffn->calibrate(block.ln2->calibrate(tokens), h, w);
      tokens = block.add2.calibrate(tokens, f);
    }
    tokens = stage.out_norm->calibrate(tokens);
    x = from_tokens(tokens, h, w);
    features.push_back(x);
  }

  const int oh = features[0].shape()[1];
  const int ow = features[0].shape()[2];
  Tensor fused(Shape{oh * ow, 4 * config_.decoder_dim});
  for (int s = 0; s < 4; ++s) {
    Tensor proj = head_linears_[static_cast<std::size_t>(s)]->calibrate(
        to_tokens(features[static_cast<std::size_t>(s)]));
    head_obs_.observe(std::span<const float>(proj.data()));
    Tensor up = upsample_nearest(
        from_tokens(proj, features[static_cast<std::size_t>(s)].shape()[1],
                    features[static_cast<std::size_t>(s)].shape()[2]),
        oh, ow);
    const Tensor up_tokens = to_tokens(up);
    for (int i = 0; i < oh * ow; ++i) {
      for (int d = 0; d < config_.decoder_dim; ++d) {
        fused.at(i, s * config_.decoder_dim + d) = up_tokens.at(i, d);
      }
    }
  }
  Tensor y = head_fuse_->calibrate(fused);
  for (float& v : y.data()) v = std::max(v, 0.0F);
  (void)head_classifier_->calibrate(y);
}

void SegformerB0Like::freeze() {
  GQA_EXPECTS_MSG(!input_obs_.empty(), "freeze() requires prior calibration");
  const QuantPolicy policy;
  input_qp_ = input_obs_.make_po2(policy.act_bits);
  QuantParams qp = input_qp_;
  std::vector<QuantParams> feature_qps;
  for (Stage& stage : stages_) {
    qp = stage.patch_embed->freeze(qp, policy);
    qp = stage.embed_norm->freeze(qp, policy);
    stage.token_qp = qp;
    for (Block& block : stage.blocks) {
      const QuantParams ln1_qp = block.ln1->freeze(qp, policy);
      const QuantParams attn_qp = block.attn->freeze(ln1_qp, policy);
      qp = block.add1.freeze(qp, attn_qp, policy);
      const QuantParams ln2_qp = block.ln2->freeze(qp, policy);
      const QuantParams ffn_qp = block.ffn->freeze(ln2_qp, policy);
      qp = block.add2.freeze(qp, ffn_qp, policy);
    }
    qp = stage.out_norm->freeze(qp, policy);
    feature_qps.push_back(qp);
  }

  const QuantPolicy policy_head;
  head_qp_ = head_obs_.make_po2(policy_head.act_bits);
  QuantParams fused_qp = head_qp_;
  for (int s = 0; s < 4; ++s) {
    const QuantParams proj_qp = head_linears_[static_cast<std::size_t>(s)]
                                    ->freeze(feature_qps[static_cast<std::size_t>(s)],
                                             policy_head);
    head_rq_[static_cast<std::size_t>(s)] =
        Requantizer(proj_qp.scale, head_qp_);
  }
  QuantParams y_qp = head_fuse_->freeze(fused_qp, policy_head);
  (void)head_classifier_->freeze(y_qp, policy_head);
  frozen_ = true;
}

QTensor SegformerB0Like::forward_int(const Tensor& image,
                                     const NonlinearProvider& nl,
                                     std::nullptr_t, Workspace* ws) const {
  GQA_EXPECTS_MSG(frozen_, "forward_int() requires freeze()");
  QTensor x = QTensor::quantize(image, input_qp_);
  std::vector<QTensor> features;
  for (const Stage& stage : stages_) {
    QTensor map = stage.patch_embed->forward_int(x, ws);
    ws_release(ws, std::move(x));
    const int h = map.shape()[1];
    const int w = map.shape()[2];
    QTensor map_tokens = to_tokens(map, ws);
    ws_release(ws, std::move(map));
    QTensor tokens = stage.embed_norm->forward_int(map_tokens, nl, ws);
    ws_release(ws, std::move(map_tokens));
    for (const Block& block : stage.blocks) {
      QTensor n1 = block.ln1->forward_int(tokens, nl, ws);
      QTensor a = block.attn->forward_int(n1, h, w, nl, ws);
      ws_release(ws, std::move(n1));
      QTensor sum1 = block.add1.forward_int(tokens, a, ws);
      ws_release(ws, std::move(a));
      ws_release(ws, std::move(tokens));
      tokens = std::move(sum1);
      QTensor n2 = block.ln2->forward_int(tokens, nl, ws);
      QTensor f = block.ffn->forward_int(n2, h, w, nl, ws);
      ws_release(ws, std::move(n2));
      QTensor sum2 = block.add2.forward_int(tokens, f, ws);
      ws_release(ws, std::move(f));
      ws_release(ws, std::move(tokens));
      tokens = std::move(sum2);
    }
    QTensor normed = stage.out_norm->forward_int(tokens, nl, ws);
    ws_release(ws, std::move(tokens));
    x = from_tokens(normed, h, w, ws);
    ws_release(ws, std::move(normed));
    features.push_back(x);
  }

  const int oh = features[0].shape()[1];
  const int ow = features[0].shape()[2];
  QTensor fused = ws_qtensor(ws, Shape{oh * ow, 4 * config_.decoder_dim},
                             head_qp_);
  for (int s = 0; s < 4; ++s) {
    QTensor& feat = features[static_cast<std::size_t>(s)];
    QTensor feat_tokens = to_tokens(feat, ws);
    QTensor proj = head_linears_[static_cast<std::size_t>(s)]->forward_int(
        feat_tokens, ws);
    ws_release(ws, std::move(feat_tokens));
    // Requantize onto the common head scale, then upsample codes.
    QTensor aligned = ws_qtensor(ws, proj.shape(), head_qp_);
    requantize_row(head_rq_[static_cast<std::size_t>(s)], proj.data().data(),
                   aligned.data().data(), proj.data().size());
    ws_release(ws, std::move(proj));
    QTensor aligned_map =
        from_tokens(aligned, feat.shape()[1], feat.shape()[2], ws);
    ws_release(ws, std::move(aligned));
    QTensor up = upsample_nearest(aligned_map, oh, ow, ws);
    ws_release(ws, std::move(aligned_map));
    QTensor up_tokens = to_tokens(up, ws);
    ws_release(ws, std::move(up));
    for (int i = 0; i < oh * ow; ++i) {
      for (int d = 0; d < config_.decoder_dim; ++d) {
        fused.at(i, s * config_.decoder_dim + d) = up_tokens.at(i, d);
      }
    }
    ws_release(ws, std::move(up_tokens));
    ws_release(ws, std::move(feat));
  }
  QTensor y = head_fuse_->forward_int(fused, ws);
  ws_release(ws, std::move(fused));
  for (std::int32_t& v : y.data()) v = std::max(v, 0);  // integer ReLU
  QTensor logits = head_classifier_->forward_int(y, ws);
  ws_release(ws, std::move(y));
  QTensor out = from_tokens(logits, oh, ow);
  ws_release(ws, std::move(logits));
  return out;
}

std::vector<int> SegformerB0Like::argmax_labels(const Tensor& logits) {
  return argmax_label_map(logits);
}

std::vector<int> SegformerB0Like::argmax_labels(const QTensor& logits) {
  return argmax_label_map(logits);
}

}  // namespace gqa::tfm
