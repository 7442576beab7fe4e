#include "tfm/models/efficientvit.h"

#include "tfm/probe.h"
#include "util/contracts.h"

namespace gqa::tfm {

namespace {

template <typename T>
T upsample2x(const T& x, Workspace* ws = nullptr) {
  const int c = x.shape()[0];
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  T y = [&] {
    if constexpr (std::is_same_v<T, QTensor>) {
      return ws_qtensor(ws, Shape{c, 2 * h, 2 * w}, x.params());
    } else {
      return ws_tensor(ws, Shape{c, 2 * h, 2 * w});
    }
  }();
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < 2 * h; ++oy) {
      for (int ox = 0; ox < 2 * w; ++ox) {
        y.at(ch, oy, ox) = x.at(ch, oy / 2, ox / 2);
      }
    }
  }
  return y;
}

template <typename Fn, typename TensorT>
TensorT attn_tokens(Fn&& attn, const TensorT& map, Workspace* ws = nullptr) {
  const int h = map.shape()[1];
  const int w = map.shape()[2];
  auto tokens = to_tokens(map, ws);
  auto out = attn(tokens);
  ws_release(ws, std::move(tokens));
  auto result = from_tokens(out, h, w, ws);
  ws_release(ws, std::move(out));
  return result;
}

}  // namespace

EfficientViTB0Like::EfficientViTB0Like(const EfficientViTConfig& config)
    : config_(config) {
  GQA_EXPECTS(config.widths.size() == 4);
  Rng rng(config.seed);
  const auto& w = config.widths;
  // Stem: 3x3 stride-2 conv + HSWISH -> H/2.
  stem_ = std::make_unique<Conv2d>(config.in_channels, w[0], 3, 2, 1, rng);
  stem_->set_po2_output(true);  // HSWISH pwl consumes the stem output
  // Stage 1: MBConv stride 2 -> H/4.
  stage1_ = std::make_unique<MbConv>(w[0], w[1], config.expand, 2, rng);
  // Stage 2: MBConv stride 2 -> H/8.
  stage2_ = std::make_unique<MbConv>(w[1], w[2], config.expand, 2, rng);
  // Stage 3: MBConv (stride 1) + EfficientViT module at H/8.
  stage3_ = std::make_unique<MbConv>(w[2], w[2], config.expand, 1, rng);
  evit3_.attn = std::make_unique<LinearAttention>(w[2], rng);
  evit3_.ffn = std::make_unique<MbConv>(w[2], w[2], config.expand, 1, rng);
  // Stage 4: MBConv stride 2 -> H/16 + EfficientViT module.
  stage4_ = std::make_unique<MbConv>(w[2], w[3], config.expand, 2, rng);
  evit4_.attn = std::make_unique<LinearAttention>(w[3], rng);
  evit4_.ffn = std::make_unique<MbConv>(w[3], w[3], config.expand, 1, rng);
  // Multi-scale head at H/8.
  head_conv_ = std::make_unique<Conv2d>(w[2] + w[3], config.head_dim, 1, 1, 0,
                                        rng);
  head_conv_->set_po2_output(true);  // HSWISH pwl consumes the head features
  classifier_ = std::make_unique<Conv2d>(config.head_dim, config.num_classes,
                                         1, 1, 0, rng);
}

namespace {

Tensor concat_maps(const Tensor& a, const Tensor& b) {
  GQA_EXPECTS(a.shape()[1] == b.shape()[1] && a.shape()[2] == b.shape()[2]);
  const int ca = a.shape()[0];
  const int cb = b.shape()[0];
  const int h = a.shape()[1];
  const int w = a.shape()[2];
  Tensor y(Shape{ca + cb, h, w});
  for (int c = 0; c < ca; ++c)
    for (int yy = 0; yy < h; ++yy)
      for (int xx = 0; xx < w; ++xx) y.at(c, yy, xx) = a.at(c, yy, xx);
  for (int c = 0; c < cb; ++c)
    for (int yy = 0; yy < h; ++yy)
      for (int xx = 0; xx < w; ++xx) y.at(ca + c, yy, xx) = b.at(c, yy, xx);
  return y;
}

}  // namespace

Tensor EfficientViTB0Like::penultimate_fp(const Tensor& image,
                                          Workspace* ws) const {
  Tensor stem = stem_->forward_fp(image, ws);
  Tensor x = stem_act_.forward_fp(stem, ws);
  ws_release(ws, std::move(stem));
  Tensor t = stage1_->forward_fp(x, ws);
  ws_release(ws, std::move(x));
  x = stage2_->forward_fp(t, ws);
  ws_release(ws, std::move(t));
  t = stage3_->forward_fp(x, ws);
  ws_release(ws, std::move(x));
  x = std::move(t);
  {
    Tensor a = attn_tokens(
        [this, ws](const Tensor& tk) {
          return evit3_.attn->forward_fp(tk, ws);
        },
        x, ws);
    Tensor sum = evit3_.add.forward_fp(x, a, ws);
    ws_release(ws, std::move(a));
    ws_release(ws, std::move(x));
    x = evit3_.ffn->forward_fp(sum, ws);
    ws_release(ws, std::move(sum));
  }
  const Tensor f3 = x;
  t = stage4_->forward_fp(x, ws);
  ws_release(ws, std::move(x));
  x = std::move(t);
  {
    Tensor a = attn_tokens(
        [this, ws](const Tensor& tk) {
          return evit4_.attn->forward_fp(tk, ws);
        },
        x, ws);
    Tensor sum = evit4_.add.forward_fp(x, a, ws);
    ws_release(ws, std::move(a));
    ws_release(ws, std::move(x));
    x = evit4_.ffn->forward_fp(sum, ws);
    ws_release(ws, std::move(sum));
  }
  Tensor up = upsample2x(x, ws);
  ws_release(ws, std::move(x));
  const Tensor fused = concat_maps(f3, up);
  ws_release(ws, std::move(up));
  Tensor conv = head_conv_->forward_fp(fused, ws);
  Tensor feat = head_act_.forward_fp(conv, ws);
  ws_release(ws, std::move(conv));
  Tensor out = to_tokens(feat, ws);
  ws_release(ws, std::move(feat));
  return out;
}

Tensor EfficientViTB0Like::forward_fp(const Tensor& image,
                                      Workspace* ws) const {
  Tensor tokens = penultimate_fp(image, ws);
  const int side = config_.image_size / 8;
  Tensor map = from_tokens(tokens, side, side, ws);
  ws_release(ws, std::move(tokens));
  Tensor out = classifier_->forward_fp(map, ws);
  ws_release(ws, std::move(map));
  return out;
}

void EfficientViTB0Like::train_classifier(
    const std::vector<Tensor>& images,
    const std::vector<std::vector<int>>& eighth_labels, int epochs,
    double learning_rate) {
  GQA_EXPECTS(images.size() == eighth_labels.size() && !images.empty());
  std::vector<Tensor> features;
  features.reserve(images.size());
  for (const Tensor& image : images) features.push_back(penultimate_fp(image));
  // A 1x1 conv classifier is a per-pixel linear map; its weight layout
  // {classes, dim, 1, 1} matches the probe's row-major {classes, dim}.
  (void)train_softmax_probe(
      features, eighth_labels, config_.num_classes,
      std::span<float>(classifier_->weights().data()),
      std::span<float>(classifier_->bias().data()), epochs, learning_rate,
      config_.seed ^ 0x7EA1);
}

void EfficientViTB0Like::calibrate(const Tensor& image) {
  input_obs_.observe(std::span<const float>(image.data()));
  Tensor x = stem_act_.calibrate(stem_->calibrate(image));
  x = stage1_->calibrate(x);
  x = stage2_->calibrate(x);
  x = stage3_->calibrate(x);
  {
    const Tensor a = attn_tokens(
        [this](const Tensor& t) { return evit3_.attn->calibrate(t); }, x);
    x = evit3_.add.calibrate(x, a);
    x = evit3_.ffn->calibrate(x);
  }
  const Tensor f3 = x;
  fuse_obs_.observe(std::span<const float>(f3.data()));
  x = stage4_->calibrate(x);
  {
    const Tensor a = attn_tokens(
        [this](const Tensor& t) { return evit4_.attn->calibrate(t); }, x);
    x = evit4_.add.calibrate(x, a);
    x = evit4_.ffn->calibrate(x);
  }
  fuse_obs_.observe(std::span<const float>(x.data()));
  const Tensor fused = concat_maps(f3, upsample2x(x));
  (void)classifier_->calibrate(
      head_act_.calibrate(head_conv_->calibrate(fused)));
}

void EfficientViTB0Like::freeze() {
  GQA_EXPECTS_MSG(!input_obs_.empty(), "freeze() requires prior calibration");
  const QuantPolicy policy;
  input_qp_ = input_obs_.make_po2(policy.act_bits);
  QuantParams qp = stem_->freeze(input_qp_, policy);
  qp = stem_act_.freeze(qp, policy);
  qp = stage1_->freeze(qp, policy);
  qp = stage2_->freeze(qp, policy);
  qp = stage3_->freeze(qp, policy);
  {
    const QuantParams a_qp = evit3_.attn->freeze(qp, policy);
    qp = evit3_.add.freeze(qp, a_qp, policy);
    qp = evit3_.ffn->freeze(qp, policy);
  }
  const QuantParams f3_qp = qp;
  qp = stage4_->freeze(qp, policy);
  {
    const QuantParams a_qp = evit4_.attn->freeze(qp, policy);
    qp = evit4_.add.freeze(qp, a_qp, policy);
    qp = evit4_.ffn->freeze(qp, policy);
  }
  // Concat requantization onto a shared scale.
  fuse_qp_ = fuse_obs_.make_params(policy.act_bits);
  rq_f3_ = Requantizer(f3_qp.scale, fuse_qp_);
  rq_f4_ = Requantizer(qp.scale, fuse_qp_);
  qp = head_conv_->freeze(fuse_qp_, policy);
  qp = head_act_.freeze(qp, policy);
  (void)classifier_->freeze(qp, policy);
  frozen_ = true;
}

QTensor EfficientViTB0Like::forward_int(const Tensor& image,
                                        const NonlinearProvider& nl,
                                        std::nullptr_t, Workspace* ws) const {
  GQA_EXPECTS_MSG(frozen_, "forward_int() requires freeze()");
  QTensor x = QTensor::quantize(image, input_qp_);
  QTensor stem = stem_->forward_int(x, ws);
  ws_release(ws, std::move(x));
  x = stem_act_.forward_int(stem, nl, ws);
  ws_release(ws, std::move(stem));
  QTensor t = stage1_->forward_int(x, nl, ws);
  ws_release(ws, std::move(x));
  x = stage2_->forward_int(t, nl, ws);
  ws_release(ws, std::move(t));
  t = stage3_->forward_int(x, nl, ws);
  ws_release(ws, std::move(x));
  x = std::move(t);
  {
    QTensor a = attn_tokens(
        [this, &nl, ws](const QTensor& tk) {
          return evit3_.attn->forward_int(tk, nl, ws);
        },
        x, ws);
    QTensor sum = evit3_.add.forward_int(x, a, ws);
    ws_release(ws, std::move(a));
    ws_release(ws, std::move(x));
    x = evit3_.ffn->forward_int(sum, nl, ws);
    ws_release(ws, std::move(sum));
  }
  const QTensor f3 = x;
  t = stage4_->forward_int(x, nl, ws);
  ws_release(ws, std::move(x));
  x = std::move(t);
  {
    QTensor a = attn_tokens(
        [this, &nl, ws](const QTensor& tk) {
          return evit4_.attn->forward_int(tk, nl, ws);
        },
        x, ws);
    QTensor sum = evit4_.add.forward_int(x, a, ws);
    ws_release(ws, std::move(a));
    ws_release(ws, std::move(x));
    x = evit4_.ffn->forward_int(sum, nl, ws);
    ws_release(ws, std::move(sum));
  }
  // Integer concat on the shared fuse scale.
  QTensor f4_up = upsample2x(x, ws);
  ws_release(ws, std::move(x));
  const int h = f3.shape()[1];
  const int w = f3.shape()[2];
  const int c3 = f3.shape()[0];
  const int c4 = f4_up.shape()[0];
  GQA_EXPECTS(f4_up.shape()[1] == h && f4_up.shape()[2] == w);
  QTensor fused = ws_qtensor(ws, Shape{c3 + c4, h, w}, fuse_qp_);
  // Channel-major maps: f3 fills the first c3 planes, f4_up the rest.
  requantize_row(rq_f3_, f3.data().data(), fused.data().data(),
                 f3.data().size());
  requantize_row(rq_f4_, f4_up.data().data(),
                 fused.data().data() + f3.data().size(), f4_up.data().size());
  ws_release(ws, std::move(f4_up));
  QTensor conv = head_conv_->forward_int(fused, ws);
  ws_release(ws, std::move(fused));
  QTensor feat = head_act_.forward_int(conv, nl, ws);
  ws_release(ws, std::move(conv));
  QTensor out = classifier_->forward_int(feat, ws);
  ws_release(ws, std::move(feat));
  return out;
}

std::vector<int> EfficientViTB0Like::argmax_labels(const Tensor& logits) {
  return argmax_label_map(logits);
}

std::vector<int> EfficientViTB0Like::argmax_labels(const QTensor& logits) {
  return argmax_label_map(logits);
}

}  // namespace gqa::tfm
