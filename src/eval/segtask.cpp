#include "eval/segtask.h"

#include <type_traits>
#include <utility>

#include "util/contracts.h"

namespace gqa {

namespace {

template <typename ModelT>
std::vector<int> labels_at(const LabeledScene& scene, int stride) {
  return downsample_labels(scene.labels, scene.size, scene.size / stride,
                           scene.size / stride);
}

}  // namespace

template <typename ModelT>
SegTask<ModelT>::SegTask(ModelT model, int label_stride,
                         const SegTaskOptions& options)
    : model_(std::move(model)), options_(options), label_stride_(label_stride) {
  GQA_EXPECTS(options.train_scenes >= 1 && options.eval_scenes >= 1);
  GQA_EXPECTS(options.calib_scenes >= 1 &&
              options.calib_scenes <= options.train_scenes);
  GQA_EXPECTS(options.num_threads >= 0);
  EngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  engine_ = std::make_unique<InferenceEngine>(engine_options);

  const std::vector<LabeledScene> train =
      make_scene_set(options.scene, options.train_scenes, options.train_seed);
  std::vector<tfm::Tensor> images;
  std::vector<std::vector<int>> labels;
  images.reserve(train.size());
  for (const LabeledScene& s : train) {
    images.push_back(s.image);
    labels.push_back(labels_at<ModelT>(s, label_stride_));
  }
  model_.train_classifier(images, labels, options.probe_epochs,
                          options.probe_lr);
  for (int i = 0; i < options.calib_scenes; ++i) {
    model_.calibrate(train[static_cast<std::size_t>(i)].image);
  }
  model_.freeze();

  for (LabeledScene& s : make_scene_set(options.scene, options.eval_scenes,
                                        options.eval_seed)) {
    eval_labels_.push_back(labels_at<ModelT>(s, label_stride_));
    eval_images_.push_back(std::move(s.image));
  }
}

// The harness calls ModelT::argmax_labels, so every served model must
// expose its own statics — a regression once had the EfficientViT task
// silently borrowing SegformerB0Like's.
template <typename ModelT>
constexpr bool kHasOwnArgmax =
    std::is_same_v<decltype(ModelT::argmax_labels(
                       std::declval<const tfm::QTensor&>())),
                   std::vector<int>> &&
    std::is_same_v<decltype(ModelT::argmax_labels(
                       std::declval<const tfm::Tensor&>())),
                   std::vector<int>>;
static_assert(kHasOwnArgmax<tfm::SegformerB0Like> &&
                  kHasOwnArgmax<tfm::EfficientViTB0Like>,
              "every SegTask model must expose its own argmax_labels statics");

template <typename ModelT>
double SegTask<ModelT>::miou_fp() const {
  ConfusionMatrix cm(options_.scene.num_classes);
  const std::vector<std::vector<int>> predicted =
      engine_->labels_fp(model_, eval_images_);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    cm.add(eval_labels_[i], predicted[i]);
  }
  return cm.mean_iou();
}

template <typename ModelT>
double SegTask<ModelT>::miou_int(const tfm::NonlinearProvider& nl) const {
  ConfusionMatrix cm(options_.scene.num_classes);
  // The engine pre-warms the provider before dispatch.
  const std::vector<std::vector<int>> predicted =
      engine_->labels_int(model_, eval_images_, nl);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    cm.add(eval_labels_[i], predicted[i]);
  }
  return cm.mean_iou();
}

template class SegTask<tfm::SegformerB0Like>;
template class SegTask<tfm::EfficientViTB0Like>;

SegformerTask make_segformer_task(const SegTaskOptions& options) {
  tfm::SegformerConfig config;
  config.image_size = options.scene.size;
  config.num_classes = options.scene.num_classes;
  return SegformerTask(tfm::SegformerB0Like(config), 4, options);
}

EfficientViTTask make_efficientvit_task(const SegTaskOptions& options) {
  tfm::EfficientViTConfig config;
  config.image_size = options.scene.size;
  config.num_classes = options.scene.num_classes;
  return EfficientViTTask(tfm::EfficientViTB0Like(config), 8, options);
}

std::vector<ReplacementRow> segformer_rows() {
  return {
      {"EXP only", {Op::kExp}},
      {"GELU only", {Op::kGelu}},
      {"DIV only", {Op::kDiv}},
      {"RSQRT only", {Op::kRsqrt}},
      {"Altogether", {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt}},
  };
}

std::vector<ReplacementRow> efficientvit_rows() {
  return {
      {"HSWISH only", {Op::kHswish}},
      {"DIV only", {Op::kDiv}},
      {"Altogether", {Op::kHswish, Op::kDiv}},
  };
}

}  // namespace gqa
