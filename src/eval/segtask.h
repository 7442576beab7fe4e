// End-to-end segmentation evaluation harness for Tables 4 and 5.
//
// Pipeline per model: train the classifier head on labeled synthetic
// scenes (the Cityscapes fine-tuning substitute), calibrate activation
// ranges, freeze the integer model, then measure mIoU against scene ground
// truth for the FP32 teacher, the INT8-exact baseline ("None"), and every
// (method, replaced-op-set) combination.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/approximator.h"
#include "eval/engine.h"
#include "eval/miou.h"
#include "eval/scene.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"

namespace gqa {

struct SegTaskOptions {
  int train_scenes = 256;
  int calib_scenes = 8;
  int eval_scenes = 24;
  int probe_epochs = 30;
  double probe_lr = 0.05;
  SceneOptions scene;
  std::uint64_t train_seed = 0x7124;
  std::uint64_t eval_seed = 0xE7A1;
  /// Lanes of the InferenceEngine the eval scenes stream through (one
  /// serial forward per image; bit-identical to serial at any count).
  /// 0 = the persistent process-wide pool (GQA_NUM_THREADS-sized); >= 1
  /// gives the task a private pool. Training/calibration stay serial.
  int num_threads = 1;
};

/// One Table 4/5 row: which ops are replaced, per-method mIoU.
struct ReplacementRow {
  std::string name;              ///< "EXP only", "Altogether", ...
  std::set<Op> replaced;
};

/// Prepared model + evaluation set for one of the two architectures.
template <typename ModelT>
class SegTask {
 public:
  /// Builds, head-trains, calibrates, and freezes the model.
  SegTask(ModelT model, int label_stride, const SegTaskOptions& options);

  /// mIoU of the FP32 teacher against scene ground truth.
  [[nodiscard]] double miou_fp() const;

  /// mIoU of the integer model with the given non-linearity backend.
  [[nodiscard]] double miou_int(const tfm::NonlinearProvider& nl) const;

  [[nodiscard]] const ModelT& model() const { return model_; }
  [[nodiscard]] const SegTaskOptions& options() const { return options_; }

 private:
  ModelT model_;
  SegTaskOptions options_;
  int label_stride_;
  std::vector<tfm::Tensor> eval_images_;  ///< one per eval scene (batch input)
  std::vector<std::vector<int>> eval_labels_;
  std::unique_ptr<InferenceEngine> engine_;  ///< scene-batched serving path
};

using SegformerTask = SegTask<tfm::SegformerB0Like>;
using EfficientViTTask = SegTask<tfm::EfficientViTB0Like>;

/// Builds the Table 4 task (Segformer, labels at 1/4 resolution).
[[nodiscard]] SegformerTask make_segformer_task(const SegTaskOptions& options = {});

/// Builds the Table 5 task (EfficientViT, labels at 1/8 resolution).
[[nodiscard]] EfficientViTTask make_efficientvit_task(
    const SegTaskOptions& options = {});

/// The replacement rows of Table 4 (Segformer ops).
[[nodiscard]] std::vector<ReplacementRow> segformer_rows();
/// The replacement rows of Table 5 (EfficientViT ops).
[[nodiscard]] std::vector<ReplacementRow> efficientvit_rows();

}  // namespace gqa
