// Table 4: fine-tuning mIoU of the Segformer-B0-like model on the synthetic
// Cityscapes substitute, replacing each non-linear operator (and all of
// them) with 8-entry pwl kernels from NN-LUT / GQA-LUT w/o RM / GQA-LUT
// w/ RM. See DESIGN.md §3 for the substitution rationale.
//
// Env knobs: GQA_TRAIN_SCENES (default 256), GQA_EVAL_SCENES (24),
//            GQA_PROBE_EPOCHS (30), GQA_NUM_THREADS (lanes of the
//            InferenceEngine the eval scenes stream through; 0 = hardware
//            concurrency, bit-identical to serial).
#include "bench_util.h"
#include "eval/segtask.h"

using namespace gqa;

int main() {
  SegTaskOptions options;
  options.train_scenes = static_cast<int>(env_int("GQA_TRAIN_SCENES", 256));
  options.eval_scenes = static_cast<int>(env_int("GQA_EVAL_SCENES", 24));
  options.probe_epochs = static_cast<int>(env_int("GQA_PROBE_EPOCHS", 30));
  options.num_threads = static_cast<int>(env_int("GQA_NUM_THREADS", 1));

  std::printf("== Table 4: Segformer-B0-like mIoU (synthetic Cityscapes) ==\n");
  Timer timer;
  const SegformerTask task = make_segformer_task(options);
  std::printf("model prepared in %.1fs (head trained on %d scenes)\n",
              timer.seconds(), options.train_scenes);

  const double fp_miou = task.miou_fp();
  const double base = task.miou_int(tfm::NonlinearProvider::exact());
  std::printf("FP32 teacher mIoU: %.2f%%   INT8 baseline (None): %.2f%%\n\n",
              100.0 * fp_miou, 100.0 * base);

  TablePrinter table({"Replacement", "NN-LUT", "GQA w/o RM", "GQA w/ RM"});
  table.set_title("Table 4: mIoU (%) after replacing ops with 8-entry pwl");
  table.add_row({"None", fixed(100.0 * base, 2), fixed(100.0 * base, 2),
                 fixed(100.0 * base, 2)});
  std::map<Method, double> altogether;
  for (const ReplacementRow& row : segformer_rows()) {
    std::vector<std::string> cells = {row.name};
    for (Method m : all_methods()) {
      const auto nl = tfm::NonlinearProvider::with_method(m, row.replaced);
      const double miou = task.miou_int(nl);
      if (row.name == "Altogether") altogether[m] = miou;
      cells.push_back(fixed(100.0 * miou, 2));
    }
    table.add_row(cells);
  }
  table.set_footnote(format(
      "Altogether delta vs None: NN-LUT %+.2f, GQA w/o RM %+.2f, GQA w/ RM "
      "%+.2f (paper: -1.14, -0.32, -0.07).",
      100.0 * (altogether[Method::kNnLut] - base),
      100.0 * (altogether[Method::kGqaNoRm] - base),
      100.0 * (altogether[Method::kGqaRm] - base)));
  bench::emit(table, "table4");
  std::printf("total %.1fs\n", timer.seconds());
  return 0;
}
