// Serving throughput: images/s of the scene-batched InferenceEngine vs the
// seed-style serial per-image loop, for both reproduction models on the
// integer (deployment) and fp paths. The engine at 1 lane isolates the
// workspace-reuse win (no re-malloc of layer intermediates); the threaded
// row adds image-level parallelism on real cores.
//
// Every engine run is checksummed against the serial loop; a divergence is
// a correctness bug and the bench exits non-zero (CI runs this in smoke
// mode as the bit-identity gate).
//
// Both models run at their full default (B0-like) size: that is the
// deployment shape, and it is where activation buffers are large enough
// for allocator traffic to matter — the reduced CI slices put every
// buffer in malloc's fast bins and measure only noise.
//
// Env knobs: GQA_SERVE_SCENES (default 16) images per dispatch,
//            GQA_BENCH_REPS (default 5) interleaved rounds (median kept),
//            GQA_NUM_THREADS lanes for the threaded engine row (default:
//            hardware concurrency via the process-wide pool).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "eval/scene.h"

using namespace gqa;

namespace {

using bench::time_best_ms;

std::int64_t code_checksum(const std::vector<tfm::QTensor>& logits) {
  std::int64_t sum = 0;
  for (const tfm::QTensor& t : logits) {
    for (std::int32_t v : t.data()) sum += v;
  }
  return sum;
}

double fp_checksum(const std::vector<tfm::Tensor>& logits) {
  double sum = 0.0;
  for (const tfm::Tensor& t : logits) {
    for (float v : t.data()) sum += static_cast<double>(v);
  }
  return sum;
}

std::vector<tfm::Tensor> serve_images(int count, int size) {
  SceneOptions scene;
  scene.size = size;
  std::vector<tfm::Tensor> images;
  images.reserve(static_cast<std::size_t>(count));
  for (const LabeledScene& s : make_scene_set(scene, count, 0x5E21)) {
    images.push_back(s.image);
  }
  return images;
}

struct ServeResult {
  double serial_ips = 0.0;
  double engine1_ips = 0.0;
  double threaded_ips = 0.0;
  int threads = 1;
  bool bit_identical = false;
};

template <typename ModelT>
ServeResult serve_model(const ModelT& model, const tfm::NonlinearProvider& nl,
                        const std::vector<tfm::Tensor>& images, int reps) {
  const double n = static_cast<double>(images.size());
  ServeResult r;

  EngineOptions one;
  one.num_threads = 1;
  const InferenceEngine engine1(one);      // pure workspace reuse, one lane
  const InferenceEngine engine_wide;       // persistent process-wide pool

  // Measurements are interleaved round by round (serial, engine(1),
  // engine(N), fp twins) and compared by MEDIAN round time: alternating
  // rounds give every variant the same clock-drift exposure and the median
  // ignores one-off bursts that best-of would hand to a lucky variant.
  std::vector<tfm::QTensor> serial_int, engine_int, wide_int;
  std::vector<tfm::Tensor> serial_fp, engine_fp;
  std::vector<double> serial_int_r, engine1_int_r, wide_int_r;
  std::vector<double> serial_fp_r, engine1_fp_r;
  for (int rep = 0; rep < reps; ++rep) {
    serial_int_r.push_back(time_best_ms(1, [&] {
      serial_int.clear();
      for (const tfm::Tensor& img : images) {
        serial_int.push_back(model.forward_int(img, nl));
      }
    }));
    engine1_int_r.push_back(time_best_ms(1, [&] {
      engine_int = engine1.forward_int(model, images, nl);
    }));
    wide_int_r.push_back(time_best_ms(1, [&] {
      wide_int = engine_wide.forward_int(model, images, nl);
    }));
    serial_fp_r.push_back(time_best_ms(1, [&] {
      serial_fp.clear();
      for (const tfm::Tensor& img : images) {
        serial_fp.push_back(model.forward_fp(img));
      }
    }));
    engine1_fp_r.push_back(time_best_ms(1, [&] {
      engine_fp = engine1.forward_fp(model, images);
    }));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double serial_int_ms = median(serial_int_r);
  const double engine1_int_ms = median(engine1_int_r);
  const double wide_int_ms = median(wide_int_r);
  const double serial_fp_ms = median(serial_fp_r);
  const double engine1_fp_ms = median(engine1_fp_r);
  const bool ok = code_checksum(serial_int) == code_checksum(engine_int) &&
                  code_checksum(serial_int) == code_checksum(wide_int) &&
                  fp_checksum(serial_fp) == fp_checksum(engine_fp);

  r.serial_ips = n / (serial_int_ms * 1e-3);
  r.engine1_ips = n / (engine1_int_ms * 1e-3);
  r.threaded_ips = n / (wide_int_ms * 1e-3);
  r.threads = engine_wide.threads();
  r.bit_identical = ok;
  std::printf("  fp: serial %.1f img/s, engine(1) %.1f img/s\n",
              n / (serial_fp_ms * 1e-3), n / (engine1_fp_ms * 1e-3));
  return r;
}

}  // namespace

int main() {
  const int scenes = static_cast<int>(env_int("GQA_SERVE_SCENES", 16));
  const int reps = bench::bench_reps(5);
  const std::vector<tfm::Tensor> images = serve_images(scenes, 64);

  TablePrinter table({"Model", "Serial img/s", "Engine(1) img/s",
                      "Engine(N) img/s", "N", "Bit-identical"});
  table.set_title("Serving throughput: serial loop vs scene-batched engine");
  bool all_ok = true;

  {
    tfm::SegformerB0Like model;  // full B0-like defaults at 64x64
    model.calibrate(images.front());
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kExp, Op::kGelu, Op::kDiv, Op::kRsqrt});
    std::printf("SegFormer slice (%d scenes):\n", scenes);
    const ServeResult r = serve_model(model, nl, images, reps);
    table.add_row({"SegFormer", fixed(r.serial_ips, 1), fixed(r.engine1_ips, 1),
                   fixed(r.threaded_ips, 1), format("%d", r.threads),
                   r.bit_identical ? "yes" : "NO"});
    all_ok = all_ok && r.bit_identical;
  }
  {
    tfm::EfficientViTB0Like model;  // full B0-like defaults at 64x64
    model.calibrate(images.front());
    model.freeze();
    const auto nl = tfm::NonlinearProvider::with_method(
        Method::kGqaRm, {Op::kHswish, Op::kDiv});
    std::printf("EfficientViT slice (%d scenes):\n", scenes);
    const ServeResult r = serve_model(model, nl, images, reps);
    table.add_row({"EfficientViT", fixed(r.serial_ips, 1),
                   fixed(r.engine1_ips, 1), fixed(r.threaded_ips, 1),
                   format("%d", r.threads), r.bit_identical ? "yes" : "NO"});
    all_ok = all_ok && r.bit_identical;
  }

  bench::emit(table, "serving_throughput");
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: engine outputs diverged from the serial loop\n");
    return 1;
  }
  return 0;
}
