// The serving side of the benchmark: building a frozen model stack behind a
// 2-lane gqa::Server, the closed-loop client of `serve_closed`, and the
// open-loop camera-stream generator of `stream_open`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "eval/server.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"

namespace perfbench {

enum class Model { kSegformer = 0, kEfficientVit = 1 };
[[nodiscard]] const char* model_name(Model model);

/// Ops the provider replaces for these models (the paper's Table 4/5
/// rows: SegFormer EXP, GELU, DIV, RSQRT; EfficientViT HSWISH, DIV).
[[nodiscard]] std::set<gqa::Op> replaced_ops(const std::vector<Model>& models);

/// Timestamps of one request or stream frame, filled by the client, the
/// registered forward wrapper (traced runs only) and the result callback.
struct RequestRecord {
  Clock::time_point due;        ///< submit time (closed) or due time (open)
  Clock::time_point submitted;  ///< just before submit()/push_frame()
  Clock::time_point start;      ///< wrapper entry (traced runs)
  Clock::time_point end;        ///< wrapper exit (traced runs)
  Clock::time_point delivered;  ///< callback entry
  Model model = Model::kSegformer;
  int image = 0;
  bool served = false;    ///< callback got a result
  bool dropped = false;   ///< callback got kFrameSuperseded
  bool failed = false;    ///< callback got any other error
  bool mismatch = false;  ///< served result differs from the serial forward
  bool traced = false;    ///< start/end were captured by the wrapper
};

/// Fixed-capacity request ledger shared by the client, the forward
/// wrappers and the callbacks. Records never move (the vector is sized up
/// front), so lanes write their fields without a lock; the server's
/// drain/close handshake publishes those writes to the client.
class RequestBook {
 public:
  RequestBook(std::size_t capacity, bool trace)
      : records_(capacity), trace_(trace) {}

  [[nodiscard]] bool trace() const { return trace_; }
  [[nodiscard]] bool full() const {
    return next_.load(std::memory_order_relaxed) >= records_.size();
  }
  /// Opens a record for `image` (whose buffer the server will hand to the
  /// wrapper, so traced runs can key the record by that buffer).
  std::size_t open(Model model, int image_index, const gqa::tfm::Tensor& image,
                   Clock::time_point due);
  /// The wrapper's lookup: the record whose image buffer this is, or -1.
  [[nodiscard]] std::int64_t claim(const gqa::tfm::Tensor& image);

  [[nodiscard]] RequestRecord& at(std::size_t id) { return records_[id]; }
  [[nodiscard]] std::size_t size() const {
    return std::min(next_.load(), records_.size());
  }

 private:
  std::vector<RequestRecord> records_;
  std::atomic<std::size_t> next_{0};
  bool trace_;
  std::mutex mutex_;
  std::unordered_map<const float*, std::size_t> by_buffer_;
};

/// A frozen model stack behind a 2-lane server. Members are ordered so the
/// server is destroyed (and drained) before the models and provider.
struct ServingStack {
  std::unique_ptr<gqa::tfm::SegformerB0Like> segformer;
  std::unique_ptr<gqa::tfm::EfficientViTB0Like> efficientvit;
  std::unique_ptr<gqa::tfm::NonlinearProvider> provider;
  std::unique_ptr<RequestBook> book;
  std::unique_ptr<gqa::Server> server;
  int model_id[2] = {-1, -1};
  int pinned_threads = 0;  ///< server threads pinned to their own CPU

  double calibrate_freeze_ms = 0.0;  ///< construct + calibrate + freeze
  double warm_up_ms = 0.0;           ///< cold warm_up_deployment
  double setup_s = 0.0;              ///< everything above + registration

  /// Serial forward_int of `image` outside the server.
  [[nodiscard]] gqa::tfm::QTensor forward(Model model,
                                          const gqa::tfm::Tensor& image) const;
};

/// Builds the stack for `models` (construct, calibrate on `calibration`,
/// freeze, cold provider warm-up with no artifact store, server with
/// wrapped forwards registered). The book is attached before registration.
[[nodiscard]] std::unique_ptr<ServingStack> build_stack(
    const std::vector<Model>& models, const gqa::tfm::Tensor& calibration,
    std::unique_ptr<RequestBook> book);

/// Seeded 64x64 scenes (the model configs' default image size).
[[nodiscard]] std::vector<gqa::tfm::Tensor> make_images(std::uint64_t seed,
                                                        int count);

/// Serial reference outputs, [model][image].
using References = std::vector<std::vector<gqa::tfm::QTensor>>;
/// Computes the references; `forward_ms[model]` receives the wall time of
/// each serial forward (outside the server).
[[nodiscard]] References reference_outputs(
    const ServingStack& stack, const std::vector<Model>& models,
    const std::vector<gqa::tfm::Tensor>& images,
    std::vector<std::vector<double>>& forward_ms);

/// Mean squared error of the dequantized served logits against the FP32
/// teacher forward, averaged over the images: the output quality of the
/// deployed integer pipeline (LUTs, requantizers, quantized weights).
[[nodiscard]] double logit_mse(const ServingStack& stack, Model model,
                               const std::vector<gqa::tfm::Tensor>& images,
                               const References& refs);

struct WorkloadWindow {
  Clock::time_point begin;  ///< end of warm-up
  Clock::time_point end;
  /// When the last request due inside the window was delivered (the open
  /// loop's measured interval ends here, not at the last due time).
  Clock::time_point drained;
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(end - begin).count();
  }
};

/// Closed loop: keeps `outstanding` requests of `model` in flight through
/// Server::submit with callbacks until the window ends, then drains.
WorkloadWindow run_closed_loop(ServingStack& stack, Model model,
                               int outstanding,
                               const std::vector<gqa::tfm::Tensor>& images,
                               const References& refs, double warmup_s,
                               double seconds);

/// One camera stream of the open loop.
struct StreamSpec {
  Model model;
  double fps;
};

/// stream_open's camera streams: fixed constants, never derived from a
/// measurement (BENCHMARK.json's workload description names them).
[[nodiscard]] const std::vector<StreamSpec>& camera_streams();

/// Open-loop generator tallies.
struct GeneratorStats {
  std::vector<double> lag_ms;  ///< push time minus due time, every frame
  std::int64_t pushed_late = 0;
  std::int64_t refused = 0;  ///< push_frame returned nullopt
};

/// Open loop: pushes frames of every stream on its fixed schedule through
/// Server::open_stream (kDropOldest) until the window ends, then closes the
/// streams (which waits for every delivery).
WorkloadWindow run_open_loop(ServingStack& stack,
                             const std::vector<StreamSpec>& streams,
                             const std::vector<gqa::tfm::Tensor>& images,
                             const References& refs, double warmup_s,
                             double seconds, GeneratorStats& generator);

/// Frame interval of a stream in milliseconds.
[[nodiscard]] inline double interval_ms(double fps) { return 1000.0 / fps; }

/// A frame is late when pushed more than this after its due time.
inline constexpr double kLatePushMs = 1.0;

/// Per-layer eval metrics from the book's traced records within the window:
/// queue wait, service per model, delivery, lane busy share.
void eval_span_metrics(RequestBook& book, const WorkloadWindow& window,
                       Tracer& tracer, Metrics& out);

}  // namespace perfbench
