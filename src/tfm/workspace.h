// Reusable scratch storage for the transformer forward passes.
//
// Every layer of forward_fp/forward_int produces a fresh Tensor/QTensor;
// in a serving loop (SegTask::miou_*, the protocol sweep, the inference
// engine) those intermediates are identical in shape image after image, so
// re-mallocing them dominates the allocator profile. A Workspace keeps the
// retired storage and hands it back on the next acquire: after the first
// image through a given model the steady state performs no pooled-size
// heap allocation, for layer outputs or kernel scratch (tests/engine_test.cpp
// pins this for both default models).
//
// Ownership rules (see README "Workspace ownership rules" and
// docs/ARCHITECTURE.md):
//   - One Workspace per thread, never shared: acquire/release are NOT
//     thread-safe. A forward runs entirely on its calling thread, so the
//     thread that passes a workspace in is the only one touching it.
//   - A workspace-backed Tensor/QTensor is an ordinary value; releasing it
//     back is an optimization, not a requirement. Tensors that never came
//     from the workspace may be released into it (the pool adopts them).
//   - Acquired tensors are zero-filled, so results are bit-identical to
//     fresh `Tensor(shape)` allocation.
//   - Small buffers (below an internal element-count floor) bypass the
//     pool in both directions: the allocator's thread cache already
//     serves them in tens of nanoseconds, so only the large activation
//     buffers — where allocation really costs — are pooled.
//
// WorkspacePool is the thread-safe checkout counter used by the image-level
// fan-outs (InferenceEngine, Server): each image-chunk task or service lane
// borrows one Workspace for its lifetime, so concurrent tasks never share
// scratch while the buffers still persist across dispatches.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "tfm/tensor.h"
#include "util/thread_annotations.h"

namespace gqa::tfm {

class Workspace {
 public:
  Workspace() = default;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Zero-filled tensor backed by pooled storage (fresh when the pool is
  /// empty). Bit-identical to constructing `Tensor(shape)`.
  [[nodiscard]] Tensor tensor(Shape shape);
  [[nodiscard]] QTensor qtensor(Shape shape, const QuantParams& qp);

  /// Zero-filled scratch vectors for kernel staging buffers. i32 shares its
  /// free lists with qtensor storage.
  [[nodiscard]] std::vector<std::int32_t> i32(std::size_t n);
  [[nodiscard]] std::vector<std::int64_t> i64(std::size_t n);
  [[nodiscard]] std::vector<double> f64(std::size_t n);

  /// Returns storage to the pool for the next acquire. Accepts any tensor,
  /// including ones not originally acquired here (their storage is adopted).
  void release(Tensor&& t);
  void release(QTensor&& t);
  void release(std::vector<std::int32_t>&& v);
  void release(std::vector<std::int64_t>&& v);
  void release(std::vector<double>&& v);

  /// Buffers currently parked in the pool (test/diagnostic hook).
  [[nodiscard]] std::size_t parked() const;

  /// Allocator-traffic counters for the serving diagnostics: `acquires`
  /// total, `fresh` acquires served with no parked buffer (hit the
  /// allocator), `grows` acquires whose popped buffer was too small
  /// (realloc). Steady-state serving should show fresh == grows == 0 per
  /// dispatch.
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t fresh = 0;
    std::uint64_t grows = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Free lists are bucketed by power-of-two size class (indexed by
  // bit-width, so lookup is an array access) and kept sorted by capacity.
  // An acquire takes the smallest parked buffer that covers it, so model
  // layers, which repeat the same shapes image after image, stop
  // reallocating once each class has met its requests once (the second
  // forward). Classing (instead of exact sizes) lets similar-sized
  // layers share buffers, keeping the parked footprint near one buffer
  // per class — a single unkeyed LIFO stack would hand mismatched buffers
  // back and realloc almost every time, while exact-size keys would pin
  // one resident buffer per distinct shape.
  static constexpr std::size_t kSizeClasses = 48;
  // Per-class depth cap: adopted buffers (tensors released here that were
  // never acquired here, e.g. quantized inputs) can make releases outrun
  // acquires in a class; beyond the cap they are freed instead of parked,
  // bounding a long-running server's footprint.
  static constexpr std::size_t kMaxPerClass = 8;
  template <typename T>
  using SizeBuckets = std::array<std::vector<std::vector<T>>, kSizeClasses>;
  SizeBuckets<float> fp_;
  SizeBuckets<std::int32_t> i32_;
  SizeBuckets<std::int64_t> i64_;
  SizeBuckets<double> f64_;
  Stats stats_;
};

/// Thread-safe stack of Workspaces: batch tasks check one out per image
/// chunk so scratch persists across pool dispatches without ever being
/// shared between concurrently running tasks.
class WorkspacePool {
 public:
  [[nodiscard]] Workspace acquire() GQA_EXCLUDES(mutex_);
  void release(Workspace&& ws) GQA_EXCLUDES(mutex_);

 private:
  Mutex mutex_;
  std::vector<Workspace> pool_ GQA_GUARDED_BY(mutex_);
};

/// RAII checkout of one Workspace from a WorkspacePool for the lease's
/// lifetime — the single lane-scratch shape every batch/serving fan-out
/// holds (the engine per image chunk, the server per service-lane loop; the
/// eval layer names it gqa::LaneLease). Returns the workspace to the pool
/// on any exit path, so a throwing task body cannot leak it. Not copyable
/// or movable: a lease lives on the lane that acquired it.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(WorkspacePool& pool)
      : pool_(&pool), workspace_(pool.acquire()) {}
  ~WorkspaceLease() { pool_->release(std::move(workspace_)); }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  WorkspaceLease(WorkspaceLease&&) = delete;
  WorkspaceLease& operator=(WorkspaceLease&&) = delete;

  /// The lane's private scratch; valid for the lease's lifetime, never
  /// null. Callees must not capture it beyond the current task.
  [[nodiscard]] Workspace* workspace() { return &workspace_; }

 private:
  WorkspacePool* pool_;
  Workspace workspace_;
};

/// Null-tolerant helpers so forwards can stay workspace-optional: with a
/// null workspace they fall back to plain allocation, byte-for-byte
/// equivalent to the pre-workspace code.
[[nodiscard]] inline Tensor ws_tensor(Workspace* ws, Shape shape) {
  return ws != nullptr ? ws->tensor(std::move(shape)) : Tensor(std::move(shape));
}
[[nodiscard]] inline QTensor ws_qtensor(Workspace* ws, Shape shape,
                                        const QuantParams& qp) {
  return ws != nullptr ? ws->qtensor(std::move(shape), qp)
                       : QTensor(std::move(shape), qp);
}
[[nodiscard]] inline std::vector<std::int32_t> ws_i32(Workspace* ws,
                                                      std::size_t n) {
  return ws != nullptr ? ws->i32(n) : std::vector<std::int32_t>(n, 0);
}
[[nodiscard]] inline std::vector<std::int64_t> ws_i64(Workspace* ws,
                                                      std::size_t n) {
  return ws != nullptr ? ws->i64(n) : std::vector<std::int64_t>(n, 0);
}
[[nodiscard]] inline std::vector<double> ws_f64(Workspace* ws, std::size_t n) {
  return ws != nullptr ? ws->f64(n) : std::vector<double>(n, 0.0);
}
inline void ws_release(Workspace* ws, Tensor&& t) {
  if (ws != nullptr) ws->release(std::move(t));
}
inline void ws_release(Workspace* ws, QTensor&& t) {
  if (ws != nullptr) ws->release(std::move(t));
}
inline void ws_release(Workspace* ws, std::vector<std::int32_t>&& v) {
  if (ws != nullptr) ws->release(std::move(v));
}
inline void ws_release(Workspace* ws, std::vector<std::int64_t>&& v) {
  if (ws != nullptr) ws->release(std::move(v));
}
inline void ws_release(Workspace* ws, std::vector<double>&& v) {
  if (ws != nullptr) ws->release(std::move(v));
}

}  // namespace gqa::tfm
