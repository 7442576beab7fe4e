// Scene-batched inference engine — the default serving path.
//
// GQA-LUT (and QUARK) fix the nonlinear units at deploy time, so serving
// throughput comes from streaming many images through the frozen model,
// not from splitting one small forward across threads. The engine owns
// that shape: it parallelizes ACROSS images (one fully-serial forward per
// task, so no intra-forward dispatch overhead), reuses a persistent
// process-wide ThreadPool (util/thread_pool.h global_pool(), sized by
// GQA_NUM_THREADS) and a pool of per-task Workspaces (layer storage
// survives across dispatches), and pre-warms the provider so hot paths
// read the lock-free unit tier.
//
// Results are bit-identical to a serial per-image loop at any lane count:
// each image's forward is the unthreaded reference computation; only the
// assignment of images to lanes varies.
//
// A model forward has no intra-op threading, so single-image latency is
// the serial forward itself; the engine is for throughput, and the async
// submit/callback front-end over the same shape is gqa::Server
// (eval/server.h) — engines and servers co-serve on the process pool
// (jobs serialize; a server's continuous service span releases the pool
// whenever its backlog momentarily empties), hold per-lane scratch through
// the same LaneLease abstraction below, and share one provider's warmed
// tier (warm_up_deployment covers the union of co-served op-sets).
//
// Thread-safety: one engine may be dispatched from one thread at a time
// (its workspace pool is internally synchronized, so the batch fan-out
// itself is safe); distinct engines may dispatch concurrently, even onto
// the shared process pool. The model and provider must stay frozen for
// the duration of a dispatch. The engine intentionally holds no lock
// capabilities of its own (no fields to annotate for the thread-safety
// analysis, util/thread_annotations.h) — every synchronized resource it
// touches lives behind the annotated WorkspacePool / ThreadPool /
// NonlinearProvider APIs.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/workspace.h"
#include "util/thread_pool.h"

namespace gqa {

/// The serving layer's name for tfm::WorkspaceLease: the RAII lease of one
/// service lane's scratch, checked out of a WorkspacePool for the lease's
/// lifetime. Both serving shapes hold exactly one lease per running lane —
/// the batch engine for the span of an image chunk (inside ws_batch), the
/// server's continuous scheduler for the span of a service loop — so layer
/// scratch persists across dispatches (through the pool) while never being
/// shared between concurrently running tasks, and is returned on every
/// exit path even when a forward throws.
using LaneLease = tfm::WorkspaceLease;

struct EngineOptions {
  /// Lane count: 0 uses the lazily-created process-wide pool
  /// (GQA_NUM_THREADS-sized); >= 1 gives the engine a private pool of that
  /// size (1 = serial dispatch, still with workspace reuse).
  int num_threads = 0;
  /// Pre-warm the provider's pwl units for all deployment scales before
  /// the first int dispatch, so concurrent forwards never touch the cache
  /// lock. Warming is an optimization only — results are identical.
  bool warm_provider = true;
};

/// Batch server for a frozen model. Thread-compatible: one engine may be
/// used from one thread at a time; distinct engines (or an engine and a
/// gqa::Server) may serve concurrently on the shared process pool.
class InferenceEngine {
 public:
  explicit InferenceEngine(EngineOptions options = {});

  /// Lanes the engine dispatches across (>= 1).
  [[nodiscard]] int threads() const { return pool_->size(); }

  /// Per-image FP32 logits.
  template <typename ModelT>
  [[nodiscard]] std::vector<tfm::Tensor> forward_fp(
      const ModelT& model, std::span<const tfm::Tensor> images) const;

  /// Per-image integer logits (provider pre-warmed when configured).
  template <typename ModelT>
  [[nodiscard]] std::vector<tfm::QTensor> forward_int(
      const ModelT& model, std::span<const tfm::Tensor> images,
      const tfm::NonlinearProvider& nl) const;

  /// Per-image argmax label maps (ModelT::argmax_labels on each logits
  /// tensor, computed inside the image task).
  template <typename ModelT>
  [[nodiscard]] std::vector<std::vector<int>> labels_fp(
      const ModelT& model, std::span<const tfm::Tensor> images) const;

  template <typename ModelT>
  [[nodiscard]] std::vector<std::vector<int>> labels_int(
      const ModelT& model, std::span<const tfm::Tensor> images,
      const tfm::NonlinearProvider& nl) const;

 private:
  void maybe_warm(const tfm::NonlinearProvider& nl) const;

  EngineOptions options_;
  ThreadPool* pool_;                    ///< global_pool() or owned_
  std::unique_ptr<ThreadPool> owned_;   ///< non-null when num_threads >= 1
  mutable tfm::WorkspacePool workspaces_;
};

}  // namespace gqa
