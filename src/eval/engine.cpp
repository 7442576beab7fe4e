#include "eval/engine.h"

#include "util/contracts.h"
#include "util/serving_error.h"

namespace gqa {

namespace {

/// Image-level fan-out: runs fn(i, ws) for every i in [0, count) in
/// contiguous chunks across the pool, each chunk leasing one Workspace from
/// `workspaces` so scratch persists across dispatches. fn must be
/// independent per index and write only out[i]; results are then
/// bit-identical to a serial loop at any lane count.
template <typename Out, typename Fn>
std::vector<Out> ws_batch(std::size_t count, ThreadPool* pool,
                          tfm::WorkspacePool& workspaces, const Fn& fn) {
  std::vector<Out> out(count);
  pooled_for_chunks(pool, count, [&](std::size_t lo, std::size_t hi) {
    LaneLease lease(workspaces);  // returned even if fn throws
    for (std::size_t i = lo; i < hi; ++i) out[i] = fn(i, lease.workspace());
  });
  return out;
}

}  // namespace

InferenceEngine::InferenceEngine(EngineOptions options) : options_(options) {
  GQA_EXPECTS(options.num_threads >= 0);
  if (options.num_threads >= 1) {
    owned_ = std::make_unique<ThreadPool>(options.num_threads);
    pool_ = owned_.get();
  } else {
    pool_ = &global_pool();
  }
}

void InferenceEngine::maybe_warm(const tfm::NonlinearProvider& nl) const {
  if (!options_.warm_provider) return;
  // One shared warm-up covers every op the provider replaces (the union
  // across all co-served model op-sets); repeats on a warm provider are
  // copy-free no-ops.
  try {
    nl.warm_up_deployment();
  } catch (const ServingError&) {
    // Warm-up is an optimization, never a requirement: a classified
    // warm-up failure (e.g. the `warmup` chaos point) degrades this
    // dispatch to cold lazy unit builds — results are identical.
  }
}

template <typename ModelT>
std::vector<tfm::Tensor> InferenceEngine::forward_fp(
    const ModelT& model, std::span<const tfm::Tensor> images) const {
  return ws_batch<tfm::Tensor>(images.size(), pool_, workspaces_,
                               [&](std::size_t i, tfm::Workspace* ws) {
                                 return model.forward_fp(images[i], ws);
                               });
}

template <typename ModelT>
std::vector<tfm::QTensor> InferenceEngine::forward_int(
    const ModelT& model, std::span<const tfm::Tensor> images,
    const tfm::NonlinearProvider& nl) const {
  maybe_warm(nl);
  return ws_batch<tfm::QTensor>(images.size(), pool_, workspaces_,
                                [&](std::size_t i, tfm::Workspace* ws) {
                                  return model.forward_int(images[i], nl,
                                                           nullptr, ws);
                                });
}

template <typename ModelT>
std::vector<std::vector<int>> InferenceEngine::labels_fp(
    const ModelT& model, std::span<const tfm::Tensor> images) const {
  return ws_batch<std::vector<int>>(
      images.size(), pool_, workspaces_,
      [&](std::size_t i, tfm::Workspace* ws) {
        tfm::Tensor logits = model.forward_fp(images[i], ws);
        std::vector<int> labels = ModelT::argmax_labels(logits);
        ws->release(std::move(logits));
        return labels;
      });
}

template <typename ModelT>
std::vector<std::vector<int>> InferenceEngine::labels_int(
    const ModelT& model, std::span<const tfm::Tensor> images,
    const tfm::NonlinearProvider& nl) const {
  maybe_warm(nl);
  return ws_batch<std::vector<int>>(
      images.size(), pool_, workspaces_,
      [&](std::size_t i, tfm::Workspace* ws) {
        tfm::QTensor logits = model.forward_int(images[i], nl, nullptr, ws);
        std::vector<int> labels = ModelT::argmax_labels(logits);
        ws->release(std::move(logits));
        return labels;
      });
}

// The engine serves exactly the two reproduction models; explicit
// instantiation keeps the templates out of every including TU.
template std::vector<tfm::Tensor> InferenceEngine::forward_fp(
    const tfm::SegformerB0Like&, std::span<const tfm::Tensor>) const;
template std::vector<tfm::Tensor> InferenceEngine::forward_fp(
    const tfm::EfficientViTB0Like&, std::span<const tfm::Tensor>) const;
template std::vector<tfm::QTensor> InferenceEngine::forward_int(
    const tfm::SegformerB0Like&, std::span<const tfm::Tensor>,
    const tfm::NonlinearProvider&) const;
template std::vector<tfm::QTensor> InferenceEngine::forward_int(
    const tfm::EfficientViTB0Like&, std::span<const tfm::Tensor>,
    const tfm::NonlinearProvider&) const;
template std::vector<std::vector<int>> InferenceEngine::labels_fp(
    const tfm::SegformerB0Like&, std::span<const tfm::Tensor>) const;
template std::vector<std::vector<int>> InferenceEngine::labels_fp(
    const tfm::EfficientViTB0Like&, std::span<const tfm::Tensor>) const;
template std::vector<std::vector<int>> InferenceEngine::labels_int(
    const tfm::SegformerB0Like&, std::span<const tfm::Tensor>,
    const tfm::NonlinearProvider&) const;
template std::vector<std::vector<int>> InferenceEngine::labels_int(
    const tfm::EfficientViTB0Like&, std::span<const tfm::Tensor>,
    const tfm::NonlinearProvider&) const;

}  // namespace gqa
