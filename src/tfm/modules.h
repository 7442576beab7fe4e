// Transformer building blocks with dual execution paths:
//   forward_fp  — float reference (also the calibration path)
//   forward_int — integer-only inference following the dyadic pipeline
//                 (INT8 activation codes, INT32/64 accumulators, dyadic
//                 requantization), with non-linear ops served by a
//                 NonlinearProvider (exact or bit-accurate pwl kernels).
//
// Lifecycle: construct (random weights) -> calibrate(...) on sample inputs
// (runs the fp path, recording activation ranges) -> freeze(in_qp) (builds
// integer weights/requantizers, returns the output QuantParams) ->
// forward_int(...).
//
// Every forward is one serial computation on the calling thread. Serving
// parallelises across images instead (eval/engine.h, eval/server.h): the
// non-linear units are fixed at deploy time, and splitting one small
// forward across threads never beat the serial loop.
//
// Every forward takes an optional Workspace*: layer outputs and staging
// buffers then come from (and return to) reusable pooled storage, so a
// serving loop stops re-mallocing every intermediate per image. Results
// are bit-identical with or without a workspace. A workspace belongs to
// the thread running the forward (one per thread, never shared — see
// workspace.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "quant/calibration.h"
#include "quant/requant.h"
#include "tfm/nonlinear_provider.h"
#include "tfm/tensor.h"
#include "tfm/workspace.h"

namespace gqa::tfm {

/// Shared quantization policy. Only tensors consumed by non-linear pwl
/// units carry power-of-two scales (the paper's constraint, §3.1/§4.2);
/// all other activations use real min-max scales and weight scales stay
/// real-valued, so the dyadic requantizers are exercised throughout.
struct QuantPolicy {
  int act_bits = 8;
};

/// y[i] = rq.apply(acc[i]) narrowed to int32, over one int32 accumulator
/// row; `y` may alias `acc`. Runs the active backend's requant_i32 (with
/// rq's shift and bus-width preconditions checked once per call), or the
/// per-element Requantizer::apply loop when the backend has none. Every
/// bulk requantization of the integer forward goes through here.
void requantize_row(const Requantizer& rq, const std::int32_t* acc,
                    std::int32_t* y, std::size_t n);

// ---------------------------------------------------------------------------

class Linear {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  // {N,in}->{N,out}.
  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& x);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    Workspace* ws = nullptr) const;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }
  [[nodiscard]] Tensor& weights() { return w_; }
  [[nodiscard]] Tensor& bias() { return b_; }
  [[nodiscard]] double weight_scale() const { return w_scale_; }
  /// Forces a power-of-two output scale (required when a pwl unit consumes
  /// this output).
  void set_po2_output(bool po2) { po2_out_ = po2; }

 private:
  int in_ = 0, out_ = 0;
  bool po2_out_ = false;
  Tensor w_;  ///< {out, in}
  Tensor b_;  ///< {out}
  RangeObserver out_obs_;
  std::vector<std::int8_t> wq_;  ///< INT8 codes in GEMM panels (freeze)
  std::vector<std::int32_t> bq_;
  double w_scale_ = 0.0;
  QuantParams in_qp_, out_qp_;
  Requantizer rq_;
};

// ---------------------------------------------------------------------------

class Conv2d {
 public:
  Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, Rng& rng,
         bool depthwise = false);

  // {C,H,W}.
  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& x);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    Workspace* ws = nullptr) const;

  [[nodiscard]] int out_channels() const { return out_ch_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] Tensor& weights() { return w_; }
  [[nodiscard]] Tensor& bias() { return b_; }
  /// Forces a power-of-two output scale (required when a pwl unit consumes
  /// this output).
  void set_po2_output(bool po2) { po2_out_ = po2; }

 private:
  int in_ch_ = 0, out_ch_ = 0, kernel_ = 0, stride_ = 1, pad_ = 0;
  bool po2_out_ = false;
  bool depthwise_ = false;
  Tensor w_;  ///< {out, in_per_group, k, k}
  Tensor b_;  ///< {out}
  RangeObserver out_obs_;
  std::vector<std::int8_t> wq_;  ///< INT8 GEMM panels; row-major if depthwise
  std::vector<std::int32_t> bq_;
  double w_scale_ = 0.0;
  QuantParams in_qp_, out_qp_;
  Requantizer rq_;
};

// ---------------------------------------------------------------------------

/// LayerNorm over the last dimension of a {N, D} token matrix. The integer
/// path computes exact integer moments and uses the RSQRT kernel with the
/// Table 2 multi-range scaling (§3.1); a power-of-4 pre-normalization keeps
/// arbitrary variance magnitudes inside the multi-range span.
class LayerNorm {
 public:
  LayerNorm(int dim, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& x);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

  [[nodiscard]] Tensor& gamma() { return gamma_; }
  [[nodiscard]] Tensor& beta() { return beta_; }

 private:
  int dim_ = 0;
  Tensor gamma_, beta_;
  RangeObserver out_obs_;
  QuantParams in_qp_, out_qp_;
};

// ---------------------------------------------------------------------------

/// Row-wise Softmax. Integer path: integer max-subtraction -> EXP pwl on
/// INT8 codes -> exact integer accumulation -> DIV pwl with multi-range
/// scaling -> unsigned 8-bit probabilities with scale 2^-7.
class Softmax {
 public:
  /// Output quantization of the probabilities (fixed by design).
  [[nodiscard]] static QuantParams prob_params() {
    return QuantParams{std::ldexp(1.0, -7), 8, false};
  }

  [[nodiscard]] static Tensor forward_fp(const Tensor& rows,
                                         Workspace* ws = nullptr);
  /// `rows` must carry a power-of-two scale.
  [[nodiscard]] static QTensor forward_int(const QTensor& rows,
                                           const NonlinearProvider& nl,
                                           Workspace* ws = nullptr);
};

// ---------------------------------------------------------------------------

/// Elementwise activation (GELU or HSWISH) through the provider.
class Activation {
 public:
  Activation(Op op) : op_(op) {}

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& x);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

 private:
  Op op_;
  RangeObserver out_obs_;
  QuantParams in_qp_, out_qp_;
};

// ---------------------------------------------------------------------------

/// Integer-safe residual add: both operands are requantized onto the output
/// scale with dyadic multipliers, then summed with saturation.
class ResidualAdd {
 public:
  [[nodiscard]] Tensor forward_fp(const Tensor& a, const Tensor& b,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& a, const Tensor& b);
  QuantParams freeze(const QuantParams& a_qp, const QuantParams& b_qp,
                     const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& a, const QTensor& b,
                                    Workspace* ws = nullptr) const;

 private:
  RangeObserver out_obs_;
  QuantParams a_qp_, b_qp_, out_qp_;
  Requantizer rq_a_, rq_b_;
};

// ---------------------------------------------------------------------------

/// Segformer-style efficient multi-head self-attention with spatial
/// reduction of K/V by a strided convolution (reduction ratio R).
class AttentionSR {
 public:
  AttentionSR(int dim, int heads, int sr_ratio, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens, int h, int w,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& tokens, int h, int w);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& tokens, int h, int w,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

 private:
  int dim_ = 0, heads_ = 0, sr_ = 1;
  Linear q_lin_, k_lin_, v_lin_, proj_;
  std::unique_ptr<Conv2d> sr_conv_;
  RangeObserver score_obs_, attn_obs_;
  QuantParams score_qp_, attn_qp_;
  Requantizer rq_score_, rq_attn_;
};

// ---------------------------------------------------------------------------

/// EfficientViT-style ReLU linear attention: out = (relu(Q)·(relu(K)ᵀV)) /
/// (relu(Q)·(relu(K)ᵀ1)). The normalizer uses the DIV kernel; a calibrated
/// power-of-two pre-scale keeps the denominator inside the Table 2 span.
class LinearAttention {
 public:
  LinearAttention(int dim, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& tokens);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& tokens,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

 private:
  int dim_ = 0;
  Linear q_lin_, k_lin_, v_lin_, proj_;
  RangeObserver den_obs_, out_obs_;
  QuantParams out_qp_;
  int den_prescale_exp_ = 0;  ///< denominator pre-scale 2^g into DIV range
};

// ---------------------------------------------------------------------------

/// Segformer Mix-FFN: Linear -> 3x3 depthwise conv -> GELU -> Linear.
class MixFfn {
 public:
  MixFfn(int dim, int hidden, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& tokens, int h, int w,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& tokens, int h, int w);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& tokens, int h, int w,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

 private:
  Linear fc1_, fc2_;
  Conv2d dw_;
  Activation act_;
};

// ---------------------------------------------------------------------------

/// MobileNet-style inverted bottleneck with HSWISH activations
/// (EfficientViT building block). Residual when in==out and stride 1.
class MbConv {
 public:
  MbConv(int in_ch, int out_ch, int expand, int stride, Rng& rng);

  [[nodiscard]] Tensor forward_fp(const Tensor& x,
                                  Workspace* ws = nullptr) const;
  Tensor calibrate(const Tensor& x);
  QuantParams freeze(const QuantParams& in_qp, const QuantPolicy& policy);
  [[nodiscard]] QTensor forward_int(const QTensor& x,
                                    const NonlinearProvider& nl,
                                    Workspace* ws = nullptr) const;

 private:
  bool residual_ = false;
  Conv2d expand_, dw_, project_;
  Activation act1_, act2_;
  ResidualAdd add_;
};

}  // namespace gqa::tfm
