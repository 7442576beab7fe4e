#include "tfm/modules.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernel/dispatch.h"
#include "numerics/nonlinear.h"
#include "numerics/rounding.h"
#include "util/contracts.h"

namespace gqa::tfm {

namespace {

/// Symmetric per-tensor INT8 quantization of a row-major {outs, k} weight
/// matrix, straight into GEMM panels (kernel::gemm_panel_offset, pads zero)
/// or, without `panels`, row-major (depthwise Conv2d).
double quantize_weights(const Tensor& w, std::size_t outs, bool panels,
                        std::vector<std::int8_t>& codes) {
  const double scale = std::max(w.amax(), 1e-8) / 127.0;
  const std::size_t k = w.data().size() / outs;
  const std::size_t kp = (k + 1) / 2;
  codes.assign(panels ? (outs + 15) / 16 * kp * 32 : outs * k, 0);
  for (std::size_t o = 0; o < outs; ++o) {
    for (std::size_t j = 0; j < k; ++j) {
      codes[panels ? kernel::gemm_panel_offset(o, j, kp) : o * k + j] =
          static_cast<std::int8_t>(saturate(
              round_to_int(static_cast<double>(w.data()[o * k + j]) / scale),
              8, true));
    }
  }
  return scale;
}

/// Weight (o, j) of a panel-packed {outs, k} matrix: how the scalar oracles
/// read the GEMM weights.
inline std::int8_t panel_weight(const std::vector<std::int8_t>& panels,
                                std::size_t k, std::size_t o, std::size_t j) {
  return panels[kernel::gemm_panel_offset(o, j, (k + 1) / 2)];
}

std::vector<std::int32_t> quantize_bias(const Tensor& b, double acc_scale) {
  std::vector<std::int32_t> codes(b.data().size());
  for (std::size_t i = 0; i < b.data().size(); ++i) {
    codes[i] = static_cast<std::int32_t>(saturate(
        round_to_int(static_cast<double>(b.data()[i]) / acc_scale), 31, true));
  }
  return codes;
}

int conv_out_size(int in, int kernel, int stride, int pad) {
  // Guard the numerator, not the quotient: for stride > 1 C++ integer
  // division truncates toward zero, so a kernel window that never fits
  // (negative numerator) would still round up to an output size of 1.
  GQA_EXPECTS_MSG(in + 2 * pad - kernel >= 0,
                  "conv input (plus padding) is smaller than the kernel: "
                  "output spatial size would be non-positive");
  return (in + 2 * pad - kernel) / stride + 1;
}

/// max |v[i]|, widened so that INT32_MIN has a magnitude (0 when empty).
std::int64_t max_abs(const std::vector<std::int32_t>& v) {
  std::int64_t m = 0;
  for (const std::int32_t e : v) m = std::max(m, std::abs(std::int64_t{e}));
  return m;
}

/// Integer GEMM shared by Linear and the dense Conv2d lowering: with
/// activation (i, j) at a[i·a_row + j·a_col] and weight (o, j) in the
/// panels `w`, y[i·y_row + o·y_col] = rq(bias[o] + Σ_j a(i, j)·w(o, j)) for
/// i < rows, o < outs = bias.size(). Blocks of 16 rows are narrowed to int16
/// (zero-padded to even k), then each panel meets the block's 4 tiles while
/// it sits in L1, and a conv channel's 16 pixels fill one cache line. A row
/// breaking max|bias| + k·max|a|·128 ≤ INT32_MAX (or int16) enters its tile
/// as a zero row, as do rows past `rows`, and then takes the oracle's int64
/// loop, so every output equals the scalar loop's bit for bit.
void int_gemm(const kernel::KernelOps& ops, const std::int32_t* a,
              std::size_t rows, std::size_t k, std::size_t a_row,
              std::size_t a_col, const std::vector<std::int8_t>& w,
              const std::vector<std::int32_t>& bias, const Requantizer& rq,
              std::int32_t* y, std::size_t y_row, std::size_t y_col) {
  constexpr std::size_t kBlock = 16;
  const std::size_t outs = bias.size();
  const std::size_t kp = (k + 1) / 2;
  const std::size_t lda = 2 * kp;
  // The largest |a| a row may hold and still take the tile (k ≥ 1: Linear
  // and Conv2d reject empty rows; quantize_bias keeps |bias| ≤ 2^30).
  const auto a_lim = static_cast<std::int32_t>(std::min<std::int64_t>(
      std::numeric_limits<std::int16_t>::max(),
      (std::numeric_limits<std::int32_t>::max() - max_abs(bias)) /
          static_cast<std::int64_t>(128 * k)));
  // Full panels read their bias in place, a partial last one this copy.
  std::int32_t tail_bias[16] = {};
  std::copy(bias.begin() + static_cast<std::ptrdiff_t>(outs / 16 * 16),
            bias.end(), tail_bias);
  // This thread's int16 row block, grown to the widest k it has met.
  thread_local std::vector<std::int16_t> block;
  if (block.size() < kBlock * lda) block.resize(kBlock * lda);
  for (std::size_t i0 = 0; i0 < rows; i0 += kBlock) {
    const std::size_t n = std::min(kBlock, rows - i0);
    bool in_bound[kBlock] = {};
    for (std::size_t r = 0; r < kBlock; ++r) {
      std::int16_t* dst = block.data() + r * lda;
      if (r < n) {
        const std::int32_t* arow = a + (i0 + r) * a_row;
        std::int32_t lo = 0, hi = 0;
        for (std::size_t j = 0; j < k; ++j) {
          const std::int32_t v = arow[j * a_col];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
          dst[j] = static_cast<std::int16_t>(v);
        }
        in_bound[r] = lo >= -a_lim && hi <= a_lim;
      }
      // The odd-k pad, or the whole of a zero row.
      std::fill(dst + (in_bound[r] ? k : 0), dst + lda, std::int16_t{0});
    }
    for (std::size_t p = 0; p * 16 < outs; ++p) {
      const std::int32_t* b = p < outs / 16 ? bias.data() + p * 16 : tail_bias;
      const std::size_t width = std::min<std::size_t>(16, outs - p * 16);
      // Linear's whole tiles land in y as sums, requantized per row below;
      // the rest go through `tile`, requantized here when they are conv's.
      const std::size_t direct = y_col == 1 && width == 16 ? n / 4 * 4 : 0;
      std::int32_t tile[kBlock * 16];
      for (std::size_t t = 0; t < n; t += 4) {
        ops.gemm4x16_i16_i8(
            block.data() + t * lda, lda, w.data() + p * kp * 32, kp, b,
            t < direct ? y + (i0 + t) * y_row + p * 16 : tile + t * 16,
            t < direct ? y_row : 16);
      }
      if (y_col != 1) requantize_row(rq, tile, tile, n * 16);
      for (std::size_t o = 0; o < width; ++o) {
        for (std::size_t r = direct; r < n; ++r) {
          y[(i0 + r) * y_row + (p * 16 + o) * y_col] = tile[r * 16 + o];
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      std::int32_t* yrow = y + (i0 + r) * y_row;
      if (in_bound[r]) {
        if (y_col == 1) requantize_row(rq, yrow, yrow, outs);
        continue;
      }
      const std::int32_t* arow = a + (i0 + r) * a_row;
      for (std::size_t o = 0; o < outs; ++o) {
        std::int64_t acc = bias[o];
        for (std::size_t j = 0; j < k; ++j) {
          acc += static_cast<std::int64_t>(arow[j * a_col]) *
                 panel_weight(w, k, o, j);
        }
        yrow[o * y_col] = static_cast<std::int32_t>(rq.apply(acc));
      }
    }
  }
}

}  // namespace

void requantize_row(const Requantizer& rq, const std::int32_t* acc,
                    std::int32_t* y, std::size_t n) {
  const auto requant = kernel::active().ops.requant_i32;
  if (requant == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<std::int32_t>(rq.apply(acc[i]));
    }
    return;
  }
  // The preconditions shift_round and saturate check per element.
  const Dyadic& m = rq.multiplier();
  const QuantParams& out = rq.output_params();
  GQA_EXPECTS(m.shift >= 0 && m.shift < 63);
  GQA_EXPECTS(out.bits >= 1 && out.bits <= 62);
  requant(acc, m.mult, m.shift, bus_bounds(out.bits, out.is_signed), y, n);
}

// --------------------------------------------------------------- Linear ---

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  GQA_EXPECTS(in_features >= 1 && out_features >= 1);
  const double std = std::sqrt(2.0 / (in_features + out_features));
  w_ = Tensor::randn(Shape{out_, in_}, rng, std);
  b_ = Tensor::randn(Shape{out_}, rng, 0.02);
}

Tensor Linear::forward_fp(const Tensor& x, Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == in_);
  const int n = x.shape()[0];
  Tensor y = ws_tensor(ws, Shape{n, out_});
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < out_; ++o) {
      double acc = b_.at(o);
      for (int k = 0; k < in_; ++k) acc += x.at(i, k) * w_.at(o, k);
      y.at(i, o) = static_cast<float>(acc);
    }
  }
  return y;
}

Tensor Linear::calibrate(const Tensor& x) {
  Tensor y = forward_fp(x);
  out_obs_.observe(std::span<const float>(y.data()));
  return y;
}

QuantParams Linear::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  w_scale_ = quantize_weights(w_, static_cast<std::size_t>(out_),
                              /*panels=*/true, wq_);
  const double acc_scale = in_qp.scale * w_scale_;
  bq_ = quantize_bias(b_, acc_scale);
  out_qp_ = po2_out_ ? out_obs_.make_po2(policy.act_bits)
                     : out_obs_.make_params(policy.act_bits);
  rq_ = Requantizer(acc_scale, out_qp_);
  return out_qp_;
}

QTensor Linear::forward_int(const QTensor& x, Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == in_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int n = x.shape()[0];
  QTensor y = ws_qtensor(ws, Shape{n, out_}, out_qp_);
  const kernel::KernelOps& ops = kernel::active().ops;
  const auto k = static_cast<std::size_t>(in_);
  if (ops.gemm4x16_i16_i8 != nullptr) {
    int_gemm(ops, x.data().data(), static_cast<std::size_t>(n), k, k, 1, wq_,
             bq_, rq_, y.data().data(), static_cast<std::size_t>(out_), 1);
    return y;
  }
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < out_; ++o) {
      std::int64_t acc = bq_[static_cast<std::size_t>(o)];
      for (int j = 0; j < in_; ++j) {
        acc += static_cast<std::int64_t>(x.at(i, j)) *
               panel_weight(wq_, k, o, j);
      }
      y.at(i, o) = static_cast<std::int32_t>(rq_.apply(acc));
    }
  }
  return y;
}

// --------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
               Rng& rng, bool depthwise)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      depthwise_(depthwise) {
  GQA_EXPECTS(in_ch >= 1 && out_ch >= 1 && kernel >= 1 && stride >= 1);
  if (depthwise_) GQA_EXPECTS_MSG(in_ch == out_ch, "depthwise needs in==out");
  const int fan_in = (depthwise_ ? 1 : in_ch) * kernel * kernel;
  const double std = std::sqrt(2.0 / fan_in);
  w_ = Tensor::randn(Shape{out_ch_, depthwise_ ? 1 : in_ch_, kernel_, kernel_},
                     rng, std);
  b_ = Tensor::randn(Shape{out_ch_}, rng, 0.02);
}

Tensor Conv2d::forward_fp(const Tensor& x, Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 3 && x.shape()[0] == in_ch_);
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  const int oh = conv_out_size(h, kernel_, stride_, pad_);
  const int ow = conv_out_size(w, kernel_, stride_, pad_);
  Tensor y = ws_tensor(ws, Shape{out_ch_, oh, ow});
  for (int oc = 0; oc < out_ch_; ++oc) {
    const int ic_lo = depthwise_ ? oc : 0;
    const int ic_hi = depthwise_ ? oc + 1 : in_ch_;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        double acc = b_.at(oc);
        for (int ic = ic_lo; ic < ic_hi; ++ic) {
          const int wc = depthwise_ ? 0 : ic;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              acc += x.at(ic, iy, ix) * w_.at(oc, wc, ky, kx);
            }
          }
        }
        y.at(oc, oy, ox) = static_cast<float>(acc);
      }
    }
  }
  return y;
}

Tensor Conv2d::calibrate(const Tensor& x) {
  Tensor y = forward_fp(x);
  out_obs_.observe(std::span<const float>(y.data()));
  return y;
}

QuantParams Conv2d::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  w_scale_ = quantize_weights(w_, static_cast<std::size_t>(out_ch_),
                              /*panels=*/!depthwise_, wq_);
  const double acc_scale = in_qp.scale * w_scale_;
  bq_ = quantize_bias(b_, acc_scale);
  out_qp_ = po2_out_ ? out_obs_.make_po2(policy.act_bits)
                     : out_obs_.make_params(policy.act_bits);
  rq_ = Requantizer(acc_scale, out_qp_);
  return out_qp_;
}

QTensor Conv2d::forward_int(const QTensor& x, Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 3 && x.shape()[0] == in_ch_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int h = x.shape()[1];
  const int w = x.shape()[2];
  const int oh = conv_out_size(h, kernel_, stride_, pad_);
  const int ow = conv_out_size(w, kernel_, stride_, pad_);
  QTensor y = ws_qtensor(ws, Shape{out_ch_, oh, ow}, out_qp_);
  const std::size_t kk = static_cast<std::size_t>(kernel_) * kernel_;
  const std::size_t per_oc = (depthwise_ ? 1 : static_cast<std::size_t>(in_ch_)) * kk;
  const std::size_t pixels = static_cast<std::size_t>(oh) * ow;
  const kernel::KernelOps& ops = kernel::active().ops;
  // Every lowering below adds the bias plus exactly the scalar loop's
  // products (a padding tap contributes 0), summed exactly (in bounded
  // int32 lanes, or int64 for int_gemm's rows outside the bound), so the
  // requantized codes are bit-identical to the loop at the end, which
  // stays the oracle for backends without the kernels and for depthwise
  // calls outside the int32 bound.
  if (!depthwise_ && ops.gemm4x16_i16_i8 != nullptr) {
    // GEMM row p is pixel p, output o channel o: y[o·pixels + p]. A 1x1,
    // stride-1, unpadded conv reads row p in place: x[ic·pixels + p].
    if (kernel_ == 1 && stride_ == 1 && pad_ == 0) {
      int_gemm(ops, x.data().data(), pixels, per_oc, 1, pixels, wq_, bq_, rq_,
               y.data().data(), 1, pixels);
      return y;
    }
    // Otherwise im2col: row p holds p's receptive field in (ic, ky, kx)
    // order, the weight layout; padding taps keep the acquire's zero fill.
    std::vector<std::int32_t> col = ws_i32(ws, pixels * per_oc);
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        std::int32_t* row =
            col.data() + (static_cast<std::size_t>(oy) * ow + ox) * per_oc;
        const int x0 = ox * stride_ - pad_;
        const int kx_lo = std::max(0, -x0);
        const int kx_hi = std::min(kernel_, w - x0);
        if (kx_hi <= kx_lo) continue;
        for (int ic = 0; ic < in_ch_; ++ic) {
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            const std::int32_t* src =
                x.data().data() + (static_cast<std::size_t>(ic) * h + iy) * w +
                static_cast<std::size_t>(x0 + kx_lo);
            std::copy(src, src + (kx_hi - kx_lo),
                      row + (ic * kernel_ + ky) * kernel_ + kx_lo);
          }
        }
      }
    }
    int_gemm(ops, col.data(), pixels, per_oc, per_oc, 1, wq_, bq_, rq_,
             y.data().data(), 1, pixels);
    ws_release(ws, std::move(col));
    return y;
  }
  // A depthwise output sums its bias and at most k² taps of |w·x| ≤
  // 128·max|x|; inside INT32_MAX every partial sum is exact in int32.
  if (depthwise_ && ops.axpy_i32 != nullptr &&
      max_abs(bq_) + static_cast<std::int64_t>(kk) * 128 * max_abs(x.data()) <=
          std::numeric_limits<std::int32_t>::max()) {
    // Per channel: the output plane, seeded with the bias, to which each
    // tap (ky, kx) adds w·x over the output columns whose input column
    // lies inside the image (a range computed once per tap), then one
    // in-place requantize_row. Stride-1 rows are contiguous on both sides
    // and go through axpy_i32.
    for (std::size_t c = 0; c < static_cast<std::size_t>(out_ch_); ++c) {
      std::int32_t* plane = y.data().data() + c * pixels;
      std::fill(plane, plane + pixels, bq_[c]);
      const std::int32_t* xc =
          x.data().data() + c * static_cast<std::size_t>(h) * w;
      for (int ky = 0; ky < kernel_; ++ky) {
        for (int kx = 0; kx < kernel_; ++kx) {
          const std::int32_t wt =
              wq_[c * kk + static_cast<std::size_t>(ky * kernel_ + kx)];
          // Output columns with 0 <= ox·stride − pad + kx < w.
          const int ox_lo =
              pad_ > kx ? (pad_ - kx + stride_ - 1) / stride_ : 0;
          const int last = w - 1 + pad_ - kx;
          const int ox_hi = last < 0 ? 0 : std::min(ow, last / stride_ + 1);
          if (ox_hi <= ox_lo) continue;
          const std::size_t span = static_cast<std::size_t>(ox_hi - ox_lo);
          for (int oy = 0; oy < oh; ++oy) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            std::int32_t* arow =
                plane + static_cast<std::size_t>(oy) * ow + ox_lo;
            const std::int32_t* xrow = xc + static_cast<std::size_t>(iy) * w +
                                       (ox_lo * stride_ - pad_ + kx);
            if (stride_ == 1) {
              ops.axpy_i32(arow, xrow, wt, span);
            } else {
              for (std::size_t j = 0; j < span; ++j) {
                arow[j] += wt * xrow[j * stride_];
              }
            }
          }
        }
      }
      requantize_row(rq_, plane, plane, pixels);
    }
    return y;
  }
  for (int oc = 0; oc < out_ch_; ++oc) {
    const int ic_lo = depthwise_ ? oc : 0;
    const int ic_hi = depthwise_ ? oc + 1 : in_ch_;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        std::int64_t acc = bq_[static_cast<std::size_t>(oc)];
        for (int ic = ic_lo; ic < ic_hi; ++ic) {
          const int wc = depthwise_ ? 0 : ic;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              const auto j =
                  static_cast<std::size_t>((wc * kernel_ + ky) * kernel_ + kx);
              acc += static_cast<std::int64_t>(x.at(ic, iy, ix)) *
                     (depthwise_ ? wq_[oc * per_oc + j]
                                 : panel_weight(wq_, per_oc, oc, j));
            }
          }
        }
        y.at(oc, oy, ox) = static_cast<std::int32_t>(rq_.apply(acc));
      }
    }
  }
  return y;
}

// ------------------------------------------------------------ LayerNorm ---

LayerNorm::LayerNorm(int dim, Rng& rng) : dim_(dim) {
  GQA_EXPECTS(dim >= 2);
  gamma_ = Tensor(Shape{dim_});
  beta_ = Tensor(Shape{dim_});
  for (int i = 0; i < dim_; ++i) {
    gamma_.at(i) = static_cast<float>(1.0 + rng.normal(0.0, 0.05));
    beta_.at(i) = static_cast<float>(rng.normal(0.0, 0.05));
  }
}

Tensor LayerNorm::forward_fp(const Tensor& x, Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == dim_);
  const int n = x.shape()[0];
  Tensor y = ws_tensor(ws, x.shape());
  for (int i = 0; i < n; ++i) {
    double mean = 0.0;
    for (int d = 0; d < dim_; ++d) mean += x.at(i, d);
    mean /= dim_;
    double var = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double c = x.at(i, d) - mean;
      var += c * c;
    }
    var /= dim_;
    const double inv = 1.0 / std::sqrt(var + 1e-5);
    for (int d = 0; d < dim_; ++d) {
      y.at(i, d) = static_cast<float>((x.at(i, d) - mean) * inv * gamma_.at(d) +
                                      beta_.at(d));
    }
  }
  return y;
}

Tensor LayerNorm::calibrate(const Tensor& x) {
  Tensor y = forward_fp(x);
  out_obs_.observe(std::span<const float>(y.data()));
  return y;
}

QuantParams LayerNorm::freeze(const QuantParams& in_qp,
                              const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  in_qp_ = in_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return out_qp_;
}

QTensor LayerNorm::forward_int(const QTensor& x, const NonlinearProvider& nl,
                               Workspace* ws) const {
  GQA_EXPECTS(x.shape().rank() == 2 && x.shape()[1] == dim_);
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int n = x.shape()[0];
  QTensor y = ws_qtensor(ws, x.shape(), out_qp_);
  constexpr int kVarFrac = 8;  ///< fractional bits of the variance bus
  // Pass 1: per-row integer moments and variance bus codes, so every row's
  // RSQRT streams through the multi-range unit in one batched call.
  std::vector<std::int64_t> sums = ws_i64(ws, static_cast<std::size_t>(n));
  std::vector<std::int64_t> w_codes = ws_i64(ws, static_cast<std::size_t>(n));
  std::vector<std::int64_t> prenorm = ws_i64(ws, static_cast<std::size_t>(n));
  // Dispatched row moments: the sum is a pure integer reduction (exact in
  // any order); the centered second moment squares c = D·q − Σq in 32-bit
  // lanes, so it is dispatched only when |c| provably fits int32 — i.e.
  // 2·D·2^(bits−1) stays under the int32 ceiling. Out-of-bound widths keep
  // the scalar loops.
  const auto row_sum = kernel::active().ops.sum_i32;
  auto row_ssq = kernel::active().ops.ssq_centered_i32;
  const std::int64_t amax = std::max(-int_min(in_qp_.bits, in_qp_.is_signed),
                                     int_max(in_qp_.bits, in_qp_.is_signed));
  if (2 * static_cast<std::int64_t>(dim_) * amax >
      std::numeric_limits<std::int32_t>::max()) {
    row_ssq = nullptr;
  }
  for (int i = 0; i < n; ++i) {
    const std::int32_t* xrow =
        x.data().data() + static_cast<std::size_t>(i) * dim_;
    // Exact integer moments via the D-scaled centering trick:
    // c'_d = D·q_d − Σq  has value D·S·(x_d − μ), no mean rounding.
    std::int64_t sum = 0;
    if (row_sum != nullptr) {
      sum = row_sum(xrow, static_cast<std::size_t>(dim_));
    } else {
      for (int d = 0; d < dim_; ++d) sum += x.at(i, d);
    }
    sums[static_cast<std::size_t>(i)] = sum;
    // W = (Σ c'²)/D³ has value S²σ²·D⁰... normalized so that
    // n_d = c'_d / (D·σ_q) with σ_q in code units; the quant scale cancels.
    std::int64_t ssq = 0;  // Σ c'² / D, rounded — fits int64 for D ≤ 4096
    std::int64_t raw = 0;
    if (row_ssq != nullptr) {
      raw = row_ssq(xrow, dim_, sum, static_cast<std::size_t>(dim_));
    } else {
      for (int d = 0; d < dim_; ++d) {
        const std::int64_t c =
            static_cast<std::int64_t>(dim_) * x.at(i, d) - sum;
        raw += c * c;
      }
    }
    ssq = shift_round(raw, 0) / dim_;  // Σc'²/D, exact division remainder dropped
    // Variance bus: W_code = (Σc'²/D) · 2^kVarFrac / D²  (value = σ_q²·D⁰·2^f)
    const double var_codes =
        static_cast<double>(ssq) / (static_cast<double>(dim_) * dim_);
    std::int64_t w_code = std::max<std::int64_t>(
        1, round_to_int(std::ldexp(var_codes, kVarFrac)));
    // Power-of-4 pre-normalization into the RSQRT multi-range span
    // [0.25, 16384): rsqrt(W) = 2^-t · rsqrt(W·2^-2t).
    int t = 0;
    while (std::ldexp(static_cast<double>(w_code), -kVarFrac - 2 * t) >=
           16384.0) {
      ++t;
    }
    w_codes[static_cast<std::size_t>(i)] =
        std::max<std::int64_t>(1, shift_round(w_code, 2 * t));
    prenorm[static_cast<std::size_t>(i)] = t;
  }
  std::vector<double> rsqrts = ws_f64(ws, static_cast<std::size_t>(n));
  nl.rsqrt_fxp_batch(w_codes, kVarFrac, rsqrts);
  // Pass 2: n_d = c'_d/(D·σ_q); y = γ n + β quantized to the output scale.
  // The dispatched affine pass repeats the loop's IEEE operations lane by
  // lane; it needs the ssq gate's int32 c and an output bus inside int32.
  const BusBounds out_bus = bus_bounds(out_qp_.bits, out_qp_.is_signed);
  const auto affine =
      row_ssq != nullptr &&
              out_bus.lo >= std::numeric_limits<std::int32_t>::min() &&
              out_bus.hi <= std::numeric_limits<std::int32_t>::max()
          ? kernel::active().ops.layernorm_affine_i32
          : nullptr;
  for (int i = 0; i < n; ++i) {
    const std::int64_t sum = sums[static_cast<std::size_t>(i)];
    const double inv_sigma_q = std::ldexp(
        rsqrts[static_cast<std::size_t>(i)],
        -static_cast<int>(prenorm[static_cast<std::size_t>(i)]));
    if (affine != nullptr) {
      const std::size_t row = static_cast<std::size_t>(i) * dim_;
      affine(x.data().data() + row, dim_, sum, inv_sigma_q,
             gamma_.data().data(), beta_.data().data(), out_qp_.scale, out_bus,
             y.data().data() + row, static_cast<std::size_t>(dim_));
      continue;
    }
    for (int d = 0; d < dim_; ++d) {
      const std::int64_t c = static_cast<std::int64_t>(dim_) * x.at(i, d) - sum;
      const double norm = static_cast<double>(c) * inv_sigma_q / dim_;
      const double val = gamma_.at(d) * norm + beta_.at(d);
      y.at(i, d) = static_cast<std::int32_t>(out_qp_.quantize(val));
    }
  }
  ws_release(ws, std::move(sums));
  ws_release(ws, std::move(w_codes));
  ws_release(ws, std::move(prenorm));
  ws_release(ws, std::move(rsqrts));
  return y;
}

// -------------------------------------------------------------- Softmax ---

Tensor Softmax::forward_fp(const Tensor& rows, Workspace* ws) {
  GQA_EXPECTS(rows.shape().rank() == 2);
  const int n = rows.shape()[0];
  const int m = rows.shape()[1];
  Tensor y = ws_tensor(ws, rows.shape());
  for (int i = 0; i < n; ++i) {
    double peak = rows.at(i, 0);
    for (int j = 1; j < m; ++j) peak = std::max<double>(peak, rows.at(i, j));
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
      const double e = std::exp(rows.at(i, j) - peak);
      y.at(i, j) = static_cast<float>(e);
      sum += e;
    }
    for (int j = 0; j < m; ++j) y.at(i, j) = static_cast<float>(y.at(i, j) / sum);
  }
  return y;
}

QTensor Softmax::forward_int(const QTensor& rows, const NonlinearProvider& nl,
                             Workspace* ws) {
  GQA_EXPECTS(rows.shape().rank() == 2);
  GQA_EXPECTS_MSG(rows.params().scale_is_po2(),
                  "Softmax input scale must be a power of two (§3.1)");
  GQA_EXPECTS_MSG(rows.params().is_signed,
                  "Softmax input codes must be signed (max-subtracted "
                  "differences are non-positive)");
  const int sx = rows.params().po2_exponent();
  const int n = rows.shape()[0];
  const int m = rows.shape()[1];
  QTensor y = ws_qtensor(ws, rows.shape(), prob_params());
  // exp outputs are exact multiples of 2^(sx - λ); summing then encoding
  // with frac = λ - sx keeps the DIV input bit-exact.
  const int sum_frac = std::min(40, std::max(8, 12 - sx));
  std::vector<std::int64_t> diffs = ws_i64(ws, static_cast<std::size_t>(m));
  std::vector<double> exps = ws_f64(ws, static_cast<std::size_t>(m));
  // Dispatched row peak (max is order-free) and max-subtracted widening;
  // the exp sum below is a float reduction and must stay scalar (FP
  // addition is not associative).
  const auto row_max = kernel::active().ops.max_i32;
  const auto sub_widen = kernel::active().ops.sub_scalar_widen_i32;
  for (int i = 0; i < n; ++i) {
    const std::int32_t* xrow =
        rows.data().data() + static_cast<std::size_t>(i) * m;
    std::int32_t peak = rows.at(i, 0);
    if (row_max != nullptr) {
      peak = row_max(xrow, static_cast<std::size_t>(m));
    } else {
      for (int j = 1; j < m; ++j) peak = std::max(peak, rows.at(i, j));
    }
    if (sub_widen != nullptr) {
      sub_widen(xrow, peak, diffs.data(), static_cast<std::size_t>(m));
    } else {
      for (int j = 0; j < m; ++j) {
        diffs[static_cast<std::size_t>(j)] =
            static_cast<std::int64_t>(rows.at(i, j)) - peak;
      }
    }
    // One batched EXP pass per row: the pwl unit is resolved once and the
    // whole row streams through its dense segment table.
    nl.exp_codes(diffs, sx, exps);
    double sum = 0.0;
    for (int j = 0; j < m; ++j) sum += exps[static_cast<std::size_t>(j)];
    const std::int64_t sum_code = std::max<std::int64_t>(
        1, round_to_int(std::ldexp(sum, sum_frac)));
    const double recip = nl.recip_fxp(sum_code, sum_frac);
    for (int j = 0; j < m; ++j) {
      const double p = exps[static_cast<std::size_t>(j)] * recip;
      y.at(i, j) = static_cast<std::int32_t>(prob_params().quantize(p));
    }
  }
  ws_release(ws, std::move(diffs));
  ws_release(ws, std::move(exps));
  return y;
}

// ----------------------------------------------------------- Activation ---

Tensor Activation::forward_fp(const Tensor& x, Workspace* ws) const {
  Tensor y = ws_tensor(ws, x.shape());
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    y.data()[i] =
        static_cast<float>(eval_op(op_, static_cast<double>(x.data()[i])));
  }
  return y;
}

Tensor Activation::calibrate(const Tensor& x) {
  Tensor y = forward_fp(x);
  out_obs_.observe(std::span<const float>(y.data()));
  return y;
}

QuantParams Activation::freeze(const QuantParams& in_qp,
                               const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  GQA_EXPECTS_MSG(in_qp.scale_is_po2(),
                  "activation input scale must be a power of two (§3.1)");
  in_qp_ = in_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return out_qp_;
}

namespace {

/// Widest input bus that gets a code→code table (2^16 entries), the same
/// cap as IntPwlUnit's dense segment table.
constexpr int kMaxActTableBits = 16;

/// y[i] = out.quantize(op(2^sx·codes[i])) through one batched provider
/// call: the per-element activation epilogue, and the source of its table.
void act_quantize(Op op, const NonlinearProvider& nl, int sx,
                  const QuantParams& out, std::span<const std::int64_t> codes,
                  std::int32_t* y, Workspace* ws) {
  std::vector<double> vals = ws_f64(ws, codes.size());
  if (op == Op::kGelu) {
    nl.gelu_codes(codes, sx, vals);
  } else {
    nl.hswish_codes(codes, sx, vals);
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    y[i] = static_cast<std::int32_t>(out.quantize(vals[i]));
  }
  ws_release(ws, std::move(vals));
}

}  // namespace

QTensor Activation::forward_int(const QTensor& x, const NonlinearProvider& nl,
                                Workspace* ws) const {
  GQA_EXPECTS_MSG(x.params() == in_qp_, "input params differ from freeze()");
  const int sx = x.params().po2_exponent();
  QTensor y = ws_qtensor(ws, x.shape(), out_qp_);
  const std::size_t count = x.data().size();
  const std::int32_t* xs = x.data().data();
  std::int32_t* ys = y.data().data();
  if (in_qp_.bits > kMaxActTableBits) {
    // No table this wide: the whole tensor takes one provider call.
    std::vector<std::int64_t> codes = ws_i64(ws, count);
    std::copy(xs, xs + count, codes.begin());
    act_quantize(op_, nl, sx, out_qp_, codes, ys, ws);
    ws_release(ws, std::move(codes));
    return y;
  }
  // An output code depends only on its input code, so each code of the
  // input bus is evaluated once and every element becomes one lookup.
  // (GELU and HSWISH of every bus code stay finite below input scales near
  // 2^1000, so building the table quantizes nothing that could throw.)
  const BusBounds bus = bus_bounds(in_qp_.bits, in_qp_.is_signed);
  const auto span = static_cast<std::size_t>(bus.hi - bus.lo + 1);
  std::vector<std::int64_t> codes = ws_i64(ws, span);
  for (std::size_t j = 0; j < span; ++j) {
    codes[j] = bus.lo + static_cast<std::int64_t>(j);
  }
  std::vector<std::int32_t> table = ws_i32(ws, span);
  act_quantize(op_, nl, sx, out_qp_, codes, table.data(), ws);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t q = xs[i];
    if (q >= bus.lo && q <= bus.hi) {
      ys[i] = table[static_cast<std::size_t>(q - bus.lo)];
    } else {
      // Off the input bus (the API admits any int32; no frozen model
      // produces one): the provider call the table stands in for.
      act_quantize(op_, nl, sx, out_qp_, std::span(&q, 1), ys + i, ws);
    }
  }
  ws_release(ws, std::move(codes));
  ws_release(ws, std::move(table));
  return y;
}

// ---------------------------------------------------------- ResidualAdd ---

Tensor ResidualAdd::forward_fp(const Tensor& a, const Tensor& b,
                               Workspace* ws) const {
  GQA_EXPECTS(a.shape() == b.shape());
  Tensor y = ws_tensor(ws, a.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    y.data()[i] = a.data()[i] + b.data()[i];
  }
  return y;
}

Tensor ResidualAdd::calibrate(const Tensor& a, const Tensor& b) {
  Tensor y = forward_fp(a, b);
  out_obs_.observe(std::span<const float>(y.data()));
  return y;
}

QuantParams ResidualAdd::freeze(const QuantParams& a_qp,
                                const QuantParams& b_qp,
                                const QuantPolicy& policy) {
  GQA_EXPECTS_MSG(!out_obs_.empty(), "freeze() requires prior calibration");
  a_qp_ = a_qp;
  b_qp_ = b_qp;
  out_qp_ = out_obs_.make_params(policy.act_bits);
  rq_a_ = Requantizer(a_qp.scale, out_qp_);
  rq_b_ = Requantizer(b_qp.scale, out_qp_);
  return out_qp_;
}

QTensor ResidualAdd::forward_int(const QTensor& a, const QTensor& b,
                                 Workspace* ws) const {
  GQA_EXPECTS(a.shape() == b.shape());
  GQA_EXPECTS_MSG(a.params() == a_qp_,
                  "first operand params differ from freeze()");
  GQA_EXPECTS_MSG(b.params() == b_qp_,
                  "second operand params differ from freeze()");
  QTensor y = ws_qtensor(ws, a.shape(), out_qp_);
  const std::size_t n = a.data().size();
  if (kernel::active().ops.requant_i32 != nullptr) {
    // Each requantized operand sits on the output bus, which make_params
    // keeps signed and at most 32 bits wide, so it survives requantize_row's
    // int32 narrowing and the clamp-add reproduces the loop's int64 sum.
    const BusBounds bus = bus_bounds(out_qp_.bits, out_qp_.is_signed);
    std::vector<std::int32_t> rb = ws_i32(ws, n);
    requantize_row(rq_a_, a.data().data(), y.data().data(), n);
    requantize_row(rq_b_, b.data().data(), rb.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      y.data()[i] = static_cast<std::int32_t>(
          clamp_to_bus(std::int64_t{y.data()[i]} + rb[i], bus));
    }
    ws_release(ws, std::move(rb));
    return y;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = rq_a_.apply(a.data()[i]) + rq_b_.apply(b.data()[i]);
    y.data()[i] =
        static_cast<std::int32_t>(saturate(v, out_qp_.bits, out_qp_.is_signed));
  }
  return y;
}

// ---------------------------------------------------------- AttentionSR ---

AttentionSR::AttentionSR(int dim, int heads, int sr_ratio, Rng& rng)
    : dim_(dim),
      heads_(heads),
      sr_(sr_ratio),
      q_lin_(dim, dim, rng),
      k_lin_(dim, dim, rng),
      v_lin_(dim, dim, rng),
      proj_(dim, dim, rng) {
  GQA_EXPECTS(dim % heads == 0);
  GQA_EXPECTS(sr_ratio >= 1);
  if (sr_ > 1) {
    sr_conv_ = std::make_unique<Conv2d>(dim, dim, sr_, sr_, 0, rng);
  }
}

namespace {

/// Head-sliced score computation: scores[i,j] = q_i · k_j / sqrt(dh).
Tensor head_scores(const Tensor& q, const Tensor& k, int head, int dh,
                   Workspace* ws = nullptr) {
  const int n = q.shape()[0];
  const int m = k.shape()[0];
  const double inv = 1.0 / std::sqrt(static_cast<double>(dh));
  Tensor s = ws_tensor(ws, Shape{n, m});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double acc = 0.0;
      for (int d = 0; d < dh; ++d) {
        acc += q.at(i, head * dh + d) * k.at(j, head * dh + d);
      }
      s.at(i, j) = static_cast<float>(acc * inv);
    }
  }
  return s;
}

}  // namespace

Tensor AttentionSR::forward_fp(const Tensor& tokens, int h, int w,
                               Workspace* ws) const {
  Tensor q = q_lin_.forward_fp(tokens, ws);
  Tensor reduced;
  const Tensor* kv_src = &tokens;
  if (sr_conv_) {
    Tensor map = from_tokens(tokens, h, w, ws);
    Tensor conv = sr_conv_->forward_fp(map, ws);
    ws_release(ws, std::move(map));
    reduced = to_tokens(conv, ws);
    ws_release(ws, std::move(conv));
    kv_src = &reduced;
  }
  Tensor k = k_lin_.forward_fp(*kv_src, ws);
  Tensor v = v_lin_.forward_fp(*kv_src, ws);
  if (sr_conv_) ws_release(ws, std::move(reduced));
  const int n = tokens.shape()[0];
  const int dh = dim_ / heads_;
  Tensor ctx = ws_tensor(ws, Shape{n, dim_});
  for (int head = 0; head < heads_; ++head) {
    Tensor scores = head_scores(q, k, head, dh, ws);
    Tensor probs = Softmax::forward_fp(scores, ws);
    ws_release(ws, std::move(scores));
    const int m = probs.shape()[1];
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dh; ++d) {
        double acc = 0.0;
        for (int j = 0; j < m; ++j) acc += probs.at(i, j) * v.at(j, head * dh + d);
        ctx.at(i, head * dh + d) = static_cast<float>(acc);
      }
    }
    ws_release(ws, std::move(probs));
  }
  ws_release(ws, std::move(q));
  ws_release(ws, std::move(k));
  ws_release(ws, std::move(v));
  Tensor out = proj_.forward_fp(ctx, ws);
  ws_release(ws, std::move(ctx));
  return out;
}

Tensor AttentionSR::calibrate(const Tensor& tokens, int h, int w) {
  const Tensor q = q_lin_.calibrate(tokens);
  Tensor kv_src = tokens;
  if (sr_conv_) {
    kv_src = to_tokens(sr_conv_->calibrate(from_tokens(tokens, h, w)));
  }
  const Tensor k = k_lin_.calibrate(kv_src);
  const Tensor v = v_lin_.calibrate(kv_src);
  const int n = tokens.shape()[0];
  const int dh = dim_ / heads_;
  Tensor ctx(Shape{n, dim_});
  for (int head = 0; head < heads_; ++head) {
    Tensor scores = head_scores(q, k, head, dh);
    score_obs_.observe(std::span<const float>(scores.data()));
    const Tensor probs = Softmax::forward_fp(scores);
    const int m = probs.shape()[1];
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dh; ++d) {
        double acc = 0.0;
        for (int j = 0; j < m; ++j) acc += probs.at(i, j) * v.at(j, head * dh + d);
        ctx.at(i, head * dh + d) = static_cast<float>(acc);
      }
    }
  }
  attn_obs_.observe(std::span<const float>(ctx.data()));
  return proj_.calibrate(ctx);
}

QuantParams AttentionSR::freeze(const QuantParams& in_qp,
                                const QuantPolicy& policy) {
  const QuantParams q_qp = q_lin_.freeze(in_qp, policy);
  QuantParams kv_in = in_qp;
  if (sr_conv_) kv_in = sr_conv_->freeze(in_qp, policy);
  const QuantParams k_qp = k_lin_.freeze(kv_in, policy);
  const QuantParams v_qp = v_lin_.freeze(kv_in, policy);

  // Scores: accumulator scale Sq·Sk with the 1/sqrt(dh) factor folded into
  // the dyadic requantizer; the Softmax input scale must be po2 (§4.2).
  score_qp_ = score_obs_.make_po2(policy.act_bits);
  const int dh = dim_ / heads_;
  rq_score_ = Requantizer(q_qp.scale * k_qp.scale / std::sqrt(static_cast<double>(dh)),
                          score_qp_);

  attn_qp_ = attn_obs_.make_params(policy.act_bits);
  rq_attn_ = Requantizer(Softmax::prob_params().scale * v_qp.scale, attn_qp_);
  return proj_.freeze(attn_qp_, policy);
}

QTensor AttentionSR::forward_int(const QTensor& tokens, int h, int w,
                                 const NonlinearProvider& nl,
                                 Workspace* ws) const {
  QTensor q = q_lin_.forward_int(tokens, ws);
  QTensor reduced;
  const QTensor* kv_src = &tokens;
  if (sr_conv_) {
    QTensor map = from_tokens(tokens, h, w, ws);
    QTensor conv = sr_conv_->forward_int(map, ws);
    ws_release(ws, std::move(map));
    reduced = to_tokens(conv, ws);
    ws_release(ws, std::move(conv));
    kv_src = &reduced;
  }
  QTensor k = k_lin_.forward_int(*kv_src, ws);
  QTensor v = v_lin_.forward_int(*kv_src, ws);
  const int n = tokens.shape()[0];
  const int m = kv_src->shape()[0];
  const int dh = dim_ / heads_;
  if (sr_conv_) ws_release(ws, std::move(reduced));
  QTensor ctx = ws_qtensor(ws, Shape{n, dim_}, attn_qp_);
  for (int head = 0; head < heads_; ++head) {
    // Integer scores + requant to the po2 Softmax input scale.
    QTensor scores = ws_qtensor(ws, Shape{n, m}, score_qp_);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        std::int64_t acc = 0;
        for (int d = 0; d < dh; ++d) {
          acc += static_cast<std::int64_t>(q.at(i, head * dh + d)) *
                 k.at(j, head * dh + d);
        }
        scores.at(i, j) = static_cast<std::int32_t>(rq_score_.apply(acc));
      }
    }
    QTensor probs = Softmax::forward_int(scores, nl, ws);
    ws_release(ws, std::move(scores));
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < dh; ++d) {
        std::int64_t acc = 0;
        for (int j = 0; j < m; ++j) {
          acc += static_cast<std::int64_t>(probs.at(i, j)) *
                 v.at(j, head * dh + d);
        }
        ctx.at(i, head * dh + d) = static_cast<std::int32_t>(rq_attn_.apply(acc));
      }
    }
    ws_release(ws, std::move(probs));
  }
  ws_release(ws, std::move(q));
  ws_release(ws, std::move(k));
  ws_release(ws, std::move(v));
  QTensor out = proj_.forward_int(ctx, ws);
  ws_release(ws, std::move(ctx));
  return out;
}

// ------------------------------------------------------ LinearAttention ---

LinearAttention::LinearAttention(int dim, Rng& rng)
    : dim_(dim),
      q_lin_(dim, dim, rng),
      k_lin_(dim, dim, rng),
      v_lin_(dim, dim, rng),
      proj_(dim, dim, rng) {}

namespace {

double relu(double x) { return x > 0.0 ? x : 0.0; }

}  // namespace

Tensor LinearAttention::forward_fp(const Tensor& tokens, Workspace* ws) const {
  Tensor q = q_lin_.forward_fp(tokens, ws);
  Tensor k = k_lin_.forward_fp(tokens, ws);
  Tensor v = v_lin_.forward_fp(tokens, ws);
  const int n = tokens.shape()[0];
  // kv[c][d] = Σ_n relu(k)·v ; z[c] = Σ_n relu(k). The token reduction is
  // order-sensitive.
  Tensor kv = ws_tensor(ws, Shape{dim_, dim_});
  Tensor z = ws_tensor(ws, Shape{dim_});
  for (int j = 0; j < n; ++j) {
    for (int c = 0; c < dim_; ++c) {
      const double kc = relu(k.at(j, c));
      if (kc == 0.0) continue;
      z.at(c) += static_cast<float>(kc);
      for (int d = 0; d < dim_; ++d) kv.at(c, d) += static_cast<float>(kc * v.at(j, d));
    }
  }
  Tensor out = ws_tensor(ws, Shape{n, dim_});
  for (int i = 0; i < n; ++i) {
    double den = 1e-6;
    for (int c = 0; c < dim_; ++c) den += relu(q.at(i, c)) * z.at(c);
    const double inv = 1.0 / den;
    for (int d = 0; d < dim_; ++d) {
      double num = 0.0;
      for (int c = 0; c < dim_; ++c) num += relu(q.at(i, c)) * kv.at(c, d);
      out.at(i, d) = static_cast<float>(num * inv);
    }
  }
  ws_release(ws, std::move(q));
  ws_release(ws, std::move(k));
  ws_release(ws, std::move(v));
  ws_release(ws, std::move(kv));
  ws_release(ws, std::move(z));
  Tensor y = proj_.forward_fp(out, ws);
  ws_release(ws, std::move(out));
  return y;
}

Tensor LinearAttention::calibrate(const Tensor& tokens) {
  const Tensor q = q_lin_.calibrate(tokens);
  const Tensor k = k_lin_.calibrate(tokens);
  const Tensor v = v_lin_.calibrate(tokens);
  const int n = tokens.shape()[0];
  Tensor kv(Shape{dim_, dim_});
  Tensor z(Shape{dim_});
  for (int j = 0; j < n; ++j) {
    for (int c = 0; c < dim_; ++c) {
      const double kc = relu(k.at(j, c));
      if (kc == 0.0) continue;
      z.at(c) += static_cast<float>(kc);
      for (int d = 0; d < dim_; ++d) kv.at(c, d) += static_cast<float>(kc * v.at(j, d));
    }
  }
  Tensor out(Shape{n, dim_});
  for (int i = 0; i < n; ++i) {
    double den = 1e-6;
    for (int c = 0; c < dim_; ++c) den += relu(q.at(i, c)) * z.at(c);
    den_obs_.observe(den);
    const double inv = 1.0 / den;
    for (int d = 0; d < dim_; ++d) {
      double num = 0.0;
      for (int c = 0; c < dim_; ++c) num += relu(q.at(i, c)) * kv.at(c, d);
      out.at(i, d) = static_cast<float>(num * inv);
    }
  }
  out_obs_.observe(std::span<const float>(out.data()));
  return proj_.calibrate(out);
}

QuantParams LinearAttention::freeze(const QuantParams& in_qp,
                                    const QuantPolicy& policy) {
  const QuantParams q_qp = q_lin_.freeze(in_qp, policy);
  (void)k_lin_.freeze(in_qp, policy);
  (void)v_lin_.freeze(in_qp, policy);
  (void)q_qp;
  // Pre-scale the denominator into the DIV multi-range span [0.5, 256):
  // recip(x) = 2^g · recip(x·2^g), exact for power-of-two g.
  const double den_peak = std::max(den_obs_.max(), 1e-6);
  den_prescale_exp_ = -std::max(0, nearest_po2_exponent(den_peak) - 6);
  out_qp_ = out_obs_.make_params(policy.act_bits);
  return proj_.freeze(out_qp_, policy);
}

QTensor LinearAttention::forward_int(const QTensor& tokens,
                                     const NonlinearProvider& nl,
                                     Workspace* ws) const {
  QTensor q = q_lin_.forward_int(tokens, ws);
  QTensor k = k_lin_.forward_int(tokens, ws);
  QTensor v = v_lin_.forward_int(tokens, ws);
  const int n = tokens.shape()[0];
  const double sq = q.params().scale;
  const double sk = k.params().scale;
  const double sv = v.params().scale;

  // Integer relu is a clamp at zero (symmetric scales preserve zero).
  std::vector<std::int64_t> kv = ws_i64(ws, static_cast<std::size_t>(dim_) * dim_);
  std::vector<std::int64_t> z = ws_i64(ws, static_cast<std::size_t>(dim_));
  for (int j = 0; j < n; ++j) {
    for (int c = 0; c < dim_; ++c) {
      const std::int64_t kc = std::max<std::int64_t>(0, k.at(j, c));
      if (kc == 0) continue;
      z[static_cast<std::size_t>(c)] += kc;
      for (int d = 0; d < dim_; ++d) {
        kv[static_cast<std::size_t>(c) * dim_ + d] += kc * v.at(j, d);
      }
    }
  }

  constexpr int kDenFrac = 16;
  QTensor out = ws_qtensor(ws, Shape{n, dim_}, out_qp_);
  for (int i = 0; i < n; ++i) {
    std::int64_t den_acc = 0;
    for (int c = 0; c < dim_; ++c) {
      den_acc += std::max<std::int64_t>(0, q.at(i, c)) *
                 z[static_cast<std::size_t>(c)];
    }
    // den value = den_acc·Sq·Sk; pre-scaled by 2^g into the DIV span.
    const double den_value = std::max(
        1e-6, static_cast<double>(den_acc) * sq * sk);
    const std::int64_t den_code = std::max<std::int64_t>(
        1, round_to_int(std::ldexp(den_value, den_prescale_exp_ + kDenFrac)));
    const double inv =
        std::ldexp(nl.recip_fxp(den_code, kDenFrac), den_prescale_exp_);
    for (int d = 0; d < dim_; ++d) {
      std::int64_t num_acc = 0;
      for (int c = 0; c < dim_; ++c) {
        num_acc += std::max<std::int64_t>(0, q.at(i, c)) *
                   kv[static_cast<std::size_t>(c) * dim_ + d];
      }
      const double value = static_cast<double>(num_acc) * sq * sk * sv * inv;
      out.at(i, d) = static_cast<std::int32_t>(out_qp_.quantize(value));
    }
  }
  ws_release(ws, std::move(q));
  ws_release(ws, std::move(k));
  ws_release(ws, std::move(v));
  ws_release(ws, std::move(kv));
  ws_release(ws, std::move(z));
  QTensor y = proj_.forward_int(out, ws);
  ws_release(ws, std::move(out));
  return y;
}

// --------------------------------------------------------------- MixFfn ---

MixFfn::MixFfn(int dim, int hidden, Rng& rng)
    : fc1_(dim, hidden, rng),
      fc2_(hidden, dim, rng),
      dw_(hidden, hidden, 3, 1, 1, rng, /*depthwise=*/true),
      act_(Op::kGelu) {
  dw_.set_po2_output(true);  // GELU pwl consumes the dwconv output
}

Tensor MixFfn::forward_fp(const Tensor& tokens, int h, int w,
                          Workspace* ws) const {
  Tensor x = fc1_.forward_fp(tokens, ws);
  Tensor map = from_tokens(x, h, w, ws);
  ws_release(ws, std::move(x));
  Tensor conv = dw_.forward_fp(map, ws);
  ws_release(ws, std::move(map));
  Tensor tok = to_tokens(conv, ws);
  ws_release(ws, std::move(conv));
  Tensor act = act_.forward_fp(tok, ws);
  ws_release(ws, std::move(tok));
  Tensor y = fc2_.forward_fp(act, ws);
  ws_release(ws, std::move(act));
  return y;
}

Tensor MixFfn::calibrate(const Tensor& tokens, int h, int w) {
  Tensor x = fc1_.calibrate(tokens);
  x = to_tokens(dw_.calibrate(from_tokens(x, h, w)));
  x = act_.calibrate(x);
  return fc2_.calibrate(x);
}

QuantParams MixFfn::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  QuantParams qp = fc1_.freeze(in_qp, policy);
  qp = dw_.freeze(qp, policy);
  qp = act_.freeze(qp, policy);
  return fc2_.freeze(qp, policy);
}

QTensor MixFfn::forward_int(const QTensor& tokens, int h, int w,
                            const NonlinearProvider& nl,
                            Workspace* ws) const {
  QTensor x = fc1_.forward_int(tokens, ws);
  QTensor map = from_tokens(x, h, w, ws);
  ws_release(ws, std::move(x));
  QTensor conv = dw_.forward_int(map, ws);
  ws_release(ws, std::move(map));
  QTensor tok = to_tokens(conv, ws);
  ws_release(ws, std::move(conv));
  QTensor act = act_.forward_int(tok, nl, ws);
  ws_release(ws, std::move(tok));
  QTensor y = fc2_.forward_int(act, ws);
  ws_release(ws, std::move(act));
  return y;
}

// --------------------------------------------------------------- MbConv ---

MbConv::MbConv(int in_ch, int out_ch, int expand, int stride, Rng& rng)
    : residual_(in_ch == out_ch && stride == 1),
      expand_(in_ch, in_ch * expand, 1, 1, 0, rng),
      dw_(in_ch * expand, in_ch * expand, 3, stride, 1, rng, /*depthwise=*/true),
      project_(in_ch * expand, out_ch, 1, 1, 0, rng),
      act1_(Op::kHswish),
      act2_(Op::kHswish) {
  expand_.set_po2_output(true);  // HSWISH pwl consumes both conv outputs
  dw_.set_po2_output(true);
}

Tensor MbConv::forward_fp(const Tensor& x, Workspace* ws) const {
  Tensor t = expand_.forward_fp(x, ws);
  Tensor y = act1_.forward_fp(t, ws);
  ws_release(ws, std::move(t));
  t = dw_.forward_fp(y, ws);
  ws_release(ws, std::move(y));
  y = act2_.forward_fp(t, ws);
  ws_release(ws, std::move(t));
  t = project_.forward_fp(y, ws);
  ws_release(ws, std::move(y));
  if (!residual_) return t;
  Tensor out = add_.forward_fp(t, x, ws);
  ws_release(ws, std::move(t));
  return out;
}

Tensor MbConv::calibrate(const Tensor& x) {
  Tensor y = act1_.calibrate(expand_.calibrate(x));
  y = act2_.calibrate(dw_.calibrate(y));
  y = project_.calibrate(y);
  return residual_ ? add_.calibrate(y, x) : y;
}

QuantParams MbConv::freeze(const QuantParams& in_qp,
                           const QuantPolicy& policy) {
  QuantParams qp = expand_.freeze(in_qp, policy);
  qp = act1_.freeze(qp, policy);
  qp = dw_.freeze(qp, policy);
  qp = act2_.freeze(qp, policy);
  qp = project_.freeze(qp, policy);
  return residual_ ? add_.freeze(qp, in_qp, policy) : qp;
}

QTensor MbConv::forward_int(const QTensor& x, const NonlinearProvider& nl,
                            Workspace* ws) const {
  QTensor t = expand_.forward_int(x, ws);
  QTensor y = act1_.forward_int(t, nl, ws);
  ws_release(ws, std::move(t));
  t = dw_.forward_int(y, ws);
  ws_release(ws, std::move(y));
  y = act2_.forward_int(t, nl, ws);
  ws_release(ws, std::move(t));
  t = project_.forward_int(y, ws);
  ws_release(ws, std::move(y));
  if (!residual_) return t;
  QTensor out = add_.forward_int(t, x, ws);
  ws_release(ws, std::move(t));
  return out;
}

}  // namespace gqa::tfm
