// 2-d convolution expressed as im2col + engine GEMM.
#pragma once

#include <memory>

#include "nn/layer.h"
#include "nn/mvm_engine.h"
#include "tensor/ops.h"

namespace nvm::nn {

/// Square-kernel, bias-free convolution over a single (C,H,W) example.
/// (Bias is omitted because every conv in the networks here is followed by
/// batch norm, which subsumes it.)
class Conv2d final : public Layer {
 public:
  /// Weight init: Kaiming-normal (fan-in) scaled for ReLU.
  Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::vector<Param*> params() override { return {&weight_}; }
  std::string name() const override { return "conv2d"; }

  /// Replaces the MVM engine (ideal by default). Used by puma:: to deploy
  /// this layer onto crossbar hardware.
  void set_engine(std::shared_ptr<MvmEngine> engine);
  MvmEngine& engine() const { return *engine_; }

  /// Weight as (out_c, in_c*k*k) GEMM matrix — the matrix that gets
  /// programmed onto crossbars.
  const Tensor& weight_matrix() const { return weight_.value; }
  Param& weight_param() { return weight_; }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return pad_; }

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  Param weight_;  // shape (out_c, in_c*k*k)
  std::shared_ptr<MvmEngine> engine_;

  // backward() caches
  ConvGeom geom_{};
  Tensor cached_cols_;  // im2col of last input
};

}  // namespace nvm::nn
