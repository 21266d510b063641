// Pointwise activation layers.
#pragma once

#include "nn/layer.h"

namespace nvm::nn {

/// Rectified linear unit. Guarantees non-negative outputs, which is what
/// allows all crossbar inputs to be encoded as unsigned DAC levels.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_mask_;  // 1 where x > 0
};

}  // namespace nvm::nn
