// Pointwise activation layers.
#pragma once

#include <cstdint>
#include <vector>

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
  Shape cached_shape_;                    // of the last forward input
  std::vector<std::uint8_t> cached_mask_;  // bit i: x[i] > 0 (simd::relu)
};

}  // namespace nvm::nn
