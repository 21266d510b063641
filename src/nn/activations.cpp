#include "nn/activations.h"

#include "common/check.h"
#include "common/simd.h"

namespace nvm::nn {

Tensor ReLU::forward(const Tensor& x, Mode mode) {
  Tensor y(x.shape());
  const std::int64_t n = x.numel();
  cached_mask_.resize(static_cast<std::size_t>((n + 7) / 8));
  simd::relu(y.raw(), cached_mask_.data(), x.raw(), n);
  cached_shape_ = x.shape();
  return apply_eval_hook(std::move(y), mode);
}

Tensor ReLU::backprop(const Tensor& grad_out, bool /*param_grads*/) {
  NVM_CHECK(!cached_shape_.empty(), "backward before forward");
  NVM_CHECK(grad_out.shape() == cached_shape_);
  Tensor dx(grad_out.shape());
  simd::relu_backprop(dx.raw(), grad_out.raw(), cached_mask_.data(),
                      grad_out.numel());
  return dx;
}

}  // namespace nvm::nn
