#include "nn/activations.h"

#include "common/check.h"

namespace nvm::nn {

Tensor ReLU::forward(const Tensor& x, Mode mode) {
  Tensor y(x.shape());
  cached_mask_ = Tensor(x.shape());
  const float* in = x.raw();
  float* out = y.raw();
  float* mask = cached_mask_.raw();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = in[i] > 0.0f;
    out[i] = pos ? in[i] : 0.0f;
    mask[i] = pos ? 1.0f : 0.0f;
  }
  return apply_eval_hook(std::move(y), mode);
}

Tensor ReLU::backprop(const Tensor& grad_out, bool /*param_grads*/) {
  NVM_CHECK(cached_mask_.numel() > 0, "backward before forward");
  NVM_CHECK(grad_out.same_shape(cached_mask_));
  Tensor dx = grad_out;
  dx *= cached_mask_;
  return dx;
}

}  // namespace nvm::nn
