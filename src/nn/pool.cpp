#include "nn/pool.h"

#include "common/check.h"

namespace nvm::nn {

Tensor GlobalAvgPool::forward(const Tensor& x, Mode mode) {
  NVM_CHECK_EQ(x.rank(), 3u);
  cached_shape_ = x.shape();
  const std::int64_t c = x.dim(0), hw = x.dim(1) * x.dim(2);
  Tensor y({c});
  const float* in = x.raw();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) acc += in[ch * hw + i];
    y[ch] = static_cast<float>(acc / hw);
  }
  return apply_eval_hook(std::move(y), mode);
}

Tensor GlobalAvgPool::backprop(const Tensor& grad_out, bool /*param_grads*/) {
  NVM_CHECK(!cached_shape_.empty(), "backward before forward");
  const std::int64_t c = cached_shape_[0];
  const std::int64_t hw = cached_shape_[1] * cached_shape_[2];
  NVM_CHECK_EQ(grad_out.numel(), c);
  Tensor dx(cached_shape_);
  float* out = dx.raw();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float g = grad_out[ch] / static_cast<float>(hw);
    for (std::int64_t i = 0; i < hw; ++i) out[ch * hw + i] = g;
  }
  return dx;
}

AvgPool2d::AvgPool2d(std::int64_t k) : k_(k) { NVM_CHECK_GT(k, 0); }

Tensor AvgPool2d::forward(const Tensor& x, Mode mode) {
  NVM_CHECK_EQ(x.rank(), 3u);
  NVM_CHECK(x.dim(1) % k_ == 0 && x.dim(2) % k_ == 0,
            "pool size must divide input");
  cached_shape_ = x.shape();
  const std::int64_t c = x.dim(0), oh = x.dim(1) / k_, ow = x.dim(2) / k_;
  Tensor y({c, oh, ow});
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::int64_t dy = 0; dy < k_; ++dy)
          for (std::int64_t dx = 0; dx < k_; ++dx)
            acc += x.at(ch, oy * k_ + dy, ox * k_ + dx);
        y.at(ch, oy, ox) = static_cast<float>(acc / (k_ * k_));
      }
  return apply_eval_hook(std::move(y), mode);
}

Tensor AvgPool2d::backprop(const Tensor& grad_out, bool /*param_grads*/) {
  NVM_CHECK(!cached_shape_.empty(), "backward before forward");
  const std::int64_t c = cached_shape_[0];
  const std::int64_t oh = cached_shape_[1] / k_, ow = cached_shape_[2] / k_;
  NVM_CHECK_EQ(grad_out.numel(), c * oh * ow);
  Tensor dx(cached_shape_);
  const float scale = 1.0f / static_cast<float>(k_ * k_);
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float g = grad_out.at(ch, oy, ox) * scale;
        for (std::int64_t dy = 0; dy < k_; ++dy)
          for (std::int64_t dxi = 0; dxi < k_; ++dxi)
            dx.at(ch, oy * k_ + dy, ox * k_ + dxi) = g;
      }
  return dx;
}

Tensor Flatten::forward(const Tensor& x, Mode mode) {
  (void)mode;
  cached_shape_ = x.shape();
  return x.reshaped({x.numel()});
}

Tensor Flatten::backprop(const Tensor& grad_out, bool /*param_grads*/) {
  NVM_CHECK(!cached_shape_.empty(), "backward before forward");
  return grad_out.reshaped(cached_shape_);
}

}  // namespace nvm::nn
