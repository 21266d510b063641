#include "nn/batchnorm.h"

#include <cmath>

#include "common/check.h"

namespace nvm::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::full({channels}, 1.0f), /*decay_flag=*/false),
      beta_(Tensor::zeros({channels}), /*decay_flag=*/false),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::full({channels}, 1.0f)) {
  NVM_CHECK_GT(channels, 0);
}

Tensor BatchNorm2d::forward(const Tensor& x, Mode mode) {
  NVM_CHECK_EQ(x.rank(), 3u);
  NVM_CHECK_EQ(x.dim(0), channels_);
  const std::int64_t hw = x.dim(1) * x.dim(2);
  Tensor y(x.shape());
  const float* in = x.raw();
  float* out = y.raw();

  if (mode == Mode::Train && !frozen_) {
    // Batch-statistics path (spatial statistics of the example).
    last_forward_ = LastForward::Train;
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = Tensor({channels_});
    float* xhat = cached_xhat_.raw();
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* src = in + c * hw;
      double sum = 0.0, sq = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum += src[i];
        sq += static_cast<double>(src[i]) * src[i];
      }
      const float mean = static_cast<float>(sum / hw);
      const float var =
          static_cast<float>(sq / hw - static_cast<double>(mean) * mean);
      const float inv_std = 1.0f / std::sqrt(std::max(var, 0.0f) + eps_);
      cached_inv_std_[c] = inv_std;
      const float g = gamma_.value[c], b = beta_.value[c];
      float* xh = xhat + c * hw;
      float* dst = out + c * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (src[i] - mean) * inv_std;
        dst[i] = g * xh[i] + b;
      }
      running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * var;
    }
    return y;
  }

  if (mode == Mode::Train) {
    // Frozen fine-tuning path: running statistics normalize, gamma/beta
    // still learn, so xhat must be cached for their gradients.
    last_forward_ = LastForward::FrozenTrain;
    cached_xhat_ = Tensor(x.shape());
    float* xhat = cached_xhat_.raw();
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
      const float mean = running_mean_[c];
      const float g = gamma_.value[c], b = beta_.value[c];
      const float* src = in + c * hw;
      float* xh = xhat + c * hw;
      float* dst = out + c * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (src[i] - mean) * inv_std;
        dst[i] = g * xh[i] + b;
      }
    }
    return y;
  }

  // Eval: frozen statistics, lean path (no caching beyond the mode flag;
  // attack gradients only need d(out)/d(in), which is a constant scale).
  last_forward_ = LastForward::Eval;
  cached_xhat_ = Tensor();
  if (collecting_) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* src = in + c * hw;
      double sum = 0.0, sq = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum += src[i];
        sq += static_cast<double>(src[i]) * src[i];
      }
      const float mean = static_cast<float>(sum / hw);
      collect_sum_[c] += mean;
      collect_sumsq_[c] +=
          static_cast<float>(sq / hw - static_cast<double>(mean) * mean);
    }
    ++collect_count_;
  }
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
    const float g = gamma_.value[c] * inv_std;
    const float b = beta_.value[c] - gamma_.value[c] * running_mean_[c] * inv_std;
    const float* src = in + c * hw;
    float* dst = out + c * hw;
    for (std::int64_t i = 0; i < hw; ++i) dst[i] = g * src[i] + b;
  }
  return apply_eval_hook(std::move(y), mode);
}

void BatchNorm2d::begin_stat_collection() {
  collecting_ = true;
  collect_count_ = 0;
  collect_sum_ = Tensor::zeros({channels_});
  collect_sumsq_ = Tensor::zeros({channels_});
}

void BatchNorm2d::finish_stat_collection() {
  collecting_ = false;
  if (collect_count_ == 0) return;
  // Mean of per-image channel means, and mean of per-image within-image
  // variances — matching how the training-time running stats were built.
  const float inv = 1.0f / static_cast<float>(collect_count_);
  for (std::int64_t c = 0; c < channels_; ++c) {
    running_mean_[c] = collect_sum_[c] * inv;
    running_var_[c] = std::max(collect_sumsq_[c] * inv, 0.0f);
  }
}

Tensor BatchNorm2d::backprop(const Tensor& grad_out, bool param_grads) {
  NVM_CHECK(last_forward_ != LastForward::None, "backward before forward");
  NVM_CHECK_EQ(grad_out.rank(), 3u);
  NVM_CHECK_EQ(grad_out.dim(0), channels_);
  const std::int64_t hw = grad_out.dim(1) * grad_out.dim(2);
  Tensor dx(grad_out.shape());
  const float* g_out = grad_out.raw();
  float* g_in = dx.raw();

  if (last_forward_ == LastForward::Eval) {
    // Linearization through the frozen affine transform.
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float k = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
      const float* src = g_out + c * hw;
      float* dst = g_in + c * hw;
      for (std::int64_t i = 0; i < hw; ++i) dst[i] = k * src[i];
    }
    return dx;
  }

  if (last_forward_ == LastForward::FrozenTrain) {
    // dx is the frozen affine scale; the sums only feed gamma/beta.
    const float* xhat = cached_xhat_.raw();
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float* go = g_out + c * hw;
      if (param_grads) {
        const float* xh = xhat + c * hw;
        double sum_g = 0.0, sum_gx = 0.0;
        for (std::int64_t i = 0; i < hw; ++i) {
          sum_g += go[i];
          sum_gx += static_cast<double>(go[i]) * xh[i];
        }
        gamma_.grad[c] += static_cast<float>(sum_gx);
        beta_.grad[c] += static_cast<float>(sum_g);
      }
      const float k = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
      float* dst = g_in + c * hw;
      for (std::int64_t i = 0; i < hw; ++i) dst[i] = k * go[i];
    }
    return dx;
  }

  // Batch-statistics backward: dx needs the sums whatever param_grads is.
  const float* xhat = cached_xhat_.raw();
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float* go = g_out + c * hw;
    const float* xh = xhat + c * hw;
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) {
      sum_g += go[i];
      sum_gx += static_cast<double>(go[i]) * xh[i];
    }
    if (param_grads) {
      gamma_.grad[c] += static_cast<float>(sum_gx);
      beta_.grad[c] += static_cast<float>(sum_g);
    }
    const float inv_std = cached_inv_std_[c];
    const float g = gamma_.value[c];
    const float mean_g = static_cast<float>(sum_g / hw);
    const float mean_gx = static_cast<float>(sum_gx / hw);
    float* dst = g_in + c * hw;
    for (std::int64_t i = 0; i < hw; ++i)
      dst[i] = g * inv_std * (go[i] - mean_g - xh[i] * mean_gx);
  }
  return dx;
}

}  // namespace nvm::nn
