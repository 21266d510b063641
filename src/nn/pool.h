// Pooling and shape layers.
#pragma once

#include "nn/layer.h"

namespace nvm::nn {

/// Global average pooling: (C,H,W) -> (C). Standard ResNet head.
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::string name() const override { return "global_avg_pool"; }

 private:
  Shape cached_shape_;
};

/// kxk average pooling with stride k (used by the ImageNet-style stem).
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::int64_t k);
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::string name() const override { return "avg_pool2d"; }

 private:
  std::int64_t k_;
  Shape cached_shape_;
};

/// Flattens any input to 1-d; inverse restores the shape on backward.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::string name() const override { return "flatten"; }

 private:
  Shape cached_shape_;
};

}  // namespace nvm::nn
