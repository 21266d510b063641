// Composite layers: Sequential chain and residual block.
#pragma once

#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/layer.h"

namespace nvm::nn {

/// Runs child layers in order; backward in reverse.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer and returns a typed handle to it.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void append(std::unique_ptr<Layer> layer);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::vector<Layer*> children() override;
  std::string name() const override { return "sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Basic (two-conv) residual block:
///   out = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )
/// where shortcut is identity, or conv1x1+bn when shape changes.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::int64_t in_c, std::int64_t out_c, std::int64_t stride,
                Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::vector<Layer*> children() override;
  std::string name() const override { return "residual_block"; }

 private:
  bool projection_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  ReLU relu_out_;
  // Projection shortcut (only used when projection_ is true).
  std::unique_ptr<Conv2d> conv_s_;
  std::unique_ptr<BatchNorm2d> bn_s_;
};

}  // namespace nvm::nn
