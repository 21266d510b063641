#include "nn/sequential.h"

#include "common/check.h"
#include "nn/activations.h"

namespace nvm::nn {

void Sequential::append(std::unique_ptr<Layer> layer) {
  NVM_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
}

Tensor Sequential::forward(const Tensor& x, Mode mode) {
  Tensor y = x;
  for (auto& l : layers_) y = l->forward(y, mode);
  return y;
}

Tensor Sequential::backprop(const Tensor& grad_out, bool param_grads) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backprop(g, param_grads);
  return g;
}

std::vector<Layer*> Sequential::children() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& l : layers_) out.push_back(l.get());
  return out;
}

ResidualBlock::ResidualBlock(std::int64_t in_c, std::int64_t out_c,
                             std::int64_t stride, Rng& rng)
    : projection_(stride != 1 || in_c != out_c),
      conv1_(in_c, out_c, 3, stride, 1, rng),
      bn1_(out_c),
      conv2_(out_c, out_c, 3, 1, 1, rng),
      bn2_(out_c) {
  if (projection_) {
    conv_s_ = std::make_unique<Conv2d>(in_c, out_c, 1, stride, 0, rng);
    bn_s_ = std::make_unique<BatchNorm2d>(out_c);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, Mode mode) {
  Tensor main = conv1_.forward(x, mode);
  main = bn1_.forward(main, mode);
  main = relu1_.forward(main, mode);
  main = conv2_.forward(main, mode);
  main = bn2_.forward(main, mode);

  Tensor shortcut =
      projection_ ? bn_s_->forward(conv_s_->forward(x, mode), mode) : x;
  NVM_CHECK(main.same_shape(shortcut), "residual shape mismatch");
  main += shortcut;
  return relu_out_.forward(main, mode);
}

Tensor ResidualBlock::backprop(const Tensor& grad_out, bool param_grads) {
  Tensor g = relu_out_.backprop(grad_out, param_grads);
  // g splits into the main path and the shortcut.
  Tensor g_main = bn2_.backprop(g, param_grads);
  g_main = conv2_.backprop(g_main, param_grads);
  g_main = relu1_.backprop(g_main, param_grads);
  g_main = bn1_.backprop(g_main, param_grads);
  g_main = conv1_.backprop(g_main, param_grads);

  if (projection_) {
    Tensor g_short = bn_s_->backprop(g, param_grads);
    g_short = conv_s_->backprop(g_short, param_grads);
    g_main += g_short;
  } else {
    g_main += g;
  }
  return g_main;
}

std::vector<Layer*> ResidualBlock::children() {
  std::vector<Layer*> out{&conv1_, &bn1_, &relu1_, &conv2_, &bn2_, &relu_out_};
  if (projection_) {
    out.push_back(conv_s_.get());
    out.push_back(bn_s_.get());
  }
  return out;
}

}  // namespace nvm::nn
