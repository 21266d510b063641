// Layer abstraction with explicit forward/backward.
//
// The library uses layer-local manual differentiation instead of a tape:
// each layer caches whatever it needs during forward() and implements
// backward(grad_out) -> grad_in, accumulating parameter gradients into
// Param::grad. Chaining backward() through the first layer yields
// d(loss)/d(input), which is what gradient-based attacks (PGD) consume;
// they call input_grad(), the same chain minus the parameter gradients.
//
// Hardware-in-loop gradients (paper §III-C2) fall out of this design: when
// a layer's MVM runs on a non-ideal crossbar engine, forward() caches the
// *non-ideal* activations, while backward() applies the *ideal* local
// derivative at those cached values — exactly the paper's attack gradient.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "tensor/tensor.h"

namespace nvm::nn {

/// A trainable tensor with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  /// When false the trainer skips weight decay (biases, BN affine params).
  bool decay = true;

  explicit Param(Tensor v, bool decay_flag = true)
      : value(std::move(v)), grad(Tensor::zeros(value.shape())),
        decay(decay_flag) {}
};

/// Forward-pass mode: Train uses batch statistics and stochastic layers;
/// Eval uses running statistics and applies inference-time hooks.
enum class Mode { Train, Eval };

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; caches state required by backward().
  virtual Tensor forward(const Tensor& x, Mode mode) = 0;

  /// Propagates gradients; must follow a forward() in Train-compatible
  /// state. Accumulates into parameter grads and returns grad w.r.t. input.
  Tensor backward(const Tensor& grad_out) { return backprop(grad_out, true); }

  /// Input-only backward, for attacks: returns the same d(loss)/d(input)
  /// bits as backward() and leaves every Param::grad untouched, skipping
  /// all parameter-gradient work (conv and linear dW, linear db, batch-norm
  /// gamma/beta). Must follow a forward().
  Tensor input_grad(const Tensor& grad_out) {
    return backprop(grad_out, false);
  }

  /// The one backward body behind backward() and input_grad(). With
  /// `param_grads` false it returns the same bits and writes no
  /// Param::grad; composite layers pass the flag on to their children.
  virtual Tensor backprop(const Tensor& grad_out, bool param_grads) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Child layers for composite layers (Sequential, ResidualBlock).
  virtual std::vector<Layer*> children() { return {}; }

  virtual std::string name() const = 0;

  /// Inference-time output hook, used to attach defenses (e.g. stochastic
  /// activation pruning) to existing layers. Applied in Eval mode only and
  /// invisible to backward() — matching the paper's non-adaptive threat
  /// model where the attacker's gradient does not see the defense.
  void set_eval_hook(std::function<Tensor(const Tensor&)> hook) {
    eval_hook_ = std::move(hook);
  }
  bool has_eval_hook() const { return static_cast<bool>(eval_hook_); }

 protected:
  Tensor apply_eval_hook(Tensor y, Mode mode) const {
    if (mode == Mode::Eval && eval_hook_) return eval_hook_(y);
    return y;
  }

 private:
  std::function<Tensor(const Tensor&)> eval_hook_;
};

/// Collects parameters of a layer tree in depth-first order.
std::vector<Param*> collect_params(Layer& root);

/// Visits every layer in the tree (pre-order), including the root.
void visit_layers(Layer& root, const std::function<void(Layer&)>& fn);

/// Zeroes all parameter gradients in the tree.
void zero_grads(Layer& root);

}  // namespace nvm::nn
