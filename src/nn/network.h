// Network: a named layer tree plus whole-model operations used by the
// training loop, the attacks, and the hardware deployment.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "nn/mvm_engine.h"
#include "nn/sequential.h"

namespace nvm::nn {

class Network {
 public:
  /// Takes ownership of the root layer (normally a Sequential built by one
  /// of the resnet builders). `arch` is a human-readable architecture tag
  /// used in cache keys.
  Network(std::string arch, std::unique_ptr<Sequential> root,
          std::int64_t num_classes);

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Forward pass returning logits (length == num_classes).
  Tensor forward(const Tensor& x, Mode mode);

  /// Backward pass from d(loss)/d(logits); returns d(loss)/d(input) and
  /// accumulates every Param::grad. Must follow a forward() call.
  Tensor backward(const Tensor& grad_logits);

  /// Input-only backward (Layer::input_grad): the same d(loss)/d(input)
  /// bits as backward(), with every Param::grad left untouched and no
  /// parameter-gradient work done. What attacks call; training keeps
  /// backward().
  Tensor input_grad(const Tensor& grad_logits);

  const std::string& arch() const { return arch_; }
  std::int64_t num_classes() const { return num_classes_; }
  Sequential& root() { return *root_; }

  std::vector<Param*> params();
  void zero_grads();
  std::int64_t param_count();

  /// Installs an MVM engine on every Conv2d/Linear layer. `make` is called
  /// once per layer so each layer can own independently-programmed tiles.
  void set_mvm_engines(
      const std::function<std::shared_ptr<MvmEngine>(Layer&)>& make);

  /// Restores the exact-float engine on every MVM layer.
  void reset_mvm_engines();

  /// Attaches an Eval-mode output hook to every convolution layer (used by
  /// activation-space defenses); pass nullptr to clear.
  void set_conv_eval_hooks(std::function<Tensor(const Tensor&)> hook);

  /// Freezes (or unfreezes) the statistics of every BatchNorm2d — see
  /// BatchNorm2d::set_frozen.
  void freeze_batchnorm(bool frozen = true);

  // Parameter (+ BN running stats) serialization.
  void save(BinaryWriter& w);
  void load(BinaryReader& r);

 private:
  std::string arch_;
  std::unique_ptr<Sequential> root_;
  std::int64_t num_classes_;
};

}  // namespace nvm::nn
