// Per-channel normalization for (C,H,W) activations.
//
// The library trains one example at a time, so "batch" statistics are
// computed over the spatial extent of each channel (instance-norm style)
// during training, while exponential running statistics are accumulated
// for use at evaluation — functionally the standard BatchNorm2d inference
// path. This trains the small ResNets used here to high accuracy and keeps
// the eval-time operator identical to the paper's (affine scale + shift
// with frozen statistics, executed digitally next to the crossbar convs).
#pragma once

#include "nn/layer.h"

namespace nvm::nn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backprop(const Tensor& grad_out, bool param_grads) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::string name() const override { return "batchnorm2d"; }

  /// Frozen statistics, exposed for serialization.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// When frozen, Train-mode forward also uses the running statistics (the
  /// standard BN-freeze fine-tuning phase that closes the train/eval
  /// statistics gap); gamma/beta keep training.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  bool frozen() const { return frozen_; }

  /// Precise-BN statistics re-estimation: between begin and finish, every
  /// Eval-mode forward accumulates its *input* mean/variance per channel;
  /// finish replaces the running statistics with the accumulated ones.
  /// Used when the network is deployed on non-ideal hardware, whose
  /// systematic activation shift would otherwise invalidate the statistics.
  void begin_stat_collection();
  void finish_stat_collection();

  std::int64_t channels() const { return channels_; }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  bool frozen_ = false;
  Param gamma_;  // scale, no weight decay
  Param beta_;   // shift, no weight decay
  Tensor running_mean_, running_var_;

  // backward() caches
  enum class LastForward { None, Train, FrozenTrain, Eval };
  LastForward last_forward_ = LastForward::None;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // per channel (batch stats path only)

  // Precise-BN accumulation state.
  bool collecting_ = false;
  std::int64_t collect_count_ = 0;
  Tensor collect_sum_, collect_sumsq_;
};

}  // namespace nvm::nn
