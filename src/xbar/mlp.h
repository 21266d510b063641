// Small dense MLP regressor (one tanh hidden layer) with Adam training.
//
// This is the "2 layer perceptron network" of the GENIEx methodology
// (paper §II-A): it learns the mapping from crossbar state features to the
// non-ideal output current deviation. It is intentionally independent of
// the nn:: layer stack — inference here is a hot inner loop of every
// crossbar MVM, so it uses a fast tanh approximation consistently in both
// training and inference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "tensor/tensor.h"

namespace nvm::xbar {

struct MlpTrainOptions {
  std::int64_t epochs = 40;
  std::int64_t batch = 64;
  float lr = 3e-3f;
  std::uint64_t seed = 7;
};

class MlpRegressor {
 public:
  /// Xavier-initialized in_dim -> hidden(tanh) -> 1 network.
  MlpRegressor(std::int64_t in_dim, std::int64_t hidden, Rng& rng);

  /// Deserializing constructor.
  static MlpRegressor load(BinaryReader& r);
  void save(BinaryWriter& w) const;

  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t hidden() const { return hidden_; }

  /// Predicts a single value from `in_dim` features. Delegates to
  /// predict_block with n = 1, so single and batched predictions are one
  /// code path (bit-identical by construction).
  float predict(std::span<const float> features) const;

  /// Batched predict over `n` samples laid out FEATURE-MAJOR:
  /// features_t[i * n + s] is feature i of sample s. Writes one prediction
  /// per sample into out[0..n). One nvm::simd::mlp_tanh call on the active
  /// tier, with no scratch: each out[s] is a pure function of sample s's
  /// features (ragged tails take masked vectors, never a scalar path), so
  /// it is independent of batch width and position — the GENIEx
  /// batch-invariance requirement. Across simd tiers the result carries
  /// mlp_tanh's [~ulp] contract (vector tiers agree bit-for-bit; the
  /// scalar tier differs by a few ULP because its multiply-adds are
  /// unfused).
  void predict_block(const float* features_t, std::int64_t n,
                     float* out) const;

  /// Adam training on MSE. `x` is (n, in_dim), `y` is (n). Returns final
  /// epoch mean squared error. Each minibatch runs as [exact]
  /// simd::gemm_madd calls and [exact] training kernels on the calling
  /// thread, so the trained weights and the MSE are the same bits on every
  /// tier and thread count.
  float train(const Tensor& x, const Tensor& y, const MlpTrainOptions& opt);

  /// Mean squared error over a dataset.
  float mse(const Tensor& x, const Tensor& y) const;

 private:
  std::int64_t in_dim_, hidden_;
  Tensor w1_, b1_;  // (hidden, in), (hidden)
  Tensor w2_, b2_;  // (hidden), (1)
};

}  // namespace nvm::xbar
