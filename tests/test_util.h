// Shared test helpers: the kernel tiers to exercise on this machine, and a
// quickly-learnable toy task.
//
// The toy task must be separable by *spatial pattern*, not global brightness:
// per-example BatchNorm statistics remove each image's mean, so a
// mean-brightness task is unlearnable by construction. Class 0 is a
// horizontal ramp, class 1 a vertical ramp.
#pragma once

#include <algorithm>
#include <vector>

#include "common/simd.h"
#include "nn/trainer.h"

namespace nvm::testutil {

/// Kernel tiers to exercise here: scalar always, plus every vector tier
/// that is compiled in and usable on this CPU and OS.
inline std::vector<simd::Isa> usable_isas() {
  std::vector<simd::Isa> isas{simd::Isa::Scalar};
  for (simd::Isa isa : {simd::Isa::Avx2, simd::Isa::Avx512})
    if (simd::isa_usable(isa)) isas.push_back(isa);
  return isas;
}

inline void make_orientation_toy(std::vector<Tensor>& images,
                                 std::vector<std::int64_t>& labels, int n,
                                 Rng& rng, std::int64_t hw = 8,
                                 float noise = 0.08f) {
  for (int i = 0; i < n; ++i) {
    const std::int64_t label = i % 2;
    Tensor img({3, hw, hw});
    for (std::int64_t c = 0; c < 3; ++c)
      for (std::int64_t y = 0; y < hw; ++y)
        for (std::int64_t x = 0; x < hw; ++x) {
          const double ramp =
              static_cast<double>(label == 0 ? x : y) / (hw - 1) - 0.5;
          img.at(c, y, x) = static_cast<float>(std::clamp(
              0.5 + 0.4 * ramp + rng.normal(0.0, noise), 0.0, 1.0));
        }
    images.push_back(std::move(img));
    labels.push_back(label);
  }
}

/// Training config sized for ~50-image toys: small batches so the
/// optimizer takes enough steps to converge reliably.
inline nn::TrainConfig toy_train_config() {
  nn::TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 8;
  tc.sgd.lr = 0.05f;
  return tc;
}

}  // namespace nvm::testutil
