// Procedural class-conditional image datasets.
//
// Stand-ins for CIFAR-10 / CIFAR-100 / ImageNet (no dataset files are
// available offline): each class is a deterministic "texture recipe" —
// two oriented sinusoidal gratings, a colored blob, and a background
// gradient, all with class-specific parameters — and each instance draws
// per-image jitters (phase, blob position, amplitudes, brightness) plus
// pixel noise. The resulting tasks sit in the regime the paper needs:
// small ResNets reach high clean accuracy, yet the decision boundary is
// close enough for l_inf-bounded adversarial perturbations to flip
// predictions, and gradients transfer between independently trained
// models (prerequisite for black-box attacks).
//
// Pixels are RGB in [0, 1], shape (3, H, W).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace nvm::data {

struct DatasetSpec {
  std::string name = "synth";
  std::int64_t classes = 10;
  std::int64_t image_size = 12;
  std::int64_t train_count = 800;
  std::int64_t test_count = 256;
  std::uint64_t seed = 100;
  /// Pixel noise stddev; higher makes the task harder.
  float noise = 0.10f;
};

struct Dataset {
  DatasetSpec spec;
  std::vector<Tensor> train_images;
  std::vector<std::int64_t> train_labels;
  std::vector<Tensor> test_images;
  std::vector<std::int64_t> test_labels;
};

/// Generates the full dataset deterministically from spec.seed. Images
/// are synthesized on the current nvm::ThreadPool; the dataset is the
/// same for any thread count.
Dataset make_synth_vision(const DatasetSpec& spec);

/// Generates a single image of class `label` with instance stream `index`
/// (index disjoint from the train/test streams yields fresh data, e.g. for
/// black-box surrogate queries).
Tensor synth_image(const DatasetSpec& spec, std::int64_t label,
                   std::uint64_t index);

}  // namespace nvm::data
