#include "data/synth_vision.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace nvm::data {

namespace {

/// Deterministic per-class texture recipe.
struct ClassRecipe {
  // Two gratings: frequency (cycles per image), orientation, color mix.
  double freq[2], theta[2];
  float grating_rgb[2][3];
  // Blob: nominal center (fraction of image), radius fraction, color.
  double blob_cx, blob_cy, blob_r;
  float blob_rgb[3];
  // Background gradient direction and colors.
  double bg_theta;
  float bg_lo[3], bg_hi[3];

  ClassRecipe(const DatasetSpec& spec, std::int64_t label) {
    Rng rng = Rng(spec.seed).split(0xC1A55000u + static_cast<std::uint64_t>(label));
    // Stratify the primary grating by class id so recipes are guaranteed
    // distinct even for close random draws: class k gets a dedicated
    // orientation sector and a frequency band.
    const double sector =
        static_cast<double>(label) / static_cast<double>(spec.classes);
    freq[0] = 1.0 + 2.5 * ((label % 4) / 3.0) + rng.uniform(-0.15, 0.15);
    theta[0] = M_PI * sector + rng.uniform(-0.08, 0.08);
    freq[1] = rng.uniform(1.0, 3.5);
    theta[1] = rng.uniform(0.0, M_PI);
    for (int g = 0; g < 2; ++g)
      for (auto& c : grating_rgb[g])
        c = static_cast<float>(rng.uniform(0.1, 0.9));
    blob_cx = rng.uniform(0.25, 0.75);
    blob_cy = rng.uniform(0.25, 0.75);
    blob_r = rng.uniform(0.15, 0.3);
    // Class-dominant hue: one channel is strong, the others weak.
    const int hue = static_cast<int>(label % 3);
    for (int c = 0; c < 3; ++c)
      blob_rgb[c] = static_cast<float>(c == hue ? rng.uniform(0.8, 1.0)
                                                : rng.uniform(0.1, 0.4));
    bg_theta = rng.uniform(0.0, M_PI);
    for (auto& c : bg_lo) c = static_cast<float>(rng.uniform(0.0, 0.4));
    for (auto& c : bg_hi) c = static_cast<float>(rng.uniform(0.3, 0.8));
  }
};

}  // namespace

Tensor synth_image(const DatasetSpec& spec, std::int64_t label,
                   std::uint64_t index) {
  NVM_CHECK(label >= 0 && label < spec.classes, "label=" << label);
  const ClassRecipe recipe(spec, label);
  // Instance jitter stream: unique per (label, index).
  Rng rng = Rng(spec.seed).split(
      0x11157A7CEu ^ (static_cast<std::uint64_t>(label) << 32) ^ index);

  const double phase[2] = {rng.uniform(0.0, 2 * M_PI),
                           rng.uniform(0.0, 2 * M_PI)};
  const double amp[2] = {rng.uniform(0.5, 1.0), rng.uniform(0.4, 1.0)};
  const double dtheta[2] = {rng.uniform(-0.22, 0.22), rng.uniform(-0.22, 0.22)};
  const double bx = recipe.blob_cx + rng.uniform(-0.18, 0.18);
  const double by = recipe.blob_cy + rng.uniform(-0.18, 0.18);
  const double br = recipe.blob_r * rng.uniform(0.7, 1.35);
  const double blob_amp = rng.uniform(0.55, 1.0);
  const float brightness = static_cast<float>(rng.uniform(0.75, 1.25));

  // Distractor: half the images carry a faint overlay of another class's
  // primary grating, the intra-class-variability analogue that keeps the
  // decision boundary close (CIFAR images contain confusing context too).
  const bool has_distractor = rng.bernoulli(0.5);
  const std::int64_t other =
      (label + 1 + static_cast<std::int64_t>(
                       rng.uniform_index(static_cast<std::uint64_t>(
                           spec.classes - 1)))) % spec.classes;
  const ClassRecipe distractor(spec, other);
  const double d_phase = rng.uniform(0.0, 2 * M_PI);
  const double d_amp = has_distractor ? rng.uniform(0.35, 0.6) : 0.0;

  const std::int64_t hw = spec.image_size;
  Tensor img({3, hw, hw});
  for (std::int64_t y = 0; y < hw; ++y) {
    for (std::int64_t x = 0; x < hw; ++x) {
      const double u = static_cast<double>(x) / (hw - 1);
      const double v = static_cast<double>(y) / (hw - 1);
      // Background gradient.
      const double t = 0.5 + 0.5 * ((u - 0.5) * std::cos(recipe.bg_theta) +
                                    (v - 0.5) * std::sin(recipe.bg_theta));
      float rgb[3];
      for (int c = 0; c < 3; ++c)
        rgb[c] = recipe.bg_lo[c] +
                 static_cast<float>(t) * (recipe.bg_hi[c] - recipe.bg_lo[c]);
      // Gratings.
      for (int g = 0; g < 2; ++g) {
        const double th = recipe.theta[g] + dtheta[g];
        const double s = std::sin(2 * M_PI * recipe.freq[g] *
                                      (u * std::cos(th) + v * std::sin(th)) +
                                  phase[g]);
        const float val = static_cast<float>(0.5 * amp[g] * s);
        for (int c = 0; c < 3; ++c) rgb[c] += val * recipe.grating_rgb[g][c];
      }
      if (d_amp > 0.0) {
        const double s = std::sin(
            2 * M_PI * distractor.freq[0] *
                (u * std::cos(distractor.theta[0]) +
                 v * std::sin(distractor.theta[0])) +
            d_phase);
        const float val = static_cast<float>(0.5 * d_amp * s);
        for (int c = 0; c < 3; ++c) rgb[c] += val * distractor.grating_rgb[0][c];
      }
      // Blob (smooth bump).
      const double d2 = (u - bx) * (u - bx) + (v - by) * (v - by);
      const double bump = blob_amp * std::exp(-d2 / (2 * br * br));
      for (int c = 0; c < 3; ++c)
        rgb[c] += static_cast<float>(bump) * recipe.blob_rgb[c];
      // Noise, brightness, clamp.
      for (int c = 0; c < 3; ++c) {
        float val = rgb[c] * 0.5f * brightness +
                    static_cast<float>(rng.normal(0.0, spec.noise));
        img.at(c, y, x) = std::clamp(val, 0.0f, 1.0f);
      }
    }
  }
  return img;
}

Dataset make_synth_vision(const DatasetSpec& spec) {
  NVM_CHECK(spec.classes > 1 && spec.image_size >= 8);
  Dataset ds;
  ds.spec = spec;
  // Balanced classes, interleaved; instance indices partition train/test.
  // synth_image draws only from its own (label, index) stream, so every
  // image is independent: they fill pre-sized slots from the pool and the
  // dataset is the same for any NVM_THREADS.
  const std::int64_t train = std::max<std::int64_t>(0, spec.train_count);
  const std::int64_t test = std::max<std::int64_t>(0, spec.test_count);
  ds.train_images.resize(static_cast<std::size_t>(train));
  ds.train_labels.resize(static_cast<std::size_t>(train));
  ds.test_images.resize(static_cast<std::size_t>(test));
  ds.test_labels.resize(static_cast<std::size_t>(test));
  parallel_for(train + test, [&](std::int64_t i) {
    const bool is_train = i < train;
    const std::int64_t j = is_train ? i : i - train;
    const std::int64_t label = j % spec.classes;
    const std::uint64_t index =
        (is_train ? 0 : 0x7E570000ULL) + static_cast<std::uint64_t>(j);
    const auto slot = static_cast<std::size_t>(j);
    (is_train ? ds.train_images : ds.test_images)[slot] =
        synth_image(spec, label, index);
    (is_train ? ds.train_labels : ds.test_labels)[slot] = label;
  });
  return ds;
}

}  // namespace nvm::data
