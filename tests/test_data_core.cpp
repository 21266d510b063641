// Synthetic dataset properties and core evaluation/report helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.h"

#include <map>

#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/report.h"
#include "core/tasks.h"
#include "data/synth_vision.h"

namespace nvm {
namespace {

data::DatasetSpec small_spec() {
  data::DatasetSpec spec;
  spec.classes = 4;
  spec.image_size = 10;
  spec.train_count = 40;
  spec.test_count = 16;
  spec.seed = 77;
  return spec;
}

TEST(SynthVision, DeterministicForSeed) {
  data::Dataset a = data::make_synth_vision(small_spec());
  data::Dataset b = data::make_synth_vision(small_spec());
  ASSERT_EQ(a.train_images.size(), b.train_images.size());
  for (std::size_t i = 0; i < a.train_images.size(); ++i)
    EXPECT_EQ(max_abs_diff(a.train_images[i], b.train_images[i]), 0.0f);
}

/// Images are synthesized on the pool: a 1-thread and a 4-thread pool
/// both give exactly the images and labels of a serial synth_image loop
/// over the train and test index streams.
TEST(SynthVision, SameBitsForAnyThreadCount) {
  const data::DatasetSpec spec = small_spec();
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    const data::Dataset ds = data::make_synth_vision(spec);
    ASSERT_EQ(ds.train_images.size(),
              static_cast<std::size_t>(spec.train_count));
    ASSERT_EQ(ds.test_images.size(), static_cast<std::size_t>(spec.test_count));
    for (std::int64_t i = 0; i < spec.train_count + spec.test_count; ++i) {
      const bool train = i < spec.train_count;
      const std::int64_t j = train ? i : i - spec.train_count;
      const std::int64_t label = j % spec.classes;
      const Tensor want = data::synth_image(
          spec, label,
          (train ? 0 : 0x7E570000ULL) + static_cast<std::uint64_t>(j));
      const auto slot = static_cast<std::size_t>(j);
      const Tensor& got = (train ? ds.train_images : ds.test_images)[slot];
      EXPECT_EQ((train ? ds.train_labels : ds.test_labels)[slot], label);
      ASSERT_EQ(got.numel(), want.numel());
      EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                            static_cast<std::size_t>(want.numel()) *
                                sizeof(float)),
                0)
          << "threads=" << threads << (train ? " train " : " test ") << j;
    }
  }
}

TEST(SynthVision, DifferentSeedsDiffer) {
  data::DatasetSpec s2 = small_spec();
  s2.seed = 78;
  data::Dataset a = data::make_synth_vision(small_spec());
  data::Dataset b = data::make_synth_vision(s2);
  EXPECT_GT(max_abs_diff(a.train_images[0], b.train_images[0]), 0.0f);
}

TEST(SynthVision, PixelsInUnitRangeAndCorrectShape) {
  data::Dataset ds = data::make_synth_vision(small_spec());
  for (const Tensor& img : ds.train_images) {
    ASSERT_EQ(img.rank(), 3u);
    EXPECT_EQ(img.dim(0), 3);
    EXPECT_EQ(img.dim(1), 10);
    EXPECT_GE(img.min(), 0.0f);
    EXPECT_LE(img.max(), 1.0f);
  }
}

TEST(SynthVision, ClassesAreBalanced) {
  data::Dataset ds = data::make_synth_vision(small_spec());
  std::map<std::int64_t, int> counts;
  for (auto l : ds.train_labels) counts[l]++;
  EXPECT_EQ(counts.size(), 4u);
  for (auto& [label, c] : counts) EXPECT_EQ(c, 10);
}

TEST(SynthVision, InstancesOfSameClassVary) {
  data::DatasetSpec spec = small_spec();
  Tensor a = data::synth_image(spec, 0, 1);
  Tensor b = data::synth_image(spec, 0, 2);
  EXPECT_GT(max_abs_diff(a, b), 0.05f);
}

TEST(SynthVision, DisjointIndexStreamsGiveFreshData) {
  data::DatasetSpec spec = small_spec();
  data::Dataset ds = data::make_synth_vision(spec);
  // Indices used by train are 0..39; a far index must be a new image.
  Tensor fresh = data::synth_image(spec, 0, 1000000);
  for (std::size_t i = 0; i < ds.train_images.size(); ++i) {
    if (ds.train_labels[i] == 0) {
      EXPECT_GT(max_abs_diff(fresh, ds.train_images[i]), 0.0f);
    }
  }
}

TEST(SynthVision, SameClassMoreSimilarThanCrossClass) {
  // Texture recipes make same-class pairs correlate more than cross-class
  // pairs on average — the property that makes the task learnable.
  data::DatasetSpec spec = small_spec();
  spec.noise = 0.02f;
  auto corr = [](const Tensor& a, const Tensor& b) {
    double ma = a.mean(), mb = b.mean(), num = 0, da = 0, db = 0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      num += (a[i] - ma) * (b[i] - mb);
      da += (a[i] - ma) * (a[i] - ma);
      db += (b[i] - mb) * (b[i] - mb);
    }
    return num / std::sqrt(da * db + 1e-12);
  };
  double same = 0, cross = 0;
  int n_same = 0, n_cross = 0;
  for (std::uint64_t i = 0; i < 6; ++i)
    for (std::uint64_t j = i + 1; j < 6; ++j) {
      same += corr(data::synth_image(spec, 1, i), data::synth_image(spec, 1, j));
      ++n_same;
      cross += corr(data::synth_image(spec, 1, i), data::synth_image(spec, 2, j));
      ++n_cross;
    }
  EXPECT_GT(same / n_same, cross / n_cross);
}

TEST(Tasks, PresetsHavePaperAnalogues) {
  const auto tasks = core::all_tasks();
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].name, "SCIFAR10");
  EXPECT_NE(tasks[0].paper_analogue.find("CIFAR-10"), std::string::npos);
  EXPECT_EQ(tasks[1].data_spec.classes, 20);
  EXPECT_EQ(tasks[2].data_spec.image_size, 24);
}

TEST(Tasks, NetworkMatchesDatasetClasses) {
  for (const core::Task& task : core::all_tasks()) {
    Rng rng(1);
    nn::Network net = task.make_network(rng);
    EXPECT_EQ(net.num_classes(), task.data_spec.classes) << task.name;
  }
}

TEST(Evaluator, AccuracyOfPerfectAndBrokenForward) {
  std::vector<Tensor> images;
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 10; ++i) {
    images.push_back(Tensor::full({1}, static_cast<float>(i % 3)));
    labels.push_back(i % 3);
  }
  core::ForwardFn oracle = [](const Tensor& x) {
    Tensor logits({3});
    logits[static_cast<std::int64_t>(x[0])] = 1.0f;
    return logits;
  };
  EXPECT_EQ(core::accuracy(oracle, images, labels), 100.0f);
  core::ForwardFn constant = [](const Tensor&) {
    Tensor logits({3});
    logits[0] = 1.0f;
    return logits;
  };
  EXPECT_NEAR(core::accuracy(constant, images, labels), 40.0f, 1e-4f);
}

TEST(Report, DeltaFormatting) {
  EXPECT_EQ(core::with_delta(54.98f, 19.64f), "54.98 (+35.34)");
  EXPECT_EQ(core::with_delta(17.56f, 19.64f), "17.56 (-2.08)");
  EXPECT_EQ(core::fmt(3.14159f), "3.14");
}

TEST(Report, TableRejectsRaggedRows) {
  core::TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

}  // namespace
}  // namespace nvm
