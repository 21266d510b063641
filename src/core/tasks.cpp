#include "core/tasks.h"

#include <sstream>

#include "common/check.h"
#include "common/env.h"
#include "common/file_cache.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"

namespace nvm::core {

namespace {

nn::TrainConfig default_train_config() {
  nn::TrainConfig tc;
  tc.epochs = env_int("NVMROBUST_EPOCHS", 15);
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.sgd.momentum = 0.9f;
  tc.sgd.weight_decay = 5e-4f;
  tc.seed = 42;
  return tc;
}

}  // namespace

Task task_scifar10() {
  Task t;
  t.name = "SCIFAR10";
  t.paper_analogue = "CIFAR-10 (ResNet-20)";
  t.data_spec.name = "scifar10";
  t.data_spec.classes = 10;
  t.data_spec.image_size = 12;
  t.data_spec.train_count = scaled(900, 4000);
  t.data_spec.test_count = scaled(300, 1000);
  t.data_spec.seed = 100;
  t.make_network = [](Rng& rng) {
    nn::ResnetCifarSpec spec;
    spec.blocks_per_stage = 3;  // ResNet-20
    spec.widths = {8, 16, 32};
    spec.num_classes = 10;
    return nn::make_resnet_cifar(spec, rng);
  };
  t.train_config = default_train_config();
  t.attack_eval_count = scaled(96, 1000);
  t.adaptive_eval_count = scaled(64, 500);
  return t;
}

Task task_scifar100() {
  Task t;
  t.name = "SCIFAR100";
  t.paper_analogue = "CIFAR-100 (ResNet-32)";
  t.data_spec.name = "scifar100";
  t.data_spec.classes = 20;
  t.data_spec.image_size = 12;
  t.data_spec.train_count = scaled(1200, 6000);
  t.data_spec.test_count = scaled(300, 1000);
  t.data_spec.seed = 200;
  t.data_spec.noise = 0.13f;  // harder task, mirroring CIFAR-100's lower accuracy
  t.make_network = [](Rng& rng) {
    nn::ResnetCifarSpec spec;
    spec.blocks_per_stage = 5;  // ResNet-32
    spec.widths = {8, 16, 32};
    spec.num_classes = 20;
    return nn::make_resnet_cifar(spec, rng);
  };
  t.train_config = default_train_config();
  t.attack_eval_count = scaled(96, 1000);
  t.adaptive_eval_count = scaled(64, 500);
  return t;
}

Task task_simagenet() {
  Task t;
  t.name = "SIMAGENET";
  t.paper_analogue = "ImageNet (ResNet-18)";
  t.data_spec.name = "simagenet";
  t.data_spec.classes = 16;
  t.data_spec.image_size = 24;
  t.data_spec.train_count = scaled(960, 4000);
  t.data_spec.test_count = scaled(192, 1000);
  t.data_spec.seed = 300;
  t.data_spec.noise = 0.11f;
  t.make_network = [](Rng& rng) {
    nn::Resnet18Spec spec;
    spec.widths = {8, 16, 24, 32};
    spec.num_classes = 16;
    return nn::make_resnet18(spec, rng);
  };
  t.train_config = default_train_config();
  t.train_config.epochs = env_int("NVMROBUST_EPOCHS", 12);
  t.attack_eval_count = scaled(64, 1000);
  t.adaptive_eval_count = scaled(48, 500);
  return t;
}

std::vector<Task> all_tasks() {
  return {task_scifar10(), task_scifar100(), task_simagenet()};
}

nn::Network PreparedTask::clone_network() const {
  Rng rng(task.train_config.seed);
  nn::Network copy = task.make_network(rng);
  std::stringstream buf;
  BinaryWriter w(buf);
  // save() only reads parameters; the const_cast spares Network a const
  // save overload.
  const_cast<nn::Network&>(network).save(w);
  BinaryReader r(buf);
  copy.load(r);
  return copy;
}

std::vector<Tensor> PreparedTask::calibration_images(std::int64_t count) const {
  NVM_CHECK_GT(count, 0);
  std::vector<Tensor> out;
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(count),
                                       dataset.train_images.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dataset.train_images[i]);
  return out;
}

std::span<const Tensor> PreparedTask::eval_images(std::int64_t count) const {
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(count),
                                       dataset.test_images.size());
  return {dataset.test_images.data(), n};
}

std::span<const std::int64_t> PreparedTask::eval_labels(
    std::int64_t count) const {
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(count),
                                       dataset.test_labels.size());
  return {dataset.test_labels.data(), n};
}

PreparedTask prepare(const Task& task) {
  trace::Span watch("core/prepare");
  data::Dataset ds = make_synth_vision(task.data_spec);
  Rng init_rng(task.train_config.seed);
  nn::Network net = task.make_network(init_rng);

  std::ostringstream tag;
  tag << net.arch() << "_n" << task.data_spec.train_count << "_s"
      << task.data_spec.seed << "_e" << task.train_config.epochs << "_lr"
      << task.train_config.sgd.lr << "_noise" << task.data_spec.noise;

  const std::string file = "model_" + task.name + ".bin";
  bool loaded = cache_load(file, tag.str(),
                           [&](BinaryReader& r) { net.load(r); });
  if (!loaded) {
    NVM_LOG(Info) << "training " << task.name << " (" << net.arch() << ", "
                  << net.param_count() << " params)";
    nn::train(net, ds.train_images, ds.train_labels, task.train_config);
    cache_store(file, tag.str(), [&](BinaryWriter& w) { net.save(w); });
    metrics::gauge("core/train_seconds").set(watch.seconds());
    NVM_LOG(Info) << task.name << " trained in " << watch.seconds() << "s";
  }

  return PreparedTask{task, std::move(ds), std::move(net)};
}

}  // namespace nvm::core
