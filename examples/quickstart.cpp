// Quickstart: the full pipeline on one task in a few dozen lines.
//
//   1. generate the SCIFAR10 synthetic dataset and train (or cache-load)
//      its ResNet-20 target network;
//   2. deploy the network onto a non-ideal 64x64_100k NVM crossbar model;
//   3. compare clean accuracy: ideal digital vs crossbar;
//   4. craft a non-adaptive white-box PGD attack (gradients from the
//      *digital* network) and show the crossbar's intrinsic robustness.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "attack/pgd.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "xbar/model_zoo.h"

int main() {
  using namespace nvm;

  // 1. Data + trained target model (cached under ./repro_cache).
  core::PreparedTask prepared = core::prepare(core::task_scifar10());
  std::printf("task %s (%s): clean accuracy %.2f%% on ideal hardware\n",
              prepared.task.name.c_str(), prepared.network.arch().c_str(),
              nn::evaluate_accuracy(prepared.network,
                                    prepared.dataset.test_images,
                                    prepared.dataset.test_labels));

  const std::int64_t n_eval = 64;
  auto images = prepared.eval_images(n_eval);
  auto labels = prepared.eval_labels(n_eval);

  // 2. Craft white-box PGD adversarial images against the digital network
  //    (the attacker does not know about the analog hardware).
  attack::NetworkAttackModel attacker(prepared.network);
  attack::PgdOptions pgd;
  // Paper epsilon 2/255, scaled for the smaller images (see EXPERIMENTS.md).
  pgd.epsilon = prepared.task.scaled_eps(2.0f);
  pgd.iters = 30;
  std::vector<Tensor> adv = core::craft_pgd(attacker, images, labels, pgd);

  // 3. Classify the clean and adversarial images on the digital network and
  //    on the most non-ideal Table I crossbar (GENIEx surrogate trained
  //    against the in-repo circuit solver; cached after first run). The
  //    deployment runs on copies of the network.
  auto model = xbar::make_geniex("64x64_100k");
  const std::vector<core::Target> targets = {{}, {model, {}}};
  const std::vector<core::ImageSet> sets = {{images, labels}, {adv, labels}};
  const auto evals = core::evaluate_targets(prepared, targets, sets);
  const float clean_digital = evals[0].accuracy(0);
  const float adv_digital = evals[0].accuracy(1);
  const float clean_hw = evals[1].accuracy(0);
  const float adv_hw = evals[1].accuracy(1);

  // 4. Report the push-pull effect: non-idealities cost clean accuracy but
  //    blunt the transferred attack.
  std::printf("\n%-34s %10s %14s\n", "", "digital", "64x64_100k");
  std::printf("%-34s %9.2f%% %13.2f%%\n", "clean accuracy", clean_digital,
              clean_hw);
  std::printf("%-34s %9.2f%% %13.2f%%\n",
              "white-box PGD (eps=6/255, iter=30)", adv_digital, adv_hw);
  std::printf("\nintrinsic robustness gain under attack: %+.2f%%\n",
              adv_hw - adv_digital);
  return 0;
}
