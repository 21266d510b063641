// Example: "Hardware-in-Loop" adaptive white-box attacks (paper §III-C2).
//
// The NVM inference hardware cannot backpropagate, so the adaptive
// attacker runs the forward pass on the crossbar, records the (non-ideal)
// activations, and applies ideal derivatives at those activations. This
// example crafts such attacks with a MATCHING crossbar model and with a
// MISMATCHED one, and shows the paper's transferability finding: a wrong
// crossbar model is worse for the attacker than no crossbar model at all.
#include <cstdio>

#include "attack/pgd.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "puma/hw_network.h"
#include "xbar/model_zoo.h"

int main() {
  using namespace nvm;
  core::PreparedTask prepared = core::prepare(core::task_scifar10());
  const std::int64_t n = 32;
  auto images = prepared.eval_images(n);
  auto labels = prepared.eval_labels(n);
  auto calib = prepared.calibration_images();

  const std::string target_name = "64x64_100k";
  const std::string wrong_name = "64x64_300k";
  auto target = xbar::make_geniex(target_name);
  auto wrong = xbar::make_geniex(wrong_name);

  attack::PgdOptions pgd;
  pgd.epsilon = prepared.task.scaled_eps(2.0f);
  pgd.iters = 30;

  // 1. Non-adaptive: gradients from the digital network.
  attack::NetworkAttackModel attacker(prepared.network);
  std::vector<Tensor> adv_digital =
      core::craft_pgd(attacker, images, labels, pgd);

  // 2. Adaptive, matching hardware: forward on the target's crossbar.
  std::vector<Tensor> adv_matched;
  {
    puma::HwDeployment dep(prepared.network, target, calib);
    adv_matched = core::craft_pgd(attacker, images, labels, pgd);
  }

  // 3. Adaptive, mismatched hardware: the attacker only has a different
  //    crossbar technology.
  std::vector<Tensor> adv_mismatched;
  {
    puma::HwDeployment dep(prepared.network, wrong, calib);
    adv_mismatched = core::craft_pgd(attacker, images, labels, pgd);
  }

  // Evaluate everything on the real target deployment.
  const std::vector<core::ImageSet> sets = {{images, labels},
                                            {adv_digital, labels},
                                            {adv_matched, labels},
                                            {adv_mismatched, labels}};
  const core::TargetEval on_target = core::evaluate_targets(
      prepared, std::vector<core::Target>{{target, {}}}, sets)[0];
  const float clean = on_target.accuracy(0);
  const float acc_digital = on_target.accuracy(1);
  const float acc_matched = on_target.accuracy(2);
  const float acc_mismatched = on_target.accuracy(3);

  std::printf("target deployment: %s; PGD eps=%.1f/255, iter=30\n",
              target_name.c_str(), pgd.epsilon * 255.0f);
  std::printf("%-46s %8.2f%%\n", "clean accuracy on target", clean);
  std::printf("%-46s %8.2f%%\n", "non-adaptive attack (digital gradients)",
              acc_digital);
  std::printf("%-46s %8.2f%%  <- strongest\n",
              ("adaptive, matching model (" + target_name + ")").c_str(),
              acc_matched);
  std::printf("%-46s %8.2f%%  <- mismatch hurts the attacker\n",
              ("adaptive, wrong model (" + wrong_name + ")").c_str(),
              acc_mismatched);
  return 0;
}
