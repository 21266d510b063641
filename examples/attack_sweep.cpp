// Example: comparing attack families against a crossbar deployment.
//
// Sweeps the l_inf budget for FGSM (single step), PGD (iterated), and the
// gradient-free Square Attack against the same trained SCIFAR10 model,
// evaluated both on accurate digital hardware and deployed on the
// 32x32_100k NVM crossbar. Shows the paper's core observation from the
// attacker's side: iterated gradient attacks gain the most from accurate
// gradients — and lose the most when the defender's arithmetic is analog.
#include <cstdio>

#include "attack/pgd.h"
#include "attack/square.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "xbar/model_zoo.h"

int main() {
  using namespace nvm;
  core::PreparedTask prepared = core::prepare(core::task_scifar10());
  const std::int64_t n = 48;
  auto images = prepared.eval_images(n);
  auto labels = prepared.eval_labels(n);
  auto model = xbar::make_geniex("32x32_100k");

  attack::NetworkAttackModel attacker(prepared.network);
  struct Crafted {
    const char* name;
    float eps255;
    std::vector<Tensor> adv;
  };
  std::vector<Crafted> crafted;
  for (float eps255 : {4.0f, 8.0f, 12.0f}) {
    const float eps = eps255 / 255.0f;

    crafted.push_back({"FGSM", eps255, {}});
    for (std::size_t i = 0; i < images.size(); ++i)
      crafted.back().adv.push_back(
          attack::fgsm_attack(attacker, images[i], labels[i], eps));

    attack::PgdOptions pgd;
    pgd.epsilon = eps;
    pgd.iters = 30;
    crafted.push_back(
        {"PGD-30", eps255, core::craft_pgd(attacker, images, labels, pgd)});

    attack::MiFgsmOptions mi;
    mi.epsilon = eps;
    mi.iters = 10;
    crafted.push_back({"MI-FGSM", eps255, {}});
    for (std::size_t i = 0; i < images.size(); ++i)
      crafted.back().adv.push_back(
          attack::mi_fgsm_attack(attacker, images[i], labels[i], mi));

    attack::SquareOptions sq;
    sq.epsilon = eps;
    sq.max_queries = 150;
    crafted.push_back({"Square", eps255,
                       core::craft_square(attacker, images, labels, sq)});
  }

  // Every crafted set on the digital network and on the crossbar.
  std::vector<core::ImageSet> sets;
  for (const Crafted& c : crafted) sets.push_back({c.adv, labels});
  const std::vector<core::Target> targets = {{}, {model, {}}};
  const auto evals = core::evaluate_targets(prepared, targets, sets);

  std::printf("%-10s %-8s %10s %14s\n", "attack", "eps/255", "digital",
              "32x32_100k");
  for (std::size_t s = 0; s < crafted.size(); ++s)
    std::printf("%-10s %-8.0f %9.2f%% %13.2f%%\n", crafted[s].name,
                crafted[s].eps255, evals[0].accuracy(s), evals[1].accuracy(s));
  return 0;
}
