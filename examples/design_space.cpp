// Example: crossbar design-space exploration (paper §V).
//
// "One can potentially design NVM crossbars with an optimal trade-off
// between accuracy degradation and increased robustness due to
// non-idealities." This example sweeps custom crossbar designs — array
// size and ON resistance — fits a GENIEx surrogate for each against the
// in-repo circuit solver, and reports NF, clean accuracy, and white-box
// adversarial accuracy of a SCIFAR10 deployment, so a designer can pick
// the knee point.
#include <cstdio>

#include "attack/pgd.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "xbar/geniex.h"
#include "xbar/nf.h"

int main() {
  using namespace nvm;
  core::PreparedTask prepared = core::prepare(core::task_scifar10());
  const std::int64_t n = 48;
  auto images = prepared.eval_images(n);
  auto labels = prepared.eval_labels(n);

  // One shared white-box adversarial set (the attacker is unaware of any
  // of the candidate designs).
  attack::NetworkAttackModel attacker(prepared.network);
  attack::PgdOptions pgd;
  pgd.epsilon = prepared.task.scaled_eps(2.0f);
  pgd.iters = 30;
  std::vector<Tensor> adv = core::craft_pgd(attacker, images, labels, pgd);

  struct Design {
    std::int64_t size;
    double r_on;
  };
  std::vector<std::string> names;
  std::vector<double> nfs;
  std::vector<core::Target> targets{{}};  // the digital baseline first
  for (const Design& d : {Design{32, 300e3}, Design{32, 100e3},
                          Design{48, 100e3}, Design{64, 100e3},
                          Design{64, 50e3}}) {
    xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
    cfg.rows = cfg.cols = d.size;
    cfg.r_on = d.r_on;
    char name[32];
    std::snprintf(name, sizeof name, "%lldx%lld_%.0fk",
                  static_cast<long long>(d.size),
                  static_cast<long long>(d.size), d.r_on / 1000.0);
    cfg.name = name;

    // Fit (or cache-load) the surrogate for this candidate design.
    auto model = std::make_shared<xbar::GeniexModel>(
        xbar::GeniexModel::load_or_train(cfg));
    xbar::NfOptions nf_opt;
    nf_opt.samples = 16;
    names.push_back(name);
    nfs.push_back(xbar::measure_nf(*model, nf_opt).nf);
    targets.push_back({model, {}});
  }

  const std::vector<core::ImageSet> sets = {{images, labels}, {adv, labels}};
  const auto evals = core::evaluate_targets(prepared, targets, sets);
  const float base_clean = evals[0].accuracy(0);
  const float base_adv = evals[0].accuracy(1);
  std::printf("digital baseline: clean %.2f%%, white-box adv %.2f%%\n\n",
              base_clean, base_adv);
  std::printf("%-18s %6s %10s %12s %12s\n", "design", "NF", "clean",
              "adv (WB)", "adv gain");
  for (std::size_t d = 0; d < names.size(); ++d) {
    const float clean = evals[d + 1].accuracy(0);
    const float adv_acc = evals[d + 1].accuracy(1);
    std::printf("%-18s %6.3f %9.2f%% %11.2f%% %+11.2f%%\n", names[d].c_str(),
                nfs[d], clean, adv_acc, adv_acc - base_adv);
  }
  std::printf(
      "\nPick the design where the robustness gain outweighs the clean-accuracy"
      "\ncost for your deployment (the paper's push-pull trade-off).\n");
  return 0;
}
