// Fig. 4 reproduction: non-adaptive White-Box PGD (iter=30) on SCIFAR10
// and SCIFAR100 — adversarial accuracy vs attack epsilon for the baseline
// (accurate digital), the three NVM crossbar models, and the two defenses
// (4-bit input bit-width reduction, SAP).
//
// The attacker holds the exact weights but computes gradients assuming
// ideal digital MVMs (paper §III-C1c). Epsilons are the paper's
// {0.5, 1, 2, 4}/255 scaled by the task's eps_scale (see EXPERIMENTS.md).
#include "attack/pgd.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_fig4_whitebox");
  const std::vector<float> paper_eps = {0.5f, 1.0f, 2.0f, 4.0f};
  const std::int64_t n_eval = env_int("NVMROBUST_FIG4_N", scaled(40, 500));
  auto models = bench::paper_models();

  for (core::Task task : {core::task_scifar10(), core::task_scifar100()}) {
    trace::Span total("bench/total");
    core::PreparedTask prepared = core::prepare(task);
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);

    // Craft one adversarial set per epsilon against the digital network.
    attack::NetworkAttackModel attacker(prepared.network);
    std::vector<std::vector<Tensor>> adv_sets;
    trace::Span craft("bench/craft");
    for (float eps : paper_eps)
      adv_sets.push_back(bench::pgd30(attacker, task, eps, images, labels));
    bench::progress("PGD crafting " + task.name, craft.seconds());

    std::printf("\n== Fig 4: non-adaptive White-Box PGD (iter=30), %s (%s), n=%lld ==\n",
                task.name.c_str(), task.paper_analogue.c_str(),
                static_cast<long long>(images.size()));

    bench::print_columns(prepared, models, paper_eps, 1, adv_sets, labels,
                         false);
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }
  return 0;
}
