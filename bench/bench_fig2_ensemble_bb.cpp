// Fig. 2 reproduction: non-adaptive Ensemble Black-Box PGD (iter=30) on
// SCIFAR10 and SCIFAR100 — adversarial accuracy vs epsilon.
//
// The attacker queries the victim on *accurate digital hardware*, reads
// logits, distills three surrogate ResNets (depths 8/14/20 here, the
// scaled analogue of the paper's ResNet-10/20/32), and attacks their
// stack-parallel ensemble; the images transfer to the baseline, the three
// crossbar deployments, and the two defenses.
#include "attack/pgd.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_fig2_ensemble_bb");
  const std::vector<float> paper_eps = {2.0f, 4.0f, 8.0f};
  const std::int64_t n_eval = env_int("NVMROBUST_FIG2_N", scaled(32, 500));
  auto models = bench::paper_models();

  for (core::Task task : {core::task_scifar10(), core::task_scifar100()}) {
    trace::Span total("bench/total");
    core::PreparedTask prepared = core::prepare(task);
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);

    trace::Span distill_sw("bench/distill");
    attack::SurrogateEnsemble surrogates = bench::distill_ensemble(
        prepared, prepared.dataset.train_images, "nonadaptive_" + task.name);
    bench::progress("surrogate distillation", distill_sw.seconds());
    auto ensemble = surrogates.attack_model();

    std::vector<std::vector<Tensor>> adv_sets;
    trace::Span craft("bench/craft");
    for (float eps : paper_eps)
      adv_sets.push_back(bench::pgd30(*ensemble, task, eps, images, labels));
    bench::progress("ensemble PGD crafting", craft.seconds());

    std::printf(
        "\n== Fig 2: non-adaptive Ensemble BB PGD (iter=30), %s (%s), n=%lld ==\n",
        task.name.c_str(), task.paper_analogue.c_str(),
        static_cast<long long>(images.size()));
    bench::print_columns(prepared, models, paper_eps, 0, adv_sets, labels,
                         false);
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }
  return 0;
}
