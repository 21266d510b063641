// Fig. 3 reproduction: non-adaptive Square Attack (black box) on all three
// tasks — adversarial accuracy vs epsilon for the baseline, the three NVM
// crossbar models, and the per-task defenses.
//
// The attacker queries the *digital* implementation's logits (paper
// §III-C1b); crafted images are then evaluated on each deployment. Being
// gradient-free, this attack isolates the "modified inference" component
// of the intrinsic robustness.
#include "attack/square.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_fig3_square");
  const std::vector<float> paper_eps = {4.0f, 8.0f, 16.0f};
  auto models = bench::paper_models();

  for (core::Task task : {core::task_scifar10(), core::task_scifar100(),
                          core::task_simagenet()}) {
    trace::Span total("bench/total");
    const bool imagenet = task.name == "SIMAGENET";
    const std::int64_t n_eval =
        env_int("NVMROBUST_FIG3_N", scaled(imagenet ? 20 : 32, 500));
    core::PreparedTask prepared = core::prepare(task);
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);

    attack::NetworkAttackModel victim(prepared.network);
    std::vector<std::vector<Tensor>> adv_sets;
    trace::Span craft("bench/craft");
    const std::int64_t queries = env_int(
        "NVMROBUST_SQ_QUERIES", scaled(imagenet ? 60 : 100, 1000));
    for (float eps : paper_eps) {
      attack::SquareOptions opt;
      opt.epsilon = task.scaled_eps(eps);
      opt.max_queries = queries;
      adv_sets.push_back(core::craft_square(victim, images, labels, opt));
    }
    bench::progress("square crafting", craft.seconds());

    std::printf(
        "\n== Fig 3: non-adaptive Square Attack (q=%lld), %s (%s), n=%lld ==\n",
        static_cast<long long>(queries), task.name.c_str(),
        task.paper_analogue.c_str(), static_cast<long long>(images.size()));
    bench::print_columns(prepared, models, paper_eps, 0, adv_sets, labels,
                         imagenet);
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }
  return 0;
}
