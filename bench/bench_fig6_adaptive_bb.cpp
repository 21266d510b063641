// Fig. 6 reproduction: Hardware-in-Loop adaptive Ensemble Black-Box PGD
// (iter=30) on SCIFAR10/SCIFAR100. The target runs on the 64x64_100k
// crossbar; the attacker builds their synthetic distillation set by
// querying the network deployed on *their own* crossbar model (which may
// not match the target's). Paper finding: adaptive attacks fall well below
// the baseline, and attackers whose NF is closer to the target's craft
// stronger attacks.
#include "attack/pgd.h"
#include "bench_util.h"
#include "puma/hw_network.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_fig6_adaptive_bb");
  const std::vector<float> paper_eps = {2.0f, 4.0f};
  const std::int64_t n_eval = env_int("NVMROBUST_FIG6_N", scaled(24, 500));
  auto models = bench::paper_models();
  auto target_model = xbar::make_geniex("64x64_100k");

  for (core::Task task : {core::task_scifar10(), core::task_scifar100()}) {
    trace::Span total("bench/total");
    core::PreparedTask prepared = core::prepare(task);
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);
    auto calib = prepared.calibration_images();

    // Distillation query set: subsampled training images (crossbar
    // queries are expensive, mirroring the paper's reduced query budget).
    const auto n_query = static_cast<std::size_t>(std::min<std::int64_t>(
        scaled(300, 4000),
        static_cast<std::int64_t>(prepared.dataset.train_images.size())));
    std::span<const Tensor> query_images(prepared.dataset.train_images.data(),
                                         n_query);

    std::printf(
        "\n== Fig 6: adaptive Ensemble BB PGD (iter=30), %s, target=64x64_100k, n=%lld ==\n",
        task.name.c_str(), static_cast<long long>(images.size()));
    std::printf("x-axis: paper eps/255");
    for (float eps : paper_eps) std::printf(", %.0f", eps);
    std::printf("\n");

    // Each attacker's sets, crafted before any is evaluated on the target.
    std::vector<std::vector<Tensor>> adv_sets;
    for (auto& attacker_xbar : models) {
      // 1. Attacker queries the network deployed on THEIR crossbar model.
      trace::Span sw("bench/stage");
      attack::SurrogateEnsemble surrogates = [&] {
        puma::HwDeployment dep(prepared.network, attacker_xbar.model, calib);
        return bench::distill_ensemble(
            prepared, query_images,
            "adaptive_" + task.name + "_" + attacker_xbar.name);
      }();
      auto ensemble = surrogates.attack_model();

      // 2. Craft per epsilon.
      for (float eps : paper_eps)
        adv_sets.push_back(bench::pgd30(*ensemble, task, eps, images, labels));
      bench::progress("attacker " + attacker_xbar.name, sw.seconds());
    }

    // 3. Evaluate the clean images and every attacker's sets on the target
    // hardware. Baseline series: accuracy of the *digital* network under
    // the non-adaptive interpretation is not meaningful here; the paper
    // plots the target-hardware accuracy under each attacker's images,
    // plus the digital baseline under the digital attack for reference.
    // We report target-hardware clean accuracy as the reference line.
    std::vector<core::ImageSet> sets{{images, labels}};
    for (const core::ImageSet& set : bench::image_sets(adv_sets, labels))
      sets.push_back(set);
    const core::TargetEval on_target = core::evaluate_targets(
        prepared, std::vector<core::Target>{{target_model, {}}}, sets)[0];
    core::print_series("target_clean(ref)",
                       std::vector<float>(paper_eps.size(),
                                          on_target.accuracy(0)));
    for (std::size_t m = 0; m < models.size(); ++m) {
      std::vector<float> series;
      for (std::size_t e = 0; e < paper_eps.size(); ++e)
        series.push_back(on_target.accuracy(1 + m * paper_eps.size() + e));
      core::print_series("attacker_" + models[m].name, series);
    }
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }
  return 0;
}
