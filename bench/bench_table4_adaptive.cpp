// Table IV reproduction: Hardware-in-Loop adaptive attacks.
//
//   Ensemble BB PGD (iter=30, paper eps 4/255): attacker distills
//     surrogates by querying the network on their crossbar (64x64_100k);
//     transferred to all three targets.
//   Square Attack (queries=30, paper eps 8/255): attacker runs the random
//     search directly against the network deployed on 32x32_100k; the
//     final images transfer to the three targets.
//   White Box PGD (iter=30): "Hardware-in-Loop" gradients — forward on the
//     attacker's crossbar (64x64_100k), backward ideal at the recorded
//     activations; transferred to the three targets.
//
// Bold cells in the paper (attacker model == target model) correspond here
// to the matching column; deltas are vs the digital baseline under the
// same adversarial images.
#include "attack/pgd.h"
#include "attack/square.h"
#include "bench_util.h"
#include "puma/hw_network.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_table4_adaptive");
  auto models = bench::paper_models();
  auto attacker_bb = xbar::make_geniex("64x64_100k");   // Ensemble BB + WB
  auto attacker_sq = xbar::make_geniex("32x32_100k");   // Square

  core::TablePrinter table({"Attack (attacker's xbar)", "Baseline",
                            "target 64x64_300k", "target 32x32_100k",
                            "target 64x64_100k"});

  for (core::Task task : {core::task_scifar10(), core::task_scifar100(),
                          core::task_simagenet()}) {
    trace::Span total("bench/total");
    const bool imagenet = task.name == "SIMAGENET";
    core::PreparedTask prepared = core::prepare(task);
    const std::int64_t n_eval = env_int(
        "NVMROBUST_T4_N", scaled(imagenet ? 12 : 24, 500));
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);
    auto calib = prepared.calibration_images();
    std::vector<std::string> names;
    std::vector<std::vector<Tensor>> adv_sets;

    // --- Ensemble BB adaptive (CIFAR tasks, paper eps 4/255). ---
    if (!imagenet) {
      trace::Span sw("bench/stage");
      const auto n_query = static_cast<std::size_t>(std::min<std::int64_t>(
          scaled(300, 4000),
          static_cast<std::int64_t>(prepared.dataset.train_images.size())));
      attack::SurrogateEnsemble surrogates = [&] {
        puma::HwDeployment dep(prepared.network, attacker_bb, calib);
        return bench::distill_ensemble(
            prepared, {prepared.dataset.train_images.data(), n_query},
            "adaptive_" + task.name + "_64x64_100k");
      }();
      auto ensemble = surrogates.attack_model();
      adv_sets.push_back(bench::pgd30(*ensemble, task, 4.0f, images, labels));
      names.push_back(task.name + " Ensemble BB " + bench::eps_label(task, 4) +
                      " (64x64_100k)");
      bench::progress(task.name + " adaptive ensemble BB", sw.seconds());
    }

    // --- Square adaptive: random search against the 32x32_100k hardware,
    //     30 queries (paper's crossbar-emulation budget). ---
    {
      trace::Span sw("bench/stage");
      {
        puma::HwDeployment dep(prepared.network, attacker_sq, calib);
        attack::NetworkAttackModel victim(prepared.network);
        attack::SquareOptions opt;
        opt.epsilon = task.scaled_eps(8.0f);
        opt.max_queries = 30;
        adv_sets.push_back(core::craft_square(victim, images, labels, opt));
      }
      names.push_back(task.name + " Square BB " + bench::eps_label(task, 8) +
                      " q=30 (32x32_100k)");
      bench::progress(task.name + " adaptive square", sw.seconds());
    }

    // --- White-box hardware-in-loop PGD (attacker on 64x64_100k). ---
    const std::vector<float> wb_eps =
        imagenet ? std::vector<float>{1.0f} : std::vector<float>{1.0f, 2.0f};
    for (float eps : wb_eps) {
      trace::Span sw("bench/stage");
      {
        puma::HwDeployment dep(prepared.network, attacker_bb, calib);
        attack::NetworkAttackModel attacker(prepared.network);
        adv_sets.push_back(bench::pgd30(attacker, task, eps, images, labels));
      }
      names.push_back(task.name + " WB HIL PGD " +
                      bench::eps_label(task, eps) + " (64x64_100k)");
      bench::progress(task.name + " hardware-in-loop WB", sw.seconds());
    }
    // Every set on the baseline + the 3 targets, as one paired evaluation.
    const std::vector<core::TargetEval> evals = core::evaluate_targets(
        prepared, bench::paper_targets(models),
        bench::image_sets(adv_sets, labels));
    for (std::size_t s = 0; s < adv_sets.size(); ++s)
      table.add_row(bench::paired_cells(names[s], evals, s));
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }

  table.print("Table IV: Hardware-in-Loop adaptive attacks");
  return 0;
}
