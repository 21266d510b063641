// Fig. 5 reproduction: absolute adversarial-accuracy gain vs crossbar
// Non-ideality Factor, for the non-adaptive attacks on SCIFAR10/SCIFAR100.
//
// Paper shape: gain rises steeply from NF~0.07 to NF~0.14, then tapers at
// NF~0.26 as inaccurate computation starts to outweigh the intrinsic
// robustness (the push-pull effect).
#include "attack/pgd.h"
#include "attack/square.h"
#include "bench_util.h"
#include "xbar/nf.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_fig5_gain_vs_nf");
  const std::int64_t n_eval = env_int("NVMROBUST_FIG5_N", scaled(32, 500));
  auto models = bench::paper_models();

  // Measure NF of each GENIEx model once.
  std::vector<double> nf_values;
  for (auto& nm : models) {
    xbar::NfOptions opt;
    opt.samples = scaled(24, 96);
    nf_values.push_back(xbar::measure_nf(*nm.model, opt).nf);
  }

  core::TablePrinter table({"Task", "Attack", "Crossbar", "NF",
                            "Baseline adv acc", "HW adv acc", "Gain"});

  for (core::Task task : {core::task_scifar10(), core::task_scifar100()}) {
    trace::Span total("bench/total");
    core::PreparedTask prepared = core::prepare(task);
    auto images = prepared.eval_images(n_eval);
    auto labels = prepared.eval_labels(n_eval);

    // Three non-adaptive adversarial sets: ensemble BB (eps 4), square
    // (eps 4), white-box (eps 1) — the attacks plotted in the figure.
    const std::vector<std::string> set_names = {
        "EnsembleBB eps4", "Square eps4", "WhiteBox eps2"};
    std::vector<std::vector<Tensor>> sets;

    {
      attack::SurrogateEnsemble surrogates = bench::distill_ensemble(
          prepared, prepared.dataset.train_images, "nonadaptive_" + task.name);
      auto ensemble = surrogates.attack_model();
      sets.push_back(bench::pgd30(*ensemble, task, 4.0f, images, labels));
    }
    {
      attack::NetworkAttackModel victim(prepared.network);
      attack::SquareOptions opt;
      opt.epsilon = task.scaled_eps(4.0f);
      opt.max_queries = env_int("NVMROBUST_SQ_QUERIES", scaled(100, 1000));
      sets.push_back(core::craft_square(victim, images, labels, opt));
    }
    {
      attack::NetworkAttackModel attacker(prepared.network);
      // Paper eps 2/255: the operating point where the baseline has
      // collapsed into the paper's regime (see EXPERIMENTS.md on the
      // epsilon mapping).
      sets.push_back(bench::pgd30(attacker, task, 2.0f, images, labels));
    }

    const std::vector<core::TargetEval> evals = core::evaluate_targets(
        prepared, bench::paper_targets(models),
        bench::image_sets(sets, labels));
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const float baseline = evals[0].accuracy(s);
      for (std::size_t m = 0; m < models.size(); ++m) {
        const float hw = evals[m + 1].accuracy(s);
        table.add_row({task.name, set_names[s], models[m].name,
                       core::fmt(static_cast<float>(nf_values[m])),
                       core::fmt(baseline), core::fmt(hw),
                       core::fmt(hw - baseline)});
      }
    }
    std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
  }

  table.print("Fig 5: absolute robustness gain vs crossbar NF");
  return 0;
}
