// Table III reproduction: non-adaptive attack summary for all three
// tasks. Rows per task:
//   Clean
//   Ensemble (Black Box) PGD  eps=4/255 paper, iter=30   (CIFAR tasks)
//   Square Attack (Black Box) eps=4/255 paper             (all tasks)
//   White Box PGD             eps=1/255 and 2/255 paper, iter=30
// Columns: baseline (digital), the 3 NVM crossbar models, and the
// defenses (4-bit input for all; SAP for CIFAR tasks, Random Pad for the
// ImageNet task), each cell as "value (delta vs baseline)".
#include "attack/pgd.h"
#include "attack/square.h"
#include "bench_util.h"

namespace {

using namespace nvm;

void run_task(const core::Task& task,
              const std::vector<bench::NamedModel>& models) {
  trace::Span total("bench/total");
  core::PreparedTask prepared = core::prepare(task);
  const bool imagenet = task.name == "SIMAGENET";
  const std::int64_t n_eval =
      env_int("NVMROBUST_T3_N", scaled(imagenet ? 32 : 40, 1000));
  auto images = prepared.eval_images(n_eval);
  auto labels = prepared.eval_labels(n_eval);

  core::TablePrinter table(
      {"Attack", "Baseline", "64x64_300k", "32x32_100k", "64x64_100k",
       "4-bit input", imagenet ? "Random Pad" : "SAP"});

  // Clean row (uses the larger test set for a stable clean number).
  std::vector<std::string> row_names{"Clean"};
  std::vector<std::vector<Tensor>> adv_sets;

  // Ensemble black-box PGD at paper eps 4/255 (CIFAR tasks only, as in
  // the paper's Table III).
  if (!imagenet) {
    trace::Span sw("bench/stage");
    attack::SurrogateEnsemble surrogates = bench::distill_ensemble(
        prepared, prepared.dataset.train_images, "nonadaptive_" + task.name);
    auto ensemble = surrogates.attack_model();
    adv_sets.push_back(bench::pgd30(*ensemble, task, 4.0f, images, labels));
    bench::progress("ensemble BB crafting", sw.seconds());
    row_names.push_back("Ensemble BB PGD " + bench::eps_label(task, 4));
  }

  // Square attack (black box) at paper eps 4/255, querying the digital
  // implementation (non-adaptive).
  {
    trace::Span sw("bench/stage");
    attack::NetworkAttackModel victim(prepared.network);
    attack::SquareOptions opt;
    opt.epsilon = task.scaled_eps(4.0f);
    opt.max_queries = env_int("NVMROBUST_SQ_QUERIES",
                              scaled(imagenet ? 60 : 100, 1000));
    adv_sets.push_back(core::craft_square(victim, images, labels, opt));
    bench::progress("square crafting", sw.seconds());
    char name[96];
    std::snprintf(name, sizeof name, "Square BB %s q=%lld",
                  bench::eps_label(task, 4).c_str(),
                  static_cast<long long>(opt.max_queries));
    row_names.push_back(name);
  }

  // White-box PGD at paper eps 1/255 and 2/255.
  for (float eps : {1.0f, 2.0f}) {
    trace::Span sw("bench/stage");
    attack::NetworkAttackModel attacker(prepared.network);
    adv_sets.push_back(bench::pgd30(attacker, task, eps, images, labels));
    bench::progress("white-box crafting", sw.seconds());
    row_names.push_back("White Box PGD " + bench::eps_label(task, eps));
  }

  std::vector<core::ImageSet> sets{
      {prepared.eval_images(scaled(128, 1000)),
       prepared.eval_labels(scaled(128, 1000))}};
  for (const core::ImageSet& set : bench::image_sets(adv_sets, labels))
    sets.push_back(set);
  const std::vector<core::TargetEval> evals = core::evaluate_targets(
      prepared, bench::paper_targets(models), sets);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    // The paired baseline and crossbar cells, then the defense columns.
    std::vector<std::string> cells =
        bench::paired_cells(row_names[s], evals, s);
    for (const bench::Defense& d : bench::paper_defenses(imagenet))
      cells.push_back(core::with_delta(
          d.accuracy(prepared.network, sets[s].images, sets[s].labels),
          evals[0].accuracy(s)));
    table.add_row(cells);
  }

  char title[160];
  std::snprintf(title, sizeof title,
                "Table III: %s (%s), attack samples=%lld",
                task.name.c_str(), task.paper_analogue.c_str(),
                static_cast<long long>(images.size()));
  table.print(title);
  std::printf("[%s done in %.0fs]\n", task.name.c_str(), total.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  nvm::core::RunManifest manifest =
      nvm::bench::bench_manifest(argc, argv, "bench_table3_summary");
  auto models = nvm::bench::paper_models();
  for (const auto& task :
       {nvm::core::task_scifar10(), nvm::core::task_scifar100(),
        nvm::core::task_simagenet()})
    run_task(task, models);
  return 0;
}
