// Extension experiment (paper §V discussion): chip-to-chip variation
// further hinders attack transferability between analog devices.
//
// Setup: the same 64x64_100k crossbar design is "fabricated" as several
// chips, each with its own deterministic device-programming variation
// (xbar::VariationModel). A Hardware-in-Loop white-box attacker crafts
// PGD images on chip 0; the images are evaluated on chip 0 itself, on
// sibling chips (same design, different devices), and on the digital
// baseline. Also includes a random-noise control at the same budget.
#include "attack/noise.h"
#include "attack/pgd.h"
#include "bench_util.h"
#include "puma/hw_network.h"
#include "xbar/variation.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_ext_chip_variation");
  core::Task task = core::task_scifar10();
  core::PreparedTask prepared = core::prepare(task);
  const std::int64_t n_eval = env_int("NVMROBUST_VAR_N", scaled(32, 500));
  auto images = prepared.eval_images(n_eval);
  auto labels = prepared.eval_labels(n_eval);
  auto calib = prepared.calibration_images();

  auto base = xbar::make_geniex("64x64_100k");
  auto chip = [&](std::uint64_t seed) {
    xbar::VariationOptions opt;
    opt.chip_seed = seed;
    return std::make_shared<xbar::VariationModel>(base, opt);
  };

  attack::PgdOptions pgd;
  pgd.epsilon = task.scaled_eps(2.0f);
  pgd.iters = 30;

  // Craft on chip 0 with hardware-in-loop gradients.
  std::vector<Tensor> adv;
  {
    puma::HwDeployment dep(prepared.network, chip(0), calib);
    attack::NetworkAttackModel attacker(prepared.network);
    adv = core::craft_pgd(attacker, images, labels, pgd);
  }

  // Random-noise control at the same l_inf budget.
  std::vector<Tensor> noise;
  Rng noise_rng(77);
  for (const Tensor& img : images)
    noise.push_back(attack::random_sign_noise(img, pgd.epsilon, noise_rng));

  const std::vector<std::string> names = {
      "digital baseline", "chip 0 (attacker's die)", "chip 1 (same design)",
      "chip 2 (same design)", "no-variation reference"};
  const std::vector<core::Target> targets = {
      {}, {chip(0), {}}, {chip(1), {}}, {chip(2), {}}, {base, {}}};
  const std::vector<core::ImageSet> sets = {
      {images, labels}, {adv, labels}, {noise, labels}};
  const std::vector<core::TargetEval> evals =
      core::evaluate_targets(prepared, targets, sets);

  core::TablePrinter table({"Evaluation target", "clean", "HIL PGD (chip 0)",
                            "random noise"});
  for (std::size_t t = 0; t < targets.size(); ++t)
    table.add_row({names[t], core::fmt(evals[t].accuracy(0)),
                   core::fmt(evals[t].accuracy(1)),
                   core::fmt(evals[t].accuracy(2))});

  char title[128];
  std::snprintf(title, sizeof title,
                "Extension: chip-to-chip variation vs HIL transfer "
                "(64x64_100k, SCIFAR10, PGD eps=%.0f/255, n=%lld)",
                static_cast<double>(pgd.epsilon * 255),
                static_cast<long long>(images.size()));
  table.print(title);
  std::printf(
      "\nExpected shape: the attack is strongest on the die it was crafted\n"
      "on; sibling dies recover part of the accuracy (paper SS V: chip-to-chip\n"
      "variations 'may further hinder the transferability of attacks').\n");
  return 0;
}
