// Shared plumbing for the experiment harnesses: crossbar model set, the
// targets and image sets handed to core::evaluate_targets, defended
// forwards, and progress reporting.
//
// All harnesses run at reduced sample counts on one core; REPRO_FULL=1
// raises them (common/env.h). Trained targets, GENIEx fits, and distilled
// surrogates are cached under ./repro_cache, so only the first run pays
// for training.
#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attack/ensemble_bb.h"
#include "common/env.h"
#include "common/trace.h"
#include "core/evaluator.h"
#include "core/report.h"
#include "core/tasks.h"
#include "defense/defenses.h"
#include "xbar/model_zoo.h"

namespace nvm::bench {

/// The three Table I crossbar models with cached GENIEx surrogates.
struct NamedModel {
  std::string name;
  std::shared_ptr<xbar::GeniexModel> model;
};

inline std::vector<NamedModel> paper_models() {
  std::vector<NamedModel> out;
  for (const std::string& name : xbar::paper_model_names())
    out.push_back({name, xbar::make_geniex(name)});
  return out;
}

/// The digital baseline, then each model on its default deployment: the
/// targets of every non-adaptive table and figure.
inline std::vector<core::Target> paper_targets(
    const std::vector<NamedModel>& models) {
  std::vector<core::Target> out{{}};
  for (const NamedModel& nm : models) out.push_back({nm.model, {}});
  return out;
}

/// Crafted image sets that share the labels of the images they came from.
inline std::vector<core::ImageSet> image_sets(
    const std::vector<std::vector<Tensor>>& sets,
    std::span<const std::int64_t> labels) {
  std::vector<core::ImageSet> out;
  for (const std::vector<Tensor>& set : sets) out.push_back({set, labels});
  return out;
}

/// Table row for image set `s`: its name, the baseline (target 0)
/// accuracy, then every other target's as "value (delta vs baseline)".
inline std::vector<std::string> paired_cells(
    const std::string& name, std::span<const core::TargetEval> evals,
    std::size_t s) {
  const float baseline = evals[0].accuracy(s);
  std::vector<std::string> cells{name, core::fmt(baseline)};
  for (std::size_t t = 1; t < evals.size(); ++t)
    cells.push_back(core::with_delta(evals[t].accuracy(s), baseline));
  return cells;
}

/// Surrogate ensemble distilled from `queries` answered by
/// `prepared.network` as it runs now (digital, or on the crossbar of a
/// caller's HwDeployment); cached under `tag`.
inline attack::SurrogateEnsemble distill_ensemble(
    core::PreparedTask& prepared, std::span<const Tensor> queries,
    const std::string& tag) {
  attack::EnsembleBbOptions bb_opt;
  bb_opt.epochs =
      static_cast<std::int64_t>(env_int("NVMROBUST_SURR_EPOCHS", 12));
  return attack::SurrogateEnsemble::distill(
      [&](const Tensor& x) {
        return prepared.network.forward(x, nn::Mode::Eval);
      },
      queries, prepared.task.data_spec.classes, bb_opt, tag);
}

/// Crafts PGD images at the paper's iter=30 and paper epsilon
/// `paper_eps_255`.
inline std::vector<Tensor> pgd30(attack::AttackModel& attacker,
                                 const core::Task& task, float paper_eps_255,
                                 std::span<const Tensor> images,
                                 std::span<const std::int64_t> labels) {
  attack::PgdOptions opt;
  opt.epsilon = task.scaled_eps(paper_eps_255);
  opt.iters = 30;
  return core::craft_pgd(attacker, images, labels, opt);
}

/// Accuracy behind the 4-bit input bit-width-reduction defense [35].
inline float bw_defense_accuracy(nn::Network& net,
                                 std::span<const Tensor> images,
                                 std::span<const std::int64_t> labels) {
  core::ForwardFn fn = [&net](const Tensor& x) {
    return net.forward(defense::reduce_bit_width(x, 4), nn::Mode::Eval);
  };
  return core::accuracy(fn, images, labels);
}

/// Accuracy behind stochastic activation pruning [20] (attach, eval,
/// detach).
inline float sap_defense_accuracy(nn::Network& net,
                                  std::span<const Tensor> images,
                                  std::span<const std::int64_t> labels) {
  auto handle = defense::attach_sap(net, defense::SapOptions{});
  const float acc =
      core::accuracy(core::plain_forward(net), images, labels);
  net.set_conv_eval_hooks(nullptr);
  return acc;
}

/// Accuracy behind random resize + pad [25] (ImageNet-style defense).
inline float randpad_defense_accuracy(nn::Network& net,
                                      std::span<const Tensor> images,
                                      std::span<const std::int64_t> labels) {
  auto rng = std::make_shared<Rng>(171);
  core::ForwardFn fn = [&net, rng](const Tensor& x) {
    defense::RandomPadOptions opt;
    return net.forward(defense::random_resize_pad(x, opt, *rng),
                       nn::Mode::Eval);
  };
  return core::accuracy(fn, images, labels);
}

/// One defense column: the digital network's accuracy behind a defense.
struct Defense {
  std::string name;
  float (*accuracy)(nn::Network&, std::span<const Tensor>,
                    std::span<const std::int64_t>);
};

/// The paper's defense columns: 4-bit input on every task, then SAP on the
/// CIFAR tasks or Random Pad on the ImageNet one.
inline std::vector<Defense> paper_defenses(bool imagenet) {
  return {{"4bit_input", bw_defense_accuracy},
          imagenet ? Defense{"random_pad", randpad_defense_accuracy}
                   : Defense{"sap", sap_defense_accuracy}};
}

/// Prints a figure's x-axis (the paper epsilon of each crafted set, with
/// `eps_decimals` decimals), then one series over the sets per column: the
/// baseline and each model from one paired evaluation, then each defense.
inline void print_columns(core::PreparedTask& prepared,
                          const std::vector<NamedModel>& models,
                          const std::vector<float>& paper_eps,
                          int eps_decimals,
                          const std::vector<std::vector<Tensor>>& adv_sets,
                          std::span<const std::int64_t> labels,
                          bool imagenet) {
  std::printf("x-axis: paper eps/255");
  for (float eps : paper_eps)
    std::printf(", %.*f", eps_decimals, static_cast<double>(eps));
  std::printf("\n");
  const std::vector<core::TargetEval> evals = core::evaluate_targets(
      prepared, paper_targets(models), image_sets(adv_sets, labels));
  const auto series = [&](const std::string& name, const auto& accuracy) {
    std::vector<float> values;
    for (std::size_t s = 0; s < adv_sets.size(); ++s)
      values.push_back(accuracy(s));
    core::print_series(name, values);
  };
  series("baseline", [&](std::size_t s) { return evals[0].accuracy(s); });
  for (std::size_t m = 0; m < models.size(); ++m)
    series(models[m].name,
           [&](std::size_t s) { return evals[m + 1].accuracy(s); });
  for (const Defense& d : paper_defenses(imagenet))
    series(d.name, [&](std::size_t s) {
      return d.accuracy(prepared.network, adv_sets[s], labels);
    });
}

/// Run manifest for a bench binary: --metrics-out PATH on the command
/// line wins, NVM_METRICS_OUT next; inert when neither is set. Construct
/// it first thing in main() so metric baselines are taken before any work.
inline core::RunManifest bench_manifest(int argc, char** argv,
                                        const std::string& name) {
  std::string path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--metrics-out") == 0) path = argv[i + 1];
  return core::RunManifest::from_env(name, path);
}

/// Progress line helper for long crafting phases.
inline void progress(const std::string& what, double seconds) {
  std::printf("  [%s done in %.0fs]\n", what.c_str(), seconds);
  std::fflush(stdout);
}

/// Formats an epsilon in 1/255 units, annotated with the paper-equivalent
/// value given the task's eps_scale.
inline std::string eps_label(const core::Task& task, float paper_eps_255) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "eps=%.0f/255 (paper %.0f/255)",
                static_cast<double>(paper_eps_255 * task.eps_scale),
                static_cast<double>(paper_eps_255));
  return buf;
}

}  // namespace nvm::bench
