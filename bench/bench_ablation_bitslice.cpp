// Ablation: how the PUMA mapping knobs (weight slicing, input streaming,
// ADC resolution) and the deployment-time compensation options (gain trim,
// BN re-estimation) move the clean-accuracy / robustness trade-off on the
// most non-ideal crossbar (64x64_100k), SCIFAR10.
//
// DESIGN.md calls these out as the design choices behind the default
// configuration: w7/s3, i6/t3, 10-bit ADC, no compensation.
#include "attack/pgd.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace nvm;
  core::RunManifest manifest = bench::bench_manifest(argc, argv, "bench_ablation_bitslice");
  core::Task task = core::task_scifar10();
  core::PreparedTask prepared = core::prepare(task);
  const std::int64_t n_eval = env_int("NVMROBUST_ABL_N", scaled(32, 500));
  auto images = prepared.eval_images(n_eval);
  auto labels = prepared.eval_labels(n_eval);
  auto model = xbar::make_geniex("64x64_100k");

  // One white-box adversarial set (paper eps 2/255), crafted against the
  // digital network, shared by every configuration.
  attack::NetworkAttackModel attacker(prepared.network);
  std::vector<Tensor> adv = bench::pgd30(attacker, task, 2.0f, images, labels);

  struct Config {
    std::string name;
    puma::HwConfig hw;
  };
  std::vector<Config> configs;
  {
    Config c{"default (w7/s3 i6/t3 adc10)", {}};
    configs.push_back(c);
  }
  {
    Config c{"single weight slice (s6)", {}};
    c.hw.slice_bits = 6;  // 64-level devices; one slice
    configs.push_back(c);
  }
  {
    Config c{"single input stream (t6)", {}};
    c.hw.stream_bits = 6;
    configs.push_back(c);
  }
  {
    Config c{"coarse ADC (8-bit)", {}};
    c.hw.adc_bits = 8;
    configs.push_back(c);
  }
  {
    Config c{"fine ADC (12-bit)", {}};
    c.hw.adc_bits = 12;
    configs.push_back(c);
  }
  {
    Config c{"4-bit inputs (i4/t2)", {}};
    c.hw.input_bits = 4;
    c.hw.stream_bits = 2;
    configs.push_back(c);
  }
  {
    Config c{"+ gain trim", {}};
    c.hw.gain_trim = true;
    configs.push_back(c);
  }
  {
    Config c{"+ BN re-estimation", {}};
    c.hw.bn_reestimate = true;
    configs.push_back(c);
  }

  // The digital baseline, then every configuration, on the same images.
  std::vector<core::Target> targets{{}};
  for (const Config& config : configs) {
    // 64-level single-slice config needs a device with enough levels.
    auto cfg_model = model;
    if (config.hw.slice_bits > 4) {
      xbar::CrossbarConfig cfg = model->config();
      cfg.levels = std::int64_t{1} << config.hw.slice_bits;
      cfg_model = std::make_shared<xbar::GeniexModel>(cfg, model->mlp());
    }
    targets.push_back({cfg_model, config.hw});
  }
  trace::Span sw("bench/stage");
  const std::vector<core::ImageSet> sets{{images, labels}, {adv, labels}};
  const std::vector<core::TargetEval> evals =
      core::evaluate_targets(prepared, targets, sets);
  bench::progress("mapping configs", sw.seconds());

  const float base_clean = evals[0].accuracy(0);
  const float base_adv = evals[0].accuracy(1);
  core::TablePrinter table({"Mapping config", "Clean acc", "WB adv acc",
                            "Clean delta", "Robustness gain"});
  table.add_row({"digital baseline", core::fmt(base_clean),
                 core::fmt(base_adv), "-", "-"});
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const float clean = evals[c + 1].accuracy(0);
    const float adv_acc = evals[c + 1].accuracy(1);
    table.add_row({configs[c].name, core::fmt(clean), core::fmt(adv_acc),
                   core::fmt(clean - base_clean),
                   core::fmt(adv_acc - base_adv)});
  }
  table.print(
      "Ablation: PUMA mapping knobs on 64x64_100k, SCIFAR10 (WB PGD, paper "
      "eps 2/255)");
  return 0;
}
