#include "fleet/simulator.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "puma/cost_model.h"
#include "xbar/variation.h"

namespace nvm::fleet {

namespace {

/// Stream tag for per-epoch sampling draws (chip manufacture has its own
/// tag in fleet.cpp; the two never collide).
constexpr std::uint64_t kEpochStream = 0x5A3F1EE7ULL;

metrics::Gauge& alive_gauge() {
  static metrics::Gauge& g = metrics::gauge("fleet/chips_alive");
  return g;
}
metrics::Gauge& retired_gauge() {
  static metrics::Gauge& g = metrics::gauge("fleet/chips_retired");
  return g;
}
metrics::Counter& sampled_counter() {
  static metrics::Counter& c = metrics::counter("fleet/chips_sampled");
  return c;
}

/// Deterministic partial Fisher-Yates draw of `want` alive chip ids for
/// epoch `epoch`; depends only on (seed, epoch, alive set).
std::vector<std::int64_t> sample_alive(const std::vector<ChipInstance>& chips,
                                       const FleetOptions& opt,
                                       std::int64_t epoch) {
  std::vector<std::int64_t> alive;
  alive.reserve(chips.size());
  for (const ChipInstance& c : chips)
    if (!c.retired) alive.push_back(c.id);
  const auto n = static_cast<std::int64_t>(alive.size());
  const std::int64_t want =
      opt.sample_per_epoch <= 0 ? n : std::min(opt.sample_per_epoch, n);
  Rng er(derive_seed(derive_seed(opt.seed, kEpochStream),
                     static_cast<std::uint64_t>(epoch)));
  for (std::int64_t i = 0; i < want; ++i) {
    const std::int64_t j =
        i + static_cast<std::int64_t>(
                er.uniform_index(static_cast<std::uint64_t>(n - i)));
    std::swap(alive[static_cast<std::size_t>(i)],
              alive[static_cast<std::size_t>(j)]);
  }
  alive.resize(static_cast<std::size_t>(want));
  std::sort(alive.begin(), alive.end());
  return alive;
}

float mean_or_missing(double sum, std::int64_t n) {
  return n > 0 ? static_cast<float>(sum / static_cast<double>(n)) : -1.0f;
}

std::string fmt_missing(float v) {
  return v < 0.0f ? std::string("-") : core::fmt(v);
}

}  // namespace

FleetSimulator::FleetSimulator(
    core::PreparedTask& prepared,
    std::shared_ptr<const xbar::MvmModel> base_model, FleetOptions opt)
    : prepared_(prepared), base_(std::move(base_model)), opt_(opt) {
  NVM_CHECK(base_ != nullptr, "fleet simulation needs a base model");
  NVM_CHECK(opt_.n_chips >= 1 && opt_.epochs >= 1);
  NVM_CHECK(opt_.dt_s > 0.0, "epoch duration must be positive");
  NVM_CHECK(opt_.n_eval >= 1);
  NVM_CHECK(opt_.drift_nu_lo >= 0.0 && opt_.drift_nu_hi >= opt_.drift_nu_lo);
}

MaterializedChip FleetSimulator::materialize(const ChipInstance& chip,
                                             double fleet_time_s) const {
  xbar::FaultOptions fo;
  fo.stuck_on_rate = chip.stuck_on_rate;
  fo.stuck_off_rate = chip.stuck_off_rate;
  fo.dead_row_rate = chip.dead_row_rate;
  fo.dead_col_rate = chip.dead_col_rate;
  fo.drift_time = chip.age_s(fleet_time_s);
  fo.drift_nu = chip.drift_nu;
  fo.drift_t0 = chip.drift_t0;
  fo.chip_seed = chip.seed;
  auto faults = std::make_shared<xbar::FaultModel>(base_, fo);

  xbar::VariationOptions vo;
  vo.write_sigma = opt_.write_sigma;
  vo.process_sigma = opt_.process_sigma;
  vo.chip_seed = chip.seed;
  // Variation over fault keeps stuck cells stuck: the fault rewrite runs
  // last in the program() chain.
  MaterializedChip m;
  m.faults = faults;
  m.model = std::make_shared<xbar::VariationModel>(faults, vo);
  return m;
}

FleetResult FleetSimulator::run(const SchedulerConfig& sched_cfg,
                                const SlaConfig& sla_cfg) {
  NVM_TRACE_SPAN("fleet/run");

  FleetResult result;
  result.opt = opt_;
  result.scheduler = sched_cfg;
  result.sla = sla_cfg;

  // Manufacture the fleet. Pure per-id derivation: any chip could also be
  // reconstructed on demand without the vector; the handle vector is the
  // only O(n_chips) state in the whole simulation.
  std::vector<ChipInstance> chips;
  chips.reserve(static_cast<std::size_t>(opt_.n_chips));
  for (std::int64_t id = 0; id < opt_.n_chips; ++id)
    chips.push_back(make_chip(opt_, id));

  // Digital baselines + transfer adversarial sets, crafted once.
  const core::TransferSets transfer =
      core::craft_transfer_sets(prepared_, opt_);
  const std::vector<core::ImageSet> sets = transfer.sets();
  const core::TransferAccuracy digital = transfer.accuracy(
      core::evaluate_targets(prepared_, std::vector<core::Target>{{}}, sets)
          .front());
  result.digital_clean = digital.clean;
  result.digital_pgd = digital.pgd;
  result.digital_square = digital.square;

  // The scheduler's price list: one full re-programming of this network's
  // tile set on this crossbar geometry.
  const puma::ReprogramCost unit = puma::estimate_reprogram_cost(
      prepared_.network, transfer.clean.images[0], base_->config(), opt_.hw);
  result.unit_reprogram_energy_nj = unit.write_energy_nj;

  RecalibrationScheduler scheduler(sched_cfg, unit.write_energy_nj);
  SlaMonitor sla(sla_cfg);

  // Streaming telemetry over the fleet lifetime: the epoch index is the
  // tick, so the exported series reads as an aging trajectory.
  telemetry::track("fleet/chips_alive");
  telemetry::track("fleet/chips_retired");
  telemetry::track("fleet/chips_sampled");

  double fleet_time_s = 0.0;
  for (std::int64_t epoch = 0; epoch < opt_.epochs; ++epoch) {
    NVM_TRACE_SPAN("fleet/epoch");
    fleet_time_s += opt_.dt_s;

    EpochSummary summary;
    summary.epoch = epoch;
    summary.fleet_time_s = fleet_time_s;
    double age_sum = 0.0;
    for (const ChipInstance& c : chips) {
      if (c.retired) {
        ++summary.retired;
      } else {
        ++summary.alive;
        age_sum += c.age_s(fleet_time_s);
      }
    }
    summary.availability =
        static_cast<double>(summary.alive) /
        static_cast<double>(opt_.n_chips);
    summary.mean_age_s =
        summary.alive > 0 ? age_sum / static_cast<double>(summary.alive)
                          : 0.0;
    alive_gauge().set(static_cast<double>(summary.alive));
    retired_gauge().set(static_cast<double>(summary.retired));

    // Measure a deterministic sample of the alive population, each chip a
    // target of one paired evaluation on the same image sets.
    const std::vector<std::int64_t> sampled =
        sample_alive(chips, opt_, epoch);
    std::vector<MaterializedChip> materialized;
    std::vector<core::Target> targets;
    for (const std::int64_t id : sampled) {
      const ChipInstance& chip = chips[static_cast<std::size_t>(id)];
      materialized.push_back(materialize(chip, fleet_time_s));
      puma::HwConfig hw = opt_.hw;
      // The surrogate refit: a per-layer output gain least-squares fitted
      // on the aged silicon. Power-law drift is close to a uniform
      // conductance shrink, so this digital-side scalar recovers most of
      // it (BN re-estimation is deliberately NOT part of the refit:
      // re-estimated statistics from the small calibration set are noisy
      // enough to hurt).
      if (chip.refit) hw.gain_trim = true;
      targets.push_back({materialized.back().model, hw});
    }
    const std::vector<core::TargetEval> evals =
        core::evaluate_targets(prepared_, targets, sets);
    const auto& cfg = base_->config();
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      const ChipInstance& chip = chips[static_cast<std::size_t>(sampled[i])];
      const xbar::FaultMap& map = materialized[i].faults->map();
      const core::TransferAccuracy acc = transfer.accuracy(evals[i]);
      ChipEval eval;
      eval.chip_id = chip.id;
      eval.age_s = chip.age_s(fleet_time_s);
      eval.decay = chip.predicted_decay(fleet_time_s);
      eval.refit = chip.refit;
      eval.defect_fraction =
          static_cast<double>(map.stuck_on_cells + map.stuck_off_cells) /
          static_cast<double>(cfg.rows * cfg.cols);
      eval.clean = acc.clean;
      eval.pgd = acc.pgd;
      eval.square = acc.square;
      summary.chips.push_back(eval);
    }
    sampled_counter().add(sampled.size());

    double clean_sum = 0.0, pgd_sum = 0.0, square_sum = 0.0;
    std::int64_t pgd_n = 0, square_n = 0;
    for (const ChipEval& e : summary.chips) {
      clean_sum += e.clean;
      if (e.pgd >= 0.0f) {
        pgd_sum += e.pgd;
        ++pgd_n;
      }
      if (e.square >= 0.0f) {
        square_sum += e.square;
        ++square_n;
      }
    }
    summary.mean_clean = mean_or_missing(
        clean_sum, static_cast<std::int64_t>(summary.chips.size()));
    summary.mean_pgd = mean_or_missing(pgd_sum, pgd_n);
    summary.mean_square = mean_or_missing(square_sum, square_n);

    // Judge, then maintain: this epoch's numbers describe the fleet the
    // users saw, before the maintenance crew touched anything.
    const SlaReport sla_report = sla.observe(summary.chips);
    summary.sla_violations = sla_report.violations;

    const ActionSummary actions = scheduler.run_epoch(chips, fleet_time_s);
    summary.reprograms = actions.reprograms;
    summary.refits = actions.refits;
    summary.retirements = actions.retirements;
    summary.recal_energy_nj = actions.energy_nj;

    result.total_reprograms += actions.reprograms;
    result.total_refits += actions.refits;
    result.total_retirements += actions.retirements;
    result.total_sla_violations += sla_report.violations;
    result.epochs.push_back(std::move(summary));
    telemetry::sample_all(static_cast<std::uint64_t>(epoch));
  }

  // Lifetime aggregates + the accuracy-per-cost score the bench compares
  // policies on.
  double clean_sum = 0.0, pgd_sum = 0.0;
  std::int64_t clean_n = 0, pgd_n = 0;
  for (const EpochSummary& e : result.epochs) {
    if (e.mean_clean >= 0.0f) {
      clean_sum += e.mean_clean;
      ++clean_n;
    }
    if (e.mean_pgd >= 0.0f) {
      pgd_sum += e.mean_pgd;
      ++pgd_n;
    }
  }
  result.mean_clean = mean_or_missing(clean_sum, clean_n);
  result.mean_pgd = mean_or_missing(pgd_sum, pgd_n);
  result.total_recal_energy_nj = scheduler.total_energy_nj();
  const double fleet_unit = result.unit_reprogram_energy_nj *
                            static_cast<double>(opt_.n_chips);
  result.normalized_recal_cost =
      fleet_unit > 0.0 ? result.total_recal_energy_nj / fleet_unit : 0.0;
  result.maintenance_intensity =
      result.normalized_recal_cost / static_cast<double>(opt_.epochs);
  const double quality =
      result.mean_pgd >= 0.0f
          ? 0.5 * (static_cast<double>(result.mean_clean) +
                   static_cast<double>(result.mean_pgd))
          : static_cast<double>(result.mean_clean);
  result.score = quality / (1.0 + result.maintenance_intensity);
  return result;
}

void print_fleet_result(const core::Task& task, const std::string& model_name,
                        const FleetResult& result) {
  core::TablePrinter table({"epoch", "t(s)", "alive", "avail", "age(s)",
                            "clean %", "PGD %", "Square %", "viol", "reprog",
                            "refit", "retire"});
  for (const EpochSummary& e : result.epochs) {
    std::ostringstream age;
    age.precision(3);
    age << e.mean_age_s;
    std::ostringstream t;
    t.precision(4);
    t << e.fleet_time_s;
    table.add_row({std::to_string(e.epoch), t.str(), std::to_string(e.alive),
                   core::fmt(static_cast<float>(100.0 * e.availability)),
                   age.str(), fmt_missing(e.mean_clean),
                   fmt_missing(e.mean_pgd), fmt_missing(e.mean_square),
                   std::to_string(e.sla_violations),
                   std::to_string(e.reprograms), std::to_string(e.refits),
                   std::to_string(e.retirements)});
  }
  table.print(
      "Fleet lifetime: " + task.name + " on " + model_name + " (" +
      std::to_string(result.opt.n_chips) + " chips, policy=" +
      RecalibrationScheduler::policy_name(result.scheduler.policy) +
      ", seed=" + std::to_string(result.opt.seed) + ")");
  std::printf(
      "digital clean=%.2f%%%s | fleet mean clean=%.2f%%%s | "
      "recal energy=%.3g nJ (%.3g fleet units) | score=%.4f | "
      "SLA violations=%lld\n",
      result.digital_clean,
      result.digital_pgd >= 0.0f
          ? (" pgd=" + core::fmt(result.digital_pgd) + "%").c_str()
          : "",
      result.mean_clean,
      result.mean_pgd >= 0.0f
          ? (" pgd=" + core::fmt(result.mean_pgd) + "%").c_str()
          : "",
      result.total_recal_energy_nj, result.normalized_recal_cost,
      result.score,
      static_cast<long long>(result.total_sla_violations));
}

void emit_fleet_manifest(const FleetResult& result, core::RunManifest& man) {
  std::vector<double> clean, pgd, square, avail, age, viol, energy;
  for (const EpochSummary& e : result.epochs) {
    clean.push_back(e.mean_clean);
    pgd.push_back(e.mean_pgd);
    square.push_back(e.mean_square);
    avail.push_back(e.availability);
    age.push_back(e.mean_age_s);
    viol.push_back(static_cast<double>(e.sla_violations));
    energy.push_back(e.recal_energy_nj);
  }
  man.add_series("fleet/clean_acc", std::move(clean));
  if (result.mean_pgd >= 0.0f) man.add_series("fleet/pgd_acc", std::move(pgd));
  if (!result.epochs.empty() && result.epochs.front().mean_square >= 0.0f)
    man.add_series("fleet/square_acc", std::move(square));
  man.add_series("fleet/availability", std::move(avail));
  man.add_series("fleet/mean_age_s", std::move(age));
  man.add_series("fleet/sla_violations", std::move(viol));
  man.add_series("fleet/recal_energy_nj", std::move(energy));

  man.add_result("fleet/digital_clean", result.digital_clean);
  if (result.digital_pgd >= 0.0f)
    man.add_result("fleet/digital_pgd", result.digital_pgd);
  man.add_result("fleet/mean_clean", result.mean_clean);
  if (result.mean_pgd >= 0.0f)
    man.add_result("fleet/mean_pgd", result.mean_pgd);
  man.add_result("fleet/score", result.score);
  man.add_result("fleet/unit_reprogram_energy_nj",
                 result.unit_reprogram_energy_nj);
  man.add_result("fleet/total_recal_energy_nj", result.total_recal_energy_nj);
  man.add_result("fleet/normalized_recal_cost", result.normalized_recal_cost);
  man.add_result("fleet/maintenance_intensity", result.maintenance_intensity);
  man.add_result("fleet/total_reprograms",
                 static_cast<double>(result.total_reprograms));
  man.add_result("fleet/total_refits",
                 static_cast<double>(result.total_refits));
  man.add_result("fleet/total_retirements",
                 static_cast<double>(result.total_retirements));
  man.add_result("fleet/total_sla_violations",
                 static_cast<double>(result.total_sla_violations));
  // Everything needed to reconstruct this exact run.
  man.add_result("fleet/seed", static_cast<double>(result.opt.seed));
  man.add_result("fleet/n_chips", static_cast<double>(result.opt.n_chips));
  man.add_result("fleet/epochs", static_cast<double>(result.opt.epochs));
  man.add_result("fleet/dt_s", result.opt.dt_s);
  man.add_result("fleet/sample_per_epoch",
                 static_cast<double>(result.opt.sample_per_epoch));
  man.set_note("fleet/policy", RecalibrationScheduler::policy_name(
                                   result.scheduler.policy));
}

}  // namespace nvm::fleet
