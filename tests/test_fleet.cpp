// Fleet-lifetime layer: chip manufacture, scheduler policy semantics,
// SLA judging, and end-to-end simulator determinism at toy scale; plus the
// paired target evaluation and the fault sweep on the same toy task.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "attack/attack_model.h"
#include "core/evaluator.h"
#include "core/fault_sweep.h"
#include "fleet/simulator.h"
#include "puma/hw_network.h"
#include "nn/resnet.h"
#include "nn/trainer.h"
#include "test_util.h"
#include "xbar/circuit_solver.h"
#include "xbar/config.h"
#include "xbar/fast_noise.h"

namespace nvm {
namespace {

using fleet::Action;
using fleet::ChipEval;
using fleet::ChipInstance;
using fleet::FleetOptions;
using fleet::PolicyKind;
using fleet::RecalibrationScheduler;
using fleet::SchedulerConfig;

// ---------------------------------------------------------------------------
// Chip manufacture

FleetOptions toy_fleet_options() {
  FleetOptions opt;
  opt.n_chips = 4;
  opt.epochs = 2;
  opt.sample_per_epoch = 0;  // whole fleet: exact, order-free aggregates
  opt.dt_s = 2.0;
  opt.seed = 99;
  opt.n_eval = 8;
  opt.dead_row_rate = 0.001;
  opt.dead_col_rate = 0.001;
  return opt;
}

TEST(FleetChip, MakeChipIsPureAndDeterministic) {
  const FleetOptions opt = toy_fleet_options();
  const ChipInstance a = fleet::make_chip(opt, 2);
  const ChipInstance b = fleet::make_chip(opt, 2);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.stuck_on_rate, b.stuck_on_rate);
  EXPECT_EQ(a.stuck_off_rate, b.stuck_off_rate);
  EXPECT_EQ(a.drift_nu, b.drift_nu);
  EXPECT_EQ(a.programmed_at_s, b.programmed_at_s);

  // Different die, different lottery.
  const ChipInstance c = fleet::make_chip(opt, 3);
  EXPECT_NE(a.seed, c.seed);

  // Per-id derivation: the same die exists regardless of fleet size.
  FleetOptions bigger = opt;
  bigger.n_chips = 64;
  const ChipInstance d = fleet::make_chip(bigger, 2);
  EXPECT_EQ(a.seed, d.seed);
  EXPECT_EQ(a.drift_nu, d.drift_nu);

  EXPECT_THROW(fleet::make_chip(opt, opt.n_chips), CheckError);
  EXPECT_THROW(fleet::make_chip(opt, -1), CheckError);
}

TEST(FleetChip, QualityFactorScalesAllRatesTogether) {
  FleetOptions opt = toy_fleet_options();
  opt.rate_log_sigma = 0.5;
  for (std::int64_t id = 0; id < opt.n_chips; ++id) {
    const ChipInstance chip = fleet::make_chip(opt, id);
    const double f = chip.stuck_on_rate / opt.stuck_on_rate;
    EXPECT_GT(f, 0.0);
    EXPECT_NEAR(chip.stuck_off_rate / opt.stuck_off_rate, f, 1e-12 * f);
    EXPECT_NEAR(chip.dead_row_rate / opt.dead_row_rate, f, 1e-12 * f);
    EXPECT_NEAR(chip.dead_col_rate / opt.dead_col_rate, f, 1e-12 * f);
    EXPECT_EQ(chip.expected_defect_fraction(),
              chip.stuck_on_rate + chip.stuck_off_rate + chip.dead_row_rate +
                  chip.dead_col_rate);
  }
}

TEST(FleetChip, DrawnParametersStayInConfiguredRanges) {
  FleetOptions opt = toy_fleet_options();
  opt.n_chips = 32;
  opt.initial_age_spread_s = 3.0;
  for (std::int64_t id = 0; id < opt.n_chips; ++id) {
    const ChipInstance chip = fleet::make_chip(opt, id);
    EXPECT_GE(chip.drift_nu, opt.drift_nu_lo);
    EXPECT_LE(chip.drift_nu, opt.drift_nu_hi);
    EXPECT_LE(chip.programmed_at_s, 0.0);
    EXPECT_GE(chip.programmed_at_s, -opt.initial_age_spread_s);
    EXPECT_LE(chip.stuck_on_rate, 0.25);
    EXPECT_LE(chip.dead_row_rate, 0.5);
  }
}

TEST(FleetChip, PredictedDecayFollowsPowerLaw) {
  ChipInstance chip;
  chip.drift_nu = 0.08;
  chip.drift_t0 = 1.0;
  chip.programmed_at_s = 0.0;
  EXPECT_DOUBLE_EQ(chip.predicted_decay(0.0), 1.0);
  EXPECT_DOUBLE_EQ(chip.predicted_decay(5.0), std::pow(6.0, -0.08));
  // age_s clamps to zero before the programming stamp.
  EXPECT_DOUBLE_EQ(chip.age_s(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(chip.predicted_decay(-1.0), 1.0);
  // Monotone non-increasing in time.
  double prev = 1.0;
  for (double t = 0.5; t < 20.0; t += 0.5) {
    const double d = chip.predicted_decay(t);
    EXPECT_LE(d, prev);
    prev = d;
  }
  // nu == 0 never decays.
  chip.drift_nu = 0.0;
  EXPECT_DOUBLE_EQ(chip.predicted_decay(100.0), 1.0);
}

// ---------------------------------------------------------------------------
// Scheduler

/// A chip aged to hit a chosen predicted decay: decay = (1+age)^-nu.
ChipInstance chip_with_decay(double decay, double at_time_s) {
  ChipInstance chip;
  chip.drift_nu = 0.1;
  chip.drift_t0 = 1.0;
  const double age = std::pow(decay, -1.0 / chip.drift_nu) - 1.0;
  chip.programmed_at_s = at_time_s - age;
  return chip;
}

TEST(Scheduler, ThresholdDecisionRules) {
  SchedulerConfig cfg;  // refit < 0.92, reprogram < 0.60, retire >= 0.05
  RecalibrationScheduler sched(cfg, 100.0);
  const double t = 50.0;

  ChipInstance fresh = chip_with_decay(0.99, t);
  EXPECT_EQ(sched.decide(fresh, t), Action::None);

  ChipInstance drifting = chip_with_decay(0.80, t);
  EXPECT_EQ(sched.decide(drifting, t), Action::Refit);

  ChipInstance gone = chip_with_decay(0.40, t);
  EXPECT_EQ(sched.decide(gone, t), Action::Reprogram);

  ChipInstance hopeless = chip_with_decay(0.99, t);
  hopeless.stuck_off_rate = 0.06;  // past retire_defect_fraction
  EXPECT_EQ(sched.decide(hopeless, t), Action::Retire);

  ChipInstance retired = chip_with_decay(0.40, t);
  retired.retired = true;
  EXPECT_EQ(sched.decide(retired, t), Action::None);
}

TEST(Scheduler, RefitIsAPerEpochSubscription) {
  metrics::reset_all_for_tests();
  SchedulerConfig cfg;
  cfg.policy = PolicyKind::Threshold;
  const double unit = 100.0;
  RecalibrationScheduler sched(cfg, unit);

  std::vector<ChipInstance> chips = {chip_with_decay(0.80, 10.0)};
  const fleet::ActionSummary first = sched.run_epoch(chips, 10.0);
  EXPECT_EQ(first.refits, 1);
  EXPECT_TRUE(chips[0].refit);
  EXPECT_EQ(chips[0].refits, 1);
  EXPECT_DOUBLE_EQ(first.energy_nj, cfg.refit_cost_fraction * unit);

  // Still in the refit band next epoch: the subscription renews and is
  // charged again.
  const fleet::ActionSummary second = sched.run_epoch(chips, 11.0);
  EXPECT_EQ(second.refits, 1);
  EXPECT_TRUE(chips[0].refit);
  EXPECT_EQ(chips[0].refits, 2);
  EXPECT_DOUBLE_EQ(sched.total_energy_nj(),
                   2.0 * cfg.refit_cost_fraction * unit);
  EXPECT_EQ(metrics::counter("fleet/refits").value(), 2u);

  // A manually set flag on a chip the policy would not refit is cleared:
  // nobody rides the subscription for free.
  std::vector<ChipInstance> fresh = {chip_with_decay(0.99, 10.0)};
  fresh[0].refit = true;
  const fleet::ActionSummary none = sched.run_epoch(fresh, 10.0);
  EXPECT_EQ(none.refits, 0);
  EXPECT_FALSE(fresh[0].refit);
}

TEST(Scheduler, ReprogramResetsDriftClockAndSupersedesRefit) {
  SchedulerConfig cfg;
  cfg.policy = PolicyKind::Threshold;
  RecalibrationScheduler sched(cfg, 100.0);
  std::vector<ChipInstance> chips = {chip_with_decay(0.40, 20.0)};
  chips[0].refit = true;

  const fleet::ActionSummary s = sched.run_epoch(chips, 20.0);
  EXPECT_EQ(s.reprograms, 1);
  EXPECT_EQ(s.refits, 0);
  EXPECT_DOUBLE_EQ(s.energy_nj, 100.0);
  EXPECT_DOUBLE_EQ(chips[0].programmed_at_s, 20.0);
  EXPECT_FALSE(chips[0].refit);
  EXPECT_DOUBLE_EQ(chips[0].predicted_decay(20.0), 1.0);
  EXPECT_EQ(sched.decide(chips[0], 20.0), Action::None);
}

TEST(Scheduler, BudgetedGreedyActsWorstFirstWithinBudget) {
  SchedulerConfig cfg;
  cfg.policy = PolicyKind::BudgetedGreedy;
  cfg.budget_actions_per_epoch = 2;
  RecalibrationScheduler sched(cfg, 100.0);
  const double t = 30.0;

  // Four actionable chips, distinct decays; only the two worst get the
  // budget. A hopeless die retires without consuming any of it.
  std::vector<ChipInstance> chips = {
      chip_with_decay(0.85, t),  // refit band
      chip_with_decay(0.50, t),  // reprogram band (worst actionable)
      chip_with_decay(0.88, t),  // refit band, healthier than chip 0
      chip_with_decay(0.70, t),  // refit band, second-worst
      chip_with_decay(0.95, t),  // hopeless spec sheet
  };
  for (std::size_t i = 0; i < chips.size(); ++i)
    chips[i].id = static_cast<std::int64_t>(i);
  chips[4].stuck_on_rate = 0.2;

  const fleet::ActionSummary s = sched.run_epoch(chips, t);
  EXPECT_EQ(s.retirements, 1);
  EXPECT_TRUE(chips[4].retired);
  EXPECT_EQ(s.reprograms + s.refits, 2);
  EXPECT_EQ(chips[1].reprograms, 1);   // worst: reprogrammed
  EXPECT_TRUE(chips[3].refit);         // second-worst: refitted
  EXPECT_FALSE(chips[0].refit);        // out of budget
  EXPECT_FALSE(chips[2].refit);
  EXPECT_EQ(chips[0].reprograms + chips[0].refits, 0);
}

TEST(Scheduler, AlwaysReprogramsEveryAliveChip) {
  SchedulerConfig cfg;
  cfg.policy = PolicyKind::Always;
  RecalibrationScheduler sched(cfg, 10.0);
  std::vector<ChipInstance> chips = {chip_with_decay(0.99, 5.0),
                                     chip_with_decay(0.50, 5.0),
                                     chip_with_decay(0.99, 5.0)};
  chips[2].retired = true;
  const fleet::ActionSummary s = sched.run_epoch(chips, 5.0);
  EXPECT_EQ(s.reprograms, 2);
  EXPECT_DOUBLE_EQ(s.energy_nj, 20.0);
  EXPECT_DOUBLE_EQ(chips[0].programmed_at_s, 5.0);
  EXPECT_DOUBLE_EQ(chips[1].programmed_at_s, 5.0);
  EXPECT_NE(chips[2].programmed_at_s, 5.0);
}

TEST(Scheduler, ValidatesThresholdOrderAndPolicyNames) {
  SchedulerConfig bad;
  bad.refit_decay_threshold = 0.5;
  bad.reprogram_decay_threshold = 0.6;
  EXPECT_THROW(RecalibrationScheduler(bad, 1.0), CheckError);

  for (const PolicyKind k :
       {PolicyKind::Never, PolicyKind::Always, PolicyKind::Threshold,
        PolicyKind::BudgetedGreedy}) {
    EXPECT_EQ(RecalibrationScheduler::parse_policy(
                  RecalibrationScheduler::policy_name(k)),
              k);
  }
  EXPECT_EQ(RecalibrationScheduler::parse_policy("budgeted_greedy"),
            PolicyKind::BudgetedGreedy);
  EXPECT_THROW(RecalibrationScheduler::parse_policy("sometimes"), CheckError);
}

// ---------------------------------------------------------------------------
// SLA monitor

ChipEval eval_at(double age_s, float clean, float pgd = -1.0f) {
  ChipEval e;
  e.age_s = age_s;
  e.clean = clean;
  e.pgd = pgd;
  return e;
}

TEST(Sla, JudgesCohortFloorsAndAvailability) {
  metrics::reset_all_for_tests();
  metrics::gauge("fleet/chips_alive").set(8.0);
  metrics::gauge("fleet/chips_retired").set(2.0);

  fleet::SlaConfig cfg;
  cfg.min_clean_acc = 50.0;
  cfg.min_availability = 0.9;  // 8/10 = 0.8 violates
  cfg.cohort_age_s = 2.0;
  cfg.min_cohort_samples = 2;
  fleet::SlaMonitor sla(cfg);

  // Young cohort healthy; old cohort below the floor; a third cohort has
  // one sample and must be reported but not judged.
  const std::vector<ChipEval> sampled = {
      eval_at(0.5, 80.0f), eval_at(1.0, 90.0f),   // age[0,2s): ok
      eval_at(3.0, 40.0f), eval_at(3.5, 30.0f),   // age[2,4s): violated
      eval_at(9.0, 10.0f),                        // age[8,10s): unjudged
  };
  const fleet::SlaReport report = sla.observe(sampled);

  EXPECT_DOUBLE_EQ(report.availability, 0.8);
  EXPECT_FALSE(report.availability_ok);
  ASSERT_EQ(report.cohorts.size(), 3u);
  EXPECT_TRUE(report.cohorts[0].judged);
  EXPECT_FALSE(report.cohorts[0].violated);
  EXPECT_TRUE(report.cohorts[1].judged);
  EXPECT_TRUE(report.cohorts[1].violated);
  EXPECT_FLOAT_EQ(report.cohorts[1].clean, 35.0f);
  EXPECT_FALSE(report.cohorts[2].judged);
  EXPECT_FALSE(report.cohorts[2].violated);
  EXPECT_EQ(report.violations, 2);  // availability + old cohort
  EXPECT_EQ(sla.total_violations(), 2);
  EXPECT_EQ(metrics::counter("fleet/sla_violations").value(), 2u);
}

TEST(Sla, AdversarialFloorOnlyFiresWhenMeasured) {
  metrics::reset_all_for_tests();
  metrics::gauge("fleet/chips_alive").set(4.0);
  metrics::gauge("fleet/chips_retired").set(0.0);

  fleet::SlaConfig cfg;
  cfg.min_clean_acc = 10.0;
  cfg.min_adv_acc = 25.0;
  fleet::SlaMonitor sla(cfg);

  // PGD not measured: the adversarial floor must stay silent.
  const std::vector<ChipEval> unmeasured = {eval_at(1.0, 80.0f),
                                            eval_at(1.0, 85.0f)};
  EXPECT_EQ(sla.observe(unmeasured).violations, 0);

  // Measured and below the floor: one violation.
  const std::vector<ChipEval> weak = {eval_at(1.0, 80.0f, 10.0f),
                                      eval_at(1.0, 85.0f, 12.0f)};
  EXPECT_EQ(sla.observe(weak).violations, 1);
}

// ---------------------------------------------------------------------------
// End-to-end simulator (toy task, tiny crossbar)

/// Trains the shared toy task once per binary; the fleet simulator treats
/// it exactly like a prepared paper task.
core::PreparedTask& prepared() {
  static core::PreparedTask* p = [] {
    auto* pt = new core::PreparedTask{core::task_scifar10(),
                                      {},
                                      [] {
                                        Rng r(32);
                                        nn::ResnetCifarSpec spec;
                                        spec.blocks_per_stage = 1;
                                        spec.widths = {4, 8, 8};
                                        spec.num_classes = 2;
                                        return nn::make_resnet_cifar(spec, r);
                                      }()};
    pt->task.name = "FLEET_TOY";
    // clone_network rebuilds from the task's recipe; it must match the
    // toy network, not SCIFAR10's ResNet-20.
    pt->task.make_network = [](Rng& r) {
      nn::ResnetCifarSpec spec;
      spec.blocks_per_stage = 1;
      spec.widths = {4, 8, 8};
      spec.num_classes = 2;
      return nn::make_resnet_cifar(spec, r);
    };
    Rng rng(31);
    testutil::make_orientation_toy(pt->dataset.train_images,
                                   pt->dataset.train_labels, 48, rng);
    testutil::make_orientation_toy(pt->dataset.test_images,
                                   pt->dataset.test_labels, 32, rng);
    nn::train(pt->network, pt->dataset.train_images, pt->dataset.train_labels,
              testutil::toy_train_config());
    return pt;
  }();
  return *p;
}

std::shared_ptr<xbar::FastNoiseModel> toy_base_model() {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_fleet";
  return std::make_shared<xbar::FastNoiseModel>(cfg);
}

fleet::FleetResult run_toy_fleet(FleetOptions opt, PolicyKind policy) {
  fleet::SchedulerConfig sched;
  sched.policy = policy;
  fleet::FleetSimulator sim(prepared(), toy_base_model(), opt);
  return sim.run(sched, fleet::SlaConfig{});
}

void expect_same_result(const fleet::FleetResult& a,
                        const fleet::FleetResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.digital_clean, b.digital_clean);
  EXPECT_EQ(a.digital_pgd, b.digital_pgd);
  EXPECT_EQ(a.digital_square, b.digital_square);
  EXPECT_EQ(a.mean_clean, b.mean_clean);
  EXPECT_EQ(a.mean_pgd, b.mean_pgd);
  EXPECT_EQ(a.score, b.score);
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].mean_clean, b.epochs[e].mean_clean);
    EXPECT_EQ(a.epochs[e].mean_square, b.epochs[e].mean_square);
    ASSERT_EQ(a.epochs[e].chips.size(), b.epochs[e].chips.size());
    for (std::size_t i = 0; i < a.epochs[e].chips.size(); ++i) {
      EXPECT_EQ(a.epochs[e].chips[i].chip_id, b.epochs[e].chips[i].chip_id);
      EXPECT_EQ(a.epochs[e].chips[i].clean, b.epochs[e].chips[i].clean);
      EXPECT_EQ(a.epochs[e].chips[i].pgd, b.epochs[e].chips[i].pgd);
      EXPECT_EQ(a.epochs[e].chips[i].square, b.epochs[e].chips[i].square);
      EXPECT_EQ(a.epochs[e].chips[i].defect_fraction,
                b.epochs[e].chips[i].defect_fraction);
    }
  }
}

TEST(FleetSim, DeterministicAcrossThreads) {
  FleetOptions opt = toy_fleet_options();
  opt.run_pgd = true;
  opt.pgd_iters = 3;
  opt.run_square = true;
  opt.square_queries = 20;

  fleet::FleetResult serial_run = [&] {
    ThreadPool serial(1);
    ThreadPool::ScopedUse use(serial);
    return run_toy_fleet(opt, PolicyKind::Threshold);
  }();
  fleet::FleetResult wide_run = [&] {
    ThreadPool wide(3);
    ThreadPool::ScopedUse use(wide);
    return run_toy_fleet(opt, PolicyKind::Threshold);
  }();
  EXPECT_GE(serial_run.digital_pgd, 0.0f);
  EXPECT_GE(serial_run.digital_square, 0.0f);
  expect_same_result(serial_run, wide_run);
}

TEST(FleetSim, SeedChangesThePopulation) {
  const FleetOptions opt = toy_fleet_options();
  FleetOptions other = opt;
  other.seed = opt.seed + 1;
  const fleet::FleetResult a = run_toy_fleet(opt, PolicyKind::Never);
  const fleet::FleetResult b = run_toy_fleet(opt, PolicyKind::Never);
  const fleet::FleetResult c = run_toy_fleet(other, PolicyKind::Never);
  expect_same_result(a, b);
  // Different seed -> different silicon lottery for at least one die.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.epochs[0].chips.size(); ++i)
    any_diff |= a.epochs[0].chips[i].defect_fraction !=
                c.epochs[0].chips[i].defect_fraction;
  EXPECT_TRUE(any_diff);
}

TEST(FleetSim, AlwaysPolicyKeepsTheFleetYoungAtIntensityOne) {
  FleetOptions opt = toy_fleet_options();
  opt.epochs = 3;
  const fleet::FleetResult r = run_toy_fleet(opt, PolicyKind::Always);
  // Ages are measured before that epoch's maintenance: every epoch sees
  // exactly dt of drift since the previous reprogram.
  for (const fleet::EpochSummary& e : r.epochs)
    EXPECT_DOUBLE_EQ(e.mean_age_s, opt.dt_s);
  EXPECT_EQ(r.total_reprograms, opt.n_chips * opt.epochs);
  // Re-programming the whole fleet every epoch IS the unit of maintenance
  // intensity.
  EXPECT_DOUBLE_EQ(r.maintenance_intensity, 1.0);
}

TEST(FleetSim, NeverPolicyAgesMonotonicallyForFree) {
  FleetOptions opt = toy_fleet_options();
  opt.epochs = 3;
  const fleet::FleetResult r = run_toy_fleet(opt, PolicyKind::Never);
  EXPECT_EQ(r.total_reprograms, 0);
  EXPECT_EQ(r.total_refits, 0);
  EXPECT_DOUBLE_EQ(r.total_recal_energy_nj, 0.0);
  EXPECT_DOUBLE_EQ(r.maintenance_intensity, 0.0);
  for (std::size_t e = 1; e < r.epochs.size(); ++e)
    EXPECT_GT(r.epochs[e].mean_age_s, r.epochs[e - 1].mean_age_s);
  // Score formula: with PGD off, quality is just mean clean.
  EXPECT_DOUBLE_EQ(r.score, static_cast<double>(r.mean_clean));
}

TEST(FleetSim, ScoreDividesQualityByMaintenanceIntensity) {
  const fleet::FleetResult r =
      run_toy_fleet(toy_fleet_options(), PolicyKind::Always);
  EXPECT_DOUBLE_EQ(
      r.score, static_cast<double>(r.mean_clean) /
                   (1.0 + r.maintenance_intensity));
}

TEST(FleetSim, MaterializedZeroRateChipHasNoDefects) {
  FleetOptions opt = toy_fleet_options();
  opt.stuck_on_rate = opt.stuck_off_rate = 0.0;
  opt.dead_row_rate = opt.dead_col_rate = 0.0;
  fleet::FleetSimulator sim(prepared(), toy_base_model(), opt);
  const ChipInstance chip = fleet::make_chip(opt, 0);
  const fleet::MaterializedChip m = sim.materialize(chip, 4.0);
  const xbar::FaultMap& map = m.faults->map();
  EXPECT_EQ(map.stuck_on_cells, 0);
  EXPECT_EQ(map.stuck_off_cells, 0);
  EXPECT_EQ(map.dead_rows, 0);
  EXPECT_EQ(map.dead_cols, 0);
  // The deployed model is the variation wrapper over the fault layer.
  EXPECT_NE(m.model, nullptr);
  EXPECT_NE(m.model.get(),
            static_cast<const xbar::MvmModel*>(m.faults.get()));
}

TEST(FleetSim, MaterializationIsAPureFunctionOfChipAndTime) {
  const FleetOptions opt = toy_fleet_options();
  fleet::FleetSimulator sim(prepared(), toy_base_model(), opt);
  const ChipInstance chip = fleet::make_chip(opt, 1);
  const fleet::MaterializedChip a = sim.materialize(chip, 6.0);
  const fleet::MaterializedChip b = sim.materialize(chip, 6.0);
  const xbar::FaultMap& ma = a.faults->map();
  const xbar::FaultMap& mb = b.faults->map();
  EXPECT_EQ(ma.stuck_on_cells, mb.stuck_on_cells);
  EXPECT_EQ(ma.stuck_off_cells, mb.stuck_off_cells);
  ASSERT_EQ(ma.cell.size(), mb.cell.size());
  for (std::size_t i = 0; i < ma.cell.size(); ++i)
    EXPECT_EQ(ma.cell[i], mb.cell[i]);
}

// ---------------------------------------------------------------------------
// Paired target evaluation (toy task, tiny crossbar)

void expect_same_health(const HealthSnapshot& a, const HealthSnapshot& b) {
  EXPECT_EQ(a.solver_nonconverged, b.solver_nonconverged);
  EXPECT_EQ(a.nonfinite_outputs, b.nonfinite_outputs);
  EXPECT_EQ(a.surrogate_fallbacks, b.surrogate_fallbacks);
  EXPECT_EQ(a.cache_corrupt, b.cache_corrupt);
}

/// The digital network, plain fast noise, a faulty die, and two deployment
/// options that calibrate on the crossbar itself.
std::vector<core::Target> toy_targets() {
  const auto base = toy_base_model();
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.1;
  fo.stuck_off_rate = 0.1;
  fo.chip_seed = 5;
  puma::HwConfig trim, bn;
  trim.gain_trim = true;
  bn.bn_reestimate = true;
  return {{},
          {base, {}},
          {std::make_shared<xbar::FaultModel>(base, fo), {}},
          {base, trim},
          {base, bn}};
}

/// PGD images crafted against the digital network: near the decision
/// boundary, where the targets disagree.
const std::vector<Tensor>& toy_adv() {
  static const std::vector<Tensor> adv = [] {
    core::PreparedTask& p = prepared();
    attack::NetworkAttackModel attacker(p.network);
    attack::PgdOptions pgd;
    pgd.epsilon = 0.05f;
    pgd.iters = 5;
    return core::craft_pgd(attacker, p.eval_images(12), p.eval_labels(12),
                           pgd);
  }();
  return adv;
}

/// Two overlapping sets of test images (so one image sits in both) and
/// the adversarial set.
std::vector<core::ImageSet> toy_sets(const core::PreparedTask& p) {
  const std::span<const Tensor> x = p.dataset.test_images;
  const std::span<const std::int64_t> y = p.dataset.test_labels;
  return {{x.subspan(0, 8), y.subspan(0, 8)},
          {x.subspan(4, 11), y.subspan(4, 11)},
          {toy_adv(), y.subspan(0, 12)}};
}

std::vector<core::TargetEval> evaluate_toy_at(std::size_t threads) {
  ThreadPool pool(threads);
  ThreadPool::ScopedUse use(pool);
  return core::evaluate_targets(prepared(), toy_targets(),
                                toy_sets(prepared()));
}

TEST(EvaluateTargets, BitsMatchFreshDeploymentPerImageArgmax) {
  core::PreparedTask& p = prepared();
  const std::vector<core::Target> targets = toy_targets();
  const std::vector<core::ImageSet> sets = toy_sets(p);
  const std::vector<core::TargetEval> evals = evaluate_toy_at(3);
  ASSERT_EQ(evals.size(), targets.size());

  const auto calib = p.calibration_images();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    std::unique_ptr<puma::HwDeployment> dep;
    if (targets[t].model != nullptr)
      dep = std::make_unique<puma::HwDeployment>(
          p.network, targets[t].model, std::span<const Tensor>(calib),
          targets[t].hw);
    ASSERT_EQ(evals[t].correct.size(), sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s) {
      ASSERT_EQ(evals[t].correct[s].size(), sets[s].images.size());
      for (std::size_t i = 0; i < sets[s].images.size(); ++i) {
        const bool hit =
            p.network.forward(sets[s].images[i], nn::Mode::Eval).argmax() ==
            sets[s].labels[i];
        EXPECT_EQ(evals[t].correct[s][i], hit ? 1 : 0)
            << "target " << t << " set " << s << " image " << i;
      }
      EXPECT_EQ(evals[t].accuracy(s),
                core::accuracy(core::plain_forward(p.network), sets[s].images,
                               sets[s].labels));
    }
  }
}

TEST(EvaluateTargets, IdenticalAtOneAndThreeThreads) {
  const std::vector<core::TargetEval> serial = evaluate_toy_at(1);
  const std::vector<core::TargetEval> wide = evaluate_toy_at(3);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t].correct, wide[t].correct) << "target " << t;
    expect_same_health(serial[t].health, wide[t].health);
  }
}

TEST(EvaluateTargets, HealthCountsOneDeploymentAtAnyThreadCount) {
  // A circuit solver cut off after one sweep: every solve, the gain-trim
  // calibration's included, counts as non-converged.
  xbar::SolverOptions one_sweep;
  one_sweep.max_sweeps = 1;
  puma::HwConfig trim;
  trim.gain_trim = true;
  const std::vector<core::Target> solver = {
      {std::make_shared<xbar::CircuitSolverModel>(toy_base_model()->config(),
                                                  one_sweep),
       trim}};
  const core::PreparedTask& p = prepared();
  const std::vector<core::ImageSet> two = {
      {std::span<const Tensor>(p.dataset.test_images).first(2),
       std::span<const std::int64_t>(p.dataset.test_labels).first(2)}};
  const auto evaluate_at = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    return core::evaluate_targets(p, solver, two)[0];
  };
  const core::TargetEval serial = evaluate_at(1);
  const core::TargetEval wide = evaluate_at(3);  // two replicas
  EXPECT_GT(serial.health.solver_nonconverged, 0u);
  EXPECT_EQ(serial.correct, wide.correct);
  expect_same_health(serial.health, wide.health);
}

TEST(EvaluateTargets, LeavesThePreparedNetworkUntouched) {
  core::PreparedTask& p = prepared();
  const Tensor& probe = p.dataset.test_images[3];
  const Tensor before = p.network.forward(probe, nn::Mode::Eval);
  (void)evaluate_toy_at(3);
  const Tensor after = p.network.forward(probe, nn::Mode::Eval);
  ASSERT_EQ(before.numel(), after.numel());
  for (std::int64_t i = 0; i < before.numel(); ++i)
    EXPECT_EQ(before.data()[static_cast<std::size_t>(i)],
              after.data()[static_cast<std::size_t>(i)]);
}

TEST(EvaluateTargets, DeploysATargetOnceHoweverManySets) {
  core::PreparedTask& p = prepared();
  const std::vector<core::Target> one_target = {{toy_base_model(), {}}};
  const std::vector<core::ImageSet> sets = toy_sets(p);
  metrics::Counter& programmed =
      metrics::counter("puma/tiled/tiles_programmed");
  ThreadPool pool(3);
  ThreadPool::ScopedUse use(pool);
  const auto programmed_by = [&](std::span<const core::ImageSet> s) {
    const std::uint64_t start = programmed.value();
    (void)core::evaluate_targets(p, one_target, s);
    return programmed.value() - start;
  };
  const std::uint64_t one_set = programmed_by({sets.data(), 1});
  const std::vector<core::ImageSet> three = {sets[0], sets[1], sets[0]};
  EXPECT_GT(one_set, 0u);
  EXPECT_EQ(programmed_by(three), one_set);
}

// ---------------------------------------------------------------------------
// Fault sweep (toy task, tiny crossbar)

TEST(FaultSweep, RowsMatchFreshDeploymentsAtAnyThreadCount) {
  core::PreparedTask& p = prepared();
  const auto base = toy_base_model();
  core::FaultSweepOptions opt;
  opt.stuck_rates = {0.0, 0.05};
  opt.n_eval = 8;
  opt.run_pgd = true;
  opt.pgd_iters = 3;
  opt.run_square = true;
  opt.square_queries = 20;

  const auto sweep_at = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::ScopedUse use(pool);
    return core::run_fault_sweep(p, base, opt);
  };
  const core::FaultSweepResult serial = sweep_at(1);
  const core::FaultSweepResult wide = sweep_at(3);

  // The transfer sets, crafted serially against the digital network.
  const auto images = p.eval_images(opt.n_eval);
  const auto labels = p.eval_labels(opt.n_eval);
  attack::NetworkAttackModel attacker(p.network);
  attack::PgdOptions pgd;
  pgd.epsilon = p.task.scaled_eps(opt.pgd_eps_255);
  pgd.iters = opt.pgd_iters;
  const std::vector<Tensor> adv_pgd =
      core::craft_pgd(attacker, images, labels, pgd);
  attack::SquareOptions sq;
  sq.epsilon = p.task.scaled_eps(opt.pgd_eps_255);
  sq.max_queries = opt.square_queries;
  const std::vector<Tensor> adv_square =
      core::craft_square(attacker, images, labels, sq);

  const auto fn = core::plain_forward(p.network);
  EXPECT_EQ(serial.digital_clean, core::accuracy(fn, images, labels));
  EXPECT_EQ(serial.digital_pgd,
            core::accuracy(fn, std::span<const Tensor>(adv_pgd), labels));
  EXPECT_EQ(serial.digital_square,
            core::accuracy(fn, std::span<const Tensor>(adv_square), labels));
  const auto calib = p.calibration_images();
  ASSERT_EQ(serial.rows.size(), 2u);
  for (const core::FaultSweepRow& row : serial.rows) {
    puma::HwDeployment dep(
        p.network, std::make_shared<xbar::FaultModel>(base, row.fault),
        std::span<const Tensor>(calib));
    EXPECT_EQ(row.clean, core::accuracy(fn, images, labels));
    EXPECT_EQ(row.pgd,
              core::accuracy(fn, std::span<const Tensor>(adv_pgd), labels));
    EXPECT_EQ(row.square, core::accuracy(
                              fn, std::span<const Tensor>(adv_square), labels));
  }

  EXPECT_EQ(serial.digital_clean, wide.digital_clean);
  EXPECT_EQ(serial.digital_pgd, wide.digital_pgd);
  EXPECT_EQ(serial.digital_square, wide.digital_square);
  ASSERT_EQ(serial.rows.size(), wide.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const core::FaultSweepRow& a = serial.rows[i];
    const core::FaultSweepRow& b = wide.rows[i];
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.pgd, b.pgd);
    EXPECT_EQ(a.square, b.square);
    EXPECT_EQ(a.stuck_on_cells, b.stuck_on_cells);
    EXPECT_EQ(a.stuck_off_cells, b.stuck_off_cells);
    EXPECT_EQ(a.dead_rows, b.dead_rows);
    EXPECT_EQ(a.dead_cols, b.dead_cols);
    expect_same_health(a.health, b.health);
  }
  expect_same_health(serial.total, wide.total);
}

}  // namespace
}  // namespace nvm
