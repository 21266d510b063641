// Device fault injection: fault-free identity, chip determinism, stuck-at
// rail semantics, line opens, retention drift, and decorator composition.
#include <gtest/gtest.h>

#include "common/check.h"

#include <cmath>

#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm::xbar {
namespace {

CrossbarConfig fault_cfg() {
  CrossbarConfig cfg = xbar_32x32_100k();
  cfg.rows = cfg.cols = 12;
  return cfg;
}

std::shared_ptr<const MvmModel> fast_base() {
  return std::make_shared<FastNoiseModel>(fault_cfg());
}

TEST(Fault, FaultFreeIsBitIdenticalToBase) {
  auto base = fast_base();
  FaultModel pristine(base, FaultOptions{});
  Rng rng(1);
  Tensor g = sample_conductances(fault_cfg(), rng);
  Tensor v = sample_voltages(fault_cfg(), rng);
  // Identity rewrite...
  EXPECT_EQ(max_abs_diff(pristine.apply_faults(g), g), 0.0f);
  // ...and identical currents through the whole programmed path.
  EXPECT_EQ(max_abs_diff(pristine.program(g)->mvm(v), base->program(g)->mvm(v)),
            0.0f);
}

TEST(Fault, DeterministicPerChipAndDiffersAcrossChips) {
  auto base = fast_base();
  FaultOptions opt;
  opt.stuck_on_rate = 0.1;
  opt.stuck_off_rate = 0.1;
  opt.chip_seed = 7;
  FaultModel chip7(base, opt);
  FaultModel chip7_again(base, opt);
  EXPECT_EQ(chip7.map().cell, chip7_again.map().cell);
  Rng rng(2);
  Tensor g = sample_conductances(fault_cfg(), rng);
  EXPECT_EQ(max_abs_diff(chip7.apply_faults(g), chip7_again.apply_faults(g)),
            0.0f);
  opt.chip_seed = 8;
  FaultModel chip8(base, opt);
  EXPECT_NE(chip7.map().cell, chip8.map().cell);
}

TEST(Fault, StuckCellsPinToRails) {
  const CrossbarConfig cfg = fault_cfg();
  auto base = fast_base();
  FaultOptions opt;
  opt.stuck_on_rate = 0.25;
  opt.stuck_off_rate = 0.25;
  FaultModel chip(base, opt);
  // With 144 cells at 25%+25%, both classes appear with near-certainty.
  EXPECT_GT(chip.map().stuck_on_cells, 0);
  EXPECT_GT(chip.map().stuck_off_cells, 0);

  Rng rng(3);
  Tensor g = sample_conductances(cfg, rng);
  Tensor out = chip.apply_faults(g);
  std::int64_t on_seen = 0, off_seen = 0;
  for (std::int64_t i = 0; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      const auto k = static_cast<std::size_t>(i * cfg.cols + j);
      switch (chip.map().cell[k]) {
        case CellFault::StuckOn:
          EXPECT_FLOAT_EQ(out.at(i, j), static_cast<float>(cfg.g_on()));
          ++on_seen;
          break;
        case CellFault::StuckOff:
          EXPECT_FLOAT_EQ(out.at(i, j), static_cast<float>(cfg.g_off()));
          ++off_seen;
          break;
        case CellFault::Healthy:
          EXPECT_FLOAT_EQ(out.at(i, j), g.at(i, j));
          break;
      }
    }
  EXPECT_EQ(on_seen, chip.map().stuck_on_cells);
  EXPECT_EQ(off_seen, chip.map().stuck_off_cells);
}

TEST(Fault, FaultSetGrowsMonotonicallyWithRate) {
  // A device that fails at 5% must still be failed at 20%: each device
  // compares one fixed per-position draw against the rate, so lowering
  // yield only adds faults, never "heals" one. (This is what makes rate
  // sweeps on one chip_seed meaningful.)
  auto base = fast_base();
  FaultOptions low, high;
  low.stuck_on_rate = 0.05;
  high.stuck_on_rate = 0.20;
  FaultModel chip_low(base, low);
  FaultModel chip_high(base, high);
  ASSERT_EQ(chip_low.map().cell.size(), chip_high.map().cell.size());
  for (std::size_t k = 0; k < chip_low.map().cell.size(); ++k)
    if (chip_low.map().cell[k] == CellFault::StuckOn) {
      EXPECT_EQ(chip_high.map().cell[k], CellFault::StuckOn) << "cell " << k;
    }
  EXPECT_GE(chip_high.map().stuck_on_cells, chip_low.map().stuck_on_cells);
}

TEST(Fault, DeadLinesDisconnectWholeRowsAndColumns) {
  const CrossbarConfig cfg = fault_cfg();
  auto base = fast_base();
  FaultOptions opt;
  opt.dead_row_rate = 0.5;
  opt.dead_col_rate = 0.5;
  FaultModel chip(base, opt);
  EXPECT_GT(chip.map().dead_rows, 0);
  EXPECT_GT(chip.map().dead_cols, 0);

  Rng rng(4);
  Tensor g = sample_conductances(cfg, rng);
  Tensor out = chip.apply_faults(g);
  const float g_off = static_cast<float>(cfg.g_off());
  for (std::int64_t i = 0; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < cfg.cols; ++j)
      if (chip.map().dead_row[static_cast<std::size_t>(i)] ||
          chip.map().dead_col[static_cast<std::size_t>(j)]) {
        EXPECT_FLOAT_EQ(out.at(i, j), g_off) << "(" << i << "," << j << ")";
      }
}

TEST(Fault, DriftDecaysMonotonicallyTowardGOff) {
  const CrossbarConfig cfg = fault_cfg();
  auto base = fast_base();
  auto drifted = [&](double t) {
    FaultOptions opt;
    opt.drift_time = t;
    return FaultModel(base, opt);
  };
  Rng rng(5);
  Tensor g = sample_conductances(cfg, rng);
  // t = 0 is the exact identity.
  EXPECT_EQ(max_abs_diff(drifted(0.0).apply_faults(g), g), 0.0f);
  Tensor g1 = drifted(1e3).apply_faults(g);
  Tensor g2 = drifted(1e6).apply_faults(g);
  const float g_off = static_cast<float>(cfg.g_off());
  for (std::int64_t i = 0; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      // Later snapshots sit closer to g_off, and never below it.
      EXPECT_LE(g2.at(i, j), g1.at(i, j) + 1e-12f);
      EXPECT_LE(g1.at(i, j), g.at(i, j) + 1e-12f);
      EXPECT_GE(g2.at(i, j), g_off * (1 - 1e-6f));
    }
  EXPECT_LT(g2.sum(), g.sum());
}

TEST(Fault, ProgramRoutesRewrittenMatrixThroughBase) {
  auto base = fast_base();
  FaultOptions opt;
  opt.stuck_off_rate = 0.2;
  opt.drift_time = 100.0;
  FaultModel chip(base, opt);
  Rng rng(6);
  Tensor g = sample_conductances(fault_cfg(), rng);
  Tensor v = sample_voltages(fault_cfg(), rng);
  Tensor via_model = chip.program(g)->mvm(v);
  Tensor manual = base->program(chip.apply_faults(g))->mvm(v);
  EXPECT_EQ(max_abs_diff(via_model, manual), 0.0f);
}

TEST(Fault, StuckCellsSurviveVariationOnTop) {
  // VariationModel over FaultModel: the fault rewrite runs *after* the
  // write-noise perturbation, so a stuck device stays at its rail no
  // matter what the programmer tried to write — matching real hardware,
  // where write-verify cannot fix a formed-short or open device.
  const CrossbarConfig cfg = fault_cfg();
  auto base = fast_base();
  FaultOptions fopt;
  fopt.stuck_on_rate = 0.15;
  fopt.stuck_off_rate = 0.15;
  auto faulty = std::make_shared<FaultModel>(base, fopt);
  VariationOptions vopt;
  vopt.write_sigma = 0.2;
  VariationModel noisy_faulty(faulty, vopt);

  Rng rng(7);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  // The composed program equals: perturb, then fault-rewrite, then base.
  VariationModel perturb_only(base, vopt);
  Tensor manual =
      base->program(faulty->apply_faults(perturb_only.perturb(g)))->mvm(v);
  EXPECT_EQ(max_abs_diff(noisy_faulty.program(g)->mvm(v), manual), 0.0f);
  // And the rewrite pins stuck cells regardless of the noise.
  Tensor rewritten = faulty->apply_faults(perturb_only.perturb(g));
  for (std::int64_t i = 0; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      const auto k = static_cast<std::size_t>(i * cfg.cols + j);
      if (faulty->map().cell[k] == CellFault::StuckOn) {
        EXPECT_FLOAT_EQ(rewritten.at(i, j), static_cast<float>(cfg.g_on()));
      }
    }
}

TEST(Fault, FaultsFlowThroughSolverBackend) {
  CrossbarConfig cfg = fault_cfg();
  cfg.rows = cfg.cols = 6;  // keep the nodal solve cheap
  auto solver = std::make_shared<CircuitSolverModel>(cfg);
  FaultOptions opt;
  opt.stuck_off_rate = 0.3;
  FaultModel chip(solver, opt);
  Rng rng(8);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor faulty_out = chip.program(g)->mvm(v);
  Tensor clean_out = solver->program(g)->mvm(v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_TRUE(std::isfinite(faulty_out[j]));
  // Killing 30% of the devices (toward g_off) must lose current.
  EXPECT_LT(faulty_out.sum(), clean_out.sum());
}

TEST(Fault, NameEncodesChipAndActiveFaultClasses) {
  auto base = fast_base();
  FaultOptions opt;
  opt.stuck_on_rate = 0.01;
  opt.drift_time = 10.0;
  opt.chip_seed = 3;
  const std::string n = FaultModel(base, opt).name();
  EXPECT_NE(n.find("fault"), std::string::npos);
  EXPECT_NE(n.find("chip3"), std::string::npos);
  EXPECT_NE(n.find("on0.01"), std::string::npos);
  EXPECT_EQ(n.find("off"), std::string::npos);  // inactive class omitted
}

TEST(Fault, RejectsUnphysicalOptions) {
  auto base = fast_base();
  FaultOptions over;
  over.stuck_on_rate = 0.7;
  over.stuck_off_rate = 0.5;  // partition exceeds 1
  EXPECT_THROW(FaultModel(base, over), CheckError);
  FaultOptions negative;
  negative.drift_time = -1.0;
  EXPECT_THROW(FaultModel(base, negative), CheckError);
  FaultOptions bad_row;
  bad_row.dead_row_rate = 1.5;
  EXPECT_THROW(FaultModel(base, bad_row), CheckError);
}

}  // namespace
}  // namespace nvm::xbar
