// Circuit-solver validation: analytic single-cell case, dense
// Gaussian-elimination reference for small arrays, parasitic limits, and
// physical monotonicity properties.
#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/health.h"
#include "common/metrics.h"
#include "xbar/circuit_solver.h"
#include "xbar/device.h"
#include "xbar/geniex.h"

namespace nvm::xbar {
namespace {

CrossbarConfig tiny_config(std::int64_t n) {
  CrossbarConfig cfg = xbar_64x64_100k();
  cfg.rows = cfg.cols = n;
  return cfg;
}

TEST(Solver, SingleCellMatchesVoltageDivider) {
  CrossbarConfig cfg = tiny_config(1);
  cfg.device_nonlin = 1e-12;  // linear device
  const double g_dev = 0.6e-5;
  Tensor g({1, 1}, {static_cast<float>(g_dev)});
  Tensor v({1}, {0.2f});
  Tensor out = solve_crossbar(cfg, {}, g, v);
  const double r_total = cfg.r_source + 1.0 / g_dev + cfg.r_sink;
  EXPECT_NEAR(out[0], 0.2 / r_total, 1e-12);
}

TEST(Solver, SingleCellNonlinearMatchesScalarSolve) {
  CrossbarConfig cfg = tiny_config(1);
  cfg.device_nonlin = 2.0;
  const double g_dev = 1e-5;
  Tensor g({1, 1}, {static_cast<float>(g_dev)});
  Tensor v({1}, {0.25f});
  Tensor out = solve_crossbar(cfg, {}, g, v);

  // Bisection on f(i) = V - i*(Rs+Rk) - Vdev(i), where the device drop
  // satisfies i = g * sinh(b*Vdev)/b  =>  Vdev = asinh(i*b/g)/b.
  const double b = cfg.device_nonlin;
  auto residual = [&](double i) {
    const double vdev = std::asinh(i * b / g_dev) / b;
    return 0.25 - i * (cfg.r_source + cfg.r_sink) - vdev;
  };
  double lo = 0, hi = 1e-3;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    (residual(mid) > 0 ? lo : hi) = mid;
  }
  EXPECT_NEAR(out[0], lo, 1e-11);
}

/// Dense nodal-analysis reference: builds the full conductance matrix over
/// all 2*N*N nodes (linear devices) and solves by Gaussian elimination.
Tensor dense_reference(const CrossbarConfig& cfg, const Tensor& g,
                       const Tensor& v) {
  const std::int64_t R = cfg.rows, C = cfg.cols, n = 2 * R * C;
  auto vr_idx = [&](std::int64_t i, std::int64_t j) { return i * C + j; };
  auto vc_idx = [&](std::int64_t i, std::int64_t j) { return R * C + i * C + j; };
  std::vector<std::vector<double>> a(
      static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n + 1), 0.0));
  auto stamp = [&](std::int64_t p, std::int64_t q, double cond) {
    a[p][p] += cond;
    a[q][q] += cond;
    a[p][q] -= cond;
    a[q][p] -= cond;
  };
  auto stamp_to_ground = [&](std::int64_t p, double cond, double volt) {
    a[p][p] += cond;
    a[p][static_cast<std::size_t>(n)] += cond * volt;
  };
  const double gw = 1.0 / cfg.r_wire, gs = 1.0 / cfg.r_source,
               gk = 1.0 / cfg.r_sink;
  for (std::int64_t i = 0; i < R; ++i) {
    stamp_to_ground(vr_idx(i, 0), gs, v[i]);
    for (std::int64_t j = 0; j + 1 < C; ++j)
      stamp(vr_idx(i, j), vr_idx(i, j + 1), gw);
    for (std::int64_t j = 0; j < C; ++j)
      stamp(vr_idx(i, j), vc_idx(i, j), g.at(i, j));
  }
  for (std::int64_t j = 0; j < C; ++j) {
    for (std::int64_t i = 0; i + 1 < R; ++i)
      stamp(vc_idx(i, j), vc_idx(i + 1, j), gw);
    stamp_to_ground(vc_idx(R - 1, j), gk, 0.0);
  }
  // Gaussian elimination with partial pivoting.
  for (std::int64_t col = 0; col < n; ++col) {
    std::int64_t piv = col;
    for (std::int64_t r2 = col + 1; r2 < n; ++r2)
      if (std::abs(a[r2][col]) > std::abs(a[piv][col])) piv = r2;
    std::swap(a[col], a[piv]);
    for (std::int64_t r2 = 0; r2 < n; ++r2) {
      if (r2 == col || a[r2][col] == 0.0) continue;
      const double f = a[r2][col] / a[col][col];
      for (std::int64_t c2 = col; c2 <= n; ++c2) a[r2][c2] -= f * a[col][c2];
    }
  }
  Tensor out({C});
  for (std::int64_t j = 0; j < C; ++j) {
    const double vc_last =
        a[vc_idx(R - 1, j)][static_cast<std::size_t>(n)] /
        a[vc_idx(R - 1, j)][vc_idx(R - 1, j)];
    out[j] = static_cast<float>(vc_last * gk);
  }
  return out;
}

class SolverVsDense : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SolverVsDense, MatchesGaussianElimination) {
  CrossbarConfig cfg = tiny_config(GetParam());
  cfg.device_nonlin = 1e-12;  // reference is linear
  Rng rng(GetParam());
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor fast = solve_crossbar(cfg, {}, g, v);
  Tensor ref = dense_reference(cfg, g, v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(fast[j], ref[j], 1e-9f + 1e-5f * std::abs(ref[j])) << "col " << j;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverVsDense, ::testing::Values(2, 3, 5, 8));

TEST(Solver, NearIdealParasiticsMatchIdealMvm) {
  CrossbarConfig cfg = tiny_config(6);
  cfg.r_source = cfg.r_sink = cfg.r_wire = 1e-3;
  cfg.device_nonlin = 1e-12;
  Rng rng(4);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor out = solve_crossbar(cfg, {}, g, v);
  Tensor ideal = ideal_mvm(g, v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(out[j], ideal[j], 1e-4f * std::abs(ideal[j]) + 1e-12f);
}

TEST(Solver, ParasiticsOnlyReduceCurrent) {
  CrossbarConfig cfg = tiny_config(8);
  cfg.device_nonlin = 1e-12;  // isolate resistive losses
  Rng rng(5);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor out = solve_crossbar(cfg, {}, g, v);
  Tensor ideal = ideal_mvm(g, v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_LE(out[j], ideal[j] * (1 + 1e-6) + 1e-15);
}

TEST(Solver, MoreWireResistanceMoreLoss) {
  Rng rng(6);
  CrossbarConfig cfg = tiny_config(8);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = Tensor::full({8}, static_cast<float>(cfg.v_read));
  CrossbarConfig worse = cfg;
  worse.r_wire *= 4;
  Tensor base = solve_crossbar(cfg, {}, g, v);
  Tensor degraded = solve_crossbar(worse, {}, g, v);
  EXPECT_LT(degraded.sum(), base.sum());
}

TEST(Solver, ConvergesWellUnderSweepLimit) {
  CrossbarConfig cfg = xbar_64x64_100k();
  Rng rng(7);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  int sweeps = 0;
  SolverOptions opt;
  (void)solve_crossbar(cfg, opt, g, v, &sweeps);
  EXPECT_LT(sweeps, 40);
  EXPECT_GE(sweeps, 2);
}

TEST(Solver, ExhaustedSweepBudgetIsReportedNotSwallowed) {
  // Regression: a solve that hits max_sweeps used to return its last
  // iterate silently. It must now flag non-convergence, bump the health
  // counter, and still hand back finite currents.
  CrossbarConfig cfg = tiny_config(6);
  Rng rng(12);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  SolverOptions opt;
  opt.max_sweeps = 1;
  opt.tol = 1e-15;  // unreachable in one sweep
  opt.retry_on_nonconvergence = false;  // exercise the raw failure path
  const auto before = health_value(HealthCounter::SolverNonConverged);
  SolveStats stats;
  Tensor out = solve_crossbar(cfg, opt, g, v, &stats);
  EXPECT_FALSE(stats.converged);
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.finite);
  EXPECT_EQ(stats.sweeps_used, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_GT(stats.last_delta, 0.0);
  EXPECT_GT(health_value(HealthCounter::SolverNonConverged), before);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_TRUE(std::isfinite(out[j])) << "col " << j;
}

TEST(Solver, FailedSolveRetriesOnceDampedBeforeGivingUp) {
  // A non-converged solve retries once, cold, with halved relaxation and
  // doubled sweep budget. With an unreachable tolerance the retry fails
  // too: the stats describe the retry attempt (2x budget spent), exactly
  // one retry is recorded, and the health counter sees ONE failure — not
  // one per attempt.
  CrossbarConfig cfg = tiny_config(6);
  Rng rng(12);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  SolverOptions opt;
  opt.max_sweeps = 1;
  opt.tol = 1e-15;
  const auto health_before = health_value(HealthCounter::SolverNonConverged);
  const auto retries_before = metrics::counter("solver/retries").value();
  SolveStats stats;
  Tensor out = solve_crossbar(cfg, opt, g, v, &stats);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.sweeps_used, 2);  // the retry's doubled budget
  EXPECT_EQ(metrics::counter("solver/retries").value(), retries_before + 1);
  EXPECT_EQ(health_value(HealthCounter::SolverNonConverged),
            health_before + 1);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_TRUE(std::isfinite(out[j])) << "col " << j;
}

TEST(Solver, RetryOutputMatchesExplicitDampedColdSolve) {
  // The retry is by definition a cold re-solve at half relaxation and
  // double budget: its output and stats must match an explicitly
  // configured damped solve bit for bit.
  CrossbarConfig cfg = tiny_config(6);
  Rng rng(13);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  SolverOptions opt;
  opt.max_sweeps = 1;
  opt.tol = 1e-15;
  SolveStats stats;
  Tensor out = solve_crossbar(cfg, opt, g, v, &stats);
  SolverOptions damped = opt;
  damped.max_sweeps = 2;
  damped.relaxation = 0.5;
  damped.retry_on_nonconvergence = false;
  SolveStats ds;
  Tensor ref = solve_crossbar(cfg, damped, g, v, &ds);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(ds.retries, 0);
  EXPECT_EQ(stats.sweeps_used, ds.sweeps_used);
  EXPECT_EQ(stats.last_delta, ds.last_delta);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(Solver, UnderRelaxationConvergesToSameFixedPoint) {
  // Damping slows the outer iteration but must land on the same solution.
  CrossbarConfig cfg = tiny_config(8);
  Rng rng(15);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor ref = solve_crossbar(cfg, {}, g, v);
  SolverOptions damped;
  damped.relaxation = 0.6;
  SolveStats stats;
  Tensor out = solve_crossbar(cfg, damped, g, v, &stats);
  EXPECT_TRUE(stats.ok());
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(out[j], ref[j], 1e-5f * cfg.i_scale()) << "col " << j;
}

TEST(Solver, RelaxationValidatesRange) {
  CrossbarConfig cfg = tiny_config(2);
  Rng rng(16);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  for (const double bad : {0.0, -0.5, 1.5}) {
    SolverOptions opt;
    opt.relaxation = bad;
    EXPECT_THROW(solve_crossbar(cfg, opt, g, v), CheckError) << bad;
  }
}

TEST(Solver, NormalSolveReportsCleanStats) {
  CrossbarConfig cfg = tiny_config(6);
  Rng rng(13);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  const auto before = health_value(HealthCounter::SolverNonConverged);
  SolveStats stats;
  (void)solve_crossbar(cfg, {}, g, v, &stats);
  EXPECT_TRUE(stats.ok());
  EXPECT_GE(stats.sweeps_used, 2);
  EXPECT_EQ(health_value(HealthCounter::SolverNonConverged), before);
}

TEST(Solver, LegacySweepCountOverloadAgreesWithStats) {
  CrossbarConfig cfg = tiny_config(5);
  Rng rng(14);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  int sweeps = 0;
  Tensor a = solve_crossbar(cfg, {}, g, v, &sweeps);
  SolveStats stats;
  Tensor b = solve_crossbar(cfg, {}, g, v, &stats);
  EXPECT_EQ(sweeps, stats.sweeps_used);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Solver, ZeroInputGivesZeroOutput) {
  CrossbarConfig cfg = tiny_config(4);
  Rng rng(8);
  Tensor g = sample_conductances(cfg, rng);
  Tensor out = solve_crossbar(cfg, {}, g, Tensor({4}));
  for (std::int64_t j = 0; j < 4; ++j) EXPECT_NEAR(out[j], 0.0f, 1e-15f);
}

TEST(Solver, SuperpositionHoldsForLinearDevices) {
  CrossbarConfig cfg = tiny_config(4);
  cfg.device_nonlin = 1e-12;
  Rng rng(9);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v1 = sample_voltages(cfg, rng);
  Tensor v2 = sample_voltages(cfg, rng);
  Tensor sum_in = v1 + v2;
  Tensor lhs = solve_crossbar(cfg, {}, g, sum_in);
  Tensor rhs = solve_crossbar(cfg, {}, g, v1) + solve_crossbar(cfg, {}, g, v2);
  for (std::int64_t j = 0; j < 4; ++j)
    EXPECT_NEAR(lhs[j], rhs[j], 1e-6f * std::abs(rhs[j]) + 1e-13f);
}

/// Oracle for the red-black plane schedule: flat-start block line
/// relaxation that solves one wire chain at a time — every row chain (vc
/// held fixed), then every column chain (vr held fixed) — each as a
/// tridiagonal Thomas solve with the production sweep's per-entry op
/// sequence. Undamped (relaxation 1) only.
struct LexicographicSolve {
  Tensor out;
  int sweeps_used = 0;
  double last_delta = 0.0;
};

LexicographicSolve lexicographic_solve(const CrossbarConfig& cfg,
                                       const SolverOptions& opt,
                                       const Tensor& g, const Tensor& v) {
  const std::int64_t rows = cfg.rows, cols = cfg.cols;
  const double gs = 1.0 / cfg.r_source;
  const double gk = 1.0 / cfg.r_sink;
  const double gw = 1.0 / cfg.r_wire;
  const auto idx = [cols](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * cols + j);
  };
  const std::size_t cells = static_cast<std::size_t>(rows * cols);
  const std::vector<double> gd(g.data().begin(), g.data().end());
  std::vector<double> geff(cells), vr(cells), vc(cells, 0.0);
  for (std::int64_t i = 0; i < rows; ++i)
    for (std::int64_t j = 0; j < cols; ++j) vr[idx(i, j)] = v[i];
  // Thomas algorithm with constant off-diagonal -gw; diag/rhs overwritten.
  const auto thomas = [gw](std::vector<double>& diag, std::vector<double>& rhs,
                           std::vector<double>& sol) {
    const std::size_t n = diag.size();
    for (std::size_t k = 1; k < n; ++k) {
      const double m = -gw / diag[k - 1];
      diag[k] -= m * -gw;
      rhs[k] -= m * rhs[k - 1];
    }
    sol[n - 1] = rhs[n - 1] / diag[n - 1];
    for (std::size_t k = n - 1; k-- > 0;)
      sol[k] = (rhs[k] + gw * sol[k + 1]) / diag[k];
  };

  LexicographicSolve res;
  int sweep = 0;
  for (; sweep < opt.max_sweeps; ++sweep) {
    for (std::size_t k = 0; k < cells; ++k)
      geff[k] = device_secant_conductance(gd[k], vr[k] - vc[k],
                                          cfg.device_nonlin);
    double max_delta = 0.0;
    std::vector<double> diag(static_cast<std::size_t>(cols));
    std::vector<double> rhs(diag.size()), sol(diag.size());
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::size_t k = idx(i, j);
        double d = geff[k];
        double r = geff[k] * vc[k];
        if (j == 0) {
          d += gs;
          r += gs * v[i];
        }
        if (j > 0) d += gw;
        if (j + 1 < cols) d += gw;
        diag[static_cast<std::size_t>(j)] = d;
        rhs[static_cast<std::size_t>(j)] = r;
      }
      thomas(diag, rhs, sol);
      for (std::int64_t j = 0; j < cols; ++j)
        vr[idx(i, j)] = sol[static_cast<std::size_t>(j)];
    }
    diag.assign(static_cast<std::size_t>(rows), 0.0);
    rhs.assign(diag.size(), 0.0);
    sol.assign(diag.size(), 0.0);
    for (std::int64_t j = 0; j < cols; ++j) {
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::size_t k = idx(i, j);
        double d = geff[k];
        if (i > 0) d += gw;
        if (i + 1 < rows) d += gw;
        else d += gk;
        diag[static_cast<std::size_t>(i)] = d;
        rhs[static_cast<std::size_t>(i)] = geff[k] * vr[k];
      }
      thomas(diag, rhs, sol);
      for (std::int64_t i = 0; i < rows; ++i) {
        const double s = sol[static_cast<std::size_t>(i)];
        max_delta = std::max(max_delta, std::abs(s - vc[idx(i, j)]));
        vc[idx(i, j)] = s;
      }
    }
    res.last_delta = max_delta;
    if (!std::isfinite(max_delta) ||
        max_delta < opt.tol * cfg.v_read + 1e-15) {
      ++sweep;
      break;
    }
  }
  res.sweeps_used = sweep;
  res.out = Tensor({cols});
  for (std::int64_t j = 0; j < cols; ++j)
    res.out[j] = static_cast<float>(vc[idx(rows - 1, j)] * gk);
  return res;
}

TEST(Solver, RedBlackBitIdenticalToLexicographic) {
  // The red-black plane schedule only reorders independent chain solves
  // within each half-sweep, so every iterate — and therefore the output
  // currents, the sweep count and the final movement — must match the
  // chain-at-a-time oracle exactly (both from the flat start).
  for (const std::int64_t n : {3, 8, 16}) {
    CrossbarConfig cfg = tiny_config(n);
    Rng rng(20 + n);
    Tensor g = sample_conductances(cfg, rng);
    Tensor v = sample_voltages(cfg, rng);
    SolverOptions rb;
    rb.coarse_start = false;
    SolveStats srb;
    Tensor a = solve_crossbar(cfg, rb, g, v, &srb);
    const LexicographicSolve lex = lexicographic_solve(cfg, rb, g, v);
    EXPECT_TRUE(srb.ok()) << "n=" << n;
    EXPECT_EQ(srb.sweeps_used, lex.sweeps_used) << "n=" << n;
    EXPECT_EQ(srb.last_delta, lex.last_delta) << "n=" << n;
    EXPECT_EQ(max_abs_diff(a, lex.out), 0.0f) << "n=" << n;
  }
}

TEST(Solver, CoarseStartSavesSweepsAndStaysWithinTolerance) {
  CrossbarConfig cfg = xbar_64x64_100k();
  Rng rng(21);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  SolverOptions coarse, flat;
  coarse.coarse_start = true;
  flat.coarse_start = false;
  SolveStats sc, sf;
  Tensor a = solve_crossbar(cfg, coarse, g, v, &sc);
  Tensor b = solve_crossbar(cfg, flat, g, v, &sf);
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE(sf.ok());
  // The analytic IR-drop seed must never cost sweeps, and on this stiff
  // 64x64 preset it must actually save at least one.
  EXPECT_LT(sc.sweeps_used, sf.sweeps_used);
  // Both converge the same fixed point to tol * v_read.
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(a[j], b[j], 1e-5f * cfg.i_scale()) << "col " << j;
}

TEST(Solver, ConvergenceRegressionAcrossScheduleOptions) {
  // Regression rail for the sweep counts the perf work relies on: the
  // default options (coarse start) must not regress past the flat-start
  // cost on the benchmark-sized preset.
  CrossbarConfig cfg = xbar_64x64_100k();
  Rng rng(22);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  SolverOptions legacy;
  legacy.coarse_start = false;
  SolveStats sdef, sleg;
  (void)solve_crossbar(cfg, {}, g, v, &sdef);
  (void)solve_crossbar(cfg, legacy, g, v, &sleg);
  EXPECT_TRUE(sdef.ok());
  EXPECT_LE(sdef.sweeps_used, sleg.sweeps_used);
  EXPECT_LT(sdef.sweeps_used, 40);
}

TEST(Solver, ProgramValidatesConductanceRange) {
  CrossbarConfig cfg = tiny_config(2);
  CircuitSolverModel model(cfg);
  Tensor bad = Tensor::full({2, 2}, static_cast<float>(cfg.g_on() * 2));
  EXPECT_THROW(model.program(bad), CheckError);
  Tensor wrong_shape = Tensor::full({2, 3}, static_cast<float>(cfg.g_off()));
  EXPECT_THROW(model.program(wrong_shape), CheckError);
}

}  // namespace
}  // namespace nvm::xbar
