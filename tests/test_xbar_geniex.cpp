// GENIEx surrogate, fast-noise model, MLP regressor, and NF measurement.
#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/health.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "xbar/fast_noise.h"
#include "xbar/geniex.h"
#include "xbar/nf.h"

namespace nvm::xbar {
namespace {

CrossbarConfig small_config() {
  CrossbarConfig cfg = xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_test";
  return cfg;
}

/// One shared small fit for the whole test binary (training is the slow
/// part; tests only read it).
const GeniexFit& shared_fit() {
  static const GeniexFit fit = [] {
    GeniexTrainOptions opt;
    opt.solver_samples = 120;
    return GeniexModel::fit(small_config(), opt);
  }();
  return fit;
}

TEST(FastTanh, CloseToStdTanh) {
  for (float x = -6.0f; x <= 6.0f; x += 0.13f)
    EXPECT_NEAR(simd::tanh_fast(x), std::tanh(x), 3e-3f) << "x=" << x;
  EXPECT_EQ(simd::tanh_fast(10.0f), 1.0f);
  EXPECT_EQ(simd::tanh_fast(-10.0f), -1.0f);
}

TEST(Mlp, LearnsQuadratic) {
  // y = x0^2 + 0.5*x1; a 2-16-1 tanh MLP fits this easily.
  Rng rng(1);
  const std::int64_t n = 512;
  Tensor x({n, 2});
  Tensor y({n});
  for (std::int64_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-1, 1));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1, 1));
    y[i] = x.at(i, 0) * x.at(i, 0) + 0.5f * x.at(i, 1);
  }
  MlpRegressor mlp(2, 16, rng);
  MlpTrainOptions opt;
  opt.epochs = 120;
  const float final_mse = mlp.train(x, y, opt);
  EXPECT_LT(final_mse, 3e-3f);
  EXPECT_LT(mlp.mse(x, y), 3e-3f);
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(2);
  MlpRegressor mlp(4, 8, rng);
  std::stringstream ss;
  BinaryWriter w(ss);
  mlp.save(w);
  BinaryReader r(ss);
  MlpRegressor loaded = MlpRegressor::load(r);
  float feats[4] = {0.1f, -0.2f, 0.3f, 0.4f};
  EXPECT_EQ(mlp.predict({feats, 4}), loaded.predict({feats, 4}));
}

TEST(GeniexFeatures, ShapeAndRange) {
  CrossbarConfig cfg = small_config();
  Rng rng(3);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor f = geniex_features(cfg, g, v);
  EXPECT_EQ(f.dim(0), cfg.cols);
  EXPECT_EQ(f.dim(1), kGeniexFeatureCount);
  // Normalized features stay in a moderate range.
  EXPECT_LT(f.abs_max(), 3.0f);
}

TEST(GeniexFeatures, IdealCurrentFeatureIsExact) {
  CrossbarConfig cfg = small_config();
  Rng rng(4);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor f = geniex_features(cfg, g, v);
  Tensor iid = ideal_mvm(g, v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(f.at(j, 0), iid[j] / cfg.i_scale(), 1e-6f);
}

TEST(Geniex, FitGeneralizesToHeldOutSolverData) {
  // Validation MSE on the relative deviation target: a few percent RMS.
  EXPECT_LT(shared_fit().val_mse, 4e-4f);
}

TEST(Geniex, TracksSolverPerColumn) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(5);
  double err = 0, scale = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    Tensor v = sample_voltages(cfg, rng);
    Tensor pred = model.program(g)->mvm(v);
    Tensor truth = solve_crossbar(cfg, {}, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      err += std::abs(pred[j] - truth[j]);
      scale += std::abs(truth[j]);
    }
  }
  EXPECT_LT(err / scale, 0.05) << "mean relative error vs circuit solver";
}

TEST(Geniex, BatchedMatchesSingleVector) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(6);
  Tensor g = sample_conductances(cfg, rng);
  auto programmed = model.program(g);
  const std::int64_t n = 5;
  Tensor vb({cfg.rows, n});
  for (std::int64_t k = 0; k < n; ++k) {
    Tensor v = sample_voltages(cfg, rng);
    for (std::int64_t i = 0; i < cfg.rows; ++i) vb.at(i, k) = v[i];
  }
  Tensor batched = programmed->mvm_batch(vb);
  for (std::int64_t k = 0; k < n; ++k) {
    Tensor v({cfg.rows});
    for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, k);
    Tensor single = programmed->mvm(v);
    for (std::int64_t j = 0; j < cfg.cols; ++j)
      EXPECT_NEAR(single[j], batched.at(j, k), 1e-6f * cfg.i_scale());
  }
}

TEST(Geniex, ActiveRegionMatchesFullWhenPadded) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(7);
  Tensor g = sample_conductances(cfg, rng);
  // Zero the voltages beyond row 10 — active evaluation must agree on the
  // first 12 columns.
  auto programmed = model.program(g);
  Tensor vb({cfg.rows, 3});
  for (std::int64_t i = 0; i < 10; ++i)
    for (std::int64_t k = 0; k < 3; ++k)
      vb.at(i, k) = static_cast<float>(rng.uniform(0, cfg.v_read));
  Tensor full = programmed->mvm_batch(vb);
  Tensor active = programmed->mvm_multi_active(vb, 10, 12);
  for (std::int64_t j = 0; j < 12; ++j)
    for (std::int64_t k = 0; k < 3; ++k)
      EXPECT_NEAR(full.at(j, k), active.at(j, k), 1e-7f * cfg.i_scale());
}

TEST(Geniex, OutputsPhysicallyClamped) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(8);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = Tensor::full({cfg.rows}, static_cast<float>(cfg.v_read));
  Tensor out = model.program(g)->mvm(v);
  EXPECT_GE(out.min(), 0.0f);
  EXPECT_LE(out.max(), cfg.i_scale() * (1 + 1e-6));
}

TEST(Geniex, GuardFallsBackToFastNoiseOutsideEnvelope) {
  // An absurdly tight trust envelope forces every prediction out of
  // bounds: the guarded model must degrade to the fast-noise fallback
  // (bit-identical to evaluating it directly) and count the event —
  // graceful degradation, not a crash and not a silently-trusted output.
  CrossbarConfig cfg = small_config();
  GeniexGuardOptions tight;
  tight.rel_min = -1e-6f;
  tight.rel_max = 1e-6f;
  GeniexModel guarded(cfg, shared_fit().mlp, tight);
  FastNoiseModel fallback(cfg);
  Rng rng(21);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  const auto before = health_value(HealthCounter::SurrogateFallback);
  Tensor out = guarded.program(g)->mvm(v);
  EXPECT_GT(health_value(HealthCounter::SurrogateFallback), before);
  EXPECT_EQ(max_abs_diff(out, fallback.program(g)->mvm(v)), 0.0f);
}

TEST(Geniex, GuardIsQuietOnInDistributionInputs) {
  // The default envelope exists for driven-off-distribution inputs; on
  // the surrogate's own training distribution it must not fire.
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(22);
  const auto before = health_value(HealthCounter::SurrogateFallback);
  for (int trial = 0; trial < 4; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    auto programmed = model.program(g);
    (void)programmed->mvm(sample_voltages(cfg, rng));
  }
  EXPECT_EQ(health_value(HealthCounter::SurrogateFallback), before);
}

TEST(Geniex, GuardDisabledMatchesDefaultOnNominalInputs) {
  CrossbarConfig cfg = small_config();
  GeniexGuardOptions off;
  off.enabled = false;
  GeniexModel unguarded(cfg, shared_fit().mlp, off);
  GeniexModel guarded(cfg, shared_fit().mlp);
  Rng rng(23);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  EXPECT_EQ(max_abs_diff(unguarded.program(g)->mvm(v),
                         guarded.program(g)->mvm(v)),
            0.0f);
}

TEST(Geniex, GuardRejectsInvertedEnvelope) {
  GeniexGuardOptions bad;
  bad.rel_min = 1.0f;
  bad.rel_max = 0.0f;
  EXPECT_THROW(GeniexModel(small_config(), shared_fit().mlp, bad),
               CheckError);
}

// ---------------------------------------------------------------------------
// Oracle: the GENIEx evaluation as it stood before the simd::gemm_madd and
// simd::mlp_tanh kernels — a scalar feature loop, one MLP forward per
// column through the 16-column-padded gemm_accum + tanh + gemm_accum
// composition, and the fast-noise fallback for flagged vectors.
// The production eval_block must match it bit for bit on every tier.
// ---------------------------------------------------------------------------

/// MLP weights in MlpRegressor's serialized layout.
struct MlpWeights {
  std::int64_t in_dim = 0, hidden = 0;
  Tensor w1, b1, w2, b2;

  MlpRegressor to_mlp() const {
    std::stringstream ss;
    BinaryWriter w(ss);
    w.write_i64(in_dim);
    w.write_i64(hidden);
    w1.save(w);
    b1.save(w);
    w2.save(w);
    b2.save(w);
    BinaryReader r(ss);
    return MlpRegressor::load(r);
  }
};

/// A surrogate-shaped MLP whose predictions mostly sit inside the default
/// trust envelope, with a few exact-zero weights (the scalar tier skips
/// those, and the kernels must skip exactly the same terms).
MlpWeights oracle_weights(Rng& rng) {
  MlpWeights m;
  m.in_dim = kGeniexFeatureCount;
  m.hidden = 28;
  m.w1 = Tensor::normal({m.hidden, m.in_dim}, 0.0f, 0.4f, rng);
  m.b1 = Tensor::normal({m.hidden}, 0.0f, 0.2f, rng);
  m.w2 = Tensor::normal({m.hidden}, 0.0f, 0.05f, rng);
  m.b2 = Tensor::full({1}, 0.3f);
  m.w1.at(3, 2) = 0.0f;
  m.w1.at(17, 9) = 0.0f;
  m.w2[5] = 0.0f;
  return m;
}

void oracle_predict_block(const MlpWeights& m, const float* features_t,
                          std::int64_t n, float* out) {
  constexpr std::int64_t kPad = 16;
  const std::int64_t np = (n + kPad - 1) / kPad * kPad;
  std::vector<float> fp(static_cast<std::size_t>(m.in_dim * np), 0.0f);
  std::vector<float> hid(static_cast<std::size_t>(m.hidden * np));
  std::vector<float> op(static_cast<std::size_t>(np), m.b2[0]);
  for (std::int64_t i = 0; i < m.in_dim; ++i)
    std::copy(features_t + i * n, features_t + (i + 1) * n,
              fp.data() + i * np);
  for (std::int64_t h = 0; h < m.hidden; ++h)
    std::fill(hid.data() + h * np, hid.data() + (h + 1) * np, m.b1[h]);
  simd::gemm_accum(hid.data(), m.w1.raw(), fp.data(), m.hidden, np, m.in_dim,
                   m.in_dim, np, np);
  for (float& h : hid) h = simd::tanh_fast(h);
  simd::gemm_accum(op.data(), m.w2.raw(), hid.data(), 1, np, m.hidden,
                   m.hidden, np, np);
  std::copy(op.data(), op.data() + n, out);
}

Tensor oracle_eval(const CrossbarConfig& cfg, const MlpWeights& m,
                   const GeniexGuardOptions& guard, const Tensor& g,
                   const Tensor& vb, std::int64_t rows_used,
                   std::int64_t cols_used) {
  const std::int64_t rows = cfg.rows, cols = cfg.cols, n = vb.dim(1);
  const float v_read = static_cast<float>(cfg.v_read);
  const float g_on = static_cast<float>(cfg.g_on());
  const float i_scale = static_cast<float>(cfg.i_scale());

  // Programming statistics.
  Tensor gt = transpose2d(g);
  Tensor gtd({cols, rows}), gsum({cols}), growsum({rows});
  double total = 0.0;
  for (std::int64_t i = 0; i < rows; ++i) {
    double rsum = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float gij = g.at(i, j);
      rsum += gij;
      gsum[j] += gij;
      gtd.at(j, i) =
          gij * static_cast<float>(rows - 1 - i) / static_cast<float>(rows);
    }
    growsum[i] = static_cast<float>(rsum);
    total += rsum;
  }
  const float garr = static_cast<float>(total / (cfg.g_on() * rows * cols));

  Tensor vv({rows_used, n}), vr({rows_used, n});
  for (std::int64_t i = 0; i < rows_used; ++i)
    for (std::int64_t k = 0; k < n; ++k) {
      vv.at(i, k) = vb.at(i, k) * vb.at(i, k);
      vr.at(i, k) = vb.at(i, k) * growsum[i];
    }
  Tensor iid({cols_used, n}), e({cols_used, n}), p({cols_used, n}),
      wd({cols_used, n});
  for (std::int64_t j = 0; j < cols_used; ++j)
    for (std::int64_t i = 0; i < rows_used; ++i) {
      const float gj = gt.at(j, i);
      const float gd = gtd.at(j, i);
      if (gj == 0.0f && gd == 0.0f) continue;
      for (std::int64_t k = 0; k < n; ++k) {
        iid.at(j, k) += gj * vb.at(i, k);
        e.at(j, k) += gj * vv.at(i, k);
        p.at(j, k) += gj * vr.at(i, k);
        wd.at(j, k) += gd * vb.at(i, k);
      }
    }
  Tensor vbar({n}), v2bar({n}), rbar({n});
  for (std::int64_t i = 0; i < rows_used; ++i)
    for (std::int64_t k = 0; k < n; ++k) {
      vbar[k] += vb.at(i, k);
      v2bar[k] += vv.at(i, k);
      rbar[k] += vr.at(i, k);
    }
  const float nv = 1.0f / (v_read * rows);
  const float nv2 = 1.0f / (v_read * v_read * rows);
  const float nr = 1.0f / (g_on * v_read * rows * rows);
  for (std::int64_t k = 0; k < n; ++k) {
    vbar[k] *= nv;
    v2bar[k] *= nv2;
    rbar[k] *= nr;
  }

  Tensor out({cols, n});
  std::vector<std::uint8_t> flagged(static_cast<std::size_t>(n), 0);
  const float rows_f = static_cast<float>(rows);
  const float cols_f = static_cast<float>(cols);
  std::vector<float> F(static_cast<std::size_t>(kGeniexFeatureCount * n));
  std::vector<float> rel(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < cols_used; ++j) {
    for (std::int64_t k = 0; k < n; ++k) {
      F[0 * n + k] = iid.at(j, k) / i_scale;
      F[1 * n + k] = gsum[j] / (g_on * rows_f);
      F[2 * n + k] = vbar[k];
      F[3 * n + k] = v2bar[k];
      F[4 * n + k] = e.at(j, k) / (g_on * v_read * v_read * rows_f);
      F[5 * n + k] = p.at(j, k) / (g_on * g_on * v_read * rows_f * rows_f);
      F[6 * n + k] = rbar[k];
      F[7 * n + k] = cols_f > 1 ? static_cast<float>(j) / (cols_f - 1) : 0.0f;
      F[8 * n + k] = garr;
      F[9 * n + k] = wd.at(j, k) / (g_on * v_read * rows_f);
    }
    oracle_predict_block(m, F.data(), n, rel.data());
    for (std::int64_t k = 0; k < n; ++k) {
      const float r = rel[static_cast<std::size_t>(k)];
      if (guard.enabled &&
          (!std::isfinite(r) || r < guard.rel_min || r > guard.rel_max))
        flagged[static_cast<std::size_t>(k)] = 1;
      const float denom = std::max(iid.at(j, k), kGeniexRelFloor * i_scale);
      out.at(j, k) = std::clamp(iid.at(j, k) - r * denom, 0.0f, i_scale);
    }
  }
  const FastNoiseModel fallback_model(cfg);
  auto fallback = fallback_model.program(g);
  for (std::int64_t k = 0; k < n; ++k) {
    if (flagged[static_cast<std::size_t>(k)] == 0) continue;
    Tensor v({rows});
    for (std::int64_t i = 0; i < rows; ++i) v[i] = vb.at(i, k);
    Tensor y = fallback->mvm(v);
    for (std::int64_t j = 0; j < cols_used; ++j) out.at(j, k) = y[j];
  }
  return out;
}

using testutil::usable_isas;

TEST(GeniexOracle, MvmMultiActiveBitIdenticalToScalarLoopOracle) {
  const CrossbarConfig cfg = xbar_64x64_100k();
  Rng rng(31);
  const MlpWeights weights = oracle_weights(rng);
  GeniexGuardOptions tight;  // flags most vectors: covers the fallback
  tight.rel_min = 0.25f;
  tight.rel_max = 0.35f;
  GeniexGuardOptions off;
  off.enabled = false;
  Tensor g = sample_conductances(cfg, rng);
  std::int64_t fell_back = 0, trusted = 0;
  for (const GeniexGuardOptions& guard : {GeniexGuardOptions{}, tight, off}) {
    GeniexModel model(cfg, weights.to_mlp(), guard);
    auto programmed = model.program(g);
    for (std::int64_t n : {1, 7, 16, 17, 64, 256}) {
      for (auto [rows_used, cols_used] :
           {std::pair<std::int64_t, std::int64_t>{cfg.rows, cfg.cols},
            {37, 23}}) {
        Tensor vb({cfg.rows, n});
        for (std::int64_t k = 0; k < n; ++k) {
          Tensor v = sample_voltages(cfg, rng);
          for (std::int64_t i = 0; i < rows_used; ++i) vb.at(i, k) = v[i];
        }
        for (simd::Isa isa : usable_isas()) {
          simd::ScopedIsaForTests scope(isa);
          const auto before = health_value(HealthCounter::SurrogateFallback);
          Tensor got = programmed->mvm_multi_active(vb, rows_used, cols_used);
          const auto dropped =
              health_value(HealthCounter::SurrogateFallback) - before;
          fell_back += static_cast<std::int64_t>(dropped);
          trusted += n - static_cast<std::int64_t>(dropped);
          Tensor want =
              oracle_eval(cfg, weights, guard, g, vb, rows_used, cols_used);
          ASSERT_EQ(got.shape(), want.shape());
          std::int64_t mismatches = 0;
          for (std::int64_t i = 0; i < got.numel(); ++i)
            if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
              ++mismatches;
          EXPECT_EQ(mismatches, 0)
              << "isa=" << simd::isa_name(isa) << " n=" << n
              << " rows_used=" << rows_used << " cols_used=" << cols_used
              << " guard=" << guard.enabled << "/" << guard.rel_min;
        }
      }
    }
  }
  // Both the surrogate and the fallback path were compared.
  EXPECT_GT(fell_back, 0);
  EXPECT_GT(trusted, 0);
}

TEST(GeniexOracle, PredictBlockIsBatchInvariantAndMatchesPaddedGemm) {
  Rng rng(32);
  const MlpWeights weights = oracle_weights(rng);
  const MlpRegressor mlp = weights.to_mlp();
  const std::int64_t n = 1000;
  std::vector<float> ft(static_cast<std::size_t>(kGeniexFeatureCount * n));
  for (float& f : ft) f = static_cast<float>(rng.uniform(-1.5, 1.5));
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> block(static_cast<std::size_t>(n));
    std::vector<float> padded(static_cast<std::size_t>(n));
    mlp.predict_block(ft.data(), n, block.data());
    oracle_predict_block(weights, ft.data(), n, padded.data());
    float sample[kGeniexFeatureCount];
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t f = 0; f < kGeniexFeatureCount; ++f)
        sample[f] = ft[static_cast<std::size_t>(f * n + s)];
      float single = 0.0f;
      mlp.predict_block(sample, 1, &single);
      const auto i = static_cast<std::size_t>(s);
      EXPECT_EQ(std::memcmp(&single, &block[i], sizeof(float)), 0)
          << "isa=" << simd::isa_name(isa) << " sample " << s << ": "
          << single << " alone vs " << block[i] << " in the block";
      EXPECT_EQ(std::memcmp(&padded[i], &block[i], sizeof(float)), 0)
          << "isa=" << simd::isa_name(isa) << " sample " << s << ": "
          << padded[i] << " padded oracle vs " << block[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Chunk kernel: the tiled GEMM's fused route for GENIEx
// ---------------------------------------------------------------------------

/// oracle_weights plus three steering units that make the guard outcomes
/// predictable: an all-zero input vector meets an infinite weight on the
/// vbar feature (inf * 0 = NaN, so its deviation is NaN), and a dense
/// vector (v2bar above 0.4) adds +3 to its deviation (outside the default
/// envelope) while sparse vectors add 0.
MlpWeights kernel_weights(Rng& rng) {
  MlpWeights m = oracle_weights(rng);
  for (std::int64_t h : {0, 1, 2}) {
    for (std::int64_t i = 0; i < m.in_dim; ++i) m.w1.at(h, i) = 0.0f;
    m.b1[h] = 0.0f;
  }
  m.w1.at(0, 2) = std::numeric_limits<float>::infinity();
  m.w2[0] = 0.01f;
  m.w1.at(1, 3) = 200.0f;  // tanh(200 * (v2bar - 0.4)) = +-1
  m.b1[1] = -80.0f;
  m.w2[1] = 1.5f;
  m.b1[2] = 10.0f;  // tanh(10) = 1: offsets unit 1's -1.5 on sparse vectors
  m.w2[2] = 1.5f;
  return m;
}

TEST(GeniexChunkKernel, RunMatchesMvmMultiActiveOnEveryTierAndGuard) {
  const CrossbarConfig cfg = xbar_64x64_100k();
  Rng rng(33);
  const MlpWeights weights = kernel_weights(rng);
  GeniexGuardOptions tight;  // flags most vectors
  tight.rel_min = 0.25f;
  tight.rel_max = 0.35f;
  GeniexGuardOptions off;
  off.enabled = false;
  const Tensor g = sample_conductances(cfg, rng);
  const std::int64_t rows_used = 37, cols_used = 23, max_code = 7;
  const float v_unit =
      static_cast<float>(cfg.v_read / static_cast<double>(max_code));
  metrics::Counter& columns = metrics::counter("xbar/mvm_multi_columns");
  struct Deltas {
    std::uint64_t fallback, nonfinite, columns;
  };
  const auto snapshot = [&] {
    return Deltas{health_value(HealthCounter::SurrogateFallback),
                  health_value(HealthCounter::NonFiniteOutput),
                  columns.value()};
  };
  const auto since = [&](const Deltas& d0) {
    const Deltas d1 = snapshot();
    return Deltas{d1.fallback - d0.fallback, d1.nonfinite - d0.nonfinite,
                  d1.columns - d0.columns};
  };

  std::uint64_t default_fallbacks = 0, unguarded_scrubs = 0;
  for (std::int64_t n : {1, 9, 36}) {
    // DAC codes on the used rows only; vector 0 is dense (forced fallback
    // under the default guard), vector 1 all zero (forced NaN).
    std::vector<std::int8_t> codes(static_cast<std::size_t>(cfg.rows * n), 0);
    for (std::int64_t i = 0; i < rows_used; ++i)
      for (std::int64_t k = 0; k < n; ++k) {
        std::int8_t c = 0;
        if (k == 0 && n > 1)
          c = static_cast<std::int8_t>(max_code);
        else if (k != 1 && rng.bernoulli(0.5))
          c = static_cast<std::int8_t>(rng.uniform_index(max_code + 1));
        codes[static_cast<std::size_t>(i * n + k)] = c;
      }
    std::vector<std::int8_t> row_max(static_cast<std::size_t>(cfg.rows), 0);
    Tensor volts({cfg.rows, n});
    for (std::int64_t i = 0; i < cfg.rows; ++i)
      for (std::int64_t k = 0; k < n; ++k) {
        const std::int8_t c = codes[static_cast<std::size_t>(i * n + k)];
        row_max[static_cast<std::size_t>(i)] =
            std::max(row_max[static_cast<std::size_t>(i)], c);
        volts.at(i, k) = v_unit * static_cast<float>(c);
      }
    ChunkBlock cb;
    cb.chunk = codes.data();
    cb.row_max = row_max.data();
    cb.rows = cfg.rows;
    cb.n = n;
    cb.v_unit = v_unit;

    for (const GeniexGuardOptions& guard : {GeniexGuardOptions{}, tight, off}) {
      GeniexModel model(cfg, weights.to_mlp(), guard);
      auto programmed = model.program(g);
      auto kernel = programmed->compile_chunk_kernel(
          v_unit, static_cast<int>(max_code));
      ASSERT_NE(kernel, nullptr);
      for (simd::Isa isa : usable_isas()) {
        simd::ScopedIsaForTests scope(isa);
        const Deltas w0 = snapshot();
        Tensor want = programmed->mvm_multi_active(volts, rows_used, cols_used);
        const Deltas dw = since(w0);

        // The caller's float slot 3 (the tiled GEMM's currents) must
        // survive the kernel untouched.
        simd::Workspace ws;
        std::span<float> slot3 = ws.floats(3, 64);
        std::fill(slot3.begin(), slot3.end(), -7.0f);
        std::vector<float> got(static_cast<std::size_t>(cols_used * n), -1.0f);
        const Deltas g0 = snapshot();
        kernel->run(cb, rows_used, cols_used, got.data(), ws);
        const Deltas dg = since(g0);
        for (float f : ws.floats(3, 64)) ASSERT_EQ(f, -7.0f);

        const std::string where = std::string("isa=") + simd::isa_name(isa) +
                                  " n=" + std::to_string(n) + " guard=" +
                                  std::to_string(guard.enabled) + "/" +
                                  std::to_string(guard.rel_min);
        EXPECT_EQ(std::memcmp(got.data(), want.raw(),
                              got.size() * sizeof(float)),
                  0)
            << where;
        EXPECT_EQ(dg.fallback, dw.fallback) << where;
        EXPECT_EQ(dg.nonfinite, dw.nonfinite) << where;
        EXPECT_EQ(dg.columns, dw.columns) << where;
        if (guard.enabled && guard.rel_min == GeniexGuardOptions{}.rel_min)
          default_fallbacks += dg.fallback;
        if (!guard.enabled) unguarded_scrubs += dg.nonfinite;
      }
    }
  }
  // The forced outcomes happened: the dense and the NaN vectors fell back
  // under the default guard, and the NaN columns were scrubbed unguarded.
  EXPECT_GT(default_fallbacks, 0u);
  EXPECT_GT(unguarded_scrubs, 0u);
}

// ---------------------------------------------------------------------------
// Oracle: MlpRegressor::train as it stood before the minibatch gemm_madd
// formulation — one scalar forward and backward per sample, gradients
// accumulated sample by sample, then an elementwise Adam step. The
// production train must reproduce its weights and returned MSE bit for
// bit on every tier and thread count.
// ---------------------------------------------------------------------------

MlpWeights weights_of(const MlpRegressor& mlp) {
  std::stringstream ss;
  BinaryWriter w(ss);
  mlp.save(w);
  BinaryReader r(ss);
  MlpWeights m;
  m.in_dim = r.read_i64();
  m.hidden = r.read_i64();
  m.w1 = Tensor::load(r);
  m.b1 = Tensor::load(r);
  m.w2 = Tensor::load(r);
  m.b2 = Tensor::load(r);
  return m;
}

std::string saved_bytes(const MlpRegressor& mlp) {
  std::stringstream ss;
  BinaryWriter w(ss);
  mlp.save(w);
  return ss.str();
}

float reference_mlp_train(MlpWeights& m, const Tensor& x, const Tensor& y,
                          const MlpTrainOptions& opt) {
  const std::int64_t n = x.dim(0), in_dim = m.in_dim, hidden = m.hidden;
  Rng rng(opt.seed);
  Tensor* params[4] = {&m.w1, &m.b1, &m.w2, &m.b2};
  std::vector<Tensor> adam_m, adam_v;
  for (Tensor* p : params) {
    adam_m.push_back(Tensor::zeros(p->shape()));
    adam_v.push_back(Tensor::zeros(p->shape()));
  }
  const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  std::int64_t t = 0;
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  Tensor gw1(m.w1.shape()), gb1(m.b1.shape()), gw2(m.w2.shape()),
      gb2(m.b2.shape());
  std::vector<float> act(static_cast<std::size_t>(hidden));
  float last_epoch_mse = 0.0f;
  for (std::int64_t epoch = 0; epoch < opt.epochs; ++epoch) {
    rng.shuffle(order);
    double se = 0.0;
    for (std::int64_t start = 0; start < n; start += opt.batch) {
      const std::int64_t stop = std::min(n, start + opt.batch);
      gw1.fill(0);
      gb1.fill(0);
      gw2.fill(0);
      gb2.fill(0);
      for (std::int64_t s = start; s < stop; ++s) {
        const std::int64_t row = order[static_cast<std::size_t>(s)];
        const float* fx = x.raw() + row * in_dim;
        float out = m.b2[0];
        for (std::int64_t h = 0; h < hidden; ++h) {
          float acc = m.b1[h];
          const float* wrow = m.w1.raw() + h * in_dim;
          for (std::int64_t i = 0; i < in_dim; ++i) acc += wrow[i] * fx[i];
          act[static_cast<std::size_t>(h)] = simd::tanh_fast(acc);
          out += m.w2[h] * act[static_cast<std::size_t>(h)];
        }
        const float err = out - y[row];
        se += static_cast<double>(err) * err;
        gb2[0] += err;
        for (std::int64_t h = 0; h < hidden; ++h) {
          const float a = act[static_cast<std::size_t>(h)];
          gw2[h] += err * a;
          const float dh = err * m.w2[h] * (1.0f - a * a);
          gb1[h] += dh;
          float* grow = gw1.raw() + h * in_dim;
          for (std::int64_t i = 0; i < in_dim; ++i) grow[i] += dh * fx[i];
        }
      }
      ++t;
      const float count = static_cast<float>(stop - start);
      Tensor* grads[4] = {&gw1, &gb1, &gw2, &gb2};
      const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
      for (std::size_t pi = 0; pi < 4; ++pi) {
        float* pv = params[pi]->raw();
        const float* pg = grads[pi]->raw();
        float* pm = adam_m[pi].raw();
        float* pvv = adam_v[pi].raw();
        for (std::int64_t j = 0; j < params[pi]->numel(); ++j) {
          const float g = pg[j] / count;
          pm[j] = beta1 * pm[j] + (1 - beta1) * g;
          pvv[j] = beta2 * pvv[j] + (1 - beta2) * g * g;
          const float mhat = pm[j] / bc1;
          const float vhat = pvv[j] / bc2;
          pv[j] -= opt.lr * mhat / (std::sqrt(vhat) + eps);
        }
      }
    }
    last_epoch_mse = static_cast<float>(se / n);
  }
  return last_epoch_mse;
}

/// Shapes of the GENIEx surrogate (10 features, 28 hidden) and smaller
/// ones, default and odd batch widths; 205 samples leave a ragged last
/// minibatch at both widths, and 5 samples are one minibatch narrower
/// than either.
TEST(MlpTrainOracle, MinibatchGemmTrainingBitIdenticalToPerSampleLoop) {
  std::int64_t compared = 0;
  for (std::int64_t in_dim : {10, 3}) {
    for (std::int64_t hidden : {28, 13, 5}) {
      for (std::int64_t batch : {64, 7}) {
        for (std::int64_t n : {205, 5}) {
          Rng rng(static_cast<std::uint64_t>(100 * in_dim + hidden));
          Tensor x = Tensor::normal({n, in_dim}, 0.0f, 1.0f, rng);
          Tensor y = Tensor::normal({n}, 0.0f, 0.5f, rng);
          const MlpRegressor init(in_dim, hidden, rng);
          MlpTrainOptions opt;
          opt.epochs = 3;
          opt.batch = batch;
          opt.seed = static_cast<std::uint64_t>(batch + n);
          MlpWeights ref = weights_of(init);
          const float ref_mse = reference_mlp_train(ref, x, y, opt);
          const std::string want = saved_bytes(ref.to_mlp());
          for (simd::Isa isa : usable_isas()) {
            simd::ScopedIsaForTests scope(isa);
            for (std::size_t threads : {1u, 4u}) {
              ThreadPool pool(threads);
              ThreadPool::ScopedUse use(pool);
              MlpRegressor mlp = init;
              const float mse = mlp.train(x, y, opt);
              const std::string where =
                  std::string("isa=") + simd::isa_name(isa) +
                  " threads=" + std::to_string(threads) +
                  " in=" + std::to_string(in_dim) +
                  " hidden=" + std::to_string(hidden) +
                  " batch=" + std::to_string(batch) +
                  " n=" + std::to_string(n);
              EXPECT_EQ(std::memcmp(&mse, &ref_mse, sizeof(float)), 0)
                  << where << " mse " << mse << " vs " << ref_mse;
              EXPECT_TRUE(saved_bytes(mlp) == want) << where;
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

/// A whole small GENIEx fit trains to the same weights and the same
/// training MSE on every tier. Its validation MSE comes from predict,
/// whose mlp_tanh kernel is [~ulp]: equal across the vector tiers, within
/// a few ULP of the scalar tier's.
TEST(MlpTrainOracle, GeniexFitSameOnEveryTier) {
  GeniexTrainOptions opt;
  opt.solver_samples = 24;
  opt.mlp.epochs = 4;
  std::optional<GeniexFit> first;
  std::string first_bytes;
  std::optional<float> vector_val_mse;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    GeniexFit fit = GeniexModel::fit(small_config(), opt);
    const std::string bytes = saved_bytes(fit.mlp);
    if (isa != simd::Isa::Scalar) {
      if (!vector_val_mse.has_value()) vector_val_mse = fit.val_mse;
      EXPECT_EQ(fit.val_mse, *vector_val_mse) << simd::isa_name(isa);
    }
    if (!first.has_value()) {
      first_bytes = bytes;
      first.emplace(std::move(fit));
      continue;
    }
    EXPECT_EQ(fit.train_mse, first->train_mse) << simd::isa_name(isa);
    EXPECT_TRUE(bytes == first_bytes) << simd::isa_name(isa);
    EXPECT_NEAR(fit.val_mse, first->val_mse, 1e-5f * first->val_mse)
        << simd::isa_name(isa);
  }
  ASSERT_TRUE(first.has_value());
}

TEST(FastNoise, ReducesCurrentVsIdeal) {
  CrossbarConfig cfg = small_config();
  FastNoiseModel model(cfg);
  Rng rng(9);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = Tensor::full({cfg.rows}, static_cast<float>(cfg.v_read));
  Tensor out = model.program(g)->mvm(v);
  Tensor ideal = ideal_mvm(g, v);
  // At full drive, resistive losses dominate the sinh boost.
  EXPECT_LT(out.sum(), ideal.sum());
}

TEST(FastNoise, ApproximatesSolverCoarsely) {
  CrossbarConfig cfg = small_config();
  FastNoiseModel model(cfg);
  Rng rng(10);
  double err = 0, scale = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    Tensor v = sample_voltages(cfg, rng);
    Tensor pred = model.program(g)->mvm(v);
    Tensor truth = solve_crossbar(cfg, {}, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      err += std::abs(pred[j] - truth[j]);
      scale += std::abs(truth[j]);
    }
  }
  EXPECT_LT(err / scale, 0.12);
}

TEST(Nf, IdealModelHasZeroNf) {
  IdealXbarModel model(small_config());
  NfOptions opt;
  opt.samples = 8;
  EXPECT_NEAR(measure_nf(model, opt).nf, 0.0, 1e-6);
}

TEST(Nf, SolverOrderingMatchesTableI) {
  NfOptions opt;
  opt.samples = 6;
  CircuitSolverModel m300(xbar_64x64_300k());
  CircuitSolverModel m32(xbar_32x32_100k());
  CircuitSolverModel m100(xbar_64x64_100k());
  const double nf300 = measure_nf(m300, opt).nf;
  const double nf32 = measure_nf(m32, opt).nf;
  const double nf100 = measure_nf(m100, opt).nf;
  EXPECT_LT(nf300, nf32);
  EXPECT_LT(nf32, nf100);
  EXPECT_GT(nf300, 0.0);
  EXPECT_NEAR(nf100, 0.26, 0.08);
}

TEST(Nf, DeterministicForSeed) {
  FastNoiseModel model(small_config());
  NfOptions opt;
  opt.samples = 4;
  EXPECT_EQ(measure_nf(model, opt).nf, measure_nf(model, opt).nf);
}

TEST(SampleGenerators, RespectPhysicalRanges) {
  CrossbarConfig cfg = small_config();
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    Tensor g = sample_conductances(cfg, rng);
    EXPECT_GE(g.min(), cfg.g_off() * (1 - 1e-6));
    EXPECT_LE(g.max(), cfg.g_on() * (1 + 1e-6));
    Tensor v = sample_voltages(cfg, rng);
    EXPECT_GE(v.min(), 0.0f);
    EXPECT_LE(v.max(), cfg.v_read * (1 + 1e-6));
  }
}

}  // namespace
}  // namespace nvm::xbar
