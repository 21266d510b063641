#include "xbar/geniex.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/simd.h"
#include "common/file_cache.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/ops.h"

namespace nvm::xbar {

namespace {

/// Precomputed per-programming state shared by feature assembly.
struct ProgramStats {
  Tensor gt;       // (cols, rows)
  Tensor gtd;      // (cols, rows), g_ij * (rows-1-i)/rows (column-wire distance)
  Tensor gsum;     // (cols)
  Tensor growsum;  // (rows)
  float garr = 0;  // normalized total conductance

  ProgramStats(const CrossbarConfig& cfg, const Tensor& g) {
    const std::int64_t rows = cfg.rows, cols = cfg.cols;
    gt = transpose2d(g);
    gtd = Tensor({cols, rows});
    gsum = Tensor({cols});
    growsum = Tensor({rows});
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
    garr = static_cast<float>(total / (cfg.g_on() * rows * cols));
  }
};

/// Fills one feature row. `iid` is the ideal current of column j.
void fill_features(const CrossbarConfig& cfg, const ProgramStats& st,
                   std::int64_t j, float iid, float vbar, float v2bar,
                   float rbar, float e_j, float p_j, float w_j, float* out) {
  const auto rows = static_cast<float>(cfg.rows);
  const auto cols = static_cast<float>(cfg.cols);
  const float g_on = static_cast<float>(cfg.g_on());
  const float v_read = static_cast<float>(cfg.v_read);
  const float i_scale = static_cast<float>(cfg.i_scale());
  out[0] = iid / i_scale;
  out[1] = st.gsum[j] / (g_on * rows);
  out[2] = vbar;
  out[3] = v2bar;
  out[4] = e_j / (g_on * v_read * v_read * rows);
  out[5] = p_j / (g_on * g_on * v_read * rows * rows);
  out[6] = rbar;
  out[7] = cols > 1 ? static_cast<float>(j) / (cols - 1) : 0.0f;
  out[8] = st.garr;
  out[9] = w_j / (g_on * v_read * rows);
}

class GeniexProgrammed final : public ProgrammedXbar {
 public:
  GeniexProgrammed(const CrossbarConfig& cfg, const MlpRegressor& mlp,
                   const GeniexGuardOptions& guard,
                   const FastNoiseModel& fallback, Tensor g)
      : cfg_(cfg), mlp_(mlp), guard_(guard), stats_(cfg, g) {
    // The degradation target is programmed with the same conductances up
    // front, so a mid-batch fallback never re-enters program() (which
    // keeps concurrent mvm calls allocation- and race-free).
    if (guard_.enabled) fallback_xbar_ = fallback.program(g);
  }

  Tensor mvm(const Tensor& v) override {
    Tensor vb = v.reshaped({cfg_.rows, 1});
    Tensor out = mvm_batch(vb);
    return out.reshaped({cfg_.cols});
  }

  Tensor mvm_batch(const Tensor& vb) override {
    return eval_block(vb, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_batch_active(const Tensor& vb, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return eval_block(vb, rows_used, cols_used);
  }

  Tensor mvm_multi(const Tensor& v_block) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval_block(v_block, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval_block(v_block, rows_used, cols_used);
  }

 private:
  /// The blocked evaluation core behind every entry point. Runs entirely
  /// on the calling thread. Every surrogate sample — one (column, input
  /// vector) pair — is a pure function of its own inputs: the feature
  /// GEMMs are gemm_madd ([exact], sequential over rows) and the MLP is
  /// one batch-invariant mlp_tanh call over all cols_used * n samples, so
  /// any blocking of the same inputs (including n=1 single-vector mvm)
  /// produces bit-identical outputs.
  Tensor eval_block(const Tensor& vb, std::int64_t rows_used,
                    std::int64_t cols_used) {
    NVM_TRACE_SPAN("xbar/geniex/mvm_batch");
    NVM_CHECK_EQ(vb.rank(), 2u);
    NVM_CHECK_EQ(vb.dim(0), cfg_.rows);
    NVM_CHECK(rows_used >= 1 && rows_used <= cfg_.rows);
    NVM_CHECK(cols_used >= 1 && cols_used <= cfg_.cols);
    const std::int64_t rows = cfg_.rows, cols = cfg_.cols, n = vb.dim(1);
    const std::int64_t ns = cols_used * n;  // surrogate samples
    const float v_read = static_cast<float>(cfg_.v_read);
    const float g_on = static_cast<float>(cfg_.g_on());
    const float i_scale = static_cast<float>(cfg_.i_scale());

    // All per-call scratch lives in a per-thread workspace: one tiled
    // matmul evaluates thousands of chunk blocks, and the reused buffers
    // keep this path allocation-free after warm-up.
    thread_local simd::Workspace ws;
    const auto sz = [](std::int64_t count) {
      return static_cast<std::size_t>(count);
    };

    // Elementwise input transforms (rows beyond rows_used are zero volts,
    // contributing exactly nothing to any sum below).
    std::span<float> vv = ws.floats(0, sz(rows_used * n));
    std::span<float> vr = ws.floats(1, sz(rows_used * n));
    const float* pvb = vb.raw();
    {
      float* pvv = vv.data();
      float* pvr = vr.data();
      for (std::int64_t i = 0; i < rows_used; ++i) {
        const float gr = stats_.growsum[i];
        const float* src = pvb + i * n;
        float* dv = pvv + i * n;
        float* dr = pvr + i * n;
        for (std::int64_t k = 0; k < n; ++k) {
          dv[k] = src[k] * src[k];
          dr[k] = src[k] * gr;
        }
      }
    }

    // Feature-major block feeding the MLP: feature f of sample (j, k) at
    // ft[f * ns + j * n + k]. The energy, power and wire-distance GEMMs
    // accumulate straight into their feature rows and are normalized in
    // place below; the ideal current keeps its own buffer for the output
    // formula.
    std::span<float> ft = ws.floats(2, sz(kGeniexFeatureCount * ns));
    std::span<float> iid = ws.floats(3, sz(ns));
    float* fe = ft.data() + 4 * ns;
    float* fp = ft.data() + 5 * ns;
    float* fw = ft.data() + 9 * ns;
    std::fill(iid.begin(), iid.end(), 0.0f);
    std::fill(fe, fe + ns, 0.0f);
    std::fill(fp, fp + ns, 0.0f);
    std::fill(fw, fw + ns, 0.0f);
    const float* pgt = stats_.gt.raw();    // (cols, rows)
    const float* pgtd = stats_.gtd.raw();  // (cols, rows)
    simd::gemm_madd(iid.data(), pgt, pvb, cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fe, pgt, vv.data(), cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fp, pgt, vr.data(), cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fw, pgtd, pvb, cols_used, n, rows_used, rows, n, n);

    // Per-input-vector scalars.
    std::span<float> vbar = ws.floats(4, sz(n));
    std::span<float> v2bar = ws.floats(5, sz(n));
    std::span<float> rbar = ws.floats(6, sz(n));
    std::fill(vbar.begin(), vbar.end(), 0.0f);
    std::fill(v2bar.begin(), v2bar.end(), 0.0f);
    std::fill(rbar.begin(), rbar.end(), 0.0f);
    {
      const float* pvv = vv.data();
      const float* pvr = vr.data();
      for (std::int64_t i = 0; i < rows_used; ++i) {
        const float* xb = pvb + i * n;
        const float* xv = pvv + i * n;
        const float* xr = pvr + i * n;
        for (std::int64_t k = 0; k < n; ++k) {
          vbar[static_cast<std::size_t>(k)] += xb[k];
          v2bar[static_cast<std::size_t>(k)] += xv[k];
          rbar[static_cast<std::size_t>(k)] += xr[k];
        }
      }
      const float nv = 1.0f / (v_read * rows);
      const float nv2 = 1.0f / (v_read * v_read * rows);
      const float nr = 1.0f / (g_on * v_read * rows * rows);
      for (std::int64_t k = 0; k < n; ++k) {
        vbar[static_cast<std::size_t>(k)] *= nv;
        v2bar[static_cast<std::size_t>(k)] *= nv2;
        rbar[static_cast<std::size_t>(k)] *= nr;
      }
    }

    // Remaining feature rows, normalized per sample with the same float
    // denominators as fill_features.
    const float rows_f = static_cast<float>(cfg_.rows);
    const float cols_f = static_cast<float>(cfg_.cols);
    const float d_e = g_on * v_read * v_read * rows_f;
    const float d_p = g_on * g_on * v_read * rows_f * rows_f;
    const float d_w = g_on * v_read * rows_f;
    const float d_g = g_on * rows_f;
    for (std::int64_t j = 0; j < cols_used; ++j) {
      float* F = ft.data() + j * n;
      const float* ji = iid.data() + j * n;
      const float f_gsum = stats_.gsum[j] / d_g;
      const float f_pos =
          cols_f > 1 ? static_cast<float>(j) / (cols_f - 1) : 0.0f;
      for (std::int64_t k = 0; k < n; ++k) {
        F[0 * ns + k] = ji[k] / i_scale;
        F[4 * ns + k] = F[4 * ns + k] / d_e;
        F[5 * ns + k] = F[5 * ns + k] / d_p;
        F[9 * ns + k] = F[9 * ns + k] / d_w;
        F[1 * ns + k] = f_gsum;
        F[7 * ns + k] = f_pos;
        F[8 * ns + k] = stats_.garr;
      }
      std::copy(vbar.begin(), vbar.end(), F + 2 * ns);
      std::copy(v2bar.begin(), v2bar.end(), F + 3 * ns);
      std::copy(rbar.begin(), rbar.end(), F + 6 * ns);
    }
    std::span<float> rel = ws.floats(7, sz(ns));
    mlp_.predict_block(ft.data(), ns, rel.data());

    Tensor out({cols, n});
    const float rel_floor = kGeniexRelFloor * i_scale;
    std::span<std::int8_t> out_of_envelope = ws.i8s(0, sz(n));
    std::fill(out_of_envelope.begin(), out_of_envelope.end(), 0);
    bool any_fallback = false;
    for (std::int64_t j = 0; j < cols_used; ++j) {
      const float* ji = iid.data() + j * n;
      const float* jr = rel.data() + j * n;
      float* jo = out.raw() + j * n;
      for (std::int64_t k = 0; k < n; ++k) {
        const float r = jr[k];
        if (guard_.enabled && (!std::isfinite(r) || r < guard_.rel_min ||
                               r > guard_.rel_max)) {
          // Out-of-envelope deviation: the surrogate is off its training
          // distribution for this input. Its whole column set for sample k
          // is distrusted and re-evaluated on the fallback model below.
          out_of_envelope[static_cast<std::size_t>(k)] = 1;
          any_fallback = true;
        }
        const float denom = std::max(ji[k], rel_floor);
        // Physical clamp: column current is non-negative and bounded by
        // the full-scale current.
        jo[k] = std::clamp(ji[k] - r * denom, 0.0f, i_scale);
      }
    }
    if (any_fallback) degrade_to_fallback(vb, out_of_envelope, cols_used, out);
    guard_output_finite(out, "geniex");
    static metrics::Counter& preds = metrics::counter("xbar/geniex/predictions");
    preds.add(static_cast<std::uint64_t>(ns));
    return out;
  }

 private:
  /// Replaces the output columns of every flagged sample with the
  /// fast-noise model's prediction (counted + logged, never a crash).
  void degrade_to_fallback(const Tensor& vb,
                           std::span<const std::int8_t> flagged,
                           std::int64_t cols_used, Tensor& out) {
    const std::int64_t rows = cfg_.rows, n = vb.dim(1);
    std::uint64_t dropped = 0;
    for (std::int64_t k = 0; k < n; ++k) {
      if (flagged[static_cast<std::size_t>(k)] == 0) continue;
      ++dropped;
      Tensor v({rows});
      for (std::int64_t i = 0; i < rows; ++i) v[i] = vb.at(i, k);
      Tensor y = fallback_xbar_->mvm(v);
      for (std::int64_t j = 0; j < cols_used; ++j) out.at(j, k) = y[j];
    }
    const std::uint64_t total = bump(HealthCounter::SurrogateFallback, dropped);
    if (health_should_log(total))
      NVM_LOG(Warn) << "geniex surrogate out of envelope on " << cfg_.name
                    << " for " << dropped << " of " << n
                    << " input vector(s); fell back to fast_noise (total "
                    << total << ")";
  }

  const CrossbarConfig& cfg_;
  const MlpRegressor& mlp_;
  GeniexGuardOptions guard_;
  std::unique_ptr<ProgrammedXbar> fallback_xbar_;
  ProgramStats stats_;
};

}  // namespace

Tensor geniex_features(const CrossbarConfig& cfg, const Tensor& g,
                       const Tensor& v) {
  validate_conductances(g, cfg);
  NVM_CHECK_EQ(v.numel(), cfg.rows);
  ProgramStats st(cfg, g);
  const std::int64_t rows = cfg.rows, cols = cfg.cols;
  const float v_read = static_cast<float>(cfg.v_read);
  const float g_on = static_cast<float>(cfg.g_on());

  double sv = 0, sv2 = 0, sr = 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    sv += v[i];
    sv2 += static_cast<double>(v[i]) * v[i];
    sr += static_cast<double>(v[i]) * st.growsum[i];
  }
  const float vbar = static_cast<float>(sv / (v_read * rows));
  const float v2bar = static_cast<float>(sv2 / (v_read * v_read * rows));
  const float rbar = static_cast<float>(sr / (g_on * v_read * rows * rows));

  Tensor iid = matvec(st.gt, v);
  Tensor e({cols}), p({cols}), wd({cols});
  for (std::int64_t j = 0; j < cols; ++j) {
    double ej = 0, pj = 0, wj = 0;
    for (std::int64_t i = 0; i < rows; ++i) {
      const float gij = st.gt.at(j, i);
      ej += static_cast<double>(gij) * v[i] * v[i];
      pj += static_cast<double>(gij) * v[i] * st.growsum[i];
      wj += static_cast<double>(st.gtd.at(j, i)) * v[i];
    }
    e[j] = static_cast<float>(ej);
    p[j] = static_cast<float>(pj);
    wd[j] = static_cast<float>(wj);
  }

  Tensor feats({cols, kGeniexFeatureCount});
  for (std::int64_t j = 0; j < cols; ++j)
    fill_features(cfg, st, j, iid[j], vbar, v2bar, rbar, e[j], p[j], wd[j],
                  feats.raw() + j * kGeniexFeatureCount);
  return feats;
}

Tensor sample_conductances(const CrossbarConfig& cfg, Rng& rng) {
  const float g_off = static_cast<float>(cfg.g_off());
  const float g_on = static_cast<float>(cfg.g_on());
  const float span = g_on - g_off;
  Tensor g({cfg.rows, cfg.cols});
  const int pattern = static_cast<int>(rng.uniform_index(3));
  const auto levels = static_cast<double>(cfg.levels - 1);
  for (auto& val : g.data()) {
    double u;
    switch (pattern) {
      case 0:  // uniform across the full range
        u = rng.uniform();
        break;
      case 1:  // quantized to device levels (as programmed weight slices)
        u = std::round(rng.uniform() * levels) / levels;
        break;
      default:  // mostly-OFF, like sliced near-zero DNN weights
        u = rng.bernoulli(0.3) ? rng.uniform() : rng.uniform() * 0.15;
        break;
    }
    val = g_off + span * static_cast<float>(u);
  }
  return g;
}

Tensor sample_voltages(const CrossbarConfig& cfg, Rng& rng) {
  const float v_read = static_cast<float>(cfg.v_read);
  Tensor v({cfg.rows});
  const int pattern = static_cast<int>(rng.uniform_index(4));
  const double sparsity = rng.uniform(0.3, 0.97);
  for (auto& val : v.data()) {
    switch (pattern) {
      case 0:  // dense DAC levels
        val = v_read * static_cast<float>(
                           std::round(rng.uniform() * 7.0) / 7.0);
        break;
      case 1:  // sparse post-ReLU-like
        val = rng.bernoulli(sparsity)
                  ? 0.0f
                  : v_read * static_cast<float>(rng.uniform());
        break;
      case 2:  // binary streams
        val = rng.bernoulli(0.5) ? v_read : 0.0f;
        break;
      default:  // low-amplitude
        val = v_read * static_cast<float>(rng.uniform() * 0.3);
        break;
    }
  }
  return v;
}

GeniexModel::GeniexModel(CrossbarConfig cfg, MlpRegressor mlp,
                         GeniexGuardOptions guard)
    : cfg_(std::move(cfg)),
      mlp_(std::move(mlp)),
      guard_(guard),
      fallback_(cfg_) {
  NVM_CHECK_EQ(mlp_.in_dim(), kGeniexFeatureCount);
  NVM_CHECK(guard_.rel_min < guard_.rel_max);
}

GeniexFit GeniexModel::fit(const CrossbarConfig& cfg,
                           const GeniexTrainOptions& opt) {
  trace::Span fit_span("xbar/geniex/fit");
  Rng rng(opt.seed);
  const std::int64_t n_samples = opt.solver_samples;
  NVM_CHECK_GT(n_samples, 10);
  const std::int64_t n_rows = n_samples * cfg.cols;
  Tensor x({n_rows, kGeniexFeatureCount});
  Tensor y({n_rows});
  const float i_scale = static_cast<float>(cfg.i_scale());

  NVM_LOG(Info) << "GENIEx fit for " << cfg.name << ": " << n_samples
                << " circuit solves across " << ThreadPool::current().size()
                << " thread(s)";
  // Each sample draws from its own split stream and writes disjoint rows
  // of (x, y), so the solves fan out across the pool with results
  // bit-identical to a serial run.
  parallel_for(n_samples, [&](std::int64_t s) {
    Rng srng = rng.split(static_cast<std::uint64_t>(s));
    Tensor g = sample_conductances(cfg, srng);
    Tensor v = sample_voltages(cfg, srng);
    Tensor feats = geniex_features(cfg, g, v);
    Tensor i_ideal = ideal_mvm(g, v);
    Tensor i_ni = solve_crossbar(cfg, opt.solver, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      const std::int64_t row = s * cfg.cols + j;
      for (std::int64_t f = 0; f < kGeniexFeatureCount; ++f)
        x.at(row, f) = feats.at(j, f);
      const float denom = std::max(i_ideal[j], kGeniexRelFloor * i_scale);
      y[row] = (i_ideal[j] - i_ni[j]) / denom;
    }
  });

  // Hold out the last 12.5% of solves for validation.
  const std::int64_t n_train = (n_rows * 7) / 8;
  Tensor x_train({n_train, kGeniexFeatureCount});
  Tensor y_train({n_train});
  Tensor x_val({n_rows - n_train, kGeniexFeatureCount});
  Tensor y_val({n_rows - n_train});
  for (std::int64_t i = 0; i < n_rows; ++i) {
    Tensor& xd = (i < n_train) ? x_train : x_val;
    Tensor& yd = (i < n_train) ? y_train : y_val;
    const std::int64_t r = (i < n_train) ? i : i - n_train;
    for (std::int64_t f = 0; f < kGeniexFeatureCount; ++f)
      xd.at(r, f) = x.at(i, f);
    yd[r] = y[i];
  }

  Rng init_rng(opt.seed + 1);
  MlpRegressor mlp(kGeniexFeatureCount, opt.hidden, init_rng);
  const float train_mse = mlp.train(x_train, y_train, opt.mlp);
  const float val_mse = mlp.mse(x_val, y_val);
  metrics::counter("xbar/geniex/fits").add();
  metrics::gauge("xbar/geniex/fit_seconds").set(fit_span.seconds());
  metrics::gauge("xbar/geniex/val_mse").set(val_mse);
  NVM_LOG(Info) << "GENIEx " << cfg.name << " train_mse=" << train_mse
                << " val_mse=" << val_mse;
  return GeniexFit{std::move(mlp), train_mse, val_mse};
}

GeniexModel GeniexModel::load_or_train(const CrossbarConfig& cfg,
                                       const GeniexTrainOptions& opt) {
  // "ps1" marks the per-sample split-stream sampling scheme; bumping it
  // invalidates caches fitted from the old sequential-draw scheme.
  std::ostringstream tag;
  tag << cfg.tag() << "_s" << opt.solver_samples << "_h" << opt.hidden
      << "_e" << opt.mlp.epochs << "_seed" << opt.seed << "_ps1";
  const std::string file = "geniex_" + cfg.name + ".bin";

  std::optional<MlpRegressor> mlp;
  cache_load(file, tag.str(),
             [&](BinaryReader& r) { mlp = MlpRegressor::load(r); });
  if (!mlp.has_value()) {
    GeniexFit fitted = fit(cfg, opt);
    mlp = std::move(fitted.mlp);
    cache_store(file, tag.str(), [&](BinaryWriter& w) { mlp->save(w); });
  }
  return GeniexModel(cfg, std::move(*mlp));
}

std::unique_ptr<ProgrammedXbar> GeniexModel::program(const Tensor& g) const {
  validate_conductances(g, cfg_);
  return std::make_unique<GeniexProgrammed>(cfg_, mlp_, guard_, fallback_, g);
}

}  // namespace nvm::xbar
