#include "xbar/geniex.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

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

/// Per-config float constants of the evaluation core, computed once with
/// the exact expressions (and so the exact roundings) fill_features and
/// the per-call code always used.
struct EvalNorms {
  float nv, nv2, nr;             ///< vbar / v2bar / rbar sum scalings
  float i_scale, d_e, d_p, d_w;  ///< divisors of feature rows 0, 4, 5, 9
  float d_g;                     ///< divisor of the column-load feature
  float rel_floor;               ///< denominator floor of the target

  explicit EvalNorms(const CrossbarConfig& cfg) {
    const std::int64_t rows = cfg.rows;
    const float v_read = static_cast<float>(cfg.v_read);
    const float g_on = static_cast<float>(cfg.g_on());
    const float rows_f = static_cast<float>(cfg.rows);
    i_scale = static_cast<float>(cfg.i_scale());
    nv = 1.0f / (v_read * rows);
    nv2 = 1.0f / (v_read * v_read * rows);
    nr = 1.0f / (g_on * v_read * rows * rows);
    d_e = g_on * v_read * v_read * rows_f;
    d_p = g_on * g_on * v_read * rows_f * rows_f;
    d_w = g_on * v_read * rows_f;
    d_g = g_on * rows_f;
    rel_floor = kGeniexRelFloor * i_scale;
  }
};

class GeniexProgrammed final : public ProgrammedXbar {
 public:
  GeniexProgrammed(const CrossbarConfig& cfg, const MlpRegressor& mlp,
                   const GeniexGuardOptions& guard,
                   const FastNoiseModel& fallback, Tensor g)
      : cfg_(cfg), mlp_(mlp), guard_(guard), stats_(cfg, g), norms_(cfg) {
    // The degradation target is programmed with the same conductances up
    // front, so a mid-batch fallback never re-enters program() (which
    // keeps concurrent mvm calls allocation- and race-free).
    if (guard_.enabled) fallback_xbar_ = fallback.program(g);
    // Per-column feature constants (column load, column position).
    const float cols_f = static_cast<float>(cfg_.cols);
    colf_.resize(static_cast<std::size_t>(2 * cfg_.cols));
    for (std::int64_t j = 0; j < cfg_.cols; ++j) {
      colf_[static_cast<std::size_t>(2 * j)] = stats_.gsum[j] / norms_.d_g;
      colf_[static_cast<std::size_t>(2 * j + 1)] =
          cols_f > 1 ? static_cast<float>(j) / (cols_f - 1) : 0.0f;
    }
  }

  Tensor mvm(const Tensor& v) override {
    Tensor vb = v.reshaped({cfg_.rows, 1});
    Tensor out = eval(vb, cfg_.rows, cfg_.cols);
    return out.reshaped({cfg_.cols});
  }

  Tensor mvm_batch(const Tensor& vb) override {
    return eval(vb, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_multi(const Tensor& v_block) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval(v_block, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval(v_block, rows_used, cols_used);
  }

  std::unique_ptr<FusedChunkKernel> compile_chunk_kernel(
      float v_unit, int max_code) const override;

  std::int64_t rows() const { return cfg_.rows; }

  /// The evaluation core behind every entry point and the chunk kernel.
  /// `vb` holds the (rows_used x n) voltage block, row-major with leading
  /// dimension n (rows beyond rows_used carry zero volts by the activity
  /// hint contract, so they are never read); `out` receives the
  /// (cols_used x n) column currents. Runs entirely on the calling thread
  /// with scratch from `ws`. Every surrogate sample — one (column, input
  /// vector) pair — is a pure function of its own inputs: the glue
  /// kernels are [exact] elementwise ops, the feature GEMMs gemm_madd
  /// ([exact], sequential over rows) and the MLP one batch-invariant
  /// mlp_tanh call over all cols_used * n samples, so any blocking of the
  /// same inputs (including n=1 single-vector mvm) gives the same bits.
  void eval_core(const float* vb, std::int64_t n, std::int64_t rows_used,
                 std::int64_t cols_used, float* out,
                 simd::Workspace& ws) const {
    NVM_TRACE_SPAN("xbar/geniex/mvm_batch");
    NVM_CHECK(rows_used >= 1 && rows_used <= cfg_.rows);
    NVM_CHECK(cols_used >= 1 && cols_used <= cfg_.cols);
    const std::int64_t rows = cfg_.rows;
    const std::int64_t ns = cols_used * n;  // surrogate samples
    const auto sz = [](std::int64_t count) {
      return static_cast<std::size_t>(count);
    };

    // Elementwise input transforms and per-vector sums. Float slot 0 is
    // left to the chunk kernel's voltages and slot 3 to the tiled GEMM.
    std::span<float> vv = ws.floats(1, sz(rows_used * n));
    std::span<float> vr = ws.floats(2, sz(rows_used * n));
    std::span<float> sums = ws.floats(6, sz(3 * n));
    simd::geniex_inputs(vv.data(), vr.data(), sums.data(), vb,
                        stats_.growsum.raw(), rows_used, n, norms_.nv,
                        norms_.nv2, norms_.nr);

    // Feature-major block feeding the MLP: feature f of sample (j, k) at
    // ft[f * ns + j * n + k]. The energy, power and wire-distance GEMMs
    // accumulate straight into their feature rows, which geniex_features
    // normalizes in place; the ideal current keeps its own buffer for the
    // output formula.
    std::span<float> ft = ws.floats(4, sz(kGeniexFeatureCount * ns));
    std::span<float> iid = ws.floats(5, sz(ns));
    float* fe = ft.data() + 4 * ns;
    float* fp = ft.data() + 5 * ns;
    float* fw = ft.data() + 9 * ns;
    std::fill(iid.begin(), iid.end(), 0.0f);
    std::fill(fe, fe + ns, 0.0f);
    std::fill(fp, fp + ns, 0.0f);
    std::fill(fw, fw + ns, 0.0f);
    const float* pgt = stats_.gt.raw();    // (cols, rows)
    const float* pgtd = stats_.gtd.raw();  // (cols, rows)
    simd::gemm_madd(iid.data(), pgt, vb, cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fe, pgt, vv.data(), cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fp, pgt, vr.data(), cols_used, n, rows_used, rows, n, n);
    simd::gemm_madd(fw, pgtd, vb, cols_used, n, rows_used, rows, n, n);
    simd::geniex_features(ft.data(), iid.data(), sums.data(), colf_.data(),
                          cols_used, n, norms_.i_scale, norms_.d_e,
                          norms_.d_p, norms_.d_w, stats_.garr);

    std::span<float> rel = ws.floats(7, sz(ns));
    mlp_.predict_block(ft.data(), ns, rel.data());

    // Physical clamp of I_ideal - r * max(I_ideal, floor) into
    // [0, i_scale]; flags mark input vectors whose deviation left the
    // trust envelope somewhere (the surrogate is off its training
    // distribution there), re-evaluated on the fallback model below.
    std::span<std::int8_t> flags = ws.i8s(0, sz(n));
    const std::int64_t nonfinite = simd::geniex_epilogue(
        out, flags.data(), iid.data(), rel.data(), cols_used, n,
        norms_.rel_floor, norms_.i_scale, guard_.enabled, guard_.rel_min,
        guard_.rel_max);
    const bool fell_back = degrade_to_fallback(vb, n, rows_used, cols_used,
                                               flags, out);
    // The scrub scans only when a value can be non-finite, and only the
    // written block: unused columns hold zeros, so the count (and the
    // health accounting) equals a scan of the whole tile output.
    if (nonfinite > 0 || fell_back)
      guard_output_finite(out, cols_used * n, "geniex");
    static metrics::Counter& preds = metrics::counter("xbar/geniex/predictions");
    preds.add(static_cast<std::uint64_t>(ns));
  }

 private:
  /// Checks the Tensor entry points' shapes and runs the core on a
  /// per-thread workspace; output columns beyond cols_used stay zero.
  Tensor eval(const Tensor& vb, std::int64_t rows_used,
              std::int64_t cols_used) const {
    NVM_CHECK_EQ(vb.rank(), 2u);
    NVM_CHECK_EQ(vb.dim(0), cfg_.rows);
    const std::int64_t n = vb.dim(1);
    Tensor out({cfg_.cols, n});
    thread_local simd::Workspace ws;
    eval_core(vb.raw(), n, rows_used, cols_used, out.raw(), ws);
    return out;
  }

  /// Replaces the output columns of every flagged input vector with the
  /// fast-noise model's prediction (counted + logged, never a crash).
  /// Returns whether any vector was replaced.
  bool degrade_to_fallback(const float* vb, std::int64_t n,
                           std::int64_t rows_used, std::int64_t cols_used,
                           std::span<const std::int8_t> flagged,
                           float* out) const {
    std::uint64_t dropped = 0;
    for (std::int64_t k = 0; k < n; ++k) {
      if (flagged[static_cast<std::size_t>(k)] == 0) continue;
      ++dropped;
      Tensor v({cfg_.rows});  // rows beyond rows_used: zero volts
      for (std::int64_t i = 0; i < rows_used; ++i) v[i] = vb[i * n + k];
      Tensor y = fallback_xbar_->mvm(v);
      for (std::int64_t j = 0; j < cols_used; ++j) out[j * n + k] = y[j];
    }
    if (dropped == 0) return false;
    const std::uint64_t total = bump(HealthCounter::SurrogateFallback, dropped);
    if (health_should_log(total))
      NVM_LOG(Warn) << "geniex surrogate out of envelope on " << cfg_.name
                    << " for " << dropped << " of " << n
                    << " input vector(s); fell back to fast_noise (total "
                    << total << ")";
    return true;
  }

  const CrossbarConfig& cfg_;
  const MlpRegressor& mlp_;
  GeniexGuardOptions guard_;
  std::unique_ptr<ProgrammedXbar> fallback_xbar_;
  ProgramStats stats_;
  EvalNorms norms_;
  std::vector<float> colf_;  ///< per column: load feature, position feature
};

/// Chunk kernel of a programmed GENIEx crossbar. run() materializes the
/// DAC voltages v_unit * float(code) — the floats materialize_chunk_volts
/// builds — for the used rows into
/// workspace float slot 0, then runs the evaluation core, which writes
/// the cols_used x n currents straight into the caller's buffer. The
/// surrogate has no per-cell tables worth precomputing; the kernel's win
/// is the integer DAC and skipping the per-pass Tensor round trip.
class GeniexChunkKernel final : public FusedChunkKernel {
 public:
  GeniexChunkKernel(const GeniexProgrammed& xbar, float v_unit)
      : xbar_(xbar), v_unit_(v_unit) {}

  void run(const ChunkBlock& cb, std::int64_t rows_used,
           std::int64_t cols_used, float* out,
           simd::Workspace& ws) const override {
    NVM_CHECK_EQ(cb.rows, xbar_.rows());
    NVM_CHECK_EQ(cb.v_unit, v_unit_);
    NVM_CHECK(rows_used >= 1 && rows_used <= cb.rows);
    const std::int64_t n = cb.n;
    if (n == 0) return;
    count_mvm_multi_columns(n);
    const std::int64_t cells = rows_used * n;
    std::span<float> volts = ws.floats(0, static_cast<std::size_t>(cells));
    for (std::int64_t i = 0; i < cells; ++i)
      volts[static_cast<std::size_t>(i)] =
          cb.v_unit * static_cast<float>(cb.chunk[i]);
    xbar_.eval_core(volts.data(), n, rows_used, cols_used, out, ws);
  }

 private:
  const GeniexProgrammed& xbar_;
  float v_unit_;
};

std::unique_ptr<FusedChunkKernel> GeniexProgrammed::compile_chunk_kernel(
    float v_unit, int max_code) const {
  (void)max_code;  // any code alphabet: voltages are materialized per run
  return std::make_unique<GeniexChunkKernel>(*this, v_unit);
}

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
