#include "xbar/mvm_model.h"

#include <cmath>

#include "common/check.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace nvm::xbar {

void count_mvm_multi_columns(std::int64_t n) {
  static metrics::Counter& columns =
      metrics::counter("xbar/mvm_multi_columns");
  columns.add(static_cast<std::uint64_t>(n));
}

Tensor ProgrammedXbar::mvm_multi(const Tensor& v_block) {
  NVM_CHECK_EQ(v_block.rank(), 2u);
  const std::int64_t rows = v_block.dim(0), n = v_block.dim(1);
  if (n == 0) return Tensor();
  count_mvm_multi_columns(n);
  Tensor v({rows});
  Tensor out;
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t i = 0; i < rows; ++i) v[i] = v_block.at(i, k);
    Tensor y = mvm(v);
    if (k == 0) out = Tensor({y.numel(), n});
    for (std::int64_t j = 0; j < y.numel(); ++j) out.at(j, k) = y[j];
  }
  return out;
}

Tensor ProgrammedXbar::mvm_multi_active(const Tensor& v_block,
                                        std::int64_t rows_used,
                                        std::int64_t cols_used) {
  (void)rows_used;
  (void)cols_used;
  return mvm_multi(v_block);
}

namespace {

/// Materializes the float voltage block a ChunkBlock stands for: one float
/// multiply v_unit * float(code) per cell, the voltages every chunk-driven
/// model must reproduce bit for bit.
Tensor materialize_chunk_volts(const ChunkBlock& cb) {
  Tensor volts({cb.rows, cb.n});
  float* pv = volts.raw();
  const std::int64_t cells = cb.rows * cb.n;
  for (std::int64_t i = 0; i < cells; ++i)
    pv[i] = cb.v_unit * static_cast<float>(cb.chunk[i]);
  return volts;
}

/// Default stream: stateless forwarding, identical to cold evaluation.
class PassthroughStream final : public XbarStream {
 public:
  explicit PassthroughStream(ProgrammedXbar* xbar) : xbar_(xbar) {}

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return xbar_->mvm_multi_active(v_block, rows_used, cols_used);
  }

  Tensor mvm_chunks_active(const ChunkBlock& cb, std::int64_t rows_used,
                           std::int64_t cols_used) override {
    return xbar_->mvm_chunks_active(cb, rows_used, cols_used);
  }

 private:
  ProgrammedXbar* xbar_;
};

}  // namespace

Tensor ProgrammedXbar::mvm_chunks_active(const ChunkBlock& cb,
                                         std::int64_t rows_used,
                                         std::int64_t cols_used) {
  return mvm_multi_active(materialize_chunk_volts(cb), rows_used, cols_used);
}

Tensor XbarStream::mvm_chunks_active(const ChunkBlock& cb,
                                     std::int64_t rows_used,
                                     std::int64_t cols_used) {
  return mvm_multi_active(materialize_chunk_volts(cb), rows_used, cols_used);
}

std::unique_ptr<XbarStream> ProgrammedXbar::open_stream() {
  return std::make_unique<PassthroughStream>(this);
}

std::unique_ptr<FusedChunkKernel> ProgrammedXbar::compile_chunk_kernel(
    float v_unit, int max_code) const {
  (void)v_unit;
  (void)max_code;
  return nullptr;  // no fused form; callers use the stream path
}

Tensor ProgrammedXbar::mvm_batch(const Tensor& v_batch) {
  NVM_CHECK_EQ(v_batch.rank(), 2u);
  const std::int64_t rows = v_batch.dim(0), n = v_batch.dim(1);
  if (n == 0) return Tensor();
  static metrics::Counter& columns = metrics::counter("xbar/mvm_columns");
  columns.add(static_cast<std::uint64_t>(n));
  const auto eval_column = [&](std::int64_t k, Tensor& out) {
    Tensor v({rows});
    for (std::int64_t i = 0; i < rows; ++i) v[i] = v_batch.at(i, k);
    Tensor y = mvm(v);
    for (std::int64_t j = 0; j < y.numel(); ++j) out.at(j, k) = y[j];
  };
  // Column 0 runs inline to size the output; the remaining independent
  // columns fan out across the pool (each writes a disjoint column, so
  // results are bit-identical for any thread count).
  Tensor v0({rows});
  for (std::int64_t i = 0; i < rows; ++i) v0[i] = v_batch.at(i, 0);
  Tensor y0 = mvm(v0);
  Tensor out({y0.numel(), n});
  for (std::int64_t j = 0; j < y0.numel(); ++j) out.at(j, 0) = y0[j];
  parallel_for(n - 1, [&](std::int64_t k) { eval_column(k + 1, out); });
  return out;
}

void validate_conductances(const Tensor& g, const CrossbarConfig& cfg) {
  NVM_CHECK_EQ(g.rank(), 2u);
  NVM_CHECK_EQ(g.dim(0), cfg.rows);
  NVM_CHECK_EQ(g.dim(1), cfg.cols);
  const float lo = static_cast<float>(cfg.g_off() * (1 - 1e-6));
  const float hi = static_cast<float>(cfg.g_on() * (1 + 1e-6));
  NVM_CHECK(g.min() >= lo && g.max() <= hi,
            "conductance out of [g_off, g_on]: [" << g.min() << ", " << g.max()
                                                  << "]");
}

std::int64_t guard_output_finite(Tensor& out, const char* who) {
  return guard_output_finite(out.raw(), out.numel(), who);
}

std::int64_t guard_output_finite(float* p, std::int64_t n, const char* who) {
  std::int64_t scrubbed = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) {
      p[i] = 0.0f;
      ++scrubbed;
    }
  }
  if (scrubbed > 0) {
    const std::uint64_t total = bump(HealthCounter::NonFiniteOutput,
                                     static_cast<std::uint64_t>(scrubbed));
    if (health_should_log(total))
      NVM_LOG(Warn) << who << ": scrubbed " << scrubbed
                    << " non-finite output value(s) (total " << total << ")";
  }
  return scrubbed;
}

namespace {

class IdealProgrammed final : public ProgrammedXbar {
 public:
  explicit IdealProgrammed(Tensor g) : gt_(transpose2d(g)) {}

  Tensor mvm(const Tensor& v) override { return matvec(gt_, v); }
  Tensor mvm_batch(const Tensor& v_batch) override {
    return matmul(gt_, v_batch);
  }
  Tensor mvm_multi(const Tensor& v_block) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    NVM_CHECK_EQ(v_block.dim(0), gt_.dim(1));
    const std::int64_t n = v_block.dim(1);
    if (n == 0) return Tensor();
    count_mvm_multi_columns(n);
    Tensor out({gt_.dim(0), n});
    // Same sequential-over-rows double accumulation as matvec per column,
    // so this is bit-identical to looping mvm().
    simd::gemm_f64acc(out.raw(), gt_.raw(), v_block.raw(), gt_.dim(0), n,
                      gt_.dim(1), gt_.dim(1), n, n);
    return out;
  }
  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    NVM_CHECK_EQ(v_block.dim(0), gt_.dim(1));
    const std::int64_t n = v_block.dim(1);
    if (n == 0) return Tensor();
    count_mvm_multi_columns(n);
    Tensor out({gt_.dim(0), n});
    // Rows beyond rows_used carry exactly zero volts, so truncating the
    // reduction adds only +0.0 terms and the result stays bit-identical.
    simd::gemm_f64acc(out.raw(), gt_.raw(), v_block.raw(), cols_used, n,
                      rows_used, gt_.dim(1), n, n);
    return out;
  }

 private:
  Tensor gt_;  // (cols, rows)
};

}  // namespace

std::unique_ptr<ProgrammedXbar> IdealXbarModel::program(const Tensor& g) const {
  validate_conductances(g, cfg_);
  return std::make_unique<IdealProgrammed>(g);
}

Tensor ideal_mvm(const Tensor& g, const Tensor& v) {
  return matvec(transpose2d(g), v);
}

Tensor ideal_mvm_batch(const Tensor& g, const Tensor& v_batch) {
  return matmul(transpose2d(g), v_batch);
}

}  // namespace nvm::xbar
