// Quantization, bit-slicing, tiled crossbar GEMM, and engine tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "puma/bit_slicing.h"
#include "puma/engine.h"
#include "puma/quantize.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "tiled_reference.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm::puma {
namespace {

TEST(QuantizeWeights, RoundTripWithinHalfStep) {
  Rng rng(1);
  Tensor w = Tensor::normal({8, 8}, 0, 0.3f, rng);
  for (std::int64_t bits : {4, 6, 8}) {
    QuantizedWeights q = quantize_weights(w, bits);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      EXPECT_LE(std::abs(q.q[i]), static_cast<float>(q.qmax));
      EXPECT_NEAR(q.q[i] * q.scale, w[i], q.scale * 0.5f + 1e-7f);
    }
  }
}

TEST(QuantizeWeights, ZeroTensorHandled) {
  Tensor w({3, 3});
  QuantizedWeights q = quantize_weights(w, 8);
  EXPECT_EQ(q.q.abs_max(), 0.0f);
  EXPECT_GT(q.scale, 0.0f);
}

TEST(QuantizeActivations, ClipsAndScales) {
  Tensor x({4}, {-0.1f, 0.0f, 0.5f, 2.0f});
  std::vector<std::int16_t> q = quantize_activations_i16(x, 1.0f, 4);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[0], 0);    // negative clipped
  EXPECT_EQ(q[2], 8);    // 0.5 * 15 = 7.5 -> 8
  EXPECT_EQ(q[3], 15);   // above-scale clipped to max
}

TEST(AdcQuantize, IdempotentAndMonotone) {
  const float fs = 1.0f;
  float prev = -1;
  for (float x = 0.0f; x <= 1.0f; x += 0.01f) {
    const float q = adc_quantize(x, fs, 6);
    EXPECT_EQ(adc_quantize(q, fs, 6), q);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_EQ(adc_quantize(-0.5f, fs, 6), 0.0f);
  EXPECT_EQ(adc_quantize(2.0f, fs, 6), 1.0f);
}

class BitSlicing : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BitSlicing, ChunksReconstructValue) {
  const auto [value_bits, chunk_bits] = GetParam();
  const std::int64_t n_chunks = slice_count(value_bits, chunk_bits);
  Rng rng(3);
  const std::int64_t max_val = (std::int64_t{1} << value_bits) - 1;
  Tensor values({32});
  for (auto& v : values.data())
    v = static_cast<float>(rng.uniform_index(max_val + 1));
  Tensor recon({32});
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    Tensor chunk = extract_chunk(values, c, chunk_bits);
    EXPECT_LE(chunk.max(), static_cast<float>((1 << chunk_bits) - 1));
    recon.add_scaled(chunk, chunk_weight(c, chunk_bits));
  }
  EXPECT_EQ(max_abs_diff(recon, values), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitSlicing,
                         ::testing::Values(std::pair{6, 3}, std::pair{8, 4},
                                           std::pair{7, 2}, std::pair{4, 1},
                                           std::pair{5, 5}));

TEST(BitSlicing, NegativeValueRejected) {
  Tensor v({1}, {-1.0f});
  EXPECT_THROW(extract_chunk(v, 0, 2), CheckError);
}

xbar::CrossbarConfig test_cfg() {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  return cfg;
}

struct TiledCase {
  std::int64_t m, k, n;
};

class TiledIdeal : public ::testing::TestWithParam<TiledCase> {};

// With an ideal crossbar model the tiled GEMM must reproduce the float
// GEMM up to weight/input/ADC quantization error.
TEST_P(TiledIdeal, ApproximatesFloatGemm) {
  const TiledCase p = GetParam();
  Rng rng(5);
  Tensor w = Tensor::normal({p.m, p.k}, 0, 0.2f, rng);
  Tensor x({p.k, p.n});
  for (auto& v : x.data())
    v = rng.bernoulli(0.4) ? 0.0f : static_cast<float>(rng.uniform(0, 1));

  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  HwConfig hw;
  TiledMatrix tiled(w, model, hw);
  Tensor got = tiled.matmul(x);
  Tensor want = matmul(w, x);
  // Error budget: dominated by input/weight quantization.
  const float tol = 0.05f * want.abs_max() + 1e-4f;
  EXPECT_LT(max_abs_diff(got, want), tol)
      << p.m << "x" << p.k << "x" << p.n;
}

INSTANTIATE_TEST_SUITE_P(Shapes, TiledIdeal,
                         ::testing::Values(TiledCase{8, 12, 5},
                                           TiledCase{16, 16, 1},
                                           TiledCase{20, 40, 7},   // tiling both dims
                                           TiledCase{3, 100, 4},   // many row tiles
                                           TiledCase{33, 9, 2}));  // col tiles

TEST(Tiled, ZeroInputGivesZeroOutput) {
  Rng rng(6);
  Tensor w = Tensor::normal({4, 8}, 0, 1, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor out = tiled.matmul(Tensor({8, 3}));
  EXPECT_EQ(out.abs_max(), 0.0f);
}

TEST(Tiled, NegativeInputRejected) {
  Rng rng(7);
  Tensor w = Tensor::normal({4, 8}, 0, 1, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor x = Tensor::full({8, 2}, -0.5f);
  EXPECT_THROW(tiled.matmul(x), CheckError);
}

TEST(Tiled, SkipZeroTilesIsExactForIdealModel) {
  Rng rng(8);
  // All-positive weights: every negative-polarity slice is empty.
  Tensor w = Tensor::uniform({6, 10}, 0.01f, 0.5f, rng);
  Tensor x = Tensor::uniform({10, 4}, 0.0f, 1.0f, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  HwConfig skip;
  HwConfig noskip;
  noskip.skip_zero_tiles = false;
  Tensor a = TiledMatrix(w, model, skip).matmul(x, 1.0f);
  Tensor b = TiledMatrix(w, model, noskip).matmul(x, 1.0f);
  // The no-skip path still ADC-quantizes the baseline-only currents of the
  // empty tiles, so it carries extra quantization noise; the skip path is
  // exactly zero there. They agree up to that ADC noise floor.
  EXPECT_LT(max_abs_diff(a, b), 0.03f * b.abs_max() + 1e-4f);
  EXPECT_LT(TiledMatrix(w, model, skip).programmed_tiles(),
            TiledMatrix(w, model, noskip).programmed_tiles());
}

TEST(Tiled, FixedInputScaleClipsAbove) {
  Rng rng(9);
  Tensor w = Tensor::uniform({2, 4}, 0.1f, 0.5f, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor x = Tensor::full({4, 1}, 2.0f);   // above the fixed scale
  Tensor clipped_in = Tensor::full({4, 1}, 1.0f);
  Tensor got = tiled.matmul(x, 1.0f);
  Tensor want = tiled.matmul(clipped_in, 1.0f);
  EXPECT_LT(max_abs_diff(got, want), 1e-6f);
}

TEST(Tiled, SliceBitsMustFitDeviceLevels) {
  xbar::CrossbarConfig cfg = test_cfg();
  cfg.levels = 4;  // 2 bits per device
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg);
  HwConfig hw;
  hw.slice_bits = 3;
  Rng rng(10);
  Tensor w = Tensor::normal({2, 2}, 0, 1, rng);
  EXPECT_THROW(TiledMatrix(w, model, hw), CheckError);
}

/// The integer pipeline is the only route, so bit widths outside its gates
/// (int8 chunks, int16 activation codes, per-tile dot counts below 2^24)
/// must fail at construction instead of computing something else.
TEST(Tiled, OutOfGateBitWidthsRejectedAtConstruction) {
  Rng rng(11);
  Tensor w = Tensor::normal({2, 2}, 0, 1, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  HwConfig wide_stream;
  wide_stream.stream_bits = 8;
  EXPECT_THROW(TiledMatrix(w, model, wide_stream), CheckError);
  HwConfig wide_input;
  wide_input.input_bits = 16;
  EXPECT_THROW(TiledMatrix(w, model, wide_input), CheckError);

  // 7-bit slices and streams: 127 * 127 = 16129 per row, so 1040 rows
  // stay below 2^24 and 1041 rows reach it.
  HwConfig wide;
  wide.weight_bits = 8;
  wide.slice_bits = 7;
  wide.stream_bits = 7;
  xbar::CrossbarConfig cfg = test_cfg();
  cfg.levels = 128;
  cfg.cols = 2;
  cfg.rows = 1040;
  EXPECT_NO_THROW(
      TiledMatrix(w, std::make_shared<xbar::IdealXbarModel>(cfg), wide));
  cfg.rows = 1041;
  EXPECT_THROW(
      TiledMatrix(w, std::make_shared<xbar::IdealXbarModel>(cfg), wide),
      CheckError);
}

TEST(HwConfig, SliceAndStreamCounts) {
  HwConfig hw;
  hw.weight_bits = 7;
  hw.slice_bits = 3;
  hw.input_bits = 6;
  hw.stream_bits = 3;
  EXPECT_EQ(hw.weight_slices(), 2);  // 6 magnitude bits / 3
  EXPECT_EQ(hw.input_streams(), 2);
  hw.slice_bits = 4;
  EXPECT_EQ(hw.weight_slices(), 2);  // ceil(6/4)
}

TEST(Engine, ProgramsLazilyAndDetectsWeightMutation) {
  Rng rng(11);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  EXPECT_EQ(engine.programmed_tiles(), 0);
  Tensor w = Tensor::uniform({4, 6}, -0.5f, 0.5f, rng);
  Tensor x = Tensor::uniform({6, 2}, 0.0f, 1.0f, rng);
  (void)engine.matmul(w, x);
  EXPECT_GT(engine.programmed_tiles(), 0);
  w[0] += 1.0f;  // same storage, changed contents
  EXPECT_THROW(engine.matmul(w, x), CheckError);
}

TEST(Engine, RecordingEngineTracksMaxInput) {
  RecordingMvmEngine rec;
  Rng rng(12);
  Tensor w = Tensor::normal({2, 3}, 0, 1, rng);
  (void)rec.matmul(w, Tensor({3, 1}, {0.1f, 0.9f, 0.3f}));
  (void)rec.matmul(w, Tensor({3, 1}, {0.2f, 0.4f, 0.5f}));
  EXPECT_EQ(rec.max_input(), 0.9f);
}

TEST(Engine, GainTrimNearUnityForIdealModel) {
  Rng rng(13);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  Tensor w = Tensor::uniform({4, 6}, -0.5f, 0.5f, rng);
  engine.begin_gain_calibration();
  for (int i = 0; i < 4; ++i) {
    Tensor x = Tensor::uniform({6, 3}, 0.0f, 1.0f, rng);
    (void)engine.matmul(w, x);
  }
  engine.finish_gain_calibration();
  EXPECT_NEAR(engine.output_gain(), 1.0f, 0.02f);
}

TEST(Engine, GainTrimCompensatesFastNoiseLoss) {
  Rng rng(14);
  auto model = std::make_shared<xbar::FastNoiseModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  Tensor w = Tensor::uniform({4, 6}, 0.05f, 0.5f, rng);
  engine.begin_gain_calibration();
  for (int i = 0; i < 4; ++i) {
    Tensor x = Tensor::uniform({6, 3}, 0.2f, 1.0f, rng);
    (void)engine.matmul(w, x);
  }
  engine.finish_gain_calibration();
  // Parasitic current loss -> fitted digital gain above unity.
  EXPECT_GT(engine.output_gain(), 1.0f);
  EXPECT_LT(engine.output_gain(), 2.0f);
}

// ---------------------------------------------------------------------------
// Route identity: every backend x ISA x thread count against the
// reference tiled GEMM (tests/tiled_reference.h)
// ---------------------------------------------------------------------------

using testutil::usable_isas;

/// The GENIEx surrogate shared across tests in this binary (training once
/// is the slow part; bit-identity only needs *a* deterministic surrogate).
const xbar::GeniexFit& shared_fit() {
  static const xbar::GeniexFit fit = [] {
    xbar::GeniexTrainOptions opt;
    opt.solver_samples = 80;
    return xbar::GeniexModel::fit(test_cfg(), opt);
  }();
  return fit;
}

/// Backends x wrappers. Bare ideal takes the int-digital route; every
/// other model the int-chunk route — fast_noise, GENIEx and the wrappers
/// around fast_noise through fused kernels (a wrapper programs its base
/// model's xbar, so it inherits the kernel), the circuit solver and the
/// wrappers around ideal and the solver through the tile's stream.
/// Together every route of TiledMatrix::matmul is exercised.
std::vector<std::pair<std::string, std::shared_ptr<const xbar::MvmModel>>>
backend_matrix() {
  const xbar::CrossbarConfig cfg = test_cfg();
  auto ideal = std::make_shared<xbar::IdealXbarModel>(cfg);
  auto fast = std::make_shared<xbar::FastNoiseModel>(cfg);
  auto geniex = std::make_shared<xbar::GeniexModel>(cfg, shared_fit().mlp);
  auto solver = std::make_shared<xbar::CircuitSolverModel>(cfg);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  xbar::VariationOptions vo;
  return {
      {"ideal", ideal},
      {"fast_noise", fast},
      {"geniex", geniex},
      {"circuit_solver", solver},
      {"fault(fast_noise)", std::make_shared<xbar::FaultModel>(fast, fo)},
      {"variation(fast_noise)",
       std::make_shared<xbar::VariationModel>(fast, vo)},
      {"fault(ideal)", std::make_shared<xbar::FaultModel>(ideal, fo)},
      {"variation(ideal)", std::make_shared<xbar::VariationModel>(ideal, vo)},
      {"fault(circuit_solver)",
       std::make_shared<xbar::FaultModel>(solver, fo)},
      {"variation(circuit_solver)",
       std::make_shared<xbar::VariationModel>(solver, vo)},
  };
}

Tensor uniform_input(std::int64_t k, std::int64_t n, Rng& rng) {
  Tensor x({k, n});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

/// Every backend matches the reference tiled GEMM bit for bit on every
/// usable ISA tier at 1 and 4 threads. Bare ideal takes the int-digital
/// route, whose exact integer dot products differ from the analog double
/// accumulation by at most one ADC step; its own scalar single-thread run
/// is the bit-exact reference across tiers and thread counts.
TEST(TiledRoutes, BitIdenticalAcrossBackendsIsasAndThreads) {
  Rng rng(71);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x = uniform_input(18, 5, rng);

  for (auto& [tag, model] : backend_matrix()) {
    TiledMatrix tiled(w, model, HwConfig{});
    Tensor ref;
    {
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      const Tensor oracle =
          testutil::reference_tiled_matmul(w, model, HwConfig{}, x);
      if (model->is_ideal()) {
        ref = tiled.matmul(x, 0.0f);
        const float tol = 1e-3f * oracle.abs_max() + 1e-6f;
        for (std::int64_t i = 0; i < ref.numel(); ++i)
          EXPECT_NEAR(ref[i], oracle[i], tol) << tag << " i=" << i;
      } else {
        ref = oracle;
      }
    }
    ASSERT_GT(ref.abs_max(), 0.0f) << tag;
    for (simd::Isa isa : usable_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled.matmul(x, 0.0f);
        ASSERT_EQ(out.numel(), ref.numel());
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << tag << " isa=" << simd::isa_name(isa)
              << " threads=" << threads << " i=" << i;
      }
    }
  }
}

/// Construction programs the tile slots and compiles their kernels on the
/// pool: a TiledMatrix built under a 1-thread and under a 4-thread pool
/// programs the same tiles (puma/tiled/tiles_programmed), fuses the same
/// slots (puma/tiled/fused_slots) and computes the same bits, for every
/// backend and wrapper. Both are evaluated on one serial pool, so only
/// the construction differs.
TEST(TiledRoutes, ConstructionSameForAnyThreadCount) {
  Rng rng(76);
  Tensor w = Tensor::normal({20, 40}, 0.0f, 0.4f, rng);
  Tensor x = uniform_input(40, 9, rng);
  metrics::Counter& programmed =
      metrics::counter("puma/tiled/tiles_programmed");
  metrics::Counter& fused = metrics::counter("puma/tiled/fused_slots");
  ThreadPool serial(1);
  for (auto& [tag, model] : backend_matrix()) {
    std::vector<std::uint64_t> programmed_by, fused_by;
    std::vector<Tensor> outs;
    for (std::size_t threads : {1u, 4u}) {
      const std::uint64_t p0 = programmed.value(), f0 = fused.value();
      std::optional<TiledMatrix> tiled;
      {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        tiled.emplace(w, model, HwConfig{});
      }
      programmed_by.push_back(programmed.value() - p0);
      fused_by.push_back(fused.value() - f0);
      EXPECT_EQ(programmed_by.back(),
                static_cast<std::uint64_t>(tiled->programmed_tiles()))
          << tag;
      ThreadPool::ScopedUse use(serial);
      outs.push_back(tiled->matmul(x, 0.0f));
    }
    EXPECT_GT(programmed_by[0], 4u) << tag;
    EXPECT_EQ(programmed_by[0], programmed_by[1]) << tag;
    EXPECT_EQ(fused_by[0], fused_by[1]) << tag;
    ASSERT_GT(outs[0].abs_max(), 0.0f) << tag;
    ASSERT_EQ(outs[0].numel(), outs[1].numel()) << tag;
    EXPECT_EQ(std::memcmp(outs[0].raw(), outs[1].raw(),
                          static_cast<std::size_t>(outs[0].numel()) *
                              sizeof(float)),
              0)
        << tag;
  }
}

/// fast_noise and GENIEx run through the fused chunk kernels built at
/// construction, and so does a fault wrapper around fast_noise (it
/// programs the base model's xbar); the reference tiled GEMM, which drives
/// the tiles' float-voltage mvm_multi_active, is their oracle and must
/// match bit for bit — fast_noise on a small tiled
/// matrix and on the 16x128 serve-shaped classifier head, GENIEx on the
/// paper's 64x64_100k crossbar with a ragged last row tile (150 = 64 + 64
/// + 22 rows) at the batch widths of a ResNet-20 forward. A strongly
/// nonlinear fast-noise device (b = 30) on resistive row wires (3 kΩ per
/// segment) puts |b|·s·v across sinhc's 1.2 threshold inside the DAC code
/// alphabet at cutoff codes that spread along each row, so rows take the
/// exact branch at high codes and cells of one row disagree at middle
/// ones — far enough past the threshold that a per-row branch choice
/// shows through the ADC. It runs at sample counts around the kernel's
/// 8-column blocks with ragged cols_used (27 = 16 + 11 outputs) and
/// rows_used (40 = 16 + 16 + 8).
TEST(TiledRoutes, FusedKernelsEngageAndMatchFloatRoute) {
  Rng rng(72);
  struct Case {
    std::string tag;
    std::shared_ptr<const xbar::MvmModel> model;
    std::int64_t m, k, n;
  };
  std::vector<Case> cases = {
      {"fast_noise", std::make_shared<xbar::FastNoiseModel>(test_cfg()), 20,
       18, 5},
      {"fast_noise serve head",
       std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k()), 16,
       128, 32}};
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  cases.push_back({"fault(fast_noise)",
                   std::make_shared<xbar::FaultModel>(
                       std::make_shared<xbar::FastNoiseModel>(test_cfg()), fo),
                   20, 18, 5});
  // An untrained (Xavier-initialized) surrogate: its deviations straddle
  // the trust envelope, so both the MLP and the fast-noise fallback feed
  // the outputs.
  Rng mlp_rng(74);
  auto geniex = std::make_shared<xbar::GeniexModel>(
      xbar::xbar_64x64_100k(),
      xbar::MlpRegressor(xbar::kGeniexFeatureCount, 28, mlp_rng));
  for (std::int64_t n : {1, 9, 36, 144})
    cases.push_back({"geniex", geniex, 20, 150, n});
  xbar::CrossbarConfig sinh_cfg = test_cfg();
  sinh_cfg.device_nonlin = 30.0;
  sinh_cfg.r_wire = 3000.0;
  auto sinh_fast = std::make_shared<xbar::FastNoiseModel>(sinh_cfg);
  for (std::int64_t n : {1, 2, 7, 8, 9, 32, 33})
    cases.push_back({"fast_noise sinh branches", sinh_fast, 27, 40, n});
  metrics::Counter& fused_runs = metrics::counter("puma/tiled/fused_runs");
  for (const Case& c : cases) {
    Tensor w = Tensor::normal({c.m, c.k}, 0.0f, 0.4f, rng);
    Tensor x = uniform_input(c.k, c.n, rng);
    TiledMatrix tiled(w, c.model, HwConfig{});

    const std::uint64_t before = fused_runs.value();
    Tensor fused = tiled.matmul(x, 0.0f);
    EXPECT_GT(fused_runs.value(), before)
        << c.tag << ": fused path did not engage";

    const std::uint64_t runs = fused_runs.value();
    const Tensor ref =
        testutil::reference_tiled_matmul(w, c.model, HwConfig{}, x);
    EXPECT_EQ(fused_runs.value(), runs)
        << c.tag << ": reference GEMM ran fused kernels";
    ASSERT_GT(ref.abs_max(), 0.0f) << c.tag;
    ASSERT_EQ(fused.numel(), ref.numel());
    for (std::int64_t i = 0; i < fused.numel(); ++i)
      EXPECT_EQ(fused[i], ref[i])
          << c.tag << " " << c.m << "x" << c.k << " n=" << c.n << " i=" << i;
  }
}

/// matmul forks the pool once: the DAC and the cross-slot reduction run on
/// the caller, so pool/forks grows by exactly one per matmul on a pooled
/// run (none on one thread), pool/chunks_run by one item per programmed
/// slot, and 1, 2, 3 and 4 threads give the same bits — on the
/// int-digital (ideal), fused fast-noise, fused GENIEx and stream (circuit
/// solver) routes. 40 rows on 16x16 crossbars: three row tiles, the last
/// ragged.
TEST(TiledRoutes, OneForkJoinPerMatmulOnEveryRoute) {
  Rng rng(73);
  Tensor w = Tensor::normal({20, 40}, 0.0f, 0.4f, rng);
  Tensor x = uniform_input(40, 9, rng);
  const xbar::CrossbarConfig cfg = test_cfg();
  auto fast = std::make_shared<xbar::FastNoiseModel>(cfg);
  struct Route {
    std::string tag;
    std::shared_ptr<const xbar::MvmModel> model;
    bool fused;                 // runs the slots' fused kernels
    const char* route_counter;  // must grow once per matmul
  };
  const std::vector<Route> routes = {
      {"ideal", std::make_shared<xbar::IdealXbarModel>(cfg), false,
       "puma/tiled/matmuls_int_digital"},
      {"fast_noise", fast, true, "puma/tiled/matmuls_int_chunks"},
      {"geniex", std::make_shared<xbar::GeniexModel>(cfg, shared_fit().mlp),
       true, "puma/tiled/matmuls_int_chunks"},
      {"stream route", std::make_shared<xbar::CircuitSolverModel>(cfg), false,
       "puma/tiled/matmuls_int_chunks"}};
  metrics::Counter& chunks = metrics::counter("pool/chunks_run");
  metrics::Counter& forks = metrics::counter("pool/forks");
  metrics::Counter& fused_runs = metrics::counter("puma/tiled/fused_runs");
  for (const Route& r : routes) {
    TiledMatrix tiled(w, r.model, HwConfig{});
    const auto slots = static_cast<std::uint64_t>(tiled.programmed_tiles());
    ASSERT_GT(slots, 4u) << r.tag;
    Tensor ref;
    for (std::size_t threads : {1u, 2u, 3u, 4u}) {
      ThreadPool pool(threads);
      ThreadPool::ScopedUse use(pool);
      const std::uint64_t chunks0 = chunks.value();
      const std::uint64_t forks0 = forks.value();
      const std::uint64_t fused0 = fused_runs.value();
      const std::uint64_t route0 = metrics::counter(r.route_counter).value();
      Tensor out = tiled.matmul(x, 0.0f);
      EXPECT_EQ(forks.value() - forks0, threads == 1 ? 0u : 1u)
          << r.tag << " threads=" << threads;
      EXPECT_EQ(chunks.value() - chunks0, slots)
          << r.tag << " threads=" << threads;
      EXPECT_EQ(metrics::counter(r.route_counter).value() - route0, 1u)
          << r.tag;
      EXPECT_EQ(fused_runs.value() > fused0, r.fused) << r.tag;
      if (threads == 1) {
        ASSERT_GT(out.abs_max(), 0.0f) << r.tag;
        ref = out;
        continue;
      }
      ASSERT_EQ(out.numel(), ref.numel());
      for (std::int64_t i = 0; i < out.numel(); ++i)
        EXPECT_EQ(out[i], ref[i]) << r.tag << " i=" << i;
    }
  }
}

/// The fan-out follows the work: a one-column matmul of the 16x128 serve
/// head (16 slots x 1 column x 32 rows, below the floor) runs its passes
/// inline under a 4-thread pool, a 32-column one forks the pool once, and
/// both match the serial run bit for bit.
TEST(TiledRoutes, OneColumnMatmulRunsInline) {
  Rng rng(77);
  Tensor w = Tensor::normal({16, 128}, 0.0f, 0.1f, rng);
  auto model = std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
  TiledMatrix tiled(w, model, HwConfig{});
  const auto slots = static_cast<std::uint64_t>(tiled.programmed_tiles());
  ASSERT_GT(slots, 4u);
  metrics::Counter& chunks = metrics::counter("pool/chunks_run");
  metrics::Counter& forks = metrics::counter("pool/forks");
  for (std::int64_t n : {1, 32}) {
    Tensor x = uniform_input(128, n, rng);
    Tensor ref;
    {
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled.matmul(x, 0.0f);
    }
    ThreadPool pool(4);
    ThreadPool::ScopedUse use(pool);
    const std::uint64_t chunks0 = chunks.value();
    const std::uint64_t forks0 = forks.value();
    const Tensor out = tiled.matmul(x, 0.0f);
    EXPECT_EQ(forks.value() - forks0, n == 1 ? 0u : 1u) << "n=" << n;
    EXPECT_EQ(chunks.value() - chunks0, n == 1 ? 0u : slots) << "n=" << n;
    ASSERT_GT(ref.abs_max(), 0.0f) << "n=" << n;
    ASSERT_EQ(out.numel(), ref.numel());
    EXPECT_EQ(std::memcmp(out.raw(), ref.raw(),
                          static_cast<std::size_t>(out.numel()) *
                              sizeof(float)),
              0)
        << "n=" << n;
  }
}

/// An all-zero input at a fixed input scale (so matmul does not return
/// before the DAC) leaves every stream block empty under skip_zero_tiles:
/// matmul matches the reference tiled GEMM bit for bit without forking
/// the pool, on every route.
TEST(TiledRoutes, AllZeroInputSkipsTheForkJoin) {
  Rng rng(75);
  Tensor w = Tensor::normal({20, 40}, 0.0f, 0.4f, rng);
  const Tensor x({40, 9});
  metrics::Counter& chunks = metrics::counter("pool/chunks_run");
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  for (auto& [tag, model] : backend_matrix()) {
    TiledMatrix tiled(w, model, HwConfig{});
    ASSERT_GT(tiled.programmed_tiles(), 1) << tag;
    const Tensor ref =
        testutil::reference_tiled_matmul(w, model, HwConfig{}, x, 1.0f);
    const std::uint64_t chunks0 = chunks.value();
    const Tensor out = tiled.matmul(x, 1.0f);
    EXPECT_EQ(chunks.value(), chunks0) << tag;
    ASSERT_EQ(out.numel(), ref.numel()) << tag;
    EXPECT_EQ(std::memcmp(out.raw(), ref.raw(),
                          static_cast<std::size_t>(out.numel()) * sizeof(float)),
              0)
        << tag;
  }
}

}  // namespace
}  // namespace nvm::puma
