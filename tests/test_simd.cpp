// SIMD micro-kernel layer: scalar/AVX2 parity (bit-exact for [exact]
// kernels, bounded for [~ulp] kernels), batched-MVM bit-identity against
// looped single-vector MVMs for every crossbar model, cross-ISA and
// cross-thread-count determinism of the full tiled GEMM, and the solver
// stream's warm-start behaviour.
#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "puma/bit_slicing.h"
#include "puma/tiled_mvm.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "tiled_reference.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm {
namespace {

bool avx2_usable() { return simd::isa_usable(simd::Isa::Avx2); }

using testutil::usable_isas;

/// The vector tiers from usable_isas() (everything but scalar).
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas = usable_isas();
  isas.erase(isas.begin());
  return isas;
}

std::vector<float> random_vec(std::int64_t n, Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ---------------------------------------------------------------------------
// ISA plumbing
// ---------------------------------------------------------------------------

TEST(SimdIsa, ScopedOverrideForcesAndRestores) {
  const simd::Isa before = simd::active_isa();
  {
    simd::ScopedIsaForTests scalar(simd::Isa::Scalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::Scalar);
    if (avx2_usable()) {
      simd::ScopedIsaForTests avx(simd::Isa::Avx2);
      EXPECT_EQ(simd::active_isa(), simd::Isa::Avx2);
    }
    EXPECT_EQ(simd::active_isa(), simd::Isa::Scalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdIsa, ForcingAvx2WithoutSupportThrows) {
  if (avx2_usable()) GTEST_SKIP() << "AVX2 available; force succeeds here";
  EXPECT_THROW(simd::ScopedIsaForTests avx(simd::Isa::Avx2), CheckError);
}

TEST(SimdIsa, NamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::Avx512), "avx512");
}

TEST(SimdIsa, UsableImpliesCompiledAndSupported) {
  EXPECT_TRUE(simd::isa_usable(simd::Isa::Scalar));
  EXPECT_EQ(simd::isa_usable(simd::Isa::Avx2),
            simd::avx2_compiled() && simd::avx2_supported());
  EXPECT_EQ(simd::isa_usable(simd::Isa::Avx512),
            simd::avx512_compiled() && simd::avx512_supported());
  // AVX-512 dispatch requires the AVX2-era OS state too, so a machine that
  // can run the avx512 tier can always also run avx2.
  if (simd::avx512_supported()) {
    EXPECT_TRUE(simd::avx2_supported());
  }
}

TEST(SimdIsa, ForcingUnusableTierThrows) {
  for (simd::Isa isa : {simd::Isa::Avx2, simd::Isa::Avx512}) {
    if (simd::isa_usable(isa)) continue;
    EXPECT_THROW(simd::ScopedIsaForTests scope(isa), CheckError)
        << simd::isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// Kernel correctness against naive references
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotMatchesNaiveWithinBound) {
  Rng rng(11);
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (std::int64_t n : {0, 1, 7, 8, 9, 64, 131}) {
      std::vector<float> a = random_vec(n, rng), b = random_vec(n, rng);
      double ref = 0.0, abs_sum = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        ref += static_cast<double>(a[i]) * b[i];
        abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
      }
      const double bound =
          4.0 * static_cast<double>(n + 1) *
              std::numeric_limits<float>::epsilon() * abs_sum +
          1e-12;
      EXPECT_NEAR(simd::dot(a.data(), b.data(), n), ref, bound)
          << "isa=" << simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdKernels, DotIsDeterministicPerIsa) {
  Rng rng(12);
  std::vector<float> a = random_vec(1001, rng), b = random_vec(1001, rng);
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    const float first = simd::dot(a.data(), b.data(), 1001);
    for (int rep = 0; rep < 5; ++rep)
      EXPECT_EQ(simd::dot(a.data(), b.data(), 1001), first);
  }
}

/// One [~ulp] GEMM variant on padded operands: C(m x n, ldc = n + 7) +=
/// A * B, A^T * B or A * B^T, with A and B stored as each variant reads
/// them (leading dimensions padded past the logical width). `run` calls
/// the kernel on the active tier; `ref` / `abs` give the double-precision
/// sum and the sum of absolute terms per output element.
struct GemmCase {
  enum Kind { kAccum, kAt, kBt } kind;
  std::int64_t m, n, k, lda, ldb, ldc;
  std::vector<float> a, b, c0;

  GemmCase(Kind kd, std::int64_t m_, std::int64_t n_, std::int64_t k_,
           Rng& rng)
      : kind(kd), m(m_), n(n_), k(k_), ldc(n_ + 7) {
    lda = kind == kAt ? m + 2 : k + 3;
    ldb = kind == kBt ? k + 4 : n + 5;
    a = random_vec((kind == kAt ? k : m) * lda, rng);
    b = random_vec((kind == kBt ? n : k) * ldb, rng);
    c0 = random_vec(m * ldc, rng);
  }
  const char* name() const {
    return kind == kAccum ? "gemm_accum"
                          : (kind == kAt ? "gemm_at_accum" : "gemm_bt_accum");
  }
  float at(std::int64_t i, std::int64_t kk) const {
    return kind == kAt ? a[kk * lda + i] : a[i * lda + kk];
  }
  float bt(std::int64_t kk, std::int64_t j) const {
    return kind == kBt ? b[j * ldb + kk] : b[kk * ldb + j];
  }
  std::vector<float> run() const {
    std::vector<float> c = c0;
    auto* fn = kind == kAccum ? &simd::gemm_accum
                              : (kind == kAt ? &simd::gemm_at_accum
                                             : &simd::gemm_bt_accum);
    fn(c.data(), a.data(), b.data(), m, n, k, lda, ldb, ldc);
    return c;
  }
  void ref(std::int64_t i, std::int64_t j, double& sum, double& abs) const {
    sum = c0[i * ldc + j];
    abs = std::abs(sum);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double t = static_cast<double>(at(i, kk)) * bt(kk, j);
      sum += t;
      abs += std::abs(t);
    }
  }
};

/// Shapes whose row counts cover the 4-row microtile and its remainder and
/// whose column counts straddle both vector widths (8 and 16 lanes), so
/// every vector body and every scalar column tail runs.
std::vector<GemmCase> gemm_cases(Rng& rng) {
  std::vector<GemmCase> cases;
  for (GemmCase::Kind kind : {GemmCase::kAccum, GemmCase::kAt, GemmCase::kBt})
    for (std::int64_t m : {1, 4, 5, 13})
      for (std::int64_t n : {1, 15, 16, 17, 33, 45})
        cases.emplace_back(kind, m, n, 19, rng);
  return cases;
}

TEST(SimdKernels, GemmMatchesNaiveReference) {
  Rng rng(13);
  const std::vector<GemmCase> cases = gemm_cases(rng);
  const double eps = std::numeric_limits<float>::epsilon();
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (const GemmCase& g : cases) {
      const std::vector<float> c = g.run();
      for (std::int64_t i = 0; i < g.m; ++i)
        for (std::int64_t j = 0; j < g.ldc; ++j) {
          if (j >= g.n) {  // row padding comes back untouched
            EXPECT_EQ(c[i * g.ldc + j], g.c0[i * g.ldc + j]) << g.name();
            continue;
          }
          double sum = 0.0, abs = 0.0;
          g.ref(i, j, sum, abs);
          EXPECT_NEAR(c[i * g.ldc + j], sum, 4.0 * (g.k + 1) * eps * abs)
              << simd::isa_name(isa) << " " << g.name() << " m=" << g.m
              << " n=" << g.n << " (" << i << "," << j << ")";
        }
    }
  }
}

/// The same shapes, vector tiers against scalar within the bound of
/// UlpKernelsWithinDocumentedBound (a few eps of the absolute terms).
TEST(SimdParity, GemmVariantsWithinDocumentedBoundOfScalar) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(24);
  const std::vector<GemmCase> cases = gemm_cases(rng);
  const double eps = std::numeric_limits<float>::epsilon();
  std::vector<std::vector<float>> scalar;
  {
    simd::ScopedIsaForTests scope(simd::Isa::Scalar);
    for (const GemmCase& g : cases) scalar.push_back(g.run());
  }
  for (simd::Isa isa : vector_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (std::size_t t = 0; t < cases.size(); ++t) {
      const GemmCase& g = cases[t];
      const std::vector<float> c = g.run();
      for (std::int64_t i = 0; i < g.m; ++i)
        for (std::int64_t j = 0; j < g.n; ++j) {
          double sum = 0.0, abs = 0.0;
          g.ref(i, j, sum, abs);
          EXPECT_NEAR(c[i * g.ldc + j], scalar[t][i * g.ldc + j],
                      8.0 * (g.k + 1) * eps * abs)
              << simd::isa_name(isa) << " " << g.name() << " m=" << g.m
              << " n=" << g.n << " (" << i << "," << j << ")";
        }
    }
  }
}

TEST(SimdKernels, TransposedGemmVariantsMatchExplicitTranspose) {
  Rng rng(14);
  Tensor a = Tensor::normal({9, 6}, 0.0f, 1.0f, rng);   // K x M
  Tensor b = Tensor::normal({9, 7}, 0.0f, 1.0f, rng);   // K x N
  Tensor at_ref = matmul(transpose2d(a), b);
  Tensor at = matmul_at(a, b);
  ASSERT_EQ(at.dim(0), 6);
  ASSERT_EQ(at.dim(1), 7);
  for (std::int64_t i = 0; i < at.numel(); ++i)
    EXPECT_NEAR(at[i], at_ref[i], 1e-5) << i;

  Tensor c = Tensor::normal({5, 9}, 0.0f, 1.0f, rng);   // M x K
  Tensor d = Tensor::normal({8, 9}, 0.0f, 1.0f, rng);   // N x K
  Tensor bt_ref = matmul(c, transpose2d(d));
  Tensor bt = matmul_bt(c, d);
  ASSERT_EQ(bt.dim(0), 5);
  ASSERT_EQ(bt.dim(1), 8);
  for (std::int64_t i = 0; i < bt.numel(); ++i)
    EXPECT_NEAR(bt[i], bt_ref[i], 1e-5) << i;
}

/// quantize_to_i16 is the affine activation quantizer
/// round(clamp(x, 0, scale) / scale * qmax) on every tier.
TEST(SimdKernels, QuantizeAffineMatchesScalarFormula) {
  Rng rng(15);
  const std::int64_t n = 37;
  std::vector<float> x = random_vec(n, rng, -0.5, 1.5);
  const float scale = 0.9f, qmax = 63.0f;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<std::int16_t> out(static_cast<std::size_t>(n));
    simd::quantize_to_i16(out.data(), x.data(), n, scale, qmax);
    for (std::int64_t i = 0; i < n; ++i) {
      const float clipped = std::clamp(x[i], 0.0f, scale);
      EXPECT_EQ(static_cast<float>(out[i]),
                std::round(clipped / scale * qmax))
          << "isa=" << simd::isa_name(isa) << " x=" << x[i];
    }
  }
}

TEST(SimdKernels, QuantizeAffineRoundsTiesAwayFromZero) {
  // scale = qmax = 8 makes t = x/8*8 == x exactly (power-of-two scaling),
  // so half-integer inputs hit the rounding tie exactly. std::round ties
  // away from zero; the AVX2 floor+frac>=0.5 emulation must agree.
  std::vector<float> x{0.5f, 1.5f, 2.5f, 3.5f, 4.5f, 5.5f, 6.5f, 7.5f, 8.0f};
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<std::int16_t> out(x.size());
    simd::quantize_to_i16(out.data(), x.data(),
                          static_cast<std::int64_t>(x.size()), 8.0f, 8.0f);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(static_cast<float>(out[i]), std::round(x[i])) << "x=" << x[i];
  }
}

TEST(SimdKernels, AdcShiftAddMatchesUnfusedFormula) {
  Rng rng(16);
  const std::int64_t n = 29;
  std::vector<float> cur = random_vec(n, rng, -0.2, 1.4);
  std::vector<float> base = random_vec(n, rng, 0.0, 0.3);
  const float fs = 1.1f, steps = 255.0f, shift = -3.5f;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> acc(static_cast<std::size_t>(n), 0.25f);
    simd::adc_shift_add(acc.data(), cur.data(), base.data(), 1, n, fs, steps,
                        shift);
    for (std::int64_t i = 0; i < n; ++i) {
      const float clamped = std::clamp(cur[i], 0.0f, fs);
      const float q = std::round(clamped / fs * steps) * fs / steps;
      const float want = 0.25f + shift * (q - base[i]);
      EXPECT_EQ(acc[i], want) << "isa=" << simd::isa_name(isa) << " i=" << i;
    }
  }
}

/// The vector tanh inside mlp_tanh is [exact]: with unit weights and zero
/// biases every FMA is exact, so the output is tanh_fast itself.
TEST(SimdKernels, MlpTanhUnitWeightsMatchTanhFastExactly) {
  std::vector<float> x;
  for (float t = -6.0f; t <= 6.0f; t += 0.037f) x.push_back(t);
  const auto n = static_cast<std::int64_t>(x.size());
  const float one = 1.0f, zero = 0.0f;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> y(x.size());
    simd::mlp_tanh(y.data(), x.data(), n, 1, 1, &one, &zero, &one, 0.0f);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(y[i], simd::tanh_fast(x[i]))
          << "isa=" << simd::isa_name(isa) << " x=" << x[i];
      EXPECT_NEAR(y[i], std::tanh(x[i]), 3e-3f);
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar vs vector-tier parity (avx2 / avx512, whichever run here)
// ---------------------------------------------------------------------------

/// [exact]-contract kernels must produce bit-identical outputs on every
/// usable ISA tier (DESIGN.md §11, §13); this is what makes the full
/// analog stack NVM_SIMD-invariant.
TEST(SimdParity, ExactKernelsBitIdenticalAcrossIsas) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(21);
  const std::int64_t n = 101;  // odd: exercises vector body + scalar tail
  std::vector<float> x = random_vec(n, rng, -3.0, 3.0);
  std::vector<float> y0 = random_vec(n, rng);

  // gemm_madd over ragged shapes (2-vector, single-vector and masked-tail
  // column blocks; 4-row and single-row blocks) with padded leading
  // dimensions; each tier must also equal the naive unfused loop below.
  struct GemmShape {
    std::int64_t m, n, k;
  };
  const std::vector<GemmShape> shapes = {{13, 37, 29}, {1, 1, 1}, {5, 7, 3},
                                         {7, 17, 11},  {9, 45, 5}, {3, 64, 64}};
  std::vector<std::vector<float>> ga, gb, gc0, gwant;
  for (const GemmShape& sh : shapes) {
    const std::int64_t lda = sh.k + 3, ldb = sh.n + 5, ldc = sh.n + 7;
    ga.push_back(random_vec(sh.m * lda, rng, -2.0, 2.0));
    gb.push_back(random_vec(sh.k * ldb, rng, -2.0, 2.0));
    gc0.push_back(random_vec(sh.m * ldc, rng));
    std::vector<float> want = gc0.back();
    for (std::int64_t i = 0; i < sh.m; ++i)
      for (std::int64_t j = 0; j < sh.n; ++j)
        for (std::int64_t kk = 0; kk < sh.k; ++kk) {
          const float t = ga.back()[i * lda + kk] * gb.back()[kk * ldb + j];
          want[i * ldc + j] = want[i * ldc + j] + t;
        }
    gwant.push_back(std::move(want));
  }

  // adc_shift_add's row form over (rows x n) blocks at ragged widths: one
  // call must equal per-row calls on every tier. NaN, -0 and +-Inf
  // currents land in vector bodies and tails alike; the ADC reads NaN and
  // -0 as 0 on every tier.
  const std::int64_t adc_rows = 5;
  const std::vector<std::int64_t> adc_ns = {1, 9, 15, 16, 17, 36};
  std::vector<std::vector<float>> adc_cur, adc_base;
  for (std::int64_t an : adc_ns) {
    adc_cur.push_back(random_vec(adc_rows * an, rng, -0.3, 2.0));
    adc_base.push_back(random_vec(an, rng, 0.0, 0.4));
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[4] = {std::nanf(""), -0.0f, inf, -inf};
    for (std::size_t i = 0; i < adc_cur.back().size(); i += 7)
      adc_cur.back()[i] = specials[(i / 7) % 4];
  }

  // GENIEx glue kernels over ragged widths, with NaN / +-Inf mixed into
  // every input and relative deviations straddling the trust envelope.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::int64_t g_rows = 6, g_cols = 5, g_feats = 10;
  auto spiked = [&](std::int64_t count, double lo, double hi) {
    std::vector<float> v = random_vec(count, rng, lo, hi);
    const float specials[3] = {nan, inf, -inf};
    for (std::int64_t i = 3; i < count; i += 13)
      v[static_cast<std::size_t>(i)] = specials[(i / 13) % 3];
    return v;
  };
  struct GlueCase {
    std::int64_t n;
    std::vector<float> v, growsum, ft, iid, sums, colf, rel;
  };
  std::vector<GlueCase> glue;
  for (std::int64_t gn : {1, 9, 15, 16, 17, 36, 101}) {
    GlueCase c;
    c.n = gn;
    c.v = spiked(g_rows * gn, 0.0, 1.2);
    c.growsum = random_vec(g_rows, rng, 0.0, 3.0);
    c.ft = spiked(g_feats * g_cols * gn, -2.0, 2.0);
    c.iid = spiked(g_cols * gn, -0.1, 1.2);
    c.sums = spiked(3 * gn, 0.0, 1.0);
    c.colf = random_vec(2 * g_cols, rng, 0.0, 1.0);
    c.rel = spiked(g_cols * gn, -0.6, 1.6);
    glue.push_back(std::move(c));
  }

  // Surrogate-training kernels over ragged widths. The tanh inputs sit on
  // and next to the +-4.97 saturation points and include +-inf and NaN;
  // gemv_madd runs ragged row counts with a padded leading dimension;
  // tanh_backprop ragged hidden widths; adam_step ragged parameter counts
  // with zero and negative gradient sums.
  struct TrainCase {
    std::int64_t n;
    std::vector<float> x, a, err, w, p, m, v, g;
  };
  std::vector<TrainCase> train;
  const float sat = 4.97f;
  const float edges[] = {sat,
                         -sat,
                         std::nextafter(sat, 0.0f),
                         std::nextafter(sat, 10.0f),
                         std::nextafter(-sat, 0.0f),
                         std::nextafter(-sat, -10.0f),
                         inf,
                         -inf,
                         nan,
                         0.0f,
                         -0.0f};
  for (std::int64_t tn : {1, 9, 15, 16, 17, 36, 101}) {
    TrainCase c;
    c.n = tn;
    c.x = random_vec(tn, rng, -6.0, 6.0);
    for (std::size_t i = 0; i < c.x.size(); i += 2)
      c.x[i] = edges[(i / 2) % (sizeof(edges) / sizeof(edges[0]))];
    c.a = random_vec(tn * (tn + 3), rng, -1.0, 1.0);  // (tn x tn), ld tn + 3
    // tn + 3 entries: the (3 x tn) and (tn x 3) tanh_backprop blocks read
    // err and w2 up to max(tn, 3).
    c.err = random_vec(tn + 3, rng, -0.5, 0.5);
    c.w = random_vec(tn + 3, rng, -1.0, 1.0);
    c.p = random_vec(tn, rng, -1.0, 1.0);
    c.m = random_vec(tn, rng, -0.01, 0.01);
    c.v = random_vec(tn, rng, 0.0, 0.01);
    c.g = random_vec(tn, rng, -2.0, 2.0);
    c.g[0] = 0.0f;
    train.push_back(std::move(c));
  }
  simd::AdamStep adam;
  adam.count = 7.0f;
  adam.bc1 = 1.0f - std::pow(adam.beta1, 3.0f);
  adam.bc2 = 1.0f - std::pow(adam.beta2, 3.0f);
  adam.lr = 3e-3f;

  // Bit-slice DAC of a row tile (rows_used < rows) at every stream width,
  // over full 15-bit codes and over codes below 2^stream_bits (all upper
  // streams zero); one case carries a negative code.
  struct DacCase {
    std::int64_t n, stream_bits, streams;
    std::vector<std::int16_t> codes;
  };
  const std::int64_t dac_rows = 8, dac_rows_used = 5;
  std::vector<DacCase> dac;
  for (std::int64_t dn : {1, 9, 15, 16, 17, 36, 144})
    for (std::int64_t sb = 1; sb <= 7; ++sb) {
      DacCase c{dn, sb, (15 + sb - 1) / sb, {}};
      const std::uint64_t bound =
          dac.size() % 2 == 0 ? 32768u : (std::uint64_t{1} << sb);
      for (std::int64_t i = 0; i < dac_rows_used * dn; ++i)
        c.codes.push_back(static_cast<std::int16_t>(rng.uniform_index(bound)));
      dac.push_back(std::move(c));
    }
  const std::size_t dac_negative_case = 23;  // n = 16, stream_bits = 3
  dac[dac_negative_case].codes[7] = -5;

  auto run = [&](simd::Isa isa) {
    simd::ScopedIsaForTests scope(isa);
    struct Out {
      std::vector<float> adc;
      std::vector<std::int16_t> quant;
      std::vector<std::vector<float>> gemm, adc_rows, glue, train;
      std::vector<std::vector<std::int8_t>> flags, dac_chunk, dac_row_max;
      std::vector<std::vector<std::int32_t>> dac_colsum;
      std::vector<bool> dac_negative;
      std::vector<std::int64_t> nonfinite;
    } o;
    for (const DacCase& c : dac) {
      // Garbage-filled outputs: padded rows must come back zeroed.
      std::vector<std::int8_t> chunk(
          static_cast<std::size_t>(c.streams * dac_rows * c.n), 0x55);
      std::vector<std::int8_t> row_max(
          static_cast<std::size_t>(c.streams * dac_rows), 0x55);
      std::vector<std::int32_t> colsum(
          static_cast<std::size_t>(c.streams * c.n), -7);
      o.dac_negative.push_back(simd::dac_streams_i16(
          chunk.data(), row_max.data(), colsum.data(), c.codes.data(),
          dac_rows_used, dac_rows, c.n, c.streams, c.stream_bits));
      o.dac_chunk.push_back(std::move(chunk));
      o.dac_row_max.push_back(std::move(row_max));
      o.dac_colsum.push_back(std::move(colsum));
    }
    for (std::size_t t = 0; t < adc_ns.size(); ++t) {
      const std::int64_t an = adc_ns[t];
      std::vector<float> rows_form(adc_cur[t].size(), 0.5f);
      std::vector<float> per_row = rows_form;
      simd::adc_shift_add(rows_form.data(), adc_cur[t].data(),
                          adc_base[t].data(), adc_rows, an, 1.7f, 255.0f,
                          -1.25f);
      for (std::int64_t r = 0; r < adc_rows; ++r)
        simd::adc_shift_add(per_row.data() + r * an,
                            adc_cur[t].data() + r * an, adc_base[t].data(), 1,
                            an, 1.7f, 255.0f, -1.25f);
      EXPECT_EQ(rows_form, per_row)
          << simd::isa_name(isa) << " adc_shift_add rows form n=" << an;
      o.adc_rows.push_back(std::move(rows_form));
    }
    for (const GlueCase& c : glue) {
      const auto cells = static_cast<std::size_t>(g_rows * c.n);
      std::vector<float> vv(cells), vr(cells);
      std::vector<float> sums(static_cast<std::size_t>(3 * c.n));
      simd::geniex_inputs(vv.data(), vr.data(), sums.data(), c.v.data(),
                          c.growsum.data(), g_rows, c.n, 0.37f, 1.9f, 0.011f);
      std::vector<float> ft = c.ft;
      simd::geniex_features(ft.data(), c.iid.data(), c.sums.data(),
                            c.colf.data(), g_cols, c.n, 1.3e-4f, 3.1f, 0.7f,
                            2.9f, 0.41f);
      o.glue.push_back(std::move(vv));
      o.glue.push_back(std::move(vr));
      o.glue.push_back(std::move(sums));
      o.glue.push_back(std::move(ft));
      for (bool guard : {true, false}) {
        std::vector<float> out(static_cast<std::size_t>(g_cols * c.n));
        std::vector<std::int8_t> flags(static_cast<std::size_t>(c.n), 7);
        o.nonfinite.push_back(simd::geniex_epilogue(
            out.data(), flags.data(), c.iid.data(), c.rel.data(), g_cols,
            c.n, 0.02f, 1.0f, guard, -0.5f, 1.5f));
        o.glue.push_back(std::move(out));
        o.flags.push_back(std::move(flags));
      }
    }
    for (const TrainCase& c : train) {
      const std::int64_t tn = c.n;
      std::vector<float> y(c.x.size(), 7.0f);
      simd::tanh_fast_block(y.data(), c.x.data(), tn);
      std::vector<float> in_place = c.x;
      simd::tanh_fast_block(in_place.data(), in_place.data(), tn);
      EXPECT_EQ(
          std::memcmp(y.data(), in_place.data(), y.size() * sizeof(float)),
          0)
          << simd::isa_name(isa) << " tanh_fast_block in place n=" << tn;
      std::vector<float> gy = c.err;
      simd::gemv_madd(gy.data(), c.a.data(), c.w.data(), tn, tn, tn + 3);
      // tanh_backprop over (tn x 3) and (3 x tn) blocks of a.
      std::vector<float> dh_rows(c.a.begin(), c.a.begin() + 3 * tn);
      simd::tanh_backprop(dh_rows.data(), c.err.data(), c.w.data(), 3, tn);
      std::vector<float> dh_cols(c.a.begin(), c.a.begin() + 3 * tn);
      simd::tanh_backprop(dh_cols.data(), c.err.data(), c.w.data(), tn, 3);
      std::vector<float> p = c.p, m = c.m, v = c.v;
      simd::adam_step(p.data(), m.data(), v.data(), c.g.data(), tn, adam);
      for (auto* out : {&y, &gy, &dh_rows, &dh_cols, &p, &m, &v})
        o.train.push_back(std::move(*out));
    }
    for (std::size_t t = 0; t < shapes.size(); ++t) {
      const GemmShape& sh = shapes[t];
      o.gemm.push_back(gc0[t]);
      simd::gemm_madd(o.gemm.back().data(), ga[t].data(), gb[t].data(), sh.m,
                      sh.n, sh.k, sh.k + 3, sh.n + 5, sh.n + 7);
    }
    o.quant.assign(static_cast<std::size_t>(n), 0);
    simd::quantize_to_i16(o.quant.data(), x.data(), n, 2.3f, 127.0f);
    o.adc = y0;
    simd::adc_shift_add(o.adc.data(), x.data(), y0.data(), 1, n, 1.7f,
                        1023.0f, 2.25f);
    return o;
  };
  auto s = run(simd::Isa::Scalar);
  // Scalar DAC: chunks are puma::extract_chunk of the float image, padded
  // rows zero, row maxima and column sums those of the chunks; only the
  // negative case reports a negative code. Some streams are all zero.
  std::int64_t zero_streams = 0;
  for (std::size_t ci = 0; ci < dac.size(); ++ci) {
    const DacCase& c = dac[ci];
    EXPECT_EQ(s.dac_negative[ci], ci == dac_negative_case) << "dac " << ci;
    if (ci == dac_negative_case) continue;
    Tensor image({dac_rows_used * c.n});
    for (std::int64_t i = 0; i < image.numel(); ++i)
      image[i] = static_cast<float>(c.codes[static_cast<std::size_t>(i)]);
    for (std::int64_t t = 0; t < c.streams; ++t) {
      const Tensor want = puma::extract_chunk(image, t, c.stream_bits);
      const std::int8_t* chunk = s.dac_chunk[ci].data() + t * dac_rows * c.n;
      const std::int8_t* rmax = s.dac_row_max[ci].data() + t * dac_rows;
      const std::int32_t* csum = s.dac_colsum[ci].data() + t * c.n;
      std::int64_t stream_max = 0;
      for (std::int64_t r = 0; r < dac_rows; ++r) {
        std::int64_t m = 0;
        for (std::int64_t k = 0; k < c.n; ++k) {
          const float v = r < dac_rows_used ? want[r * c.n + k] : 0.0f;
          ASSERT_EQ(static_cast<float>(chunk[r * c.n + k]), v)
              << "dac " << ci << " t=" << t << " r=" << r << " k=" << k;
          m = std::max<std::int64_t>(m, chunk[r * c.n + k]);
        }
        EXPECT_EQ(rmax[r], m) << "dac " << ci << " t=" << t << " r=" << r;
        stream_max = std::max(stream_max, m);
      }
      for (std::int64_t k = 0; k < c.n; ++k) {
        std::int32_t sum = 0;
        for (std::int64_t r = 0; r < dac_rows_used; ++r)
          sum += chunk[r * c.n + k];
        EXPECT_EQ(csum[k], sum) << "dac " << ci << " t=" << t << " k=" << k;
      }
      zero_streams += stream_max == 0;
    }
  }
  EXPECT_GT(zero_streams, 0);
  // The inputs exercise both guard outcomes and the non-finite count.
  std::int64_t flagged = 0, trusted = 0, total_nonfinite = 0;
  for (std::size_t t = 0; t < s.flags.size(); t += 2) {  // guard-on runs
    flagged += std::count(s.flags[t].begin(), s.flags[t].end(), 1);
    trusted += std::count(s.flags[t].begin(), s.flags[t].end(), 0);
  }
  for (std::int64_t c : s.nonfinite) total_nonfinite += c;
  EXPECT_GT(flagged, 0);
  EXPECT_GT(trusted, 0);
  EXPECT_GT(total_nonfinite, 0);
  // Scalar training kernels: the per-element reference expressions.
  auto same = [](float a, float b) {
    return (std::isnan(a) && std::isnan(b)) ||
           std::memcmp(&a, &b, sizeof(float)) == 0;
  };
  for (std::size_t ci = 0; ci < train.size(); ++ci) {
    const TrainCase& c = train[ci];
    const std::int64_t tn = c.n;
    const std::vector<float>* got = &s.train[7 * ci];
    for (std::int64_t i = 0; i < tn; ++i) {
      EXPECT_TRUE(same(got[0][i], simd::tanh_fast(c.x[i])))
          << "tanh_fast_block x=" << c.x[i];
      float acc = c.err[i];
      for (std::int64_t k = 0; k < tn; ++k) {
        const float t = c.a[i * (tn + 3) + k] * c.w[k];
        acc = acc + t;
      }
      EXPECT_TRUE(same(got[1][i], acc)) << "gemv_madd n=" << tn << " i=" << i;
      const float gj = c.g[i] / adam.count;
      const float mj = adam.beta1 * c.m[i] + (1 - adam.beta1) * gj;
      const float vj = adam.beta2 * c.v[i] + (1 - adam.beta2) * gj * gj;
      const float pj = c.p[i] - adam.lr * (mj / adam.bc1) /
                                    (std::sqrt(vj / adam.bc2) + adam.eps);
      EXPECT_TRUE(same(got[4][i], pj) && same(got[5][i], mj) &&
                  same(got[6][i], vj))
          << "adam_step n=" << tn << " i=" << i;
    }
    for (std::int64_t r = 0; r < 3; ++r)
      for (std::int64_t j = 0; j < tn; ++j) {
        const float a = c.a[r * tn + j];
        EXPECT_TRUE(
            same(got[2][r * tn + j], c.err[r] * c.w[j] * (1.0f - a * a)))
            << "tanh_backprop rows n=" << tn;
        const float b = c.a[j * 3 + r];
        EXPECT_TRUE(same(got[3][j * 3 + r], c.err[j] * c.w[r] * (1.0f - b * b)))
            << "tanh_backprop cols n=" << tn;
      }
  }
  // n = 15: just past +-4.97 and +-inf saturate, NaN stays NaN.
  const std::vector<float>& tanh15 = s.train[14];
  EXPECT_EQ(tanh15[6], 1.0f);
  EXPECT_EQ(tanh15[10], -1.0f);
  EXPECT_EQ(tanh15[12], 1.0f);
  EXPECT_EQ(tanh15[14], -1.0f);
  EXPECT_TRUE(std::isnan(s.train[28][16]));  // n = 17: x[16] is NaN
  for (simd::Isa isa : vector_isas()) {
    auto v = run(isa);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.quant[i], v.quant[i])
          << simd::isa_name(isa) << " quantize " << i;
      EXPECT_EQ(s.adc[i], v.adc[i]) << simd::isa_name(isa) << " adc " << i;
    }
    EXPECT_EQ(s.adc_rows, v.adc_rows) << simd::isa_name(isa);
    EXPECT_EQ(s.dac_chunk, v.dac_chunk) << simd::isa_name(isa) << " dac";
    EXPECT_EQ(s.dac_row_max, v.dac_row_max)
        << simd::isa_name(isa) << " dac row max";
    EXPECT_EQ(s.dac_colsum, v.dac_colsum)
        << simd::isa_name(isa) << " dac column sums";
    EXPECT_EQ(s.dac_negative, v.dac_negative)
        << simd::isa_name(isa) << " dac negative report";
    // Glue outputs: same bits, or NaN on both sides (payloads aside).
    ASSERT_EQ(s.glue.size(), v.glue.size());
    for (std::size_t t = 0; t < s.glue.size(); ++t)
      for (std::size_t i = 0; i < s.glue[t].size(); ++i) {
        const float a = s.glue[t][i], b = v.glue[t][i];
        EXPECT_TRUE((std::isnan(a) && std::isnan(b)) ||
                    std::memcmp(&a, &b, sizeof(float)) == 0)
            << simd::isa_name(isa) << " geniex glue output " << t << " at "
            << i << ": " << a << " vs " << b;
      }
    EXPECT_EQ(s.flags, v.flags) << simd::isa_name(isa) << " envelope flags";
    // Training kernels: same bits, or NaN on both sides.
    ASSERT_EQ(s.train.size(), v.train.size());
    for (std::size_t t = 0; t < s.train.size(); ++t)
      for (std::size_t i = 0; i < s.train[t].size(); ++i) {
        const float a = s.train[t][i], b = v.train[t][i];
        EXPECT_TRUE((std::isnan(a) && std::isnan(b)) ||
                    std::memcmp(&a, &b, sizeof(float)) == 0)
            << simd::isa_name(isa) << " training kernel output " << t
            << " (case " << t / 7 << ", kernel " << t % 7 << ") at " << i
            << ": " << a << " vs " << b;
      }
    EXPECT_EQ(s.nonfinite, v.nonfinite)
        << simd::isa_name(isa) << " non-finite counts";
    // Row padding (j >= n) must come back untouched as well.
    for (std::size_t t = 0; t < shapes.size(); ++t)
      for (std::size_t i = 0; i < gwant[t].size(); ++i) {
        EXPECT_EQ(s.gemm[t][i], gwant[t][i]) << "scalar gemm_madd " << t;
        EXPECT_EQ(v.gemm[t][i], gwant[t][i])
            << simd::isa_name(isa) << " gemm_madd shape " << t << " at " << i;
      }
  }
}

TEST(SimdParity, GemmF64AccBitIdenticalAcrossIsas) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(22);
  const std::int64_t m = 13, n = 19, k = 31;
  std::vector<float> a = random_vec(m * k, rng), v = random_vec(k * n, rng);
  auto run = [&](simd::Isa isa) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> out(static_cast<std::size_t>(m * n));
    simd::gemm_f64acc(out.data(), a.data(), v.data(), m, n, k, k, n, n);
    return out;
  };
  auto s = run(simd::Isa::Scalar);
  for (simd::Isa isa : vector_isas()) {
    auto x = run(isa);
    for (std::int64_t i = 0; i < m * n; ++i)
      EXPECT_EQ(s[i], x[i]) << simd::isa_name(isa) << " " << i;
  }
}

/// [~ulp]-contract kernels (FMA in the vector tiers, plain mul+add
/// scalar) may differ, but only within the documented accumulation bound:
/// a few eps of the sum of absolute products.
TEST(SimdParity, UlpKernelsWithinDocumentedBound) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(23);
  const std::int64_t n = 517;
  std::vector<float> a = random_vec(n, rng), b = random_vec(n, rng);
  double abs_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i)
    abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
  const double bound = 8.0 * static_cast<double>(n) *
                       std::numeric_limits<float>::epsilon() * abs_sum;

  float dot_s;
  {
    simd::ScopedIsaForTests scope(simd::Isa::Scalar);
    dot_s = simd::dot(a.data(), b.data(), n);
  }
  for (simd::Isa isa : vector_isas()) {
    float dot_v;
    {
      simd::ScopedIsaForTests scope(isa);
      dot_v = simd::dot(a.data(), b.data(), n);
    }
    EXPECT_NEAR(dot_s, dot_v, bound) << simd::isa_name(isa);
  }
}

/// mlp_tanh is [~ulp]: vector tiers agree with each other bit for bit
/// (one FMA chain per sum, lane-width-independent), the unfused scalar
/// tier stays within a few eps of each sum's absolute-term magnitude
/// (tanh' <= 1 carries the hidden-sum error through), and every output
/// is independent of the sample's position in the batch.
TEST(SimdParity, MlpTanhVectorTiersIdenticalScalarWithinBound) {
  Rng rng(25);
  const std::int64_t in_dim = 10, hidden = 28, n = 77;
  std::vector<float> x = random_vec(in_dim * n, rng, -1.5, 1.5);
  std::vector<float> w1 = random_vec(hidden * in_dim, rng, -0.6, 0.6);
  std::vector<float> b1 = random_vec(hidden, rng, -0.3, 0.3);
  std::vector<float> w2 = random_vec(hidden, rng, -0.4, 0.4);
  w1[7] = 0.0f;  // the scalar tier skips zero weights
  w2[3] = 0.0f;
  const float b2 = 0.125f;
  auto run = [&](simd::Isa isa) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> out(static_cast<std::size_t>(n));
    simd::mlp_tanh(out.data(), x.data(), n, in_dim, hidden, w1.data(),
                   b1.data(), w2.data(), b2);
    return out;
  };
  const std::vector<float> s = run(simd::Isa::Scalar);
  const double eps = std::numeric_limits<float>::epsilon();
  for (std::int64_t k = 0; k < n; ++k) {
    // Per-sample bound: the output sum's own rounding plus each hidden
    // sum's rounding scaled by |w2[h]|.
    double bound = std::abs(b2);
    for (std::int64_t h = 0; h < hidden; ++h) {
      double pre = std::abs(b1[h]);
      for (std::int64_t i = 0; i < in_dim; ++i)
        pre += std::abs(static_cast<double>(w1[h * in_dim + i]) *
                        x[i * n + k]);
      bound += std::abs(w2[h]) * (1.0 + 4.0 * in_dim * eps * pre);
    }
    bound *= 4.0 * (in_dim + hidden) * eps;
    for (simd::Isa isa : vector_isas()) {
      const std::vector<float> v = run(isa);
      EXPECT_NEAR(s[k], v[k], bound) << simd::isa_name(isa) << " " << k;
    }
  }
  const std::vector<simd::Isa> vec = vector_isas();
  for (std::size_t t = 1; t < vec.size(); ++t) {
    const std::vector<float> a = run(vec[0]), b = run(vec[t]);
    for (std::int64_t k = 0; k < n; ++k)
      EXPECT_EQ(a[k], b[k]) << simd::isa_name(vec[0]) << " vs "
                            << simd::isa_name(vec[t]) << " " << k;
  }
  // Batch-position invariance on every tier: a sample's prediction alone
  // equals its prediction inside the 77-wide block.
  for (simd::Isa isa : usable_isas()) {
    const std::vector<float> block = run(isa);
    simd::ScopedIsaForTests scope(isa);
    for (std::int64_t k = 0; k < n; ++k) {
      float xs[10];
      for (std::int64_t i = 0; i < in_dim; ++i) xs[i] = x[i * n + k];
      float single = 0.0f;
      simd::mlp_tanh(&single, xs, 1, in_dim, hidden, w1.data(), b1.data(),
                     w2.data(), b2);
      EXPECT_EQ(single, block[k]) << simd::isa_name(isa) << " " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Recorded bits: every public kernel, per tier
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of every value fed in. A float NaN hashes as one
/// canonical quiet NaN (sign and payload aside, as in the parity tests).
class BitDigest {
 public:
  template <typename T>
  void add(const std::vector<T>& v) {
    for (T x : v) {
      if constexpr (std::is_floating_point_v<T>)
        if (std::isnan(x)) x = std::numeric_limits<T>::quiet_NaN();
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &x, sizeof(T));
      for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ull;
    }
  }
  template <typename T>
  void add_value(T x) {
    add(std::vector<T>{x});
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Digest of each of the 19 public kernels on `isa`, over fixed inputs at
/// every width n = 1..101. Elementwise kernels see +-4.97 (the tanh
/// saturation points) and their neighbours, +-inf, NaN and signed zeros
/// among their float inputs (quantize_to_i16 all but NaN, whose integer
/// conversion is undefined); GEMM-type kernels see plain random values so
/// their digests follow every rounding of the accumulation.
std::vector<std::pair<const char*, std::uint64_t>> kernel_digests(
    simd::Isa isa) {
  simd::ScopedIsaForTests scope(isa);
  Rng rng(97);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sat = 4.97f;
  const float specials[] = {sat,
                            -sat,
                            std::nextafter(sat, 0.0f),
                            std::nextafter(sat, 10.0f),
                            std::nextafter(-sat, 0.0f),
                            std::nextafter(-sat, -10.0f),
                            inf,
                            -inf,
                            nan,
                            0.0f,
                            -0.0f};
  auto spiked = [&](std::int64_t count, double lo, double hi,
                    bool with_nan = true) {
    std::vector<float> v = random_vec(count, rng, lo, hi);
    for (std::int64_t i = 2; i < count; i += 7) {
      const float s = specials[rng.uniform_index(11)];
      if (with_nan || !std::isnan(s)) v[static_cast<std::size_t>(i)] = s;
    }
    return v;
  };
  auto i8s = [&](std::int64_t count) {
    std::vector<std::int8_t> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    return v;
  };

  enum {
    kDot, kGemm, kGemmAt, kGemmBt, kGemmMadd, kGemmF64, kMlp, kAdc,
    kGxInputs, kGxFeatures, kGxEpilogue, kTanh, kGemv, kBackprop, kAdam,
    kQuant, kGemmI8, kAdcI32, kDac, kKernels
  };
  static const char* const kNames[kKernels] = {
      "dot", "gemm_accum", "gemm_at_accum", "gemm_bt_accum", "gemm_madd",
      "gemm_f64acc", "mlp_tanh", "adc_shift_add", "geniex_inputs",
      "geniex_features", "geniex_epilogue", "tanh_fast_block", "gemv_madd",
      "tanh_backprop", "adam_step", "quantize_to_i16", "gemm_at_i8_i32acc",
      "adc_shift_add_i32", "dac_streams_i16"};
  BitDigest d[kKernels];

  for (std::int64_t n = 1; n <= 101; ++n) {
    const std::int64_t m = 1 + n % 6, k = 1 + n % 9;

    const std::vector<float> da = random_vec(n, rng), db = random_vec(n, rng);
    d[kDot].add_value(simd::dot(da.data(), db.data(), n));

    // GEMMs: C(m x n, ldc) with padded leading dimensions; A is (m x k) or,
    // for gemm_at, (k x m); B is (k x n) or, for gemm_bt, (n x k).
    const std::int64_t ldc = n + 7;
    const std::vector<float> c0 = random_vec(m * ldc, rng);
    const std::vector<float> a = random_vec(m * (k + 3), rng);
    const std::vector<float> b = random_vec(k * (n + 5), rng);
    std::vector<float> c = c0;
    simd::gemm_accum(c.data(), a.data(), b.data(), m, n, k, k + 3, n + 5, ldc);
    d[kGemm].add(c);
    const std::vector<float> at = random_vec(k * (m + 2), rng);
    c = c0;
    simd::gemm_at_accum(c.data(), at.data(), b.data(), m, n, k, m + 2, n + 5,
                        ldc);
    d[kGemmAt].add(c);
    // gemm_bt reduces each element with dot's tree: a longer k gives its
    // lanes several terms each.
    const std::int64_t kb = 1 + n % 41;
    const std::vector<float> abt = random_vec(m * kb, rng);
    const std::vector<float> bt = random_vec(n * (kb + 4), rng);
    c = c0;
    simd::gemm_bt_accum(c.data(), abt.data(), bt.data(), m, n, kb, kb, kb + 4,
                        ldc);
    d[kGemmBt].add(c);
    c = c0;
    simd::gemm_madd(c.data(), a.data(), b.data(), m, n, k, k + 3, n + 5, ldc);
    d[kGemmMadd].add(c);
    std::vector<float> f64(static_cast<std::size_t>(m * (n + 3)), 7.0f);
    simd::gemm_f64acc(f64.data(), a.data(), b.data(), m, n, k, k + 3, n + 5,
                      n + 3);
    d[kGemmF64].add(f64);

    // mlp_tanh: pre-activations reach past +-4.97; some zero weights.
    const std::int64_t in_dim = 1 + n % 10, hidden = 1 + n % 13;
    std::vector<float> x = random_vec(in_dim * n, rng, -3.0, 3.0);
    if (n % 10 == 3) x[static_cast<std::size_t>(n / 2)] = nan;
    std::vector<float> w1 = random_vec(hidden * in_dim, rng);
    const std::vector<float> b1 = random_vec(hidden, rng, -0.5, 0.5);
    std::vector<float> w2 = random_vec(hidden, rng);
    w1[static_cast<std::size_t>(n % w1.size())] = 0.0f;
    w2[static_cast<std::size_t>(n % w2.size())] = 0.0f;
    std::vector<float> out(static_cast<std::size_t>(n));
    simd::mlp_tanh(out.data(), x.data(), n, in_dim, hidden, w1.data(),
                   b1.data(), w2.data(), 0.25f);
    d[kMlp].add(out);

    const std::int64_t rows = 1 + n % 4;
    const std::vector<float> cur = spiked(rows * n, -0.3, 2.0);
    const std::vector<float> base = random_vec(n, rng, 0.0, 0.4);
    std::vector<float> acc = random_vec(rows * n, rng);
    simd::adc_shift_add(acc.data(), cur.data(), base.data(), rows, n, 1.7f,
                        255.0f, -1.25f);
    d[kAdc].add(acc);

    // GENIEx glue over `cols` columns of n vectors.
    const std::int64_t g_rows = 1 + n % 5, cols = 1 + n % 4;
    const std::vector<float> v = spiked(g_rows * n, 0.0, 1.2);
    const std::vector<float> growsum = random_vec(g_rows, rng, 0.0, 3.0);
    std::vector<float> vv(v.size()), vr(v.size());
    std::vector<float> sums(static_cast<std::size_t>(3 * n));
    simd::geniex_inputs(vv.data(), vr.data(), sums.data(), v.data(),
                        growsum.data(), g_rows, n, 0.37f, 1.9f, 0.011f);
    d[kGxInputs].add(vv);
    d[kGxInputs].add(vr);
    d[kGxInputs].add(sums);
    std::vector<float> ft = spiked(10 * cols * n, -2.0, 2.0);
    const std::vector<float> iid = spiked(cols * n, -0.1, 1.2);
    const std::vector<float> fsums = spiked(3 * n, 0.0, 1.0);
    const std::vector<float> colf = random_vec(2 * cols, rng, 0.0, 1.0);
    simd::geniex_features(ft.data(), iid.data(), fsums.data(), colf.data(),
                          cols, n, 1.3e-4f, 3.1f, 0.7f, 2.9f, 0.41f);
    d[kGxFeatures].add(ft);
    const std::vector<float> rel = spiked(cols * n, -0.6, 1.6);
    for (bool guard : {true, false}) {
      std::vector<float> eo(static_cast<std::size_t>(cols * n));
      std::vector<std::int8_t> flags(static_cast<std::size_t>(n), 7);
      d[kGxEpilogue].add_value(simd::geniex_epilogue(
          eo.data(), flags.data(), iid.data(), rel.data(), cols, n, 0.02f,
          1.0f, guard, -0.5f, 1.5f));
      d[kGxEpilogue].add(eo);
      d[kGxEpilogue].add(flags);
    }

    // Surrogate-training kernels.
    std::vector<float> y = spiked(n, -6.0, 6.0);
    simd::tanh_fast_block(y.data(), y.data(), n);
    d[kTanh].add(y);
    const std::int64_t gk = 1 + n % 11;
    const std::vector<float> ga = random_vec(n * (gk + 2), rng);
    const std::vector<float> gx = random_vec(gk, rng);
    std::vector<float> gy = random_vec(n, rng);
    simd::gemv_madd(gy.data(), ga.data(), gx.data(), n, gk, gk + 2);
    d[kGemv].add(gy);
    const std::int64_t bm = 1 + n % 5;
    std::vector<float> act = spiked(bm * n, -1.0, 1.0);
    const std::vector<float> err = spiked(bm, -0.5, 0.5);
    const std::vector<float> bw2 = spiked(n, -1.0, 1.0);
    simd::tanh_backprop(act.data(), err.data(), bw2.data(), bm, n);
    d[kBackprop].add(act);
    simd::AdamStep adam;
    adam.count = 7.0f;
    adam.bc1 = 1.0f - std::pow(adam.beta1, 3.0f);
    adam.bc2 = 1.0f - std::pow(adam.beta2, 3.0f);
    adam.lr = 3e-3f;
    std::vector<float> p = random_vec(n, rng), pm = random_vec(n, rng, -0.01, 0.01);
    std::vector<float> pv = random_vec(n, rng, 0.0, 0.01);
    const std::vector<float> g = spiked(n, -2.0, 2.0);
    simd::adam_step(p.data(), pm.data(), pv.data(), g.data(), n, adam);
    d[kAdam].add(p);
    d[kAdam].add(pm);
    d[kAdam].add(pv);

    // Integer bit-slice kernels.
    const float qmaxes[] = {127.0f, 63.0f, 32767.0f, 8.0f};
    const std::vector<float> qx = spiked(n, -0.4, 1.9, /*with_nan=*/false);
    std::vector<std::int16_t> q(static_cast<std::size_t>(n));
    simd::quantize_to_i16(q.data(), qx.data(), n, 1.5f, qmaxes[n % 4]);
    d[kQuant].add(q);
    const std::vector<std::int8_t> ia = i8s(k * (m + 2)), ib = i8s(k * (n + 5));
    std::vector<std::int32_t> ic(static_cast<std::size_t>(m * ldc), -3);
    simd::gemm_at_i8_i32acc(ic.data(), ia.data(), ib.data(), m, n, k, m + 2,
                            n + 5, ldc);
    d[kGemmI8].add(ic);
    std::vector<std::int32_t> dots(static_cast<std::size_t>(n));
    for (auto& t : dots)
      t = static_cast<std::int32_t>(rng.uniform_int(-100, 16383));
    std::vector<float> iacc = random_vec(n, rng);
    simd::adc_shift_add_i32(iacc.data(), dots.data(), base.data(), n, 3.1e-5f,
                            1.1f, 1023.0f, 2.5f);
    d[kAdcI32].add(iacc);
    const std::int64_t sb = 1 + n % 7, streams = (15 + sb - 1) / sb;
    const std::int64_t used = 1 + n % 4, dac_rows = used + 2;
    std::vector<std::int16_t> codes(static_cast<std::size_t>(used * n));
    for (auto& t : codes)
      t = static_cast<std::int16_t>(rng.uniform_index(32768));
    if (n % 9 == 4) codes[static_cast<std::size_t>(n / 2)] = -5;
    std::vector<std::int8_t> chunk(
        static_cast<std::size_t>(streams * dac_rows * n), 0x55);
    std::vector<std::int8_t> row_max(
        static_cast<std::size_t>(streams * dac_rows), 0x55);
    std::vector<std::int32_t> colsum(static_cast<std::size_t>(streams * n),
                                     -7);
    d[kDac].add_value<std::uint8_t>(simd::dac_streams_i16(
        chunk.data(), row_max.data(), colsum.data(), codes.data(), used,
        dac_rows, n, streams, sb));
    d[kDac].add(chunk);
    d[kDac].add(row_max);
    d[kDac].add(colsum);
  }
  std::vector<std::pair<const char*, std::uint64_t>> digests;
  for (int i = 0; i < kKernels; ++i) digests.emplace_back(kNames[i], d[i].value());
  return digests;
}

/// Each kernel's outputs hash to the values recorded per tier, [~ulp]
/// kernels included: a kernel rewrite that moves any output bit on any
/// tier fails here. A deliberate numerics change re-records the table
/// from the values this test prints on failure.
TEST(SimdGolden, EveryKernelMatchesRecordedBitsPerTier) {
  struct Recorded {
    const char* kernel;
    std::uint64_t bits[3];  // indexed by simd::Isa: scalar, avx2, avx512
  };
  static const Recorded kRecorded[] = {
      {"dot",
       {0xd2f409f626cd54baull, 0x6515c920b8e4ded1ull,
        0x188c379aa25c4d3aull}},
      {"gemm_accum",
       {0xbf4511c764a2e2cull, 0x5503ba8c0dec8fa9ull,
        0x14dd5c7d48733bb1ull}},
      {"gemm_at_accum",
       {0x3b5666a7900bf2afull, 0x4df36556c33aa4ceull,
        0x84c3946836104777ull}},
      {"gemm_bt_accum",
       {0x88197cb589ca4d15ull, 0xdf78ae025f25a278ull,
        0xd970604c67934fbeull}},
      {"gemm_madd",
       {0xbf4511c764a2e2cull, 0xbf4511c764a2e2cull,
        0xbf4511c764a2e2cull}},
      {"gemm_f64acc",
       {0x193200a82fc0d85cull, 0x193200a82fc0d85cull,
        0x193200a82fc0d85cull}},
      {"mlp_tanh",
       {0x4c7f8729a9806d24ull, 0xfb69a06400ab5a0dull,
        0xfb69a06400ab5a0dull}},
      {"adc_shift_add",
       {0x5ffcbcc1c8678773ull, 0x5ffcbcc1c8678773ull,
        0x5ffcbcc1c8678773ull}},
      {"geniex_inputs",
       {0xcf47efc0f8c24a1ull, 0xcf47efc0f8c24a1ull,
        0xcf47efc0f8c24a1ull}},
      {"geniex_features",
       {0xc0db346d42c30e60ull, 0xc0db346d42c30e60ull,
        0xc0db346d42c30e60ull}},
      {"geniex_epilogue",
       {0xbb227450622b0ef0ull, 0xbb227450622b0ef0ull,
        0xbb227450622b0ef0ull}},
      {"tanh_fast_block",
       {0xfb05894136c41369ull, 0xfb05894136c41369ull,
        0xfb05894136c41369ull}},
      {"gemv_madd",
       {0xdfc8edd0ed1d6281ull, 0xdfc8edd0ed1d6281ull,
        0xdfc8edd0ed1d6281ull}},
      {"tanh_backprop",
       {0xc49a602478485bc2ull, 0xc49a602478485bc2ull,
        0xc49a602478485bc2ull}},
      {"adam_step",
       {0xc51ff574a37a571cull, 0xc51ff574a37a571cull,
        0xc51ff574a37a571cull}},
      {"quantize_to_i16",
       {0x508f77abc56fdc78ull, 0x508f77abc56fdc78ull,
        0x508f77abc56fdc78ull}},
      {"gemm_at_i8_i32acc",
       {0x50dab1ddb17f23c4ull, 0x50dab1ddb17f23c4ull,
        0x50dab1ddb17f23c4ull}},
      {"adc_shift_add_i32",
       {0x1e624e03b00788ebull, 0x1e624e03b00788ebull,
        0x1e624e03b00788ebull}},
      {"dac_streams_i16",
       {0xc98534d6b1b201fcull, 0xc98534d6b1b201fcull,
        0xc98534d6b1b201fcull}},
  };
  for (simd::Isa isa : usable_isas()) {
    const auto digests = kernel_digests(isa);
    ASSERT_EQ(digests.size(), std::size(kRecorded));
    for (std::size_t i = 0; i < digests.size(); ++i) {
      ASSERT_STREQ(digests[i].first, kRecorded[i].kernel);
      EXPECT_EQ(digests[i].second, kRecorded[i].bits[static_cast<int>(isa)])
          << simd::isa_name(isa) << " " << digests[i].first << " digest 0x"
          << std::hex << digests[i].second;
    }
  }
}

// ---------------------------------------------------------------------------
// Integer bit-slice kernels (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// quantize_to_i16 must produce exactly the codes of the scalar affine
/// quantizer round(clamp(x, 0, scale) / scale * qmax), on every tier.
TEST(SimdIntKernels, QuantizeIntTwinsMatchQuantizeAffineBitExact) {
  Rng rng(61);
  const std::int64_t n = 103;  // odd: vector body + tail
  std::vector<float> x = random_vec(n, rng, -0.4, 1.9);
  x[0] = 0.0f;
  x[1] = 1.5f;  // ref scale 1.5/qmax hits exact ties for power-of-2 qmax
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (const float qmax : {127.0f, 63.0f, 32767.0f, 8.0f}) {
      const float scale = 1.5f;
      std::vector<float> ref(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        ref[i] = std::round(std::clamp(x[i], 0.0f, scale) / scale * qmax);
      std::vector<std::int16_t> q16(static_cast<std::size_t>(n));
      simd::quantize_to_i16(q16.data(), x.data(), n, scale, qmax);
      for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(static_cast<float>(q16[i]), ref[i])
            << simd::isa_name(isa) << " qmax=" << qmax << " i=" << i;
    }
  }
}

/// The i32 GEMM must agree bit-for-bit with float accumulation of the
/// same integer-valued operands: products are < 2^14 and dot totals stay
/// below 2^24, where float arithmetic is exact, so BOTH paths compute the
/// mathematically exact integer. This is the kernel-level "int8 == f32"
/// contract the bit-slice pipeline rests on.
TEST(SimdIntKernels, GemmI8I32accMatchesFloatGemmExactly) {
  Rng rng(62);
  const std::int64_t m = 17, n = 23, k = 61;
  std::vector<std::int8_t> a(static_cast<std::size_t>(k * m));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(0.0, 127.99));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform(0.0, 127.99));
  std::vector<float> af(a.begin(), a.end()), bf(b.begin(), b.end());
  std::vector<float> cf(static_cast<std::size_t>(m * n), 0.0f);
  simd::gemm_at_accum(cf.data(), af.data(), bf.data(), m, n, k, m, n, n);

  std::vector<std::int32_t> ref;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
    simd::gemm_at_i8_i32acc(c.data(), a.data(), b.data(), m, n, k, m, n, n);
    for (std::int64_t i = 0; i < m * n; ++i)
      EXPECT_EQ(static_cast<float>(c[i]), cf[i])
          << simd::isa_name(isa) << " " << i;
    if (ref.empty())
      ref = c;
    else
      EXPECT_EQ(c, ref) << simd::isa_name(isa);
  }
}

TEST(SimdIntKernels, AdcShiftAddI32MatchesComposedFloatOps) {
  Rng rng(63);
  const std::int64_t n = 41;
  std::vector<std::int32_t> dot(static_cast<std::size_t>(n));
  for (auto& d : dot)
    d = static_cast<std::int32_t>(rng.uniform(0.0, 16383.99));
  std::vector<float> base = random_vec(n, rng, 0.0, 0.3);
  const float dot_unit = 3.1e-5f, fs = 1.1f, steps = 1023.0f, shift = 2.5f;
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> acc(static_cast<std::size_t>(n), 0.125f);
    simd::adc_shift_add_i32(acc.data(), dot.data(), base.data(), n, dot_unit,
                            fs, steps, shift);
    for (std::int64_t i = 0; i < n; ++i) {
      // Composed float reference: unfused mul+add, then the same fused
      // ADC + baseline-subtract + shift-add as adc_shift_add.
      const float cur = base[i] + dot_unit * static_cast<float>(dot[i]);
      float want = 0.125f;
      simd::adc_shift_add(&want, &cur, &base[i], 1, 1, fs, steps, shift);
      EXPECT_EQ(acc[i], want) << simd::isa_name(isa) << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

TEST(SimdWorkspace, ReacquisitionReusesBufferAndCounts) {
  simd::Workspace ws;
  metrics::Counter& reuses = metrics::counter("simd/workspace/reuses");
  std::span<float> first = ws.floats(0, 256);
  ASSERT_EQ(first.size(), 256u);
  first[0] = 42.0f;
  const std::uint64_t before = reuses.value();
  std::span<float> again = ws.floats(0, 128);  // smaller: must not realloc
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.size(), 128u);
  EXPECT_GT(reuses.value(), before);
  // A different slot gets independent storage.
  std::span<float> other = ws.floats(1, 64);
  EXPECT_NE(other.data(), first.data());
  // Doubles and floats of the same slot are independent buffers too.
  std::span<double> d = ws.doubles(0, 32);
  EXPECT_NE(static_cast<const void*>(d.data()),
            static_cast<const void*>(first.data()));
}

// ---------------------------------------------------------------------------
// mvm_multi == looped mvm, bit for bit, for every model
// ---------------------------------------------------------------------------

xbar::CrossbarConfig tiny_config(std::int64_t n) {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = n;
  cfg.name = "simd_test";
  return cfg;
}

Tensor random_conductances(const xbar::CrossbarConfig& cfg, Rng& rng) {
  Tensor g({cfg.rows, cfg.cols});
  const double lo = cfg.g_off(), hi = cfg.g_on();
  for (std::int64_t i = 0; i < g.numel(); ++i)
    g[i] = static_cast<float>(rng.uniform(lo, hi));
  return g;
}

Tensor random_voltage_block(const xbar::CrossbarConfig& cfg, std::int64_t n,
                            Rng& rng) {
  Tensor v({cfg.rows, n});
  for (std::int64_t i = 0; i < v.numel(); ++i) {
    // Include exact zeros so skip-zero paths are exercised.
    const double u = rng.uniform(-0.3, 1.0);
    v[i] = static_cast<float>(cfg.v_read * std::max(u, 0.0));
  }
  return v;
}

void expect_multi_matches_looped(const xbar::MvmModel& model,
                                 std::int64_t block, Rng& rng) {
  const xbar::CrossbarConfig& cfg = model.config();
  Tensor g = random_conductances(cfg, rng);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor vb = random_voltage_block(cfg, block, rng);
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    Tensor multi = xb->mvm_multi(vb);
    ASSERT_EQ(multi.dim(0), cfg.cols);
    ASSERT_EQ(multi.dim(1), block);
    for (std::int64_t j = 0; j < block; ++j) {
      Tensor v({cfg.rows});
      for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, j);
      Tensor single = xb->mvm(v);
      for (std::int64_t c = 0; c < cfg.cols; ++c)
        EXPECT_EQ(multi.at(c, j), single[c])
            << model.name() << " isa=" << simd::isa_name(isa) << " col=" << c
            << " rhs=" << j;
    }
  }
}

TEST(MvmMulti, IdealBitIdenticalToLoopedMvm) {
  Rng rng(31);
  xbar::IdealXbarModel model(tiny_config(16));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, FastNoiseBitIdenticalToLoopedMvm) {
  Rng rng(32);
  xbar::FastNoiseModel model(tiny_config(16));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, CircuitSolverBitIdenticalToLoopedMvm) {
  Rng rng(33);
  xbar::CircuitSolverModel model(tiny_config(8));
  expect_multi_matches_looped(model, 3, rng);
}

TEST(MvmMulti, FaultWrappedBitIdenticalToLoopedMvm) {
  Rng rng(34);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  fo.dead_col_rate = 0.05;
  xbar::FaultModel model(
      std::make_shared<xbar::FastNoiseModel>(tiny_config(16)), fo);
  expect_multi_matches_looped(model, 4, rng);
}

TEST(MvmMulti, VariationWrappedBitIdenticalToLoopedMvm) {
  Rng rng(35);
  xbar::VariationModel model(
      std::make_shared<xbar::IdealXbarModel>(tiny_config(16)), {});
  expect_multi_matches_looped(model, 4, rng);
}

TEST(MvmMulti, GeniexBitIdenticalToLoopedMvm) {
  Rng rng(36);
  const xbar::CrossbarConfig cfg = tiny_config(16);
  xbar::GeniexTrainOptions opt;
  opt.solver_samples = 60;  // small fit; bit-identity doesn't need accuracy
  xbar::GeniexFit fit = xbar::GeniexModel::fit(cfg, opt);
  xbar::GeniexModel model(cfg, std::move(fit.mlp));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, ActiveHintMatchesFullOnZeroPaddedInput) {
  Rng rng(37);
  const xbar::CrossbarConfig cfg = tiny_config(16);
  const std::int64_t rows_used = 11, cols_used = 9, block = 4;
  xbar::IdealXbarModel model(cfg);
  Tensor g = random_conductances(cfg, rng);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor vb = random_voltage_block(cfg, block, rng);
  for (std::int64_t i = rows_used; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < block; ++j) vb.at(i, j) = 0.0f;
  Tensor full = xb->mvm_multi(vb);
  Tensor active = xb->mvm_multi_active(vb, rows_used, cols_used);
  for (std::int64_t c = 0; c < cols_used; ++c)
    for (std::int64_t j = 0; j < block; ++j)
      EXPECT_EQ(active.at(c, j), full.at(c, j)) << c << "," << j;
}

// ---------------------------------------------------------------------------
// Full tiled GEMM: deterministic across runs, thread counts, and ISAs
// ---------------------------------------------------------------------------

Tensor tiled_reference_run(const std::shared_ptr<const xbar::MvmModel>& model,
                           const Tensor& w, const Tensor& x) {
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  return tiled.matmul(x, 0.0f);
}

TEST(TiledMatmul, DeterministicAcrossThreadCountsAndIsas) {
  Rng rng(41);
  const auto cfg = tiny_config(16);
  // Non-divisible dimensions: 2x2 row/col tiles with ragged edges.
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));

  for (const bool fast_noise : {false, true}) {
    std::shared_ptr<const xbar::MvmModel> model;
    if (fast_noise)
      model = std::make_shared<xbar::FastNoiseModel>(cfg);
    else
      model = std::make_shared<xbar::IdealXbarModel>(cfg);

    Tensor ref;
    {
      // The whole analog pipeline uses only [exact]-contract kernels, so
      // outputs must be bit-identical across ISAs, pool sizes, and runs.
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled_reference_run(model, w, x);
    }
    ASSERT_GT(ref.abs_max(), 0.0f);
    for (simd::Isa isa : usable_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 2u, 5u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled_reference_run(model, w, x);
        ASSERT_EQ(out.numel(), ref.numel());
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << (fast_noise ? "fast_noise" : "ideal")
              << " isa=" << simd::isa_name(isa) << " threads=" << threads
              << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Integer bit-slice pipeline vs the reference tiled GEMM
// (tests/tiled_reference.h), which evaluates materialized float voltages
// ---------------------------------------------------------------------------

/// fast_noise: the chunk-gather int path evaluates the SAME float
/// operations per distinct chunk code as the per-element voltage loop
/// (DESIGN.md §13), so it must match the reference GEMM bit for bit.
TEST(IntPath, FastNoiseIntChunksBitIdenticalToLegacyFloat) {
  Rng rng(71);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& chunk_mms =
      metrics::counter("puma/tiled/matmuls_int_chunks");

  const Tensor legacy =
      testutil::reference_tiled_matmul(w, model, puma::HwConfig{}, x);
  const std::uint64_t before = chunk_mms.value();
  const Tensor routed = tiled.matmul(x, 0.0f);
  EXPECT_GT(chunk_mms.value(), before) << "int chunk path did not engage";
  ASSERT_EQ(legacy.numel(), routed.numel());
  for (std::int64_t i = 0; i < legacy.numel(); ++i)
    EXPECT_EQ(routed[i], legacy[i]) << i;
}

/// ideal: the fully-digital int path computes the exact integer dot
/// products the analog model only approximates through pre-rounded float
/// conductances and a double accumulation, so outputs can differ — but
/// only where the ADC rounds a near-tie the other way, i.e. by at most
/// one ADC step per shift-add term.
TEST(IntPath, IdealIntDigitalMatchesLegacyWithinAdcRounding) {
  Rng rng(72);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& digital_mms =
      metrics::counter("puma/tiled/matmuls_int_digital");

  const Tensor legacy =
      testutil::reference_tiled_matmul(w, model, puma::HwConfig{}, x);
  const std::uint64_t before = digital_mms.value();
  const Tensor digital = tiled.matmul(x, 0.0f);
  EXPECT_GT(digital_mms.value(), before) << "int digital path not engaged";
  ASSERT_EQ(legacy.numel(), digital.numel());
  ASSERT_GT(legacy.abs_max(), 0.0f);
  const float tol = 1e-3f * legacy.abs_max() + 1e-6f;
  for (std::int64_t i = 0; i < legacy.numel(); ++i)
    EXPECT_NEAR(digital[i], legacy[i], tol) << i;
}

/// Both int routes must themselves be deterministic across ISA tiers and
/// thread counts.
TEST(IntPath, IntRoutesDeterministicAcrossIsasAndThreads) {
  Rng rng(73);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  for (const bool fast_noise : {false, true}) {
    std::shared_ptr<const xbar::MvmModel> model;
    if (fast_noise)
      model = std::make_shared<xbar::FastNoiseModel>(cfg);
    else
      model = std::make_shared<xbar::IdealXbarModel>(cfg);
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});
    Tensor ref;
    {
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled.matmul(x, 0.0f);
    }
    for (simd::Isa isa : usable_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 3u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled.matmul(x, 0.0f);
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << (fast_noise ? "fast_noise" : "ideal")
              << " isa=" << simd::isa_name(isa) << " threads=" << threads
              << " i=" << i;
      }
    }
  }
}

/// Regression: a FaultModel wrapper — even with every rate at zero — must
/// keep the wrapped model off the fully-digital int route. The digital
/// route computes exact integer dot products and would silently erase the
/// fault rewrite (stuck cells, dead lines, drift) the wrapper applies to
/// the programmed conductances; FaultModel(ideal) is only "ideal" in name.
/// Pinned as bit-identity with the reference GEMM on every ISA tier, plus
/// the route counter staying flat.
TEST(IntPath, FaultWrappedIdealNeverTakesDigitalRoute) {
  Rng rng(74);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  xbar::FaultOptions fo;  // all rates zero: the rewrite is the identity
  auto model = std::make_shared<xbar::FaultModel>(
      std::make_shared<xbar::IdealXbarModel>(cfg), fo);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& digital_mms =
      metrics::counter("puma/tiled/matmuls_int_digital");

  const Tensor ref =
      testutil::reference_tiled_matmul(w, model, puma::HwConfig{}, x);
  ASSERT_GT(ref.abs_max(), 0.0f);
  for (simd::Isa isa : usable_isas()) {
    simd::ScopedIsaForTests scope(isa);
    const std::uint64_t before = digital_mms.value();
    Tensor out = tiled.matmul(x, 0.0f);
    EXPECT_EQ(digital_mms.value(), before)
        << "digital route engaged for fault-wrapped model (isa="
        << simd::isa_name(isa) << ")";
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_EQ(out[i], ref[i]) << "isa=" << simd::isa_name(isa)
                                << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Solver stream warm-starting
// ---------------------------------------------------------------------------

TEST(SolverStream, WarmStartMatchesColdWithinToleranceAndSavesSweeps) {
  Rng rng(51);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor g = random_conductances(cfg, rng);
  const std::int64_t block = 3;
  // Two correlated chunk blocks, like successive DAC bit-streams.
  Tensor chunk1 = random_voltage_block(cfg, block, rng);
  Tensor chunk2 = chunk1;
  for (std::int64_t i = 0; i < chunk2.numel(); ++i)
    chunk2[i] = std::max(0.0f, chunk2[i] * 0.5f +
                                   static_cast<float>(rng.uniform(
                                       0.0, 0.1 * cfg.v_read)));

  metrics::Counter& sweeps = metrics::counter("solver/sweeps");
  metrics::Counter& warm = metrics::counter("solver/warm_starts");

  xbar::CircuitSolverModel model(cfg, {});
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);

  // Cold baseline: independent solves for both chunks.
  const std::uint64_t s0 = sweeps.value();
  Tensor cold1 = xb->mvm_multi(chunk1);
  Tensor cold2 = xb->mvm_multi(chunk2);
  const std::uint64_t cold_sweeps = sweeps.value() - s0;

  // Streamed: the second chunk's solves start from the first's voltages.
  const std::uint64_t w0 = warm.value(), s1 = sweeps.value();
  std::unique_ptr<xbar::XbarStream> stream = xb->open_stream();
  Tensor warm1 = stream->mvm_multi_active(chunk1, cfg.rows, cfg.cols);
  Tensor warm2 = stream->mvm_multi_active(chunk2, cfg.rows, cfg.cols);
  const std::uint64_t warm_sweeps = sweeps.value() - s1;

  // Every streamed solve is seeded: chunk 1 from the analytic flow
  // refinement of the cold broadcast, chunk 2 from chunk 1's voltages.
  EXPECT_EQ(warm.value() - w0, static_cast<std::uint64_t>(2 * block));
  EXPECT_LT(warm_sweeps, cold_sweeps);
  // Seeded solves agree with cold within solve tolerance (currents are
  // ~i_scale; the solver converges node voltages to tol * v_read).
  const double tol = cfg.i_scale() * 1e-5;
  for (std::int64_t i = 0; i < cold1.numel(); ++i)
    EXPECT_NEAR(warm1[i], cold1[i], tol) << i;
  for (std::int64_t i = 0; i < cold2.numel(); ++i)
    EXPECT_NEAR(warm2[i], cold2[i], tol) << i;
}

TEST(SolverStream, WarmStartDisabledMatchesColdBitExactly) {
  Rng rng(52);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor g = random_conductances(cfg, rng);
  Tensor chunk1 = random_voltage_block(cfg, 2, rng);
  Tensor chunk2 = random_voltage_block(cfg, 2, rng);

  xbar::SolverOptions opt;
  opt.warm_start_streams = false;
  xbar::CircuitSolverModel model(cfg, opt);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor cold1 = xb->mvm_multi(chunk1);
  Tensor cold2 = xb->mvm_multi(chunk2);
  std::unique_ptr<xbar::XbarStream> stream = xb->open_stream();
  Tensor out1 = stream->mvm_multi_active(chunk1, cfg.rows, cfg.cols);
  Tensor out2 = stream->mvm_multi_active(chunk2, cfg.rows, cfg.cols);
  for (std::int64_t i = 0; i < cold1.numel(); ++i)
    EXPECT_EQ(out1[i], cold1[i]) << i;
  for (std::int64_t i = 0; i < cold2.numel(); ++i)
    EXPECT_EQ(out2[i], cold2[i]) << i;
}

TEST(SolverStream, TiledMatmulSweepsDropWithWarmStart) {
  Rng rng(53);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor w = Tensor::normal({8, 8}, 0.0f, 0.4f, rng);
  Tensor x({8, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  metrics::Counter& sweeps = metrics::counter("solver/sweeps");

  auto run = [&](bool warm_start) {
    xbar::SolverOptions opt;
    opt.warm_start_streams = warm_start;
    auto model = std::make_shared<xbar::CircuitSolverModel>(cfg, opt);
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});
    const std::uint64_t before = sweeps.value();
    Tensor out = tiled.matmul(x, 0.0f);
    return std::pair<Tensor, std::uint64_t>(std::move(out),
                                            sweeps.value() - before);
  };
  auto [cold_out, cold_sweeps] = run(false);
  auto [warm_out, warm_sweeps] = run(true);
  EXPECT_LT(warm_sweeps, cold_sweeps);
  // The digital result is ADC-quantized, so solver differences within
  // tolerance rarely move the output at all; allow one ADC step.
  const float step = static_cast<float>(cfg.i_scale()) /
                     static_cast<float>((1 << 10) - 1);
  for (std::int64_t i = 0; i < cold_out.numel(); ++i)
    EXPECT_NEAR(warm_out[i], cold_out[i], step) << i;
}

}  // namespace
}  // namespace nvm
