// AVX2/FMA kernel variants. This is the only translation unit built with
// -mavx2 -mfma (per-file flags from src/common/CMakeLists.txt, applied
// only when NVM_ENABLE_AVX2 is on — otherwise the stubs at the bottom are
// compiled and the runtime dispatcher never routes here).
//
// Parity rules mirrored from simd.h: [exact] kernels use the same
// unfused mul/add sequence as the scalar reference in simd.cpp; [~ulp]
// kernels (dot, gemm, gemm_at, gemm_bt, mlp_tanh) use FMA in the
// vector body. gemm_madd, mlp_tanh, adc_shift_add, the geniex_* glue
// kernels and the training kernels finish ragged columns with
// maskload/maskstore vectors (gemv_madd masked gathers), so they have no
// scalar tail; dac_streams_i16 stages its ragged int16 vector
// through zero-padded buffers (AVX2 has no 8- or 16-bit masked moves).
// Scalar tail loops in this TU are unfused like the reference (the whole
// build carries -ffp-contract=off; FMA only appears via intrinsics).
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool avx2_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

/// round-half-away-from-zero for non-negative t: floor(t) + (frac >= 0.5).
/// frac = t - floor(t) is exact (Sterbenz), so this matches std::round on
/// the whole non-negative domain including ties.
inline __m256 round_nonneg(__m256 t) {
  const __m256 fl = _mm256_floor_ps(t);
  const __m256 frac = _mm256_sub_ps(t, fl);
  const __m256 ge =
      _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  return _mm256_add_ps(fl, _mm256_and_ps(ge, _mm256_set1_ps(1.0f)));
}

/// Lane mask selecting the first min(lanes, 8) floats of a vector
/// (`lanes` >= 1).
inline __m256i tail_mask8(std::int64_t lanes) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(lanes, 8))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Lanes holding NaN or +-Inf: !(|x| < inf), as !std::isfinite.
inline __m256 nonfinite8(__m256 x) {
  const __m256 abs =
      _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  return _mm256_cmp_ps(abs, _mm256_set1_ps(HUGE_VALF), _CMP_NLT_UQ);
}

/// tanh_fast on 8 lanes: the same polynomial op sequence, saturation
/// applied by blend.
inline __m256 tanh8(__m256 v) {
  const __m256 x2 = _mm256_mul_ps(v, v);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(378.0f), x2);
  p = _mm256_add_ps(_mm256_set1_ps(17325.0f), _mm256_mul_ps(x2, p));
  p = _mm256_add_ps(_mm256_set1_ps(135135.0f), _mm256_mul_ps(x2, p));
  p = _mm256_mul_ps(v, p);
  __m256 q = _mm256_add_ps(_mm256_set1_ps(3150.0f),
                           _mm256_mul_ps(x2, _mm256_set1_ps(28.0f)));
  q = _mm256_add_ps(_mm256_set1_ps(62370.0f), _mm256_mul_ps(x2, q));
  q = _mm256_add_ps(_mm256_set1_ps(135135.0f), _mm256_mul_ps(x2, q));
  __m256 r = _mm256_div_ps(p, q);
  r = _mm256_blendv_ps(
      r, _mm256_set1_ps(1.0f),
      _mm256_cmp_ps(v, _mm256_set1_ps(4.97f), _CMP_GT_OQ));
  r = _mm256_blendv_ps(
      r, _mm256_set1_ps(-1.0f),
      _mm256_cmp_ps(v, _mm256_set1_ps(-4.97f), _CMP_LT_OQ));
  return r;
}

}  // namespace

float dot_avx2(const float* a, const float* b, std::int64_t n) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  __m256 acc = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < n8; i += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (std::int64_t i = n8; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

namespace {

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(coef(kk)),
                            _mm256_loadu_ps(b + kk * ldb + j0), acc);
    _mm256_storeu_ps(crow + j0, acc);
  }
  for (std::int64_t j = n8; j < n; ++j) {
    float acc = crow[j];
    for (std::int64_t kk = 0; kk < k; ++kk) acc += coef(kk) * b[kk * ldb + j];
    crow[j] = acc;
  }
}

/// 4x8 microtile: four independent FMA chains over k for ILP. `coef(r,kk)`
/// yields the A element for microtile row r at reduction index kk.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    __m256 acc0 = _mm256_loadu_ps(c + 0 * ldc + j0);
    __m256 acc1 = _mm256_loadu_ps(c + 1 * ldc + j0);
    __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc + j0);
    __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc + j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * ldb + j0);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(coef(0, kk)), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(coef(1, kk)), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(coef(2, kk)), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(coef(3, kk)), bv, acc3);
    }
    _mm256_storeu_ps(c + 0 * ldc + j0, acc0);
    _mm256_storeu_ps(c + 1 * ldc + j0, acc1);
    _mm256_storeu_ps(c + 2 * ldc + j0, acc2);
    _mm256_storeu_ps(c + 3 * ldc + j0, acc3);
  }
  for (std::int64_t j = n8; j < n; ++j) {
    for (int r = 0; r < 4; ++r) {
      float acc = c[r * ldc + j];
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += coef(r, kk) * b[kk * ldb + j];
      c[r * ldc + j] = acc;
    }
  }
}

}  // namespace

void gemm_avx2(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t n, std::int64_t k, std::int64_t lda,
               std::int64_t ldb, std::int64_t ldc) {
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t i0 = 0; i0 < m4; i0 += 4)
    gemm_tile4_fma(c + i0 * ldc, b, n, k, ldb, ldc,
                   [&](int r, std::int64_t kk) {
                     return a[(i0 + r) * lda + kk];
                   });
  for (std::int64_t i = m4; i < m; ++i)
    gemm_row_fma(c + i * ldc, b, n, k, ldb,
                 [&](std::int64_t kk) { return a[i * lda + kk]; });
}

void gemm_at_avx2(float* c, const float* a, const float* b, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::int64_t lda,
                  std::int64_t ldb, std::int64_t ldc) {
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t i0 = 0; i0 < m4; i0 += 4)
    gemm_tile4_fma(c + i0 * ldc, b, n, k, ldb, ldc,
                   [&](int r, std::int64_t kk) {
                     return a[kk * lda + i0 + r];
                   });
  for (std::int64_t i = m4; i < m; ++i)
    gemm_row_fma(c + i * ldc, b, n, k, ldb,
                 [&](std::int64_t kk) { return a[kk * lda + i]; });
}

void gemm_bt_avx2(float* c, const float* a, const float* b, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::int64_t lda,
                  std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_avx2(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_avx2(float* out, const float* a, const float* v,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // fmadd_pd rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_set1_pd(static_cast<double>(arow[kk]));
        const __m256 vf = _mm256_loadu_ps(v + kk * ldv + j0);
        acc_lo = _mm256_fmadd_pd(
            av, _mm256_cvtps_pd(_mm256_castps256_ps128(vf)), acc_lo);
        acc_hi = _mm256_fmadd_pd(
            av, _mm256_cvtps_pd(_mm256_extractf128_ps(vf, 1)), acc_hi);
      }
      const __m128 f_lo = _mm256_cvtpd_ps(acc_lo);
      const __m128 f_hi = _mm256_cvtpd_ps(acc_hi);
      _mm256_storeu_ps(out + i * ldo + j0,
                       _mm256_set_m128(f_hi, f_lo));
    }
    for (std::int64_t j = n8; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) *
               static_cast<double>(v[kk * ldv + j]);
      out[i * ldo + j] = static_cast<float>(acc);
    }
  }
}

void adc_shift_add_avx2(float* acc, const float* cur, const float* baseline,
                        std::int64_t rows, std::int64_t n, float full_scale,
                        float steps, float shift) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vfs = _mm256_set1_ps(full_scale);
  const __m256 vsteps = _mm256_set1_ps(steps);
  const __m256 vshift = _mm256_set1_ps(shift);
  for (std::int64_t row = 0; row < rows; ++row) {
    float* arow = acc + row * n;
    const float* crow = cur + row * n;
    for (std::int64_t i = 0; i < n; i += 8) {
      const __m256i m = tail_mask8(n - i);
      const __m256 clamped = _mm256_min_ps(
          _mm256_max_ps(_mm256_maskload_ps(crow + i, m), zero), vfs);
      const __m256 r =
          round_nonneg(_mm256_mul_ps(_mm256_div_ps(clamped, vfs), vsteps));
      const __m256 q = _mm256_div_ps(_mm256_mul_ps(r, vfs), vsteps);
      const __m256 d = _mm256_sub_ps(q, _mm256_maskload_ps(baseline + i, m));
      // Unfused mul+add to match the scalar reference bit-for-bit.
      _mm256_maskstore_ps(arow + i, m,
                          _mm256_add_ps(_mm256_maskload_ps(arow + i, m),
                                        _mm256_mul_ps(vshift, d)));
    }
  }
}

void geniex_inputs_avx2(float* vv, float* vr, float* sums, const float* v,
                        const float* growsum, std::int64_t rows,
                        std::int64_t n, float nv, float nv2, float nr) {
  // One vector of input columns at a time, its three sums held in
  // registers across the whole (sequential) row loop.
  for (std::int64_t k = 0; k < n; k += 8) {
    const __m256i m = tail_mask8(n - k);
    __m256 sv = _mm256_setzero_ps();
    __m256 sv2 = _mm256_setzero_ps();
    __m256 sr = _mm256_setzero_ps();
    for (std::int64_t i = 0; i < rows; ++i) {
      const __m256 x = _mm256_maskload_ps(v + i * n + k, m);
      const __m256 x2 = _mm256_mul_ps(x, x);
      const __m256 xr = _mm256_mul_ps(x, _mm256_set1_ps(growsum[i]));
      _mm256_maskstore_ps(vv + i * n + k, m, x2);
      _mm256_maskstore_ps(vr + i * n + k, m, xr);
      sv = _mm256_add_ps(sv, x);
      sv2 = _mm256_add_ps(sv2, x2);
      sr = _mm256_add_ps(sr, xr);
    }
    _mm256_maskstore_ps(sums + k, m, _mm256_mul_ps(sv, _mm256_set1_ps(nv)));
    _mm256_maskstore_ps(sums + n + k, m,
                        _mm256_mul_ps(sv2, _mm256_set1_ps(nv2)));
    _mm256_maskstore_ps(sums + 2 * n + k, m,
                        _mm256_mul_ps(sr, _mm256_set1_ps(nr)));
  }
}

void geniex_features_avx2(float* ft, const float* iid, const float* sums,
                          const float* colf, std::int64_t cols,
                          std::int64_t n, float i_scale, float d_e, float d_p,
                          float d_w, float garr) {
  const std::int64_t ns = cols * n;
  const __m256 vis = _mm256_set1_ps(i_scale);
  const __m256 vde = _mm256_set1_ps(d_e);
  const __m256 vdp = _mm256_set1_ps(d_p);
  const __m256 vdw = _mm256_set1_ps(d_w);
  const __m256 vgarr = _mm256_set1_ps(garr);
  constexpr std::int64_t kSumRow[3] = {2, 3, 6};  // vbar, v2bar, rbar
  for (std::int64_t j = 0; j < cols; ++j) {
    float* F = ft + j * n;
    const float* ji = iid + j * n;
    const __m256 fg = _mm256_set1_ps(colf[2 * j]);
    const __m256 fpos = _mm256_set1_ps(colf[2 * j + 1]);
    for (std::int64_t k = 0; k < n; k += 8) {
      const __m256i m = tail_mask8(n - k);
      auto div_row = [&](std::int64_t f, const float* src, __m256 d) {
        _mm256_maskstore_ps(
            F + f * ns + k, m,
            _mm256_div_ps(_mm256_maskload_ps(src + k, m), d));
      };
      div_row(0, ji, vis);
      div_row(4, F + 4 * ns, vde);
      div_row(5, F + 5 * ns, vdp);
      div_row(9, F + 9 * ns, vdw);
      _mm256_maskstore_ps(F + 1 * ns + k, m, fg);
      _mm256_maskstore_ps(F + 7 * ns + k, m, fpos);
      _mm256_maskstore_ps(F + 8 * ns + k, m, vgarr);
      for (std::int64_t s = 0; s < 3; ++s)
        _mm256_maskstore_ps(F + kSumRow[s] * ns + k, m,
                            _mm256_maskload_ps(sums + s * n + k, m));
    }
  }
}

std::int64_t geniex_epilogue_avx2(float* out, std::int8_t* flags,
                                  const float* iid, const float* rel,
                                  std::int64_t cols, std::int64_t n,
                                  float floor, float full_scale, bool guard,
                                  float rel_min, float rel_max) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vfloor = _mm256_set1_ps(floor);
  const __m256 vfs = _mm256_set1_ps(full_scale);
  const __m256 vmin = _mm256_set1_ps(rel_min);
  const __m256 vmax = _mm256_set1_ps(rel_max);
  std::int64_t nonfinite = 0;
  // Vector-major: one lane block of input vectors runs down all columns,
  // so its envelope flags OR together in a mask register.
  for (std::int64_t k = 0; k < n; k += 8) {
    const std::int64_t lanes = std::min<std::int64_t>(8, n - k);
    const __m256i m = tail_mask8(lanes);
    const int live = (1 << lanes) - 1;
    __m256 bad = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < cols; ++j) {
      const __m256 x = _mm256_maskload_ps(iid + j * n + k, m);
      const __m256 r = _mm256_maskload_ps(rel + j * n + k, m);
      if (guard)
        bad = _mm256_or_ps(
            bad, _mm256_or_ps(nonfinite8(r),
                              _mm256_or_ps(_mm256_cmp_ps(r, vmin, _CMP_LT_OQ),
                                           _mm256_cmp_ps(r, vmax,
                                                         _CMP_GT_OQ))));
      // std::max(x, floor): x < floor ? floor : x (a NaN x stays NaN).
      const __m256 denom = _mm256_blendv_ps(
          x, vfloor, _mm256_cmp_ps(x, vfloor, _CMP_LT_OQ));
      const __m256 t = _mm256_sub_ps(x, _mm256_mul_ps(r, denom));
      // std::clamp(t, 0, fs): t < 0 ? 0 : (fs < t ? fs : t).
      __m256 o = _mm256_blendv_ps(t, vfs, _mm256_cmp_ps(vfs, t, _CMP_LT_OQ));
      o = _mm256_blendv_ps(o, zero, _mm256_cmp_ps(t, zero, _CMP_LT_OQ));
      _mm256_maskstore_ps(out + j * n + k, m, o);
      nonfinite += __builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(nonfinite8(o)) & live));
    }
    const int bits = _mm256_movemask_ps(bad);
    for (std::int64_t l = 0; l < lanes; ++l)
      flags[k + l] = static_cast<std::int8_t>((bits >> l) & 1);
  }
  return nonfinite;
}

namespace {

/// Rounded quantization codes for 8 floats, as i32 (codes are integral, so
/// cvtps_epi32's round-to-nearest-even cannot move them).
inline __m256i quantize_codes8(const float* x, __m256 vs, __m256 vq) {
  const __m256 clipped =
      _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(x), _mm256_setzero_ps()),
                    vs);
  const __m256 t = _mm256_mul_ps(_mm256_div_ps(clipped, vs), vq);
  return _mm256_cvtps_epi32(round_nonneg(t));
}

}  // namespace

void quantize_to_i16_avx2(std::int16_t* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  alignas(32) std::int32_t tmp[8];
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       quantize_codes8(x + i, vs, vq));
    for (int l = 0; l < 8; ++l)
      out[i + l] = static_cast<std::int16_t>(tmp[l]);
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_avx2(std::int32_t* c, const std::int8_t* a,
                            const std::int8_t* b, std::int64_t m,
                            std::int64_t n, std::int64_t k, std::int64_t lda,
                            std::int64_t ldb, std::int64_t ldc) {
  // 4x16 microtiles: per k-step the 16 int8 B values widen to two i32
  // vectors once, then feed four broadcast multiply-accumulate chains.
  // Integer arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
      const std::int64_t in = (i0 < m4) ? 4 : m - i0;
      __m256i acc[4][2];
      for (std::int64_t r = 0; r < in; ++r) {
        acc[r][0] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c + (i0 + r) * ldc + j0));
        acc[r][1] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c + (i0 + r) * ldc + j0 + 8));
      }
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m128i bv = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk * ldb + j0));
        const __m256i b_lo = _mm256_cvtepi8_epi32(bv);
        const __m256i b_hi = _mm256_cvtepi8_epi32(_mm_srli_si128(bv, 8));
        const std::int8_t* arow = a + kk * lda + i0;
        for (std::int64_t r = 0; r < in; ++r) {
          const std::int32_t aki = arow[r];
          if (aki == 0) continue;
          const __m256i va = _mm256_set1_epi32(aki);
          acc[r][0] =
              _mm256_add_epi32(acc[r][0], _mm256_mullo_epi32(va, b_lo));
          acc[r][1] =
              _mm256_add_epi32(acc[r][1], _mm256_mullo_epi32(va, b_hi));
        }
      }
      for (std::int64_t r = 0; r < in; ++r) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(c + (i0 + r) * ldc + j0), acc[r][0]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(c + (i0 + r) * ldc + j0 + 8),
            acc[r][1]);
      }
    }
  }
  if (n16 < n) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int8_t* arow = a + kk * lda;
      const std::int8_t* brow = b + kk * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const std::int32_t aki = arow[i];
        if (aki == 0) continue;
        std::int32_t* crow = c + i * ldc;
        for (std::int64_t j = n16; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  }
}

void adc_shift_add_i32_avx2(float* acc, const std::int32_t* dot,
                            const float* baseline, std::int64_t n,
                            float dot_unit, float full_scale, float steps,
                            float shift) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vdu = _mm256_set1_ps(dot_unit);
  const __m256 vfs = _mm256_set1_ps(full_scale);
  const __m256 vsteps = _mm256_set1_ps(steps);
  const __m256 vshift = _mm256_set1_ps(shift);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 vd = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(dot + i)));
    const __m256 vb = _mm256_loadu_ps(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const __m256 cur = _mm256_add_ps(vb, _mm256_mul_ps(vdu, vd));
    const __m256 clamped = _mm256_min_ps(_mm256_max_ps(cur, zero), vfs);
    const __m256 r =
        round_nonneg(_mm256_mul_ps(_mm256_div_ps(clamped, vfs), vsteps));
    const __m256 q = _mm256_div_ps(_mm256_mul_ps(r, vfs), vsteps);
    const __m256 d = _mm256_sub_ps(q, vb);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                            _mm256_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

namespace {

/// One 16-code vector of dac_streams_i16: writes 16 chunk bytes and adds
/// 16 column sums; `any` ORs the raw codes, `vmax` tracks the row max.
inline void dac_block16(const std::int16_t* s, std::int8_t* d,
                        std::int32_t* cs, __m128i cnt, __m256i vmask,
                        __m256i& vmax, __m256i& any) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
  any = _mm256_or_si256(any, v);
  const __m256i c = _mm256_and_si256(_mm256_sra_epi16(v, cnt), vmask);
  const __m128i c_lo = _mm256_castsi256_si128(c);
  const __m128i c_hi = _mm256_extracti128_si256(c, 1);
  // Chunk values are 0..127, so the saturating pack is exact.
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d), _mm_packs_epi16(c_lo, c_hi));
  vmax = _mm256_max_epi16(vmax, c);
  auto* cv = reinterpret_cast<__m256i*>(cs);
  _mm256_storeu_si256(cv, _mm256_add_epi32(_mm256_loadu_si256(cv),
                                           _mm256_cvtepi16_epi32(c_lo)));
  _mm256_storeu_si256(cv + 1, _mm256_add_epi32(_mm256_loadu_si256(cv + 1),
                                               _mm256_cvtepi16_epi32(c_hi)));
}

}  // namespace

bool dac_streams_i16_avx2(std::int8_t* chunk, std::int8_t* row_max,
                          std::int32_t* colsum, const std::int16_t* src,
                          std::int64_t rows_used, std::int64_t rows,
                          std::int64_t n, std::int64_t streams,
                          std::int64_t stream_bits) {
  // 16 codes per vector; a ragged last vector is staged through
  // zero-padded buffers (padding codes are 0: no effect on the row max).
  const __m256i vmask =
      _mm256_set1_epi16(static_cast<short>((1 << stream_bits) - 1));
  const std::int64_t n16 = n & ~std::int64_t{15};
  __m256i any = _mm256_setzero_si256();
  for (std::int64_t t = 0; t < streams; ++t) {
    const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(t * stream_bits));
    std::int8_t* ct = chunk + t * rows * n;
    std::int32_t* st = colsum + t * n;
    std::fill(st, st + n, 0);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int16_t* s = src + r * n;
      std::int8_t* d = ct + r * n;
      __m256i vmax = _mm256_setzero_si256();
      for (std::int64_t k = 0; k < n16; k += 16)
        dac_block16(s + k, d + k, st + k, cnt, vmask, vmax, any);
      if (n16 < n) {
        std::int16_t s_tail[16] = {};
        std::int8_t d_tail[16] = {};
        std::int32_t cs_tail[16] = {};
        std::copy(s + n16, s + n, s_tail);
        std::copy(st + n16, st + n, cs_tail);
        dac_block16(s_tail, d_tail, cs_tail, cnt, vmask, vmax, any);
        std::copy(d_tail, d_tail + (n - n16), d + n16);
        std::copy(cs_tail, cs_tail + (n - n16), st + n16);
      }
      alignas(32) std::int16_t lanes[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmax);
      row_max[t * rows + r] =
          static_cast<std::int8_t>(*std::max_element(lanes, lanes + 16));
    }
    std::fill(ct + rows_used * n, ct + rows * n, std::int8_t{0});
    std::fill(row_max + t * rows + rows_used, row_max + (t + 1) * rows,
              std::int8_t{0});
  }
  // Odd bytes hold each int16 lane's sign bit.
  return (_mm256_movemask_epi8(any) & 0xAAAAAAAA) != 0;
}

namespace {

/// Vector v of a V-vector block; with kTail the last vector touches only
/// the lanes in `mask` (masked lanes load as zero and are never stored).
template <int V, bool kTail>
inline __m256 load8(const float* p, int v, __m256i mask) {
  if (kTail && v == V - 1) return _mm256_maskload_ps(p, mask);
  return _mm256_loadu_ps(p);
}

template <int V, bool kTail>
inline void store8(float* p, int v, __m256i mask, __m256 x) {
  if (kTail && v == V - 1)
    _mm256_maskstore_ps(p, mask, x);
  else
    _mm256_storeu_ps(p, x);
}

/// R rows x V vectors of C held in registers across the whole k loop;
/// every term is an unfused multiply then add, as in gemm_madd_scalar.
template <int R, int V, bool kTail>
inline void madd_block8(float* c, const float* a, const float* b,
                        std::int64_t k, std::int64_t lda, std::int64_t ldb,
                        std::int64_t ldc, __m256i mask) {
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      acc[r][v] = load8<V, kTail>(c + r * ldc + 8 * v, v, mask);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    __m256 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      bv[v] = load8<V, kTail>(b + kk * ldb + 8 * v, v, mask);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 ar = _mm256_set1_ps(a[r * lda + kk]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      store8<V, kTail>(c + r * ldc + 8 * v, v, mask, acc[r][v]);
}

/// All n columns of R rows: 2-vector blocks, then one full vector, then
/// one masked vector for the ragged tail.
template <int R>
inline void madd_rows8(float* c, const float* a, const float* b,
                       std::int64_t n, std::int64_t k, std::int64_t lda,
                       std::int64_t ldb, std::int64_t ldc) {
  const __m256i all = _mm256_set1_epi32(-1);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16)
    madd_block8<R, 2, false>(c + j, a, b + j, k, lda, ldb, ldc, all);
  if (j + 8 <= n) {
    madd_block8<R, 1, false>(c + j, a, b + j, k, lda, ldb, ldc, all);
    j += 8;
  }
  if (j < n)
    madd_block8<R, 1, true>(c + j, a, b + j, k, lda, ldb, ldc,
                            tail_mask8(n - j));
}

/// V sample vectors of the MLP forward, interleaved per hidden unit so
/// their FMA chains and tanh divides overlap. Per sample the op order is
/// gemm_avx2's (hidden FMA chain from b1, tanh8, output FMA chain from
/// b2).
template <int V, bool kTail>
inline void mlp_block8(float* out, const float* x, std::int64_t n,
                       std::int64_t in_dim, std::int64_t hidden,
                       const float* w1, const float* b1, const float* w2,
                       float b2, __m256i mask) {
  __m256 o[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) o[v] = _mm256_set1_ps(b2);
  for (std::int64_t h = 0; h < hidden; ++h) {
    __m256 acc[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[v] = _mm256_set1_ps(b1[h]);
    const float* wrow = w1 + h * in_dim;
    for (std::int64_t i = 0; i < in_dim; ++i) {
      const __m256 w = _mm256_set1_ps(wrow[i]);
      const float* xi = x + i * n;
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[v] = _mm256_fmadd_ps(w, load8<V, kTail>(xi + 8 * v, v, mask),
                                 acc[v]);
    }
    const __m256 wo = _mm256_set1_ps(w2[h]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      o[v] = _mm256_fmadd_ps(wo, tanh8(acc[v]), o[v]);
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) store8<V, kTail>(out + 8 * v, v, mask, o[v]);
}

}  // namespace

void gemm_madd_avx2(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    madd_rows8<4>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
  for (; i < m; ++i)
    madd_rows8<1>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
}

void mlp_tanh_avx2(float* out, const float* x, std::int64_t n,
                   std::int64_t in_dim, std::int64_t hidden, const float* w1,
                   const float* b1, const float* w2, float b2) {
  constexpr int kV = 2;
  const __m256i all = _mm256_set1_epi32(-1);
  std::int64_t s = 0;
  for (; s + 8 * kV <= n; s += 8 * kV)
    mlp_block8<kV, false>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                          all);
  for (; s + 8 <= n; s += 8)
    mlp_block8<1, false>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                         all);
  if (s < n)
    mlp_block8<1, true>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                        tail_mask8(n - s));
}

void tanh_fast_block_avx2(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 8) {
    const __m256i m = tail_mask8(n - i);
    _mm256_maskstore_ps(y + i, m, tanh8(_mm256_maskload_ps(x + i, m)));
  }
}

namespace {

/// V vectors of 8 rows each (with kTail the last one holding only the
/// rows in `mask`), their rows gathered at stride lda per k step; every
/// term is an unfused multiply then add, as in gemv_madd_scalar.
template <int V, bool kTail>
inline void gemv_block8(float* y, const float* a, const float* x,
                        std::int64_t k, std::int64_t lda, __m256i rows,
                        __m256i mask) {
  const __m256 all = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  __m256 acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) acc[v] = load8<V, kTail>(y + 8 * v, v, mask);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m256 xk = _mm256_set1_ps(x[kk]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const __m256 lanes =
          kTail && v == V - 1 ? _mm256_castsi256_ps(mask) : all;
      const __m256 av = _mm256_mask_i32gather_ps(
          _mm256_setzero_ps(), a + 8 * v * lda + kk, rows, lanes, 4);
      acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(av, xk));
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) store8<V, kTail>(y + 8 * v, v, mask, acc[v]);
}

}  // namespace

void gemv_madd_avx2(float* y, const float* a, const float* x, std::int64_t m,
                    std::int64_t k, std::int64_t lda) {
  const __m256i rows =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(lda)));
  const __m256i all = _mm256_set1_epi32(-1);
  std::int64_t i = 0;
  for (; i + 32 <= m; i += 32)
    gemv_block8<4, false>(y + i, a + i * lda, x, k, lda, rows, all);
  for (; i + 8 <= m; i += 8)
    gemv_block8<1, false>(y + i, a + i * lda, x, k, lda, rows, all);
  if (i < m)
    gemv_block8<1, true>(y + i, a + i * lda, x, k, lda, rows,
                         tail_mask8(m - i));
}

void tanh_backprop_avx2(float* a, const float* err, const float* w2,
                        std::int64_t m, std::int64_t h) {
  const __m256 one = _mm256_set1_ps(1.0f);
  for (std::int64_t s = 0; s < m; ++s) {
    float* row = a + s * h;
    const __m256 e = _mm256_set1_ps(err[s]);
    for (std::int64_t j = 0; j < h; j += 8) {
      const __m256i mk = tail_mask8(h - j);
      const __m256 x = _mm256_maskload_ps(row + j, mk);
      const __m256 ew = _mm256_mul_ps(e, _mm256_maskload_ps(w2 + j, mk));
      _mm256_maskstore_ps(
          row + j, mk,
          _mm256_mul_ps(ew, _mm256_sub_ps(one, _mm256_mul_ps(x, x))));
    }
  }
}

void adam_step_avx2(float* p, float* m, float* v, const float* g,
                    std::int64_t n, const AdamStep& c) {
  const __m256 count = _mm256_set1_ps(c.count);
  const __m256 b1 = _mm256_set1_ps(c.beta1), b2 = _mm256_set1_ps(c.beta2);
  const __m256 ob1 = _mm256_set1_ps(1.0f - c.beta1);
  const __m256 ob2 = _mm256_set1_ps(1.0f - c.beta2);
  const __m256 bc1 = _mm256_set1_ps(c.bc1), bc2 = _mm256_set1_ps(c.bc2);
  const __m256 lr = _mm256_set1_ps(c.lr), eps = _mm256_set1_ps(c.eps);
  for (std::int64_t j = 0; j < n; j += 8) {
    const __m256i mk = tail_mask8(n - j);
    const __m256 gj = _mm256_div_ps(_mm256_maskload_ps(g + j, mk), count);
    const __m256 mj =
        _mm256_add_ps(_mm256_mul_ps(b1, _mm256_maskload_ps(m + j, mk)),
                      _mm256_mul_ps(ob1, gj));
    const __m256 vj = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_maskload_ps(v + j, mk)),
        _mm256_mul_ps(_mm256_mul_ps(ob2, gj), gj));
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, _mm256_div_ps(mj, bc1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vj, bc2)), eps));
    _mm256_maskstore_ps(m + j, mk, mj);
    _mm256_maskstore_ps(v + j, mk, vj);
    _mm256_maskstore_ps(
        p + j, mk, _mm256_sub_ps(_mm256_maskload_ps(p + j, mk), step));
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX2_TU — linker stubs, unreachable behind the dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool avx2_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd AVX2 kernel called but NVM_ENABLE_AVX2 was off");
}
}  // namespace

float dot_avx2(const float*, const float*, std::int64_t) { stub_fail(); }
void gemm_avx2(float*, const float*, const float*, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}
void gemm_at_avx2(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_bt_avx2(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_madd_avx2(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void mlp_tanh_avx2(float*, const float*, std::int64_t, std::int64_t,
                   std::int64_t, const float*, const float*, const float*,
                   float) {
  stub_fail();
}
void gemm_f64acc_avx2(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {
  stub_fail();
}
void adc_shift_add_avx2(float*, const float*, const float*, std::int64_t,
                        std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_inputs_avx2(float*, float*, float*, const float*, const float*,
                        std::int64_t, std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_features_avx2(float*, const float*, const float*, const float*,
                          std::int64_t, std::int64_t, float, float, float,
                          float, float) {
  stub_fail();
}
std::int64_t geniex_epilogue_avx2(float*, std::int8_t*, const float*,
                                  const float*, std::int64_t, std::int64_t,
                                  float, float, bool, float, float) {
  stub_fail();
}
void tanh_fast_block_avx2(float*, const float*, std::int64_t) {
  stub_fail();
}
void gemv_madd_avx2(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t) {
  stub_fail();
}
void tanh_backprop_avx2(float*, const float*, const float*, std::int64_t,
                        std::int64_t) {
  stub_fail();
}
void adam_step_avx2(float*, float*, float*, const float*, std::int64_t,
                    const AdamStep&) {
  stub_fail();
}
void quantize_to_i16_avx2(std::int16_t*, const float*, std::int64_t, float,
                          float) {
  stub_fail();
}
void gemm_at_i8_i32acc_avx2(std::int32_t*, const std::int8_t*,
                            const std::int8_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_avx2(float*, const std::int32_t*, const float*,
                            std::int64_t, float, float, float, float) {
  stub_fail();
}
bool dac_streams_i16_avx2(std::int8_t*, std::int8_t*, std::int32_t*,
                          const std::int16_t*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX2_TU
