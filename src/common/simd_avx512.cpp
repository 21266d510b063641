// AVX-512 kernel variants. This is the only translation unit built with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl (per-file flags from
// src/common/CMakeLists.txt, applied only when NVM_ENABLE_AVX512 is on —
// otherwise the stubs at the bottom are compiled and the runtime
// dispatcher never routes here).
//
// Parity rules mirrored from simd.h: [exact] kernels use the same
// unfused mul/add sequence per element as the scalar reference in
// simd.cpp (elementwise IEEE ops are width-independent, so running them
// 16 wide changes nothing); [~ulp] kernels (dot, gemm, gemm_at,
// gemm_bt, mlp_tanh) use FMA in the vector body, and dot folds its 16
// lanes pairwise onto the documented 8-lane tree. gemm_madd, mlp_tanh,
// adc_shift_add, the geniex_* glue kernels, the training kernels and
// dac_streams_i16 finish ragged columns with masked vectors (gemv_madd
// with masked gathers), so they have no scalar tail. gemm_f64acc stays
// [exact]: float*float products are exact in double, so fmadd_pd rounds
// like the reference's mul-then-add. Scalar tail loops in this TU are
// unfused like the reference (the whole build carries -ffp-contract=off;
// FMA only appears via intrinsics).
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX512_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool avx512_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

/// round-half-away-from-zero for non-negative t: floor(t) + (frac >= 0.5).
/// frac = t - floor(t) is exact (Sterbenz), so this matches std::round on
/// the whole non-negative domain including ties.
inline __m512 round_nonneg(__m512 t) {
  const __m512 fl =
      _mm512_roundscale_ps(t, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512 frac = _mm512_sub_ps(t, fl);
  const __mmask16 ge =
      _mm512_cmp_ps_mask(frac, _mm512_set1_ps(0.5f), _CMP_GE_OQ);
  return _mm512_mask_add_ps(fl, ge, fl, _mm512_set1_ps(1.0f));
}

/// Lane mask for the next vector of a row with `lanes` (>= 1) floats left.
inline __mmask16 tail16(std::int64_t lanes) {
  return lanes >= 16 ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << lanes) - 1);
}

/// Lanes holding NaN or +-Inf: !(|x| < inf), as !std::isfinite.
inline __mmask16 nonfinite16(__m512 x) {
  return _mm512_cmp_ps_mask(_mm512_abs_ps(x), _mm512_set1_ps(HUGE_VALF),
                            _CMP_NLT_UQ);
}

/// tanh_fast on 16 lanes: the same polynomial op sequence, saturation
/// applied by mask.
inline __m512 tanh16(__m512 v) {
  const __m512 x2 = _mm512_mul_ps(v, v);
  __m512 p = _mm512_add_ps(_mm512_set1_ps(378.0f), x2);
  p = _mm512_add_ps(_mm512_set1_ps(17325.0f), _mm512_mul_ps(x2, p));
  p = _mm512_add_ps(_mm512_set1_ps(135135.0f), _mm512_mul_ps(x2, p));
  p = _mm512_mul_ps(v, p);
  __m512 q = _mm512_add_ps(_mm512_set1_ps(3150.0f),
                           _mm512_mul_ps(x2, _mm512_set1_ps(28.0f)));
  q = _mm512_add_ps(_mm512_set1_ps(62370.0f), _mm512_mul_ps(x2, q));
  q = _mm512_add_ps(_mm512_set1_ps(135135.0f), _mm512_mul_ps(x2, q));
  __m512 r = _mm512_div_ps(p, q);
  r = _mm512_mask_mov_ps(
      r, _mm512_cmp_ps_mask(v, _mm512_set1_ps(4.97f), _CMP_GT_OQ),
      _mm512_set1_ps(1.0f));
  r = _mm512_mask_mov_ps(
      r, _mm512_cmp_ps_mask(v, _mm512_set1_ps(-4.97f), _CMP_LT_OQ),
      _mm512_set1_ps(-1.0f));
  return r;
}

}  // namespace

float dot_avx512(const float* a, const float* b, std::int64_t n) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  __m512 acc = _mm512_setzero_ps();
  for (std::int64_t i = 0; i < n16; i += 16)
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                          acc);
  alignas(64) float l16[16];
  _mm512_store_ps(l16, acc);
  float lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = l16[l] + l16[l + 8];
  for (std::int64_t i = n16; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

namespace {

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    __m512 acc = _mm512_loadu_ps(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = _mm512_fmadd_ps(_mm512_set1_ps(coef(kk)),
                            _mm512_loadu_ps(b + kk * ldb + j0), acc);
    _mm512_storeu_ps(crow + j0, acc);
  }
  for (std::int64_t j = n16; j < n; ++j) {
    float acc = crow[j];
    for (std::int64_t kk = 0; kk < k; ++kk) acc += coef(kk) * b[kk * ldb + j];
    crow[j] = acc;
  }
}

/// 4x16 microtile: four independent FMA chains over k for ILP. `coef(r,kk)`
/// yields the A element for microtile row r at reduction index kk.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    __m512 acc0 = _mm512_loadu_ps(c + 0 * ldc + j0);
    __m512 acc1 = _mm512_loadu_ps(c + 1 * ldc + j0);
    __m512 acc2 = _mm512_loadu_ps(c + 2 * ldc + j0);
    __m512 acc3 = _mm512_loadu_ps(c + 3 * ldc + j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m512 bv = _mm512_loadu_ps(b + kk * ldb + j0);
      acc0 = _mm512_fmadd_ps(_mm512_set1_ps(coef(0, kk)), bv, acc0);
      acc1 = _mm512_fmadd_ps(_mm512_set1_ps(coef(1, kk)), bv, acc1);
      acc2 = _mm512_fmadd_ps(_mm512_set1_ps(coef(2, kk)), bv, acc2);
      acc3 = _mm512_fmadd_ps(_mm512_set1_ps(coef(3, kk)), bv, acc3);
    }
    _mm512_storeu_ps(c + 0 * ldc + j0, acc0);
    _mm512_storeu_ps(c + 1 * ldc + j0, acc1);
    _mm512_storeu_ps(c + 2 * ldc + j0, acc2);
    _mm512_storeu_ps(c + 3 * ldc + j0, acc3);
  }
  for (std::int64_t j = n16; j < n; ++j) {
    for (int r = 0; r < 4; ++r) {
      float acc = c[r * ldc + j];
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += coef(r, kk) * b[kk * ldb + j];
      c[r * ldc + j] = acc;
    }
  }
}

}  // namespace

void gemm_avx512(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_at_avx512(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_bt_avx512(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_avx512(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_avx512(float* out, const float* a, const float* v,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // fmadd_pd rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_set1_pd(static_cast<double>(arow[kk]));
        const __m512d vv =
            _mm512_cvtps_pd(_mm256_loadu_ps(v + kk * ldv + j0));
        acc = _mm512_fmadd_pd(av, vv, acc);
      }
      _mm256_storeu_ps(out + i * ldo + j0, _mm512_cvtpd_ps(acc));
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

void adc_shift_add_avx512(float* acc, const float* cur, const float* baseline,
                          std::int64_t rows, std::int64_t n, float full_scale,
                          float steps, float shift) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vfs = _mm512_set1_ps(full_scale);
  const __m512 vsteps = _mm512_set1_ps(steps);
  const __m512 vshift = _mm512_set1_ps(shift);
  for (std::int64_t row = 0; row < rows; ++row) {
    float* arow = acc + row * n;
    const float* crow = cur + row * n;
    for (std::int64_t i = 0; i < n; i += 16) {
      const __mmask16 m = tail16(n - i);
      const __m512 clamped = _mm512_min_ps(
          _mm512_max_ps(_mm512_maskz_loadu_ps(m, crow + i), zero), vfs);
      const __m512 r =
          round_nonneg(_mm512_mul_ps(_mm512_div_ps(clamped, vfs), vsteps));
      const __m512 q = _mm512_div_ps(_mm512_mul_ps(r, vfs), vsteps);
      const __m512 d =
          _mm512_sub_ps(q, _mm512_maskz_loadu_ps(m, baseline + i));
      // Unfused mul+add to match the scalar reference bit-for-bit.
      _mm512_mask_storeu_ps(
          arow + i, m,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m, arow + i),
                        _mm512_mul_ps(vshift, d)));
    }
  }
}

void geniex_inputs_avx512(float* vv, float* vr, float* sums, const float* v,
                          const float* growsum, std::int64_t rows,
                          std::int64_t n, float nv, float nv2, float nr) {
  // One vector of input columns at a time, its three sums held in
  // registers across the whole (sequential) row loop.
  for (std::int64_t k = 0; k < n; k += 16) {
    const __mmask16 m = tail16(n - k);
    __m512 sv = _mm512_setzero_ps();
    __m512 sv2 = _mm512_setzero_ps();
    __m512 sr = _mm512_setzero_ps();
    for (std::int64_t i = 0; i < rows; ++i) {
      const __m512 x = _mm512_maskz_loadu_ps(m, v + i * n + k);
      const __m512 x2 = _mm512_mul_ps(x, x);
      const __m512 xr = _mm512_mul_ps(x, _mm512_set1_ps(growsum[i]));
      _mm512_mask_storeu_ps(vv + i * n + k, m, x2);
      _mm512_mask_storeu_ps(vr + i * n + k, m, xr);
      sv = _mm512_add_ps(sv, x);
      sv2 = _mm512_add_ps(sv2, x2);
      sr = _mm512_add_ps(sr, xr);
    }
    _mm512_mask_storeu_ps(sums + k, m, _mm512_mul_ps(sv, _mm512_set1_ps(nv)));
    _mm512_mask_storeu_ps(sums + n + k, m,
                          _mm512_mul_ps(sv2, _mm512_set1_ps(nv2)));
    _mm512_mask_storeu_ps(sums + 2 * n + k, m,
                          _mm512_mul_ps(sr, _mm512_set1_ps(nr)));
  }
}

void geniex_features_avx512(float* ft, const float* iid, const float* sums,
                            const float* colf, std::int64_t cols,
                            std::int64_t n, float i_scale, float d_e,
                            float d_p, float d_w, float garr) {
  const std::int64_t ns = cols * n;
  const __m512 vis = _mm512_set1_ps(i_scale);
  const __m512 vde = _mm512_set1_ps(d_e);
  const __m512 vdp = _mm512_set1_ps(d_p);
  const __m512 vdw = _mm512_set1_ps(d_w);
  const __m512 vgarr = _mm512_set1_ps(garr);
  constexpr std::int64_t kSumRow[3] = {2, 3, 6};  // vbar, v2bar, rbar
  for (std::int64_t j = 0; j < cols; ++j) {
    float* F = ft + j * n;
    const float* ji = iid + j * n;
    const __m512 fg = _mm512_set1_ps(colf[2 * j]);
    const __m512 fpos = _mm512_set1_ps(colf[2 * j + 1]);
    for (std::int64_t k = 0; k < n; k += 16) {
      const __mmask16 m = tail16(n - k);
      auto div_row = [&](std::int64_t f, const float* src, __m512 d) {
        _mm512_mask_storeu_ps(
            F + f * ns + k, m,
            _mm512_div_ps(_mm512_maskz_loadu_ps(m, src + k), d));
      };
      div_row(0, ji, vis);
      div_row(4, F + 4 * ns, vde);
      div_row(5, F + 5 * ns, vdp);
      div_row(9, F + 9 * ns, vdw);
      _mm512_mask_storeu_ps(F + 1 * ns + k, m, fg);
      _mm512_mask_storeu_ps(F + 7 * ns + k, m, fpos);
      _mm512_mask_storeu_ps(F + 8 * ns + k, m, vgarr);
      for (std::int64_t s = 0; s < 3; ++s)
        _mm512_mask_storeu_ps(F + kSumRow[s] * ns + k, m,
                              _mm512_maskz_loadu_ps(m, sums + s * n + k));
    }
  }
}

std::int64_t geniex_epilogue_avx512(float* out, std::int8_t* flags,
                                    const float* iid, const float* rel,
                                    std::int64_t cols, std::int64_t n,
                                    float floor, float full_scale, bool guard,
                                    float rel_min, float rel_max) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vfloor = _mm512_set1_ps(floor);
  const __m512 vfs = _mm512_set1_ps(full_scale);
  const __m512 vmin = _mm512_set1_ps(rel_min);
  const __m512 vmax = _mm512_set1_ps(rel_max);
  std::int64_t nonfinite = 0;
  // Vector-major: one lane block of input vectors runs down all columns,
  // so its envelope flags OR together in a mask register.
  for (std::int64_t k = 0; k < n; k += 16) {
    const __mmask16 m = tail16(n - k);
    __mmask16 bad = 0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const __m512 x = _mm512_maskz_loadu_ps(m, iid + j * n + k);
      const __m512 r = _mm512_maskz_loadu_ps(m, rel + j * n + k);
      if (guard)
        bad |= nonfinite16(r) | _mm512_cmp_ps_mask(r, vmin, _CMP_LT_OQ) |
               _mm512_cmp_ps_mask(r, vmax, _CMP_GT_OQ);
      // std::max(x, floor): x < floor ? floor : x (a NaN x stays NaN).
      const __m512 denom = _mm512_mask_blend_ps(
          _mm512_cmp_ps_mask(x, vfloor, _CMP_LT_OQ), x, vfloor);
      const __m512 t = _mm512_sub_ps(x, _mm512_mul_ps(r, denom));
      // std::clamp(t, 0, fs): t < 0 ? 0 : (fs < t ? fs : t).
      __m512 o =
          _mm512_mask_blend_ps(_mm512_cmp_ps_mask(vfs, t, _CMP_LT_OQ), t, vfs);
      o = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(t, zero, _CMP_LT_OQ), o,
                               zero);
      _mm512_mask_storeu_ps(out + j * n + k, m, o);
      nonfinite += __builtin_popcount(
          static_cast<unsigned>(nonfinite16(o) & m));
    }
    _mm_mask_storeu_epi8(flags + k, m,
                         _mm_maskz_mov_epi8(bad & m, _mm_set1_epi8(1)));
  }
  return nonfinite;
}

namespace {

/// Rounded quantization codes for 16 floats, as i32 (codes are integral,
/// so cvtps_epi32's round-to-nearest-even cannot move them).
inline __m512i quantize_codes16(const float* x, __m512 vs, __m512 vq) {
  const __m512 clipped = _mm512_min_ps(
      _mm512_max_ps(_mm512_loadu_ps(x), _mm512_setzero_ps()), vs);
  const __m512 t = _mm512_mul_ps(_mm512_div_ps(clipped, vs), vq);
  return _mm512_cvtps_epi32(round_nonneg(t));
}

}  // namespace

void quantize_to_i16_avx512(std::int16_t* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vq = _mm512_set1_ps(qmax);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm512_cvtepi32_epi16(quantize_codes16(x + i, vs, vq)));
  for (std::int64_t i = n16; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_avx512(std::int32_t* c, const std::int8_t* a,
                              const std::int8_t* b, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              std::int64_t lda, std::int64_t ldb,
                              std::int64_t ldc) {
  // 4x16 microtiles: per k-step the 16 int8 B values widen to one i32
  // vector once, then feed four broadcast multiply-accumulate chains.
  // Integer arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
      const std::int64_t in = (i0 < m4) ? 4 : m - i0;
      __m512i acc[4];
      for (std::int64_t r = 0; r < in; ++r)
        acc[r] = _mm512_loadu_si512(c + (i0 + r) * ldc + j0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m512i bv = _mm512_cvtepi8_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk * ldb + j0)));
        const std::int8_t* arow = a + kk * lda + i0;
        for (std::int64_t r = 0; r < in; ++r) {
          const std::int32_t aki = arow[r];
          if (aki == 0) continue;
          acc[r] = _mm512_add_epi32(
              acc[r], _mm512_mullo_epi32(_mm512_set1_epi32(aki), bv));
        }
      }
      for (std::int64_t r = 0; r < in; ++r)
        _mm512_storeu_si512(c + (i0 + r) * ldc + j0, acc[r]);
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

void adc_shift_add_i32_avx512(float* acc, const std::int32_t* dot,
                              const float* baseline, std::int64_t n,
                              float dot_unit, float full_scale, float steps,
                              float shift) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vdu = _mm512_set1_ps(dot_unit);
  const __m512 vfs = _mm512_set1_ps(full_scale);
  const __m512 vsteps = _mm512_set1_ps(steps);
  const __m512 vshift = _mm512_set1_ps(shift);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16) {
    const __m512 vd = _mm512_cvtepi32_ps(_mm512_loadu_si512(dot + i));
    const __m512 vb = _mm512_loadu_ps(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const __m512 cur = _mm512_add_ps(vb, _mm512_mul_ps(vdu, vd));
    const __m512 clamped = _mm512_min_ps(_mm512_max_ps(cur, zero), vfs);
    const __m512 r =
        round_nonneg(_mm512_mul_ps(_mm512_div_ps(clamped, vfs), vsteps));
    const __m512 q = _mm512_div_ps(_mm512_mul_ps(r, vfs), vsteps);
    const __m512 d = _mm512_sub_ps(q, vb);
    _mm512_storeu_ps(acc + i, _mm512_add_ps(_mm512_loadu_ps(acc + i),
                                            _mm512_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n16; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

bool dac_streams_i16_avx512(std::int8_t* chunk, std::int8_t* row_max,
                            std::int32_t* colsum, const std::int16_t* src,
                            std::int64_t rows_used, std::int64_t rows,
                            std::int64_t n, std::int64_t streams,
                            std::int64_t stream_bits) {
  // 32 codes per vector; a ragged last vector takes a 32-lane mask (masked
  // lanes load as 0, so they add nothing to the row max).
  const __m512i vmask =
      _mm512_set1_epi16(static_cast<short>((1 << stream_bits) - 1));
  __m512i any = _mm512_setzero_si512();  // OR of all codes: sign = negative
  for (std::int64_t t = 0; t < streams; ++t) {
    const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(t * stream_bits));
    std::int8_t* ct = chunk + t * rows * n;
    std::int32_t* st = colsum + t * n;
    std::fill(st, st + n, 0);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int16_t* s = src + r * n;
      std::int8_t* d = ct + r * n;
      __m512i vmax = _mm512_setzero_si512();
      for (std::int64_t k = 0; k < n; k += 32) {
        const std::int64_t lanes = std::min<std::int64_t>(n - k, 32);
        const auto m =
            static_cast<__mmask32>((std::uint64_t{1} << lanes) - 1);
        const auto lo = static_cast<__mmask16>(m);
        const auto hi = static_cast<__mmask16>(m >> 16);
        const __m512i v = _mm512_maskz_loadu_epi16(m, s + k);
        any = _mm512_or_si512(any, v);
        const __m512i c = _mm512_and_si512(_mm512_sra_epi16(v, cnt), vmask);
        _mm256_mask_storeu_epi8(d + k, m, _mm512_cvtepi16_epi8(c));
        vmax = _mm512_max_epi16(vmax, c);
        _mm512_mask_storeu_epi32(
            st + k, lo,
            _mm512_add_epi32(_mm512_maskz_loadu_epi32(lo, st + k),
                             _mm512_cvtepi16_epi32(_mm512_castsi512_si256(c))));
        _mm512_mask_storeu_epi32(
            st + k + 16, hi,
            _mm512_add_epi32(
                _mm512_maskz_loadu_epi32(hi, st + k + 16),
                _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(c, 1))));
      }
      row_max[t * rows + r] = static_cast<std::int8_t>(_mm512_reduce_max_epi32(
          _mm512_max_epi32(
              _mm512_cvtepi16_epi32(_mm512_castsi512_si256(vmax)),
              _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(vmax, 1)))));
    }
    std::fill(ct + rows_used * n, ct + rows * n, std::int8_t{0});
    std::fill(row_max + t * rows + rows_used, row_max + (t + 1) * rows,
              std::int8_t{0});
  }
  return _mm512_movepi16_mask(any) != 0;
}

namespace {

/// Lane mask of vector v in a block of V vectors whose last one holds only
/// the lanes in `last`.
template <int V>
inline __mmask16 lanes16(int v, __mmask16 last) {
  return v == V - 1 ? last : static_cast<__mmask16>(0xFFFF);
}

/// R rows x V vectors of C held in registers across the whole k loop;
/// every term is an unfused multiply then add, as in gemm_madd_scalar.
template <int R, int V>
inline void madd_block16(float* c, const float* a, const float* b,
                         std::int64_t k, std::int64_t lda, std::int64_t ldb,
                         std::int64_t ldc, __mmask16 last) {
  __m512 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      acc[r][v] = _mm512_maskz_loadu_ps(lanes16<V>(v, last),
                                        c + r * ldc + 16 * v);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    __m512 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      bv[v] = _mm512_maskz_loadu_ps(lanes16<V>(v, last), b + kk * ldb + 16 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 ar = _mm512_set1_ps(a[r * lda + kk]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(ar, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      _mm512_mask_storeu_ps(c + r * ldc + 16 * v, lanes16<V>(v, last),
                            acc[r][v]);
}

/// All n columns of R rows: 2-vector blocks, then one full vector, then
/// one masked vector for the ragged tail.
template <int R>
inline void madd_rows16(float* c, const float* a, const float* b,
                        std::int64_t n, std::int64_t k, std::int64_t lda,
                        std::int64_t ldb, std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32)
    madd_block16<R, 2>(c + j, a, b + j, k, lda, ldb, ldc, 0xFFFF);
  if (j + 16 <= n) {
    madd_block16<R, 1>(c + j, a, b + j, k, lda, ldb, ldc, 0xFFFF);
    j += 16;
  }
  if (j < n)
    madd_block16<R, 1>(c + j, a, b + j, k, lda, ldb, ldc,
                       static_cast<__mmask16>((1u << (n - j)) - 1));
}

/// V sample vectors of the MLP forward, interleaved per hidden unit so
/// their FMA chains and tanh divides overlap. Per sample the op order is
/// gemm_avx512's (hidden FMA chain from b1, tanh16, output FMA chain
/// from b2).
template <int V>
inline void mlp_block16(float* out, const float* x, std::int64_t n,
                        std::int64_t in_dim, std::int64_t hidden,
                        const float* w1, const float* b1, const float* w2,
                        float b2, __mmask16 last) {
  __m512 o[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) o[v] = _mm512_set1_ps(b2);
  for (std::int64_t h = 0; h < hidden; ++h) {
    __m512 acc[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[v] = _mm512_set1_ps(b1[h]);
    const float* wrow = w1 + h * in_dim;
    for (std::int64_t i = 0; i < in_dim; ++i) {
      const __m512 w = _mm512_set1_ps(wrow[i]);
      const float* xi = x + i * n;
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[v] = _mm512_fmadd_ps(
            w, _mm512_maskz_loadu_ps(lanes16<V>(v, last), xi + 16 * v),
            acc[v]);
    }
    const __m512 wo = _mm512_set1_ps(w2[h]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      o[v] = _mm512_fmadd_ps(wo, tanh16(acc[v]), o[v]);
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    _mm512_mask_storeu_ps(out + 16 * v, lanes16<V>(v, last), o[v]);
}

}  // namespace

void gemm_madd_avx512(float* c, const float* a, const float* b,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldb, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    madd_rows16<4>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
  for (; i < m; ++i)
    madd_rows16<1>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
}

void mlp_tanh_avx512(float* out, const float* x, std::int64_t n,
                     std::int64_t in_dim, std::int64_t hidden, const float* w1,
                     const float* b1, const float* w2, float b2) {
  constexpr int kV = 4;
  std::int64_t s = 0;
  for (; s + 16 * kV <= n; s += 16 * kV)
    mlp_block16<kV>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                    0xFFFF);
  for (; s + 16 <= n; s += 16)
    mlp_block16<1>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2, 0xFFFF);
  if (s < n)
    mlp_block16<1>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                   static_cast<__mmask16>((1u << (n - s)) - 1));
}

void tanh_fast_block_avx512(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 16) {
    const __mmask16 m = tail16(n - i);
    _mm512_mask_storeu_ps(y + i, m, tanh16(_mm512_maskz_loadu_ps(m, x + i)));
  }
}

namespace {

/// V vectors of 16 rows each (the last one holding only the rows in
/// `last`), their rows gathered at stride lda per k step; every term is
/// an unfused multiply then add, as in gemv_madd_scalar.
template <int V>
inline void gemv_block16(float* y, const float* a, const float* x,
                         std::int64_t k, std::int64_t lda, __m512i rows,
                         __mmask16 last) {
  __m512 acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    acc[v] = _mm512_maskz_loadu_ps(lanes16<V>(v, last), y + 16 * v);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m512 xk = _mm512_set1_ps(x[kk]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const __m512 av = _mm512_mask_i32gather_ps(
          _mm512_setzero_ps(), lanes16<V>(v, last), rows,
          a + 16 * v * lda + kk, 4);
      acc[v] = _mm512_add_ps(acc[v], _mm512_mul_ps(av, xk));
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    _mm512_mask_storeu_ps(y + 16 * v, lanes16<V>(v, last), acc[v]);
}

}  // namespace

void gemv_madd_avx512(float* y, const float* a, const float* x,
                      std::int64_t m, std::int64_t k, std::int64_t lda) {
  const __m512i rows = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(lda)));
  std::int64_t i = 0;
  for (; i + 64 <= m; i += 64)
    gemv_block16<4>(y + i, a + i * lda, x, k, lda, rows, 0xFFFF);
  for (; i + 16 <= m; i += 16)
    gemv_block16<1>(y + i, a + i * lda, x, k, lda, rows, 0xFFFF);
  if (i < m)
    gemv_block16<1>(y + i, a + i * lda, x, k, lda, rows, tail16(m - i));
}

void tanh_backprop_avx512(float* a, const float* err, const float* w2,
                          std::int64_t m, std::int64_t h) {
  const __m512 one = _mm512_set1_ps(1.0f);
  for (std::int64_t s = 0; s < m; ++s) {
    float* row = a + s * h;
    const __m512 e = _mm512_set1_ps(err[s]);
    for (std::int64_t j = 0; j < h; j += 16) {
      const __mmask16 mk = tail16(h - j);
      const __m512 x = _mm512_maskz_loadu_ps(mk, row + j);
      const __m512 ew = _mm512_mul_ps(e, _mm512_maskz_loadu_ps(mk, w2 + j));
      _mm512_mask_storeu_ps(
          row + j, mk,
          _mm512_mul_ps(ew, _mm512_sub_ps(one, _mm512_mul_ps(x, x))));
    }
  }
}

void adam_step_avx512(float* p, float* m, float* v, const float* g,
                      std::int64_t n, const AdamStep& c) {
  const __m512 count = _mm512_set1_ps(c.count);
  const __m512 b1 = _mm512_set1_ps(c.beta1), b2 = _mm512_set1_ps(c.beta2);
  const __m512 ob1 = _mm512_set1_ps(1.0f - c.beta1);
  const __m512 ob2 = _mm512_set1_ps(1.0f - c.beta2);
  const __m512 bc1 = _mm512_set1_ps(c.bc1), bc2 = _mm512_set1_ps(c.bc2);
  const __m512 lr = _mm512_set1_ps(c.lr), eps = _mm512_set1_ps(c.eps);
  for (std::int64_t j = 0; j < n; j += 16) {
    const __mmask16 mk = tail16(n - j);
    const __m512 gj = _mm512_div_ps(_mm512_maskz_loadu_ps(mk, g + j), count);
    const __m512 mj =
        _mm512_add_ps(_mm512_mul_ps(b1, _mm512_maskz_loadu_ps(mk, m + j)),
                      _mm512_mul_ps(ob1, gj));
    const __m512 vj = _mm512_add_ps(
        _mm512_mul_ps(b2, _mm512_maskz_loadu_ps(mk, v + j)),
        _mm512_mul_ps(_mm512_mul_ps(ob2, gj), gj));
    const __m512 step = _mm512_div_ps(
        _mm512_mul_ps(lr, _mm512_div_ps(mj, bc1)),
        _mm512_add_ps(_mm512_maskz_sqrt_ps(mk, _mm512_div_ps(vj, bc2)), eps));
    _mm512_mask_storeu_ps(m + j, mk, mj);
    _mm512_mask_storeu_ps(v + j, mk, vj);
    _mm512_mask_storeu_ps(
        p + j, mk, _mm512_sub_ps(_mm512_maskz_loadu_ps(mk, p + j), step));
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX512_TU — linker stubs, unreachable behind dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool avx512_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd AVX-512 kernel called but NVM_ENABLE_AVX512 was off");
}
}  // namespace

float dot_avx512(const float*, const float*, std::int64_t) { stub_fail(); }
void gemm_avx512(float*, const float*, const float*, std::int64_t,
                 std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                 std::int64_t) {
  stub_fail();
}
void gemm_at_avx512(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void gemm_bt_avx512(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void gemm_f64acc_avx512(float*, const float*, const float*, std::int64_t,
                        std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t) {
  stub_fail();
}
void gemm_madd_avx512(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {
  stub_fail();
}
void mlp_tanh_avx512(float*, const float*, std::int64_t, std::int64_t,
                     std::int64_t, const float*, const float*, const float*,
                     float) {
  stub_fail();
}
void adc_shift_add_avx512(float*, const float*, const float*, std::int64_t,
                          std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_inputs_avx512(float*, float*, float*, const float*, const float*,
                          std::int64_t, std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_features_avx512(float*, const float*, const float*, const float*,
                            std::int64_t, std::int64_t, float, float, float,
                            float, float) {
  stub_fail();
}
std::int64_t geniex_epilogue_avx512(float*, std::int8_t*, const float*,
                                    const float*, std::int64_t, std::int64_t,
                                    float, float, bool, float, float) {
  stub_fail();
}
void tanh_fast_block_avx512(float*, const float*, std::int64_t) {
  stub_fail();
}
void gemv_madd_avx512(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t) {
  stub_fail();
}
void tanh_backprop_avx512(float*, const float*, const float*, std::int64_t,
                          std::int64_t) {
  stub_fail();
}
void adam_step_avx512(float*, float*, float*, const float*, std::int64_t,
                      const AdamStep&) {
  stub_fail();
}
void quantize_to_i16_avx512(std::int16_t*, const float*, std::int64_t, float,
                            float) {
  stub_fail();
}
void gemm_at_i8_i32acc_avx512(std::int32_t*, const std::int8_t*,
                              const std::int8_t*, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t, std::int64_t,
                              std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_avx512(float*, const std::int32_t*, const float*,
                              std::int64_t, float, float, float, float) {
  stub_fail();
}
bool dac_streams_i16_avx512(std::int8_t*, std::int8_t*, std::int32_t*,
                            const std::int16_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX512_TU
