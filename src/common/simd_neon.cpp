// NEON (AArch64 Advanced SIMD) kernel variants. Built with real kernels
// only when NVM_ENABLE_NEON is on AND the target is AArch64; everywhere
// else this TU provides throwing stubs the dispatcher never reaches.
//
// Parity rules mirrored from simd.h: [exact] kernels repeat the scalar
// reference's unfused per-element op sequence 4 lanes at a time (NEON
// float ops are IEEE-754 compliant on AArch64); [~ulp] kernels use vfmaq
// in the vector body; gemm_madd, mlp_tanh, adc_shift_add, the geniex_*
// glue kernels, the training kernels and dac_streams_i16 stage ragged
// columns (gemv_madd also its strided rows) through a
// zero-padded vector instead of a scalar tail; dot uses two float32x4 accumulators so its lane
// layout matches the documented 8-strided-lane tree exactly. vrndaq_f32
// rounds half away from zero, which is std::round's semantics, so the
// quantize/ADC kernels need no floor+frac trick here. gemm_f64acc uses
// vfmaq_f64 on exact float*float products — bit-identical to the scalar
// reference (24+24 significand bits fit in 53).
#include "common/simd_kernels.h"

#if defined(NVM_SIMD_NEON_TU) && defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool neon_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

/// The first `lanes` (1..4) floats at p as a vector; a ragged tail is
/// staged through a zero-padded buffer so nothing past p[lanes-1] is read.
inline float32x4_t load_part(const float* p, std::int64_t lanes) {
  if (lanes == 4) return vld1q_f32(p);
  float t[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (std::int64_t l = 0; l < lanes; ++l) t[l] = p[l];
  return vld1q_f32(t);
}

inline void store_part(float* p, float32x4_t x, std::int64_t lanes) {
  if (lanes == 4) {
    vst1q_f32(p, x);
    return;
  }
  float t[4];
  vst1q_f32(t, x);
  for (std::int64_t l = 0; l < lanes; ++l) p[l] = t[l];
}

/// Lanes holding NaN or +-Inf: !(|x| < inf), as !std::isfinite.
inline uint32x4_t nonfinite4(float32x4_t x) {
  return vmvnq_u32(vcltq_f32(vabsq_f32(x), vdupq_n_f32(HUGE_VALF)));
}

/// tanh_fast on 4 lanes: the same polynomial op sequence, saturation
/// applied by bsl.
inline float32x4_t tanh4(float32x4_t v) {
  const float32x4_t x2 = vmulq_f32(v, v);
  float32x4_t p = vaddq_f32(vdupq_n_f32(378.0f), x2);
  p = vaddq_f32(vdupq_n_f32(17325.0f), vmulq_f32(x2, p));
  p = vaddq_f32(vdupq_n_f32(135135.0f), vmulq_f32(x2, p));
  p = vmulq_f32(v, p);
  float32x4_t q =
      vaddq_f32(vdupq_n_f32(3150.0f), vmulq_f32(x2, vdupq_n_f32(28.0f)));
  q = vaddq_f32(vdupq_n_f32(62370.0f), vmulq_f32(x2, q));
  q = vaddq_f32(vdupq_n_f32(135135.0f), vmulq_f32(x2, q));
  float32x4_t r = vdivq_f32(p, q);
  r = vbslq_f32(vcgtq_f32(v, vdupq_n_f32(4.97f)), vdupq_n_f32(1.0f), r);
  r = vbslq_f32(vcltq_f32(v, vdupq_n_f32(-4.97f)), vdupq_n_f32(-1.0f), r);
  return r;
}

}  // namespace

float dot_neon(const float* a, const float* b, std::int64_t n) {
  // acc0 holds lanes 0..3, acc1 lanes 4..7 of the 8-lane tree.
  const std::int64_t n8 = n & ~std::int64_t{7};
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  for (std::int64_t i = 0; i < n8; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  float lanes[8];
  vst1q_f32(lanes, acc0);
  vst1q_f32(lanes + 4, acc1);
  for (std::int64_t i = n8; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

namespace {

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
    float32x4_t acc = vld1q_f32(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = vfmaq_f32(acc, vdupq_n_f32(coef(kk)),
                      vld1q_f32(b + kk * ldb + j0));
    vst1q_f32(crow + j0, acc);
  }
  for (std::int64_t j = n4; j < n; ++j) {
    float acc = crow[j];
    for (std::int64_t kk = 0; kk < k; ++kk) acc += coef(kk) * b[kk * ldb + j];
    crow[j] = acc;
  }
}

/// 4x8 microtile: four rows, two vectors per row, independent FMA chains.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    float32x4_t a00 = vld1q_f32(c + 0 * ldc + j0);
    float32x4_t a01 = vld1q_f32(c + 0 * ldc + j0 + 4);
    float32x4_t a10 = vld1q_f32(c + 1 * ldc + j0);
    float32x4_t a11 = vld1q_f32(c + 1 * ldc + j0 + 4);
    float32x4_t a20 = vld1q_f32(c + 2 * ldc + j0);
    float32x4_t a21 = vld1q_f32(c + 2 * ldc + j0 + 4);
    float32x4_t a30 = vld1q_f32(c + 3 * ldc + j0);
    float32x4_t a31 = vld1q_f32(c + 3 * ldc + j0 + 4);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float32x4_t b0 = vld1q_f32(b + kk * ldb + j0);
      const float32x4_t b1 = vld1q_f32(b + kk * ldb + j0 + 4);
      const float32x4_t w0 = vdupq_n_f32(coef(0, kk));
      const float32x4_t w1 = vdupq_n_f32(coef(1, kk));
      const float32x4_t w2 = vdupq_n_f32(coef(2, kk));
      const float32x4_t w3 = vdupq_n_f32(coef(3, kk));
      a00 = vfmaq_f32(a00, w0, b0);
      a01 = vfmaq_f32(a01, w0, b1);
      a10 = vfmaq_f32(a10, w1, b0);
      a11 = vfmaq_f32(a11, w1, b1);
      a20 = vfmaq_f32(a20, w2, b0);
      a21 = vfmaq_f32(a21, w2, b1);
      a30 = vfmaq_f32(a30, w3, b0);
      a31 = vfmaq_f32(a31, w3, b1);
    }
    vst1q_f32(c + 0 * ldc + j0, a00);
    vst1q_f32(c + 0 * ldc + j0 + 4, a01);
    vst1q_f32(c + 1 * ldc + j0, a10);
    vst1q_f32(c + 1 * ldc + j0 + 4, a11);
    vst1q_f32(c + 2 * ldc + j0, a20);
    vst1q_f32(c + 2 * ldc + j0 + 4, a21);
    vst1q_f32(c + 3 * ldc + j0, a30);
    vst1q_f32(c + 3 * ldc + j0 + 4, a31);
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

void gemm_neon(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_at_neon(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_bt_neon(float* c, const float* a, const float* b, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::int64_t lda,
                  std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_neon(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_neon(float* out, const float* a, const float* v,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // vfmaq_f64 rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float64x2_t av = vdupq_n_f64(static_cast<double>(arow[kk]));
        const float32x4_t vf = vld1q_f32(v + kk * ldv + j0);
        acc0 = vfmaq_f64(acc0, av, vcvt_f64_f32(vget_low_f32(vf)));
        acc1 = vfmaq_f64(acc1, av, vcvt_high_f64_f32(vf));
      }
      const float32x2_t lo = vcvt_f32_f64(acc0);
      vst1q_f32(out + i * ldo + j0, vcvt_high_f32_f64(lo, acc1));
    }
    for (std::int64_t j = n4; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) *
               static_cast<double>(v[kk * ldv + j]);
      out[i * ldo + j] = static_cast<float>(acc);
    }
  }
}

void adc_shift_add_neon(float* acc, const float* cur, const float* baseline,
                        std::int64_t rows, std::int64_t n, float full_scale,
                        float steps, float shift) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vfs = vdupq_n_f32(full_scale);
  const float32x4_t vsteps = vdupq_n_f32(steps);
  const float32x4_t vshift = vdupq_n_f32(shift);
  for (std::int64_t row = 0; row < rows; ++row) {
    float* arow = acc + row * n;
    const float* crow = cur + row * n;
    for (std::int64_t i = 0; i < n; i += 4) {
      const std::int64_t lanes = std::min<std::int64_t>(4, n - i);
      const float32x4_t clamped =
          vminq_f32(vmaxq_f32(load_part(crow + i, lanes), zero), vfs);
      const float32x4_t r =
          vrndaq_f32(vmulq_f32(vdivq_f32(clamped, vfs), vsteps));
      const float32x4_t q = vdivq_f32(vmulq_f32(r, vfs), vsteps);
      const float32x4_t d = vsubq_f32(q, load_part(baseline + i, lanes));
      // Unfused mul+add to match the scalar reference bit-for-bit.
      store_part(arow + i,
                 vaddq_f32(load_part(arow + i, lanes), vmulq_f32(vshift, d)),
                 lanes);
    }
  }
}

void geniex_inputs_neon(float* vv, float* vr, float* sums, const float* v,
                        const float* growsum, std::int64_t rows,
                        std::int64_t n, float nv, float nv2, float nr) {
  // One vector of input columns at a time, its three sums held in
  // registers across the whole (sequential) row loop.
  for (std::int64_t k = 0; k < n; k += 4) {
    const std::int64_t lanes = std::min<std::int64_t>(4, n - k);
    float32x4_t sv = vdupq_n_f32(0.0f);
    float32x4_t sv2 = vdupq_n_f32(0.0f);
    float32x4_t sr = vdupq_n_f32(0.0f);
    for (std::int64_t i = 0; i < rows; ++i) {
      const float32x4_t x = load_part(v + i * n + k, lanes);
      const float32x4_t x2 = vmulq_f32(x, x);
      const float32x4_t xr = vmulq_f32(x, vdupq_n_f32(growsum[i]));
      store_part(vv + i * n + k, x2, lanes);
      store_part(vr + i * n + k, xr, lanes);
      sv = vaddq_f32(sv, x);
      sv2 = vaddq_f32(sv2, x2);
      sr = vaddq_f32(sr, xr);
    }
    store_part(sums + k, vmulq_f32(sv, vdupq_n_f32(nv)), lanes);
    store_part(sums + n + k, vmulq_f32(sv2, vdupq_n_f32(nv2)), lanes);
    store_part(sums + 2 * n + k, vmulq_f32(sr, vdupq_n_f32(nr)), lanes);
  }
}

void geniex_features_neon(float* ft, const float* iid, const float* sums,
                          const float* colf, std::int64_t cols,
                          std::int64_t n, float i_scale, float d_e, float d_p,
                          float d_w, float garr) {
  const std::int64_t ns = cols * n;
  const float32x4_t vis = vdupq_n_f32(i_scale);
  const float32x4_t vde = vdupq_n_f32(d_e);
  const float32x4_t vdp = vdupq_n_f32(d_p);
  const float32x4_t vdw = vdupq_n_f32(d_w);
  const float32x4_t vgarr = vdupq_n_f32(garr);
  constexpr std::int64_t kSumRow[3] = {2, 3, 6};  // vbar, v2bar, rbar
  for (std::int64_t j = 0; j < cols; ++j) {
    float* F = ft + j * n;
    const float* ji = iid + j * n;
    const float32x4_t fg = vdupq_n_f32(colf[2 * j]);
    const float32x4_t fpos = vdupq_n_f32(colf[2 * j + 1]);
    for (std::int64_t k = 0; k < n; k += 4) {
      const std::int64_t lanes = std::min<std::int64_t>(4, n - k);
      auto div_row = [&](std::int64_t f, const float* src, float32x4_t d) {
        store_part(F + f * ns + k, vdivq_f32(load_part(src + k, lanes), d),
                   lanes);
      };
      div_row(0, ji, vis);
      div_row(4, F + 4 * ns, vde);
      div_row(5, F + 5 * ns, vdp);
      div_row(9, F + 9 * ns, vdw);
      store_part(F + 1 * ns + k, fg, lanes);
      store_part(F + 7 * ns + k, fpos, lanes);
      store_part(F + 8 * ns + k, vgarr, lanes);
      for (std::int64_t s = 0; s < 3; ++s)
        store_part(F + kSumRow[s] * ns + k, load_part(sums + s * n + k, lanes),
                   lanes);
    }
  }
}

std::int64_t geniex_epilogue_neon(float* out, std::int8_t* flags,
                                  const float* iid, const float* rel,
                                  std::int64_t cols, std::int64_t n,
                                  float floor, float full_scale, bool guard,
                                  float rel_min, float rel_max) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vfloor = vdupq_n_f32(floor);
  const float32x4_t vfs = vdupq_n_f32(full_scale);
  const float32x4_t vmin = vdupq_n_f32(rel_min);
  const float32x4_t vmax = vdupq_n_f32(rel_max);
  std::int64_t nonfinite = 0;
  // Vector-major: one lane block of input vectors runs down all columns,
  // so its envelope flags OR together in a mask register. Selects use
  // compares + bsl (vmaxq/vminq would not keep std::max/clamp's NaN
  // semantics).
  for (std::int64_t k = 0; k < n; k += 4) {
    const std::int64_t lanes = std::min<std::int64_t>(4, n - k);
    uint32x4_t bad = vdupq_n_u32(0);
    for (std::int64_t j = 0; j < cols; ++j) {
      const float32x4_t x = load_part(iid + j * n + k, lanes);
      const float32x4_t r = load_part(rel + j * n + k, lanes);
      if (guard)
        bad = vorrq_u32(bad, vorrq_u32(nonfinite4(r),
                                       vorrq_u32(vcltq_f32(r, vmin),
                                                 vcgtq_f32(r, vmax))));
      // std::max(x, floor): x < floor ? floor : x (a NaN x stays NaN).
      const float32x4_t denom = vbslq_f32(vcltq_f32(x, vfloor), vfloor, x);
      const float32x4_t t = vsubq_f32(x, vmulq_f32(r, denom));
      // std::clamp(t, 0, fs): t < 0 ? 0 : (fs < t ? fs : t).
      float32x4_t o = vbslq_f32(vcltq_f32(vfs, t), vfs, t);
      o = vbslq_f32(vcltq_f32(t, zero), zero, o);
      store_part(out + j * n + k, o, lanes);
      std::uint32_t nf[4];
      vst1q_u32(nf, nonfinite4(o));
      for (std::int64_t l = 0; l < lanes; ++l) nonfinite += nf[l] != 0;
    }
    std::uint32_t b[4];
    vst1q_u32(b, bad);
    for (std::int64_t l = 0; l < lanes; ++l)
      flags[k + l] = static_cast<std::int8_t>(b[l] != 0);
  }
  return nonfinite;
}

namespace {

/// Rounded quantization codes for 4 floats, as i32.
inline int32x4_t quantize_codes4(const float* x, float32x4_t vs,
                                 float32x4_t vq) {
  const float32x4_t clipped =
      vminq_f32(vmaxq_f32(vld1q_f32(x), vdupq_n_f32(0.0f)), vs);
  const float32x4_t t = vmulq_f32(vdivq_f32(clipped, vs), vq);
  return vcvtq_s32_f32(vrndaq_f32(t));
}

}  // namespace

void quantize_to_i16_neon(std::int16_t* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vq = vdupq_n_f32(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const int16x4_t lo = vmovn_s32(quantize_codes4(x + i, vs, vq));
    const int16x4_t hi = vmovn_s32(quantize_codes4(x + i + 4, vs, vq));
    vst1q_s16(out + i, vcombine_s16(lo, hi));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_neon(std::int32_t* c, const std::int8_t* a,
                            const std::int8_t* b, std::int64_t m,
                            std::int64_t n, std::int64_t k, std::int64_t lda,
                            std::int64_t ldb, std::int64_t ldc) {
  // Per k-step the 16 int8 B values widen once to four i32x4 registers,
  // then feed broadcast multiply-accumulate per output row. Integer
  // arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::int32_t* crow = c + i * ldc + j0;
      int32x4_t acc0 = vld1q_s32(crow);
      int32x4_t acc1 = vld1q_s32(crow + 4);
      int32x4_t acc2 = vld1q_s32(crow + 8);
      int32x4_t acc3 = vld1q_s32(crow + 12);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int32_t aki = a[kk * lda + i];
        if (aki == 0) continue;
        const int8x16_t bv = vld1q_s8(b + kk * ldb + j0);
        const int16x8_t blo = vmovl_s8(vget_low_s8(bv));
        const int16x8_t bhi = vmovl_s8(vget_high_s8(bv));
        const int32x4_t av = vdupq_n_s32(aki);
        acc0 = vmlaq_s32(acc0, av, vmovl_s16(vget_low_s16(blo)));
        acc1 = vmlaq_s32(acc1, av, vmovl_s16(vget_high_s16(blo)));
        acc2 = vmlaq_s32(acc2, av, vmovl_s16(vget_low_s16(bhi)));
        acc3 = vmlaq_s32(acc3, av, vmovl_s16(vget_high_s16(bhi)));
      }
      vst1q_s32(crow, acc0);
      vst1q_s32(crow + 4, acc1);
      vst1q_s32(crow + 8, acc2);
      vst1q_s32(crow + 12, acc3);
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

void adc_shift_add_i32_neon(float* acc, const std::int32_t* dot,
                            const float* baseline, std::int64_t n,
                            float dot_unit, float full_scale, float steps,
                            float shift) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vdu = vdupq_n_f32(dot_unit);
  const float32x4_t vfs = vdupq_n_f32(full_scale);
  const float32x4_t vsteps = vdupq_n_f32(steps);
  const float32x4_t vshift = vdupq_n_f32(shift);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4) {
    const float32x4_t vd = vcvtq_f32_s32(vld1q_s32(dot + i));
    const float32x4_t vb = vld1q_f32(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const float32x4_t cur = vaddq_f32(vb, vmulq_f32(vdu, vd));
    const float32x4_t clamped = vminq_f32(vmaxq_f32(cur, zero), vfs);
    const float32x4_t r =
        vrndaq_f32(vmulq_f32(vdivq_f32(clamped, vfs), vsteps));
    const float32x4_t q = vdivq_f32(vmulq_f32(r, vfs), vsteps);
    const float32x4_t d = vsubq_f32(q, vb);
    vst1q_f32(acc + i, vaddq_f32(vld1q_f32(acc + i), vmulq_f32(vshift, d)));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

namespace {

/// One 8-code vector of dac_streams_i16: writes 8 chunk bytes and adds 8
/// column sums; `any` ORs the raw codes, `vmax` tracks the row max.
/// vshlq_s16 by a negative count is an arithmetic right shift.
inline void dac_block8(const std::int16_t* s, std::int8_t* d,
                       std::int32_t* cs, int16x8_t nshift, int16x8_t vmask,
                       int16x8_t& vmax, int16x8_t& any) {
  const int16x8_t v = vld1q_s16(s);
  any = vorrq_s16(any, v);
  const int16x8_t c = vandq_s16(vshlq_s16(v, nshift), vmask);
  vst1_s8(d, vmovn_s16(c));  // chunk values are 0..127
  vmax = vmaxq_s16(vmax, c);
  vst1q_s32(cs, vaddq_s32(vld1q_s32(cs), vmovl_s16(vget_low_s16(c))));
  vst1q_s32(cs + 4,
            vaddq_s32(vld1q_s32(cs + 4), vmovl_s16(vget_high_s16(c))));
}

}  // namespace

bool dac_streams_i16_neon(std::int8_t* chunk, std::int8_t* row_max,
                          std::int32_t* colsum, const std::int16_t* src,
                          std::int64_t rows_used, std::int64_t rows,
                          std::int64_t n, std::int64_t streams,
                          std::int64_t stream_bits) {
  // 8 codes per vector; a ragged last vector is staged through
  // zero-padded buffers (padding codes are 0: no effect on the row max).
  const int16x8_t vmask =
      vdupq_n_s16(static_cast<std::int16_t>((1 << stream_bits) - 1));
  const std::int64_t n8 = n & ~std::int64_t{7};
  int16x8_t any = vdupq_n_s16(0);
  for (std::int64_t t = 0; t < streams; ++t) {
    const int16x8_t nshift =
        vdupq_n_s16(static_cast<std::int16_t>(-t * stream_bits));
    std::int8_t* ct = chunk + t * rows * n;
    std::int32_t* st = colsum + t * n;
    std::fill(st, st + n, 0);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int16_t* s = src + r * n;
      std::int8_t* d = ct + r * n;
      int16x8_t vmax = vdupq_n_s16(0);
      for (std::int64_t k = 0; k < n8; k += 8)
        dac_block8(s + k, d + k, st + k, nshift, vmask, vmax, any);
      if (n8 < n) {
        std::int16_t s_tail[8] = {};
        std::int8_t d_tail[8] = {};
        std::int32_t cs_tail[8] = {};
        std::copy(s + n8, s + n, s_tail);
        std::copy(st + n8, st + n, cs_tail);
        dac_block8(s_tail, d_tail, cs_tail, nshift, vmask, vmax, any);
        std::copy(d_tail, d_tail + (n - n8), d + n8);
        std::copy(cs_tail, cs_tail + (n - n8), st + n8);
      }
      row_max[t * rows + r] = static_cast<std::int8_t>(vmaxvq_s16(vmax));
    }
    std::fill(ct + rows_used * n, ct + rows * n, std::int8_t{0});
    std::fill(row_max + t * rows + rows_used, row_max + (t + 1) * rows,
              std::int8_t{0});
  }
  return vminvq_s16(any) < 0;
}

namespace {

/// R rows x V vectors of C held in registers across the whole k loop;
/// every term is an unfused multiply then add, as in gemm_madd_scalar.
/// The last vector covers `last` (1..4) lanes.
template <int R, int V>
inline void madd_block4(float* c, const float* a, const float* b,
                        std::int64_t k, std::int64_t lda, std::int64_t ldb,
                        std::int64_t ldc, std::int64_t last) {
  float32x4_t acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      acc[r][v] = load_part(c + r * ldc + 4 * v, v == V - 1 ? last : 4);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    float32x4_t bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      bv[v] = load_part(b + kk * ldb + 4 * v, v == V - 1 ? last : 4);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float32x4_t ar = vdupq_n_f32(a[r * lda + kk]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[r][v] = vaddq_f32(acc[r][v], vmulq_f32(ar, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      store_part(c + r * ldc + 4 * v, acc[r][v], v == V - 1 ? last : 4);
}

/// All n columns of R rows: 2-vector blocks, then one full vector, then
/// one staged vector for the ragged tail.
template <int R>
inline void madd_rows4(float* c, const float* a, const float* b,
                       std::int64_t n, std::int64_t k, std::int64_t lda,
                       std::int64_t ldb, std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8)
    madd_block4<R, 2>(c + j, a, b + j, k, lda, ldb, ldc, 4);
  for (; j < n; j += 4)
    madd_block4<R, 1>(c + j, a, b + j, k, lda, ldb, ldc,
                      std::min<std::int64_t>(4, n - j));
}

/// V sample vectors of the MLP forward, interleaved per hidden unit so
/// their FMA chains and tanh divides overlap. Per sample the op order is
/// gemm_neon's (hidden FMA chain from b1, tanh4, output FMA chain from
/// b2). The last vector covers `last` (1..4) samples.
template <int V>
inline void mlp_block4(float* out, const float* x, std::int64_t n,
                       std::int64_t in_dim, std::int64_t hidden,
                       const float* w1, const float* b1, const float* w2,
                       float b2, std::int64_t last) {
  float32x4_t o[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) o[v] = vdupq_n_f32(b2);
  for (std::int64_t h = 0; h < hidden; ++h) {
    float32x4_t acc[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[v] = vdupq_n_f32(b1[h]);
    const float* wrow = w1 + h * in_dim;
    for (std::int64_t i = 0; i < in_dim; ++i) {
      const float32x4_t w = vdupq_n_f32(wrow[i]);
      const float* xi = x + i * n;
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[v] = vfmaq_f32(acc[v], w,
                           load_part(xi + 4 * v, v == V - 1 ? last : 4));
    }
    const float32x4_t wo = vdupq_n_f32(w2[h]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) o[v] = vfmaq_f32(o[v], wo, tanh4(acc[v]));
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    store_part(out + 4 * v, o[v], v == V - 1 ? last : 4);
}

}  // namespace

void gemm_madd_neon(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    madd_rows4<4>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
  for (; i < m; ++i)
    madd_rows4<1>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
}

void mlp_tanh_neon(float* out, const float* x, std::int64_t n,
                   std::int64_t in_dim, std::int64_t hidden, const float* w1,
                   const float* b1, const float* w2, float b2) {
  constexpr int kV = 4;
  std::int64_t s = 0;
  for (; s + 4 * kV <= n; s += 4 * kV)
    mlp_block4<kV>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2, 4);
  for (; s < n; s += 4)
    mlp_block4<1>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                  std::min<std::int64_t>(4, n - s));
}

void tanh_fast_block_neon(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 4) {
    const std::int64_t lanes = std::min<std::int64_t>(4, n - i);
    store_part(y + i, tanh4(load_part(x + i, lanes)), lanes);
  }
}

namespace {

/// a[l * lda] for the first `lanes` (1..4) rows l, staged into a
/// zero-padded vector (NEON has no gather).
inline float32x4_t load_rows(const float* a, std::int64_t lda,
                             std::int64_t lanes) {
  float t[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (std::int64_t l = 0; l < lanes; ++l) t[l] = a[l * lda];
  return vld1q_f32(t);
}

/// V vectors of 4 rows each (the last one covering `last` rows); every
/// term is an unfused multiply then add, as in gemv_madd_scalar.
template <int V>
inline void gemv_block4(float* y, const float* a, const float* x,
                        std::int64_t k, std::int64_t lda, std::int64_t last) {
  float32x4_t acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    acc[v] = load_part(y + 4 * v, v == V - 1 ? last : 4);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float32x4_t xk = vdupq_n_f32(x[kk]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      acc[v] = vaddq_f32(
          acc[v], vmulq_f32(load_rows(a + 4 * v * lda + kk, lda,
                                      v == V - 1 ? last : 4),
                            xk));
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    store_part(y + 4 * v, acc[v], v == V - 1 ? last : 4);
}

}  // namespace

void gemv_madd_neon(float* y, const float* a, const float* x, std::int64_t m,
                    std::int64_t k, std::int64_t lda) {
  constexpr int kV = 4;
  std::int64_t i = 0;
  for (; i + 4 * kV <= m; i += 4 * kV)
    gemv_block4<kV>(y + i, a + i * lda, x, k, lda, 4);
  for (; i < m; i += 4)
    gemv_block4<1>(y + i, a + i * lda, x, k, lda,
                   std::min<std::int64_t>(4, m - i));
}

void tanh_backprop_neon(float* a, const float* err, const float* w2,
                        std::int64_t m, std::int64_t h) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  for (std::int64_t s = 0; s < m; ++s) {
    float* row = a + s * h;
    const float32x4_t e = vdupq_n_f32(err[s]);
    for (std::int64_t j = 0; j < h; j += 4) {
      const std::int64_t lanes = std::min<std::int64_t>(4, h - j);
      const float32x4_t x = load_part(row + j, lanes);
      const float32x4_t ew = vmulq_f32(e, load_part(w2 + j, lanes));
      store_part(row + j, vmulq_f32(ew, vsubq_f32(one, vmulq_f32(x, x))),
                 lanes);
    }
  }
}

void adam_step_neon(float* p, float* m, float* v, const float* g,
                    std::int64_t n, const AdamStep& c) {
  const float32x4_t count = vdupq_n_f32(c.count);
  const float32x4_t b1 = vdupq_n_f32(c.beta1), b2 = vdupq_n_f32(c.beta2);
  const float32x4_t ob1 = vdupq_n_f32(1.0f - c.beta1);
  const float32x4_t ob2 = vdupq_n_f32(1.0f - c.beta2);
  const float32x4_t bc1 = vdupq_n_f32(c.bc1), bc2 = vdupq_n_f32(c.bc2);
  const float32x4_t lr = vdupq_n_f32(c.lr), eps = vdupq_n_f32(c.eps);
  for (std::int64_t j = 0; j < n; j += 4) {
    const std::int64_t lanes = std::min<std::int64_t>(4, n - j);
    const float32x4_t gj = vdivq_f32(load_part(g + j, lanes), count);
    const float32x4_t mj = vaddq_f32(vmulq_f32(b1, load_part(m + j, lanes)),
                                     vmulq_f32(ob1, gj));
    const float32x4_t vj = vaddq_f32(vmulq_f32(b2, load_part(v + j, lanes)),
                                     vmulq_f32(vmulq_f32(ob2, gj), gj));
    const float32x4_t step =
        vdivq_f32(vmulq_f32(lr, vdivq_f32(mj, bc1)),
                  vaddq_f32(vsqrtq_f32(vdivq_f32(vj, bc2)), eps));
    store_part(m + j, mj, lanes);
    store_part(v + j, vj, lanes);
    store_part(p + j, vsubq_f32(load_part(p + j, lanes), step), lanes);
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_NEON_TU or not AArch64 — stubs, unreachable via dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool neon_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd NEON kernel called but NVM_ENABLE_NEON was off or the "
      "target is not AArch64");
}
}  // namespace

float dot_neon(const float*, const float*, std::int64_t) { stub_fail(); }
void gemm_neon(float*, const float*, const float*, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}
void gemm_at_neon(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_bt_neon(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_madd_neon(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void mlp_tanh_neon(float*, const float*, std::int64_t, std::int64_t,
                   std::int64_t, const float*, const float*, const float*,
                   float) {
  stub_fail();
}
void gemm_f64acc_neon(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {
  stub_fail();
}
void adc_shift_add_neon(float*, const float*, const float*, std::int64_t,
                        std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_inputs_neon(float*, float*, float*, const float*, const float*,
                        std::int64_t, std::int64_t, float, float, float) {
  stub_fail();
}
void geniex_features_neon(float*, const float*, const float*, const float*,
                          std::int64_t, std::int64_t, float, float, float,
                          float, float) {
  stub_fail();
}
std::int64_t geniex_epilogue_neon(float*, std::int8_t*, const float*,
                                  const float*, std::int64_t, std::int64_t,
                                  float, float, bool, float, float) {
  stub_fail();
}
void tanh_fast_block_neon(float*, const float*, std::int64_t) {
  stub_fail();
}
void gemv_madd_neon(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t) {
  stub_fail();
}
void tanh_backprop_neon(float*, const float*, const float*, std::int64_t,
                        std::int64_t) {
  stub_fail();
}
void adam_step_neon(float*, float*, float*, const float*, std::int64_t,
                    const AdamStep&) {
  stub_fail();
}
void quantize_to_i16_neon(std::int16_t*, const float*, std::int64_t, float,
                          float) {
  stub_fail();
}
void gemm_at_i8_i32acc_neon(std::int32_t*, const std::int8_t*,
                            const std::int8_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_neon(float*, const std::int32_t*, const float*,
                            std::int64_t, float, float, float, float) {
  stub_fail();
}
bool dac_streams_i16_neon(std::int8_t*, std::int8_t*, std::int32_t*,
                          const std::int16_t*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_NEON_TU && __aarch64__
