// Internal: the vector kernel bodies, written once over a per-tier traits
// type T and instantiated by simd_avx2.cpp and simd_avx512.cpp (include it
// nowhere else: it must be compiled with the tier's arch flags, after the
// TU has included <immintrin.h> and defined its traits).
//
// Parity rules mirrored from simd.h: [exact] kernels run the scalar
// reference's IEEE ops per lane, in the same order (elementwise ops are
// width-independent, so any lane count gives the same bits); [~ulp]
// kernels (dot, gemm, gemm_at, gemm_bt, mlp_tanh) use FMA in the vector
// body, and dot folds its lanes pairwise onto the documented 8-lane tree.
// gemm_f64acc stays [exact]: float*float products are exact in double, so
// a double FMA rounds like the reference's mul-then-add. Scalar tail loops
// here are unfused like the reference (the whole build carries
// -ffp-contract=off; FMA only appears through T::fmadd).
//
// The traits T provide (W = T::kLanes float lanes per vector):
//   V, VI, D         float, int32 and double vectors; VI also holds
//                    2W int16 lanes, D T::kDLanes doubles
//   Tail             lane mask of a ragged vector: tail(left) keeps the
//                    first min(left, W) lanes, all() every lane; load()
//                    zeroes the lanes it drops and store() skips them
//   Mask             comparison result: lt, gt (ordered), nonfinite
//                    (!std::isfinite), mor, none, select(m, yes, no), bits
//   float ops        zero, set1, loadu, storeu, add, sub, mul, div,
//                    fmadd(a, b, c) = a*b + c fused, min, max (x86 operand
//                    semantics), sqrt, round_nonneg (std::round for t >= 0)
//   int ops          load_i32, store_i32, set1_i32, add_i32, mul_i32,
//                    cvt_f (i32 -> float), cvt_i (float -> i32, nearest),
//                    load_i8 (W int8 widened), store_i16 (W int32
//                    truncated), row_offsets(ld) (lane l = l * ld),
//                    gather(base, offsets, Tail)
//   double ops       zero_d, set1_d, load_d (kDLanes floats widened),
//                    fmadd_d, store_d (rounded to float)
//   int16 ops        zero_i, set1_i16, or_i, and_i, max_i16, shift_count,
//                    sra_i16; load_i16 / store_i8 (narrowed) /
//                    add_i16_to_i32 over the first `lanes` of 2W, with the
//                    tier's tail policy (masked or staged); hmax_i16,
//                    any_negative_i16
//   kMlpVectors      sample vectors mlp_tanh interleaves per hidden unit
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/simd.h"
#include "common/simd_kernels.h"

namespace nvm::simd::detail {
// Internal linkage: the two instantiating TUs compile this code with
// different arch flags, so no definition may be shared between them.
namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

template <class T>
float dot(const float* a, const float* b, std::int64_t n) {
  constexpr int W = T::kLanes;
  const std::int64_t nw = n & ~std::int64_t{W - 1};
  typename T::V acc = T::zero();
  for (std::int64_t i = 0; i < nw; i += W)
    acc = T::fmadd(T::loadu(a + i), T::loadu(b + i), acc);
  float lanes[W];
  T::storeu(lanes, acc);
  // Fold the extra lanes pairwise: lane l accumulates l, l + 8, ...
  for (int w = W / 2; w >= 8; w /= 2)
    for (int l = 0; l < w; ++l) lanes[l] += lanes[l + w];
  for (std::int64_t i = nw; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

/// R rows of C += coef * B style accumulation: c[r*ldc + j] accumulates
/// coef(r, kk) * b[kk*ldb + j] sequentially over kk, R independent FMA
/// chains per vector of columns; columns past the last full vector take
/// an unfused scalar loop.
template <class T, int R, typename Coef>
inline void gemm_rows_fma(float* c, const float* b, std::int64_t n,
                          std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                          Coef coef) {
  constexpr int W = T::kLanes;
  const std::int64_t nw = n & ~std::int64_t{W - 1};
  for (std::int64_t j0 = 0; j0 < nw; j0 += W) {
    typename T::V acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) acc[r] = T::loadu(c + r * ldc + j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const typename T::V bv = T::loadu(b + kk * ldb + j0);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r)
        acc[r] = T::fmadd(T::set1(coef(r, kk)), bv, acc[r]);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) T::storeu(c + r * ldc + j0, acc[r]);
  }
  for (std::int64_t j = nw; j < n; ++j)
    for (int r = 0; r < R; ++r) {
      float acc = c[r * ldc + j];
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += coef(r, kk) * b[kk * ldb + j];
      c[r * ldc + j] = acc;
    }
}

/// C(m x n) += A * B where a(i, kk) yields the A element: 4-row
/// microtiles, then single rows.
template <class T, typename A>
inline void gemm_fma(float* c, const float* b, std::int64_t m, std::int64_t n,
                     std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                     A a) {
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t i0 = 0; i0 < m4; i0 += 4)
    gemm_rows_fma<T, 4>(c + i0 * ldc, b, n, k, ldb, ldc,
                        [&](int r, std::int64_t kk) { return a(i0 + r, kk); });
  for (std::int64_t i = m4; i < m; ++i)
    gemm_rows_fma<T, 1>(c + i * ldc, b, n, k, ldb, ldc,
                        [&](int, std::int64_t kk) { return a(i, kk); });
}

template <class T>
void gemm(float* c, const float* a, const float* b, std::int64_t m,
          std::int64_t n, std::int64_t k, std::int64_t lda, std::int64_t ldb,
          std::int64_t ldc) {
  gemm_fma<T>(c, b, m, n, k, ldb, ldc,
              [&](std::int64_t i, std::int64_t kk) { return a[i * lda + kk]; });
}

template <class T>
void gemm_at(float* c, const float* a, const float* b, std::int64_t m,
             std::int64_t n, std::int64_t k, std::int64_t lda,
             std::int64_t ldb, std::int64_t ldc) {
  gemm_fma<T>(c, b, m, n, k, ldb, ldc,
              [&](std::int64_t i, std::int64_t kk) { return a[kk * lda + i]; });
}

template <class T>
void gemm_bt(float* c, const float* a, const float* b, std::int64_t m,
             std::int64_t n, std::int64_t k, std::int64_t lda,
             std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot<T>(arow, b + j * ldb, k);
  }
}

template <class T>
void gemm_f64acc(float* out, const float* a, const float* v, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldv, std::int64_t ldo) {
  // Blocks of 8 columns as 8 / kDLanes double vectors.
  constexpr int kD = 8 / T::kDLanes;
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      typename T::D acc[kD];
      for (int d = 0; d < kD; ++d) acc[d] = T::zero_d();
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const typename T::D av = T::set1_d(static_cast<double>(arow[kk]));
        const float* vrow = v + kk * ldv + j0;
        for (int d = 0; d < kD; ++d)
          acc[d] = T::fmadd_d(av, T::load_d(vrow + d * T::kDLanes), acc[d]);
      }
      for (int d = 0; d < kD; ++d)
        T::store_d(out + i * ldo + j0 + d * T::kDLanes, acc[d]);
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

/// The mid-tread ADC of adc_shift_add on a vector of currents:
/// round(clamp(cur, 0, fs) / fs * steps) * fs / steps.
template <class T>
inline typename T::V adc_quantize(typename T::V cur, typename T::V vfs,
                                  typename T::V vsteps) {
  const typename T::V clamped = T::min(T::max(cur, T::zero()), vfs);
  const typename T::V r =
      T::round_nonneg(T::mul(T::div(clamped, vfs), vsteps));
  return T::div(T::mul(r, vfs), vsteps);
}

template <class T>
void adc_shift_add(float* acc, const float* cur, const float* baseline,
                   std::int64_t rows, std::int64_t n, float full_scale,
                   float steps, float shift) {
  const typename T::V vfs = T::set1(full_scale);
  const typename T::V vsteps = T::set1(steps);
  const typename T::V vshift = T::set1(shift);
  for (std::int64_t row = 0; row < rows; ++row) {
    float* arow = acc + row * n;
    const float* crow = cur + row * n;
    for (std::int64_t i = 0; i < n; i += T::kLanes) {
      const typename T::Tail m = T::tail(n - i);
      const typename T::V q =
          adc_quantize<T>(T::load(crow + i, m), vfs, vsteps);
      const typename T::V d = T::sub(q, T::load(baseline + i, m));
      // Unfused mul+add to match the scalar reference bit-for-bit.
      T::store(arow + i, m,
               T::add(T::load(arow + i, m), T::mul(vshift, d)));
    }
  }
}

template <class T>
void geniex_inputs(float* vv, float* vr, float* sums, const float* v,
                   const float* growsum, std::int64_t rows, std::int64_t n,
                   float nv, float nv2, float nr) {
  // One vector of input columns at a time, its three sums held in
  // registers across the whole (sequential) row loop.
  for (std::int64_t k = 0; k < n; k += T::kLanes) {
    const typename T::Tail m = T::tail(n - k);
    typename T::V sv = T::zero(), sv2 = T::zero(), sr = T::zero();
    for (std::int64_t i = 0; i < rows; ++i) {
      const typename T::V x = T::load(v + i * n + k, m);
      const typename T::V x2 = T::mul(x, x);
      const typename T::V xr = T::mul(x, T::set1(growsum[i]));
      T::store(vv + i * n + k, m, x2);
      T::store(vr + i * n + k, m, xr);
      sv = T::add(sv, x);
      sv2 = T::add(sv2, x2);
      sr = T::add(sr, xr);
    }
    T::store(sums + k, m, T::mul(sv, T::set1(nv)));
    T::store(sums + n + k, m, T::mul(sv2, T::set1(nv2)));
    T::store(sums + 2 * n + k, m, T::mul(sr, T::set1(nr)));
  }
}

template <class T>
void geniex_features(float* ft, const float* iid, const float* sums,
                     const float* colf, std::int64_t cols, std::int64_t n,
                     float i_scale, float d_e, float d_p, float d_w,
                     float garr) {
  const std::int64_t ns = cols * n;
  const typename T::V vis = T::set1(i_scale), vde = T::set1(d_e);
  const typename T::V vdp = T::set1(d_p), vdw = T::set1(d_w);
  const typename T::V vgarr = T::set1(garr);
  constexpr std::int64_t kSumRow[3] = {2, 3, 6};  // vbar, v2bar, rbar
  for (std::int64_t j = 0; j < cols; ++j) {
    float* F = ft + j * n;
    const float* ji = iid + j * n;
    const typename T::V fg = T::set1(colf[2 * j]);
    const typename T::V fpos = T::set1(colf[2 * j + 1]);
    for (std::int64_t k = 0; k < n; k += T::kLanes) {
      const typename T::Tail m = T::tail(n - k);
      auto div_row = [&](std::int64_t f, const float* src, typename T::V d) {
        T::store(F + f * ns + k, m, T::div(T::load(src + k, m), d));
      };
      div_row(0, ji, vis);
      div_row(4, F + 4 * ns, vde);
      div_row(5, F + 5 * ns, vdp);
      div_row(9, F + 9 * ns, vdw);
      T::store(F + 1 * ns + k, m, fg);
      T::store(F + 7 * ns + k, m, fpos);
      T::store(F + 8 * ns + k, m, vgarr);
      for (std::int64_t s = 0; s < 3; ++s)
        T::store(F + kSumRow[s] * ns + k, m, T::load(sums + s * n + k, m));
    }
  }
}

template <class T>
std::int64_t geniex_epilogue(float* out, std::int8_t* flags, const float* iid,
                             const float* rel, std::int64_t cols,
                             std::int64_t n, float floor, float full_scale,
                             bool guard, float rel_min, float rel_max) {
  const typename T::V zero = T::zero(), vfloor = T::set1(floor);
  const typename T::V vfs = T::set1(full_scale);
  const typename T::V vmin = T::set1(rel_min), vmax = T::set1(rel_max);
  std::int64_t nonfinite = 0;
  // Vector-major: one lane block of input vectors runs down all columns,
  // so its envelope flags OR together in a mask.
  for (std::int64_t k = 0; k < n; k += T::kLanes) {
    const std::int64_t lanes = std::min<std::int64_t>(T::kLanes, n - k);
    const typename T::Tail m = T::tail(lanes);
    const unsigned live = (1u << lanes) - 1;
    typename T::Mask bad = T::none();
    for (std::int64_t j = 0; j < cols; ++j) {
      const typename T::V x = T::load(iid + j * n + k, m);
      const typename T::V r = T::load(rel + j * n + k, m);
      if (guard)
        bad = T::mor(bad, T::mor(T::nonfinite(r),
                                 T::mor(T::lt(r, vmin), T::gt(r, vmax))));
      // std::max(x, floor): x < floor ? floor : x (a NaN x stays NaN).
      const typename T::V denom = T::select(T::lt(x, vfloor), vfloor, x);
      const typename T::V t = T::sub(x, T::mul(r, denom));
      // std::clamp(t, 0, fs): t < 0 ? 0 : (fs < t ? fs : t).
      typename T::V o = T::select(T::lt(vfs, t), vfs, t);
      o = T::select(T::lt(t, zero), zero, o);
      T::store(out + j * n + k, m, o);
      nonfinite += __builtin_popcount(T::bits(T::nonfinite(o)) & live);
    }
    const unsigned bits = T::bits(bad);
    for (std::int64_t l = 0; l < lanes; ++l)
      flags[k + l] = static_cast<std::int8_t>((bits >> l) & 1);
  }
  return nonfinite;
}

/// tanh_fast per lane: the same polynomial op sequence, saturation applied
/// by select.
template <class T>
inline typename T::V tanh_v(typename T::V v) {
  const typename T::V x2 = T::mul(v, v);
  typename T::V p = T::add(T::set1(378.0f), x2);
  p = T::add(T::set1(17325.0f), T::mul(x2, p));
  p = T::add(T::set1(135135.0f), T::mul(x2, p));
  p = T::mul(v, p);
  typename T::V q = T::add(T::set1(3150.0f), T::mul(x2, T::set1(28.0f)));
  q = T::add(T::set1(62370.0f), T::mul(x2, q));
  q = T::add(T::set1(135135.0f), T::mul(x2, q));
  typename T::V r = T::div(p, q);
  r = T::select(T::gt(v, T::set1(4.97f)), T::set1(1.0f), r);
  return T::select(T::lt(v, T::set1(-4.97f)), T::set1(-1.0f), r);
}

/// Vector v of a V-vector block; with kTail the last vector touches only
/// the lanes in `tail`.
template <class T, int V, bool kTail>
inline typename T::V load_in_block(const float* p, int v,
                                   typename T::Tail tail) {
  return kTail && v == V - 1 ? T::load(p, tail) : T::loadu(p);
}

template <class T, int V, bool kTail>
inline void store_in_block(float* p, int v, typename T::Tail tail,
                           typename T::V x) {
  if (kTail && v == V - 1)
    T::store(p, tail, x);
  else
    T::storeu(p, x);
}

/// R rows x V vectors of C held in registers across the whole k loop;
/// every term is an unfused multiply then add, as in gemm_madd_scalar.
template <class T, int R, int V, bool kTail>
inline void madd_block(float* c, const float* a, const float* b,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc, typename T::Tail tail) {
  constexpr int W = T::kLanes;
  typename T::V acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      acc[r][v] = load_in_block<T, V, kTail>(c + r * ldc + W * v, v, tail);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    typename T::V bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      bv[v] = load_in_block<T, V, kTail>(b + kk * ldb + W * v, v, tail);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const typename T::V ar = T::set1(a[r * lda + kk]);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[r][v] = T::add(acc[r][v], T::mul(ar, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
      store_in_block<T, V, kTail>(c + r * ldc + W * v, v, tail, acc[r][v]);
}

/// All n columns of R rows: 2-vector blocks, then one full vector, then
/// one masked vector for the ragged tail.
template <class T, int R>
inline void madd_rows(float* c, const float* a, const float* b,
                      std::int64_t n, std::int64_t k, std::int64_t lda,
                      std::int64_t ldb, std::int64_t ldc) {
  constexpr int W = T::kLanes;
  std::int64_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W)
    madd_block<T, R, 2, false>(c + j, a, b + j, k, lda, ldb, ldc, T::all());
  if (j + W <= n) {
    madd_block<T, R, 1, false>(c + j, a, b + j, k, lda, ldb, ldc, T::all());
    j += W;
  }
  if (j < n)
    madd_block<T, R, 1, true>(c + j, a, b + j, k, lda, ldb, ldc,
                              T::tail(n - j));
}

template <class T>
void gemm_madd(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t n, std::int64_t k, std::int64_t lda,
               std::int64_t ldb, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    madd_rows<T, 4>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
  for (; i < m; ++i)
    madd_rows<T, 1>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
}

/// V sample vectors of the MLP forward, interleaved per hidden unit so
/// their FMA chains and tanh divides overlap. Per sample the op order is
/// gemm's (hidden FMA chain from b1, tanh_v, output FMA chain from b2).
template <class T, int V, bool kTail>
inline void mlp_block(float* out, const float* x, std::int64_t n,
                      std::int64_t in_dim, std::int64_t hidden,
                      const float* w1, const float* b1, const float* w2,
                      float b2, typename T::Tail tail) {
  constexpr int W = T::kLanes;
  typename T::V o[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) o[v] = T::set1(b2);
  for (std::int64_t h = 0; h < hidden; ++h) {
    typename T::V acc[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) acc[v] = T::set1(b1[h]);
    const float* wrow = w1 + h * in_dim;
    for (std::int64_t i = 0; i < in_dim; ++i) {
      const typename T::V w = T::set1(wrow[i]);
      const float* xi = x + i * n;
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v)
        acc[v] = T::fmadd(w, load_in_block<T, V, kTail>(xi + W * v, v, tail),
                          acc[v]);
    }
    const typename T::V wo = T::set1(w2[h]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) o[v] = T::fmadd(wo, tanh_v<T>(acc[v]), o[v]);
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    store_in_block<T, V, kTail>(out + W * v, v, tail, o[v]);
}

template <class T>
void mlp_tanh(float* out, const float* x, std::int64_t n, std::int64_t in_dim,
              std::int64_t hidden, const float* w1, const float* b1,
              const float* w2, float b2) {
  constexpr int W = T::kLanes, kV = T::kMlpVectors;
  std::int64_t s = 0;
  for (; s + W * kV <= n; s += W * kV)
    mlp_block<T, kV, false>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                            T::all());
  for (; s + W <= n; s += W)
    mlp_block<T, 1, false>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                           T::all());
  if (s < n)
    mlp_block<T, 1, true>(out + s, x + s, n, in_dim, hidden, w1, b1, w2, b2,
                          T::tail(n - s));
}

template <class T>
void tanh_fast_block(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += T::kLanes) {
    const typename T::Tail m = T::tail(n - i);
    T::store(y + i, m, tanh_v<T>(T::load(x + i, m)));
  }
}

/// V vectors of W rows each (with kTail the last one holding only the
/// rows in `tail`), their rows gathered at stride lda per k step; every
/// term is an unfused multiply then add, as in gemv_madd_scalar.
template <class T, int V, bool kTail>
inline void gemv_block(float* y, const float* a, const float* x,
                       std::int64_t k, std::int64_t lda,
                       typename T::VI rows, typename T::Tail tail) {
  constexpr int W = T::kLanes;
  typename T::V acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    acc[v] = load_in_block<T, V, kTail>(y + W * v, v, tail);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const typename T::V xk = T::set1(x[kk]);
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const typename T::V av = T::gather(
          a + W * v * lda + kk, rows, kTail && v == V - 1 ? tail : T::all());
      acc[v] = T::add(acc[v], T::mul(av, xk));
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v)
    store_in_block<T, V, kTail>(y + W * v, v, tail, acc[v]);
}

template <class T>
void gemv_madd(float* y, const float* a, const float* x, std::int64_t m,
               std::int64_t k, std::int64_t lda) {
  constexpr int W = T::kLanes;
  const typename T::VI rows = T::row_offsets(static_cast<int>(lda));
  std::int64_t i = 0;
  for (; i + 4 * W <= m; i += 4 * W)
    gemv_block<T, 4, false>(y + i, a + i * lda, x, k, lda, rows, T::all());
  for (; i + W <= m; i += W)
    gemv_block<T, 1, false>(y + i, a + i * lda, x, k, lda, rows, T::all());
  if (i < m)
    gemv_block<T, 1, true>(y + i, a + i * lda, x, k, lda, rows,
                           T::tail(m - i));
}

template <class T>
void tanh_backprop(float* a, const float* err, const float* w2,
                   std::int64_t m, std::int64_t h) {
  const typename T::V one = T::set1(1.0f);
  for (std::int64_t s = 0; s < m; ++s) {
    float* row = a + s * h;
    const typename T::V e = T::set1(err[s]);
    for (std::int64_t j = 0; j < h; j += T::kLanes) {
      const typename T::Tail mk = T::tail(h - j);
      const typename T::V x = T::load(row + j, mk);
      const typename T::V ew = T::mul(e, T::load(w2 + j, mk));
      T::store(row + j, mk, T::mul(ew, T::sub(one, T::mul(x, x))));
    }
  }
}

template <class T>
void adam_step(float* p, float* m, float* v, const float* g, std::int64_t n,
               const AdamStep& c) {
  const typename T::V count = T::set1(c.count);
  const typename T::V b1 = T::set1(c.beta1), b2 = T::set1(c.beta2);
  const typename T::V ob1 = T::set1(1.0f - c.beta1);
  const typename T::V ob2 = T::set1(1.0f - c.beta2);
  const typename T::V bc1 = T::set1(c.bc1), bc2 = T::set1(c.bc2);
  const typename T::V lr = T::set1(c.lr), eps = T::set1(c.eps);
  for (std::int64_t j = 0; j < n; j += T::kLanes) {
    const typename T::Tail mk = T::tail(n - j);
    const typename T::V gj = T::div(T::load(g + j, mk), count);
    const typename T::V mj =
        T::add(T::mul(b1, T::load(m + j, mk)), T::mul(ob1, gj));
    const typename T::V vj =
        T::add(T::mul(b2, T::load(v + j, mk)), T::mul(T::mul(ob2, gj), gj));
    const typename T::V step =
        T::div(T::mul(lr, T::div(mj, bc1)),
               T::add(T::sqrt(T::div(vj, bc2)), eps));
    T::store(m + j, mk, mj);
    T::store(v + j, mk, vj);
    T::store(p + j, mk, T::sub(T::load(p + j, mk), step));
  }
}

template <class T>
void quantize_to_i16(std::int16_t* out, const float* x, std::int64_t n,
                     float scale, float qmax) {
  constexpr int W = T::kLanes;
  const typename T::V vs = T::set1(scale), vq = T::set1(qmax);
  const std::int64_t nw = n & ~std::int64_t{W - 1};
  // Codes are integral, so cvt_i's round-to-nearest-even cannot move them.
  for (std::int64_t i = 0; i < nw; i += W) {
    const typename T::V clipped =
        T::min(T::max(T::loadu(x + i), T::zero()), vs);
    T::store_i16(out + i, T::cvt_i(T::round_nonneg(
                              T::mul(T::div(clipped, vs), vq))));
  }
  for (std::int64_t i = nw; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

template <class T>
void gemm_at_i8_i32acc(std::int32_t* c, const std::int8_t* a,
                       const std::int8_t* b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc) {
  // 4x16 microtiles: per k-step the 16 int8 B values widen to int32 once,
  // then feed four broadcast multiply-accumulate chains. Integer
  // arithmetic is exact, so blocking cannot change the result.
  constexpr int W = T::kLanes, kV = 16 / W;
  const std::int64_t n16 = n & ~std::int64_t{15};
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
      const std::int64_t in = (i0 < m4) ? 4 : m - i0;
      typename T::VI acc[4][kV];
      for (std::int64_t r = 0; r < in; ++r)
        for (int v = 0; v < kV; ++v)
          acc[r][v] = T::load_i32(c + (i0 + r) * ldc + j0 + W * v);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        typename T::VI bv[kV];
        for (int v = 0; v < kV; ++v)
          bv[v] = T::load_i8(b + kk * ldb + j0 + W * v);
        const std::int8_t* arow = a + kk * lda + i0;
        for (std::int64_t r = 0; r < in; ++r) {
          const std::int32_t aki = arow[r];
          if (aki == 0) continue;
          const typename T::VI va = T::set1_i32(aki);
          for (int v = 0; v < kV; ++v)
            acc[r][v] = T::add_i32(acc[r][v], T::mul_i32(va, bv[v]));
        }
      }
      for (std::int64_t r = 0; r < in; ++r)
        for (int v = 0; v < kV; ++v)
          T::store_i32(c + (i0 + r) * ldc + j0 + W * v, acc[r][v]);
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

template <class T>
void adc_shift_add_i32(float* acc, const std::int32_t* dot,
                       const float* baseline, std::int64_t n, float dot_unit,
                       float full_scale, float steps, float shift) {
  constexpr int W = T::kLanes;
  const typename T::V vdu = T::set1(dot_unit), vfs = T::set1(full_scale);
  const typename T::V vsteps = T::set1(steps), vshift = T::set1(shift);
  const std::int64_t nw = n & ~std::int64_t{W - 1};
  for (std::int64_t i = 0; i < nw; i += W) {
    const typename T::V vd = T::cvt_f(T::load_i32(dot + i));
    const typename T::V vb = T::loadu(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const typename T::V cur = T::add(vb, T::mul(vdu, vd));
    const typename T::V d = T::sub(adc_quantize<T>(cur, vfs, vsteps), vb);
    T::storeu(acc + i, T::add(T::loadu(acc + i), T::mul(vshift, d)));
  }
  for (std::int64_t i = nw; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    acc[i] += shift * (adc_quantize_scalar(cur, full_scale, steps) -
                       baseline[i]);
  }
}

template <class T>
bool dac_streams_i16(std::int8_t* chunk, std::int8_t* row_max,
                     std::int32_t* colsum, const std::int16_t* src,
                     std::int64_t rows_used, std::int64_t rows, std::int64_t n,
                     std::int64_t streams, std::int64_t stream_bits) {
  // 2W codes per vector; the tail lanes of a ragged vector load as 0, so
  // they add nothing to the row max.
  constexpr std::int64_t L = 2 * T::kLanes;
  const typename T::VI vmask =
      T::set1_i16(static_cast<short>((1 << stream_bits) - 1));
  typename T::VI any = T::zero_i();  // OR of all codes: sign = negative
  for (std::int64_t t = 0; t < streams; ++t) {
    const auto cnt = T::shift_count(static_cast<int>(t * stream_bits));
    std::int8_t* ct = chunk + t * rows * n;
    std::int32_t* st = colsum + t * n;
    std::fill(st, st + n, 0);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int16_t* s = src + r * n;
      std::int8_t* d = ct + r * n;
      typename T::VI vmax = T::zero_i();
      for (std::int64_t k = 0; k < n; k += L) {
        const std::int64_t lanes = std::min(L, n - k);
        const typename T::VI v = T::load_i16(s + k, lanes);
        any = T::or_i(any, v);
        const typename T::VI code = T::and_i(T::sra_i16(v, cnt), vmask);
        // Chunk values are 0..127, so the narrowing is exact.
        T::store_i8(d + k, lanes, code);
        vmax = T::max_i16(vmax, code);
        T::add_i16_to_i32(st + k, lanes, code);
      }
      row_max[t * rows + r] = static_cast<std::int8_t>(T::hmax_i16(vmax));
    }
    std::fill(ct + rows_used * n, ct + rows * n, std::int8_t{0});
    std::fill(row_max + t * rows + rows_used, row_max + (t + 1) * rows,
              std::int8_t{0});
  }
  return T::any_negative_i16(any);
}

/// The tier's kernel table: one instantiation of every body above.
template <class T>
constexpr Kernels make_kernels() {
  return {.dot = dot<T>,
          .gemm = gemm<T>,
          .gemm_at = gemm_at<T>,
          .gemm_bt = gemm_bt<T>,
          .gemm_madd = gemm_madd<T>,
          .mlp_tanh = mlp_tanh<T>,
          .gemm_f64acc = gemm_f64acc<T>,
          .adc_shift_add = adc_shift_add<T>,
          .geniex_inputs = geniex_inputs<T>,
          .geniex_features = geniex_features<T>,
          .geniex_epilogue = geniex_epilogue<T>,
          .tanh_fast_block = tanh_fast_block<T>,
          .gemv_madd = gemv_madd<T>,
          .tanh_backprop = tanh_backprop<T>,
          .adam_step = adam_step<T>,
          .quantize_to_i16 = quantize_to_i16<T>,
          .gemm_at_i8_i32acc = gemm_at_i8_i32acc<T>,
          .adc_shift_add_i32 = adc_shift_add_i32<T>,
          .dac_streams_i16 = dac_streams_i16<T>};
}

}  // namespace
}  // namespace nvm::simd::detail
