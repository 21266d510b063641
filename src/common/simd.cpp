#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace nvm::simd {

// ISA resolution ----------------------------------------------------------
//
// A tier is usable only when (a) its TU was compiled with real kernels,
// (b) cpuid reports the instructions, and (c) the OS has enabled the
// register state via XSAVE — read from XCR0 with xgetbv. (b) without (c)
// happens under hypervisors/kernels that mask extended state: executing a
// VEX/EVEX instruction there faults with SIGILL, so cpuid bits alone are
// not a safe gate.

namespace {

#if defined(__x86_64__) || defined(__i386__)
std::uint64_t read_xcr0() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return 0;
  if ((ecx & (1u << 27)) == 0) return 0;  // no OSXSAVE: xgetbv would fault
  unsigned int lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

bool avx2_cpu_flags() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool avx512_cpu_flags() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

// XCR0: SSE|AVX (bits 1,2) for YMM; plus opmask|ZMM_Hi256|Hi16_ZMM
// (bits 5,6,7) for AVX-512.
bool avx_os_state() { return (read_xcr0() & 0x6) == 0x6; }
bool avx512_os_state() { return (read_xcr0() & 0xe6) == 0xe6; }
#endif

}  // namespace

bool avx2_compiled() { return detail::kAvx2Kernels != nullptr; }
bool avx512_compiled() { return detail::kAvx512Kernels != nullptr; }

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return avx2_cpu_flags() && avx_os_state();
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return avx512_cpu_flags() && avx512_os_state();
#else
  return false;
#endif
}

bool isa_usable(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
      return avx2_compiled() && avx2_supported();
    case Isa::Avx512:
      return avx512_compiled() && avx512_supported();
  }
  return false;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
    case Isa::Scalar:
      break;
  }
  return "scalar";
}

namespace {

std::atomic<int> g_isa{-1};  // -1 = unresolved

/// Widest tier that is compiled in AND safe to execute here.
Isa best_usable_isa() {
  if (isa_usable(Isa::Avx512)) return Isa::Avx512;
  if (isa_usable(Isa::Avx2)) return Isa::Avx2;
  return Isa::Scalar;
}

/// One-line reason a tier cannot be selected, for the fallback warning.
const char* unusable_reason(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      if (!avx2_compiled()) return "AVX2 kernels are not compiled in";
#if defined(__x86_64__) || defined(__i386__)
      if (avx2_cpu_flags() && !avx_os_state())
        return "CPU reports AVX2 but the OS has not enabled YMM state "
               "(XCR0)";
#endif
      return "this CPU lacks AVX2/FMA";
    case Isa::Avx512:
      if (!avx512_compiled()) return "AVX-512 kernels are not compiled in";
#if defined(__x86_64__) || defined(__i386__)
      if (avx512_cpu_flags() && !avx512_os_state())
        return "CPU reports AVX-512 but the OS has not enabled ZMM/opmask "
               "state (XCR0)";
#endif
      return "this CPU lacks AVX-512 F/BW/DQ/VL";
    case Isa::Scalar:
      break;
  }
  return "";
}

int resolve_isa() {
  const std::string req = env_str("NVM_SIMD", "");
  if (req == "scalar") return static_cast<int>(Isa::Scalar);
  const Isa best = best_usable_isa();
  if (!req.empty()) {
    Isa want = Isa::Scalar;
    bool known = true;
    if (req == "avx2") {
      want = Isa::Avx2;
    } else if (req == "avx512") {
      want = Isa::Avx512;
    } else {
      known = false;
      NVM_LOG(Warn) << "unknown NVM_SIMD='" << req
                    << "' (want scalar|avx2|avx512); auto-detecting";
    }
    if (known) {
      if (isa_usable(want)) return static_cast<int>(want);
      NVM_LOG(Warn) << "NVM_SIMD=" << req << " requested but "
                    << unusable_reason(want) << "; falling back to "
                    << isa_name(best);
    }
  }
#if defined(__x86_64__) || defined(__i386__)
  // cpuid advertises instructions the OS never enabled: warn once so a
  // silently-degraded tier is visible in logs.
  if (best != Isa::Avx512 && avx512_compiled() && avx512_cpu_flags() &&
      !avx512_os_state())
    NVM_LOG(Warn) << unusable_reason(Isa::Avx512) << "; using "
                  << isa_name(best);
  if (best == Isa::Scalar && avx2_compiled() && avx2_cpu_flags() &&
      !avx_os_state())
    NVM_LOG(Warn) << unusable_reason(Isa::Avx2) << "; using scalar";
#endif
  return static_cast<int>(best);
}

void publish_isa(int isa) {
  metrics::gauge("simd/isa").set(static_cast<double>(isa));
}

}  // namespace

Isa active_isa() {
  int v = g_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    // resolve_isa() is pure, so a lost race just recomputes the same value.
    const int resolved = resolve_isa();
    int expected = -1;
    g_isa.compare_exchange_strong(expected, resolved,
                                  std::memory_order_relaxed);
    v = g_isa.load(std::memory_order_relaxed);
    publish_isa(v);
  }
  return static_cast<Isa>(v);
}

ScopedIsaForTests::ScopedIsaForTests(Isa isa) {
  NVM_CHECK(isa_usable(isa), "cannot force " << isa_name(isa) << ": "
                                             << unusable_reason(isa));
  prev_ = g_isa.exchange(static_cast<int>(isa), std::memory_order_relaxed);
  publish_isa(static_cast<int>(isa));
}

ScopedIsaForTests::~ScopedIsaForTests() {
  g_isa.store(prev_, std::memory_order_relaxed);
  if (prev_ >= 0) publish_isa(prev_);
}

// Scalar kernels ----------------------------------------------------------
// These define the reference semantics; the vector bodies mirror them.
// Plain mul+add throughout (the build uses -ffp-contract=off, so the
// compiler cannot fuse these into FMAs behind our back).

namespace {

float dot_scalar(const float* a, const float* b, std::int64_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::int64_t i = 0; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

void gemm_scalar(float* c, const float* a, const float* b, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;  // bit-sliced operands are mostly zero
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_at_scalar(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * lda;
    const float* brow = b + kk * ldb;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void gemm_bt_scalar(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_scalar(arow, b + j * ldb, k);
  }
}

void gemm_madd_scalar(float* c, const float* a, const float* b,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) {
        const float t = aik * brow[j];
        crow[j] = crow[j] + t;
      }
    }
  }
}

void mlp_tanh_scalar(float* out, const float* x, std::int64_t n,
                     std::int64_t in_dim, std::int64_t hidden, const float* w1,
                     const float* b1, const float* w2, float b2) {
  // Zero weights are skipped exactly where gemm_scalar skips them.
  for (std::int64_t s = 0; s < n; ++s) {
    float o = b2;
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float wo = w2[h];
      if (wo == 0.0f) continue;
      float acc = b1[h];
      const float* wrow = w1 + h * in_dim;
      for (std::int64_t i = 0; i < in_dim; ++i) {
        const float w = wrow[i];
        if (w == 0.0f) continue;
        acc += w * x[i * n + s];
      }
      o += wo * tanh_fast(acc);
    }
    out[s] = o;
  }
}

void tanh_fast_block_scalar(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = tanh_fast(x[i]);
}

void gemv_madd_scalar(float* y, const float* a, const float* x,
                      std::int64_t m, std::int64_t k, std::int64_t lda) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float acc = y[i];
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float t = arow[kk] * x[kk];
      acc = acc + t;
    }
    y[i] = acc;
  }
}

void tanh_backprop_scalar(float* a, const float* err, const float* w2,
                          std::int64_t m, std::int64_t h) {
  for (std::int64_t s = 0; s < m; ++s) {
    float* row = a + s * h;
    for (std::int64_t j = 0; j < h; ++j) {
      const float x = row[j];
      row[j] = err[s] * w2[j] * (1.0f - x * x);
    }
  }
}

void adam_step_scalar(float* p, float* m, float* v, const float* g,
                      std::int64_t n, const AdamStep& c) {
  for (std::int64_t j = 0; j < n; ++j) {
    const float gj = g[j] / c.count;
    m[j] = c.beta1 * m[j] + (1.0f - c.beta1) * gj;
    v[j] = c.beta2 * v[j] + (1.0f - c.beta2) * gj * gj;
    const float mhat = m[j] / c.bc1;
    const float vhat = v[j] / c.bc2;
    p[j] = p[j] - c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

void im2col_scalar(float* cols, const float* img, const ConvShape& g) {
  const std::int64_t oh = g.out_h(), ow = g.out_w(), n_cols = oh * ow;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* dst = cols + row * n_cols;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.h) {
            for (std::int64_t ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = 0.0f;
            continue;
          }
          const float* src = img + (c * g.h + iy) * g.w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * g.stride + kx - g.pad;
            dst[oy * ow + ox] = (ix >= 0 && ix < g.w) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_scalar(float* img, const float* cols, const ConvShape& g) {
  const std::int64_t oh = g.out_h(), ow = g.out_w(), n_cols = oh * ow;
  std::fill(img, img + g.channels * g.h * g.w, 0.0f);
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* src = cols + row * n_cols;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.h) continue;
          float* dst = img + (c * g.h + iy) * g.w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * g.stride + kx - g.pad;
            if (ix >= 0 && ix < g.w) dst[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

void relu_scalar(float* y, std::uint8_t* mask, const float* x,
                 std::int64_t n) {
  std::fill(mask, mask + (n + 7) / 8, std::uint8_t{0});
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = x[i] > 0.0f;
    y[i] = pos ? x[i] : 0.0f;
    mask[i / 8] = static_cast<std::uint8_t>(mask[i / 8] | (pos << (i % 8)));
  }
}

void relu_backprop_scalar(float* dx, const float* grad,
                          const std::uint8_t* mask, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    dx[i] = grad[i] * (((mask[i / 8] >> (i % 8)) & 1) != 0 ? 1.0f : 0.0f);
}

void gemm_f64acc_scalar(float* out, const float* a, const float* v,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // Column blocks of 8 keep the V accesses contiguous per k-step; each
  // output element still accumulates sequentially over k in double, so the
  // result is independent of the blocking.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n; j0 += 8) {
      const std::int64_t jn = std::min<std::int64_t>(8, n - j0);
      double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = static_cast<double>(arow[kk]);
        const float* vrow = v + kk * ldv + j0;
        for (std::int64_t j = 0; j < jn; ++j)
          acc[j] += av * static_cast<double>(vrow[j]);
      }
      float* orow = out + i * ldo + j0;
      for (std::int64_t j = 0; j < jn; ++j)
        orow[j] = static_cast<float>(acc[j]);
    }
  }
}

void adc_shift_add_scalar(float* acc, const float* cur, const float* baseline,
                          std::int64_t rows, std::int64_t n, float full_scale,
                          float steps, float shift) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* arow = acc + r * n;
    const float* crow = cur + r * n;
    for (std::int64_t i = 0; i < n; ++i)
      arow[i] += shift * (detail::adc_quantize_scalar(crow[i], full_scale,
                                                      steps) -
                          baseline[i]);
  }
}

void geniex_inputs_scalar(float* vv, float* vr, float* sums, const float* v,
                          const float* growsum, std::int64_t rows,
                          std::int64_t n, float nv, float nv2, float nr) {
  float* sv = sums;
  float* sv2 = sums + n;
  float* sr = sums + 2 * n;
  std::fill(sums, sums + 3 * n, 0.0f);
  for (std::int64_t i = 0; i < rows; ++i) {
    const float gr = growsum[i];
    const float* src = v + i * n;
    float* dv = vv + i * n;
    float* dr = vr + i * n;
    for (std::int64_t k = 0; k < n; ++k) {
      const float x = src[k];
      dv[k] = x * x;
      dr[k] = x * gr;
      sv[k] += x;
      sv2[k] += dv[k];
      sr[k] += dr[k];
    }
  }
  for (std::int64_t k = 0; k < n; ++k) {
    sv[k] *= nv;
    sv2[k] *= nv2;
    sr[k] *= nr;
  }
}

void geniex_features_scalar(float* ft, const float* iid, const float* sums,
                            const float* colf, std::int64_t cols,
                            std::int64_t n, float i_scale, float d_e,
                            float d_p, float d_w, float garr) {
  const std::int64_t ns = cols * n;
  for (std::int64_t j = 0; j < cols; ++j) {
    float* F = ft + j * n;
    const float* ji = iid + j * n;
    for (std::int64_t k = 0; k < n; ++k) {
      F[0 * ns + k] = ji[k] / i_scale;
      F[4 * ns + k] = F[4 * ns + k] / d_e;
      F[5 * ns + k] = F[5 * ns + k] / d_p;
      F[9 * ns + k] = F[9 * ns + k] / d_w;
      F[1 * ns + k] = colf[2 * j];
      F[7 * ns + k] = colf[2 * j + 1];
      F[8 * ns + k] = garr;
      F[2 * ns + k] = sums[k];
      F[3 * ns + k] = sums[n + k];
      F[6 * ns + k] = sums[2 * n + k];
    }
  }
}

std::int64_t geniex_epilogue_scalar(float* out, std::int8_t* flags,
                                    const float* iid, const float* rel,
                                    std::int64_t cols, std::int64_t n,
                                    float floor, float full_scale, bool guard,
                                    float rel_min, float rel_max) {
  std::fill(flags, flags + n, std::int8_t{0});
  std::int64_t nonfinite = 0;
  for (std::int64_t j = 0; j < cols; ++j) {
    for (std::int64_t k = 0; k < n; ++k) {
      const float x = iid[j * n + k];
      const float r = rel[j * n + k];
      if (guard && (!std::isfinite(r) || r < rel_min || r > rel_max))
        flags[k] = 1;
      const float denom = std::max(x, floor);
      const float o = std::clamp(x - r * denom, 0.0f, full_scale);
      out[j * n + k] = o;
      if (!std::isfinite(o)) ++nonfinite;
    }
  }
  return nonfinite;
}

void quantize_to_i16_scalar(std::int16_t* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_scalar(std::int32_t* c, const std::int8_t* a,
                              const std::int8_t* b, std::int64_t m,
                              std::int64_t n, std::int64_t k, std::int64_t lda,
                              std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* arow = a + kk * lda;
    const std::int8_t* brow = b + kk * ldb;
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int32_t aki = arow[i];
      if (aki == 0) continue;  // bit-sliced operands are mostly zero
      std::int32_t* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void adc_shift_add_i32_scalar(float* acc, const std::int32_t* dot,
                              const float* baseline, std::int64_t n,
                              float dot_unit, float full_scale, float steps,
                              float shift) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    acc[i] += shift *
              (detail::adc_quantize_scalar(cur, full_scale, steps) -
               baseline[i]);
  }
}

bool dac_streams_i16_scalar(std::int8_t* chunk, std::int8_t* row_max,
                            std::int32_t* colsum, const std::int16_t* src,
                            std::int64_t rows_used, std::int64_t rows,
                            std::int64_t n, std::int64_t streams,
                            std::int64_t stream_bits) {
  const int mask = (1 << stream_bits) - 1;
  bool negative = false;
  for (std::int64_t t = 0; t < streams; ++t) {
    const int shift = static_cast<int>(t * stream_bits);
    std::int8_t* ct = chunk + t * rows * n;
    std::int8_t* mt = row_max + t * rows;
    std::int32_t* st = colsum + t * n;
    std::fill(st, st + n, 0);
    for (std::int64_t r = 0; r < rows_used; ++r) {
      const std::int16_t* s = src + r * n;
      std::int8_t* d = ct + r * n;
      int m = 0;
      for (std::int64_t k = 0; k < n; ++k) {
        negative = negative || s[k] < 0;
        const int c = (s[k] >> shift) & mask;
        d[k] = static_cast<std::int8_t>(c);
        st[k] += c;
        m = std::max(m, c);
      }
      mt[r] = static_cast<std::int8_t>(m);
    }
    std::fill(ct + rows_used * n, ct + rows * n, std::int8_t{0});
    std::fill(mt + rows_used, mt + rows, std::int8_t{0});
  }
  return negative;
}

constexpr detail::Kernels kScalar = {
    .dot = dot_scalar,
    .gemm = gemm_scalar,
    .gemm_at = gemm_at_scalar,
    .gemm_bt = gemm_bt_scalar,
    .gemm_madd = gemm_madd_scalar,
    .mlp_tanh = mlp_tanh_scalar,
    .gemm_f64acc = gemm_f64acc_scalar,
    .adc_shift_add = adc_shift_add_scalar,
    .geniex_inputs = geniex_inputs_scalar,
    .geniex_features = geniex_features_scalar,
    .geniex_epilogue = geniex_epilogue_scalar,
    .tanh_fast_block = tanh_fast_block_scalar,
    .gemv_madd = gemv_madd_scalar,
    .tanh_backprop = tanh_backprop_scalar,
    .adam_step = adam_step_scalar,
    .im2col = im2col_scalar,
    .col2im = col2im_scalar,
    .relu = relu_scalar,
    .relu_backprop = relu_backprop_scalar,
    .quantize_to_i16 = quantize_to_i16_scalar,
    .gemm_at_i8_i32acc = gemm_at_i8_i32acc_scalar,
    .adc_shift_add_i32 = adc_shift_add_i32_scalar,
    .dac_streams_i16 = dac_streams_i16_scalar};

}  // namespace

float tanh_fast(float x) {
  if (x > 4.97f) return 1.0f;
  if (x < -4.97f) return -1.0f;
  const float x2 = x * x;
  const float p = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float q = 135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f));
  return p / q;
}

// Public dispatch ---------------------------------------------------------

namespace {

/// One call + flop tally; call-site counters are cached by the wrappers.
inline void tally(metrics::Counter& calls, std::uint64_t flops) {
  static metrics::Counter& f = metrics::counter("simd/flops");
  calls.add();
  f.add(flops);
}

inline std::uint64_t u64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

/// The active tier's kernel table.
const detail::Kernels& tier() {
  switch (active_isa()) {
    case Isa::Avx512:
      return *detail::kAvx512Kernels;
    case Isa::Avx2:
      return *detail::kAvx2Kernels;
    case Isa::Scalar:
      break;
  }
  return kScalar;
}

}  // namespace

float dot(const float* a, const float* b, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/dot");
  tally(c, 2 * u64(n));
  return tier().dot(a, b, n);
}

void gemm_accum(float* c, const float* a, const float* b, std::int64_t m,
                std::int64_t n, std::int64_t k, std::int64_t lda,
                std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm(c, a, b, m, n, k, lda, ldb, ldc);
}

void gemm_at_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_at");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm_at(c, a, b, m, n, k, lda, ldb, ldc);
}

void gemm_bt_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_bt");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm_bt(c, a, b, m, n, k, lda, ldb, ldc);
}

void gemm_madd(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t n, std::int64_t k, std::int64_t lda,
               std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_madd");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm_madd(c, a, b, m, n, k, lda, ldb, ldc);
}

void mlp_tanh(float* out, const float* x, std::int64_t n, std::int64_t in_dim,
              std::int64_t hidden, const float* w1, const float* b1,
              const float* w2, float b2) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/mlp_tanh");
  // Per sample and hidden unit: 2*in_dim for the hidden FMA chain, ~12
  // for the rational tanh, 2 for the output FMA.
  tally(calls, u64(n) * u64(hidden) * (2 * u64(in_dim) + 14));
  tier().mlp_tanh(out, x, n, in_dim, hidden, w1, b1, w2, b2);
}

void gemm_f64acc(float* out, const float* a, const float* v, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldv, std::int64_t ldo) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_f64acc");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm_f64acc(out, a, v, m, n, k, lda, ldv, ldo);
}

void adc_shift_add(float* acc, const float* cur, const float* baseline,
                   std::int64_t rows, std::int64_t n, float full_scale,
                   float steps, float shift) {
  static metrics::Counter& c = metrics::counter("simd/kernel/adc_shift_add");
  tally(c, 8 * u64(rows) * u64(n));
  tier().adc_shift_add(acc, cur, baseline, rows, n, full_scale, steps,
                       shift);
}

void geniex_inputs(float* vv, float* vr, float* sums, const float* v,
                   const float* growsum, std::int64_t rows, std::int64_t n,
                   float nv, float nv2, float nr) {
  static metrics::Counter& c = metrics::counter("simd/kernel/geniex_inputs");
  // Per element: two products and three sum adds; 3 scalings per vector.
  tally(c, 5 * u64(rows) * u64(n) + 3 * u64(n));
  tier().geniex_inputs(vv, vr, sums, v, growsum, rows, n, nv, nv2, nr);
}

void geniex_features(float* ft, const float* iid, const float* sums,
                     const float* colf, std::int64_t cols, std::int64_t n,
                     float i_scale, float d_e, float d_p, float d_w,
                     float garr) {
  static metrics::Counter& c =
      metrics::counter("simd/kernel/geniex_features");
  tally(c, 4 * u64(cols) * u64(n));  // the four divided feature rows
  tier().geniex_features(ft, iid, sums, colf, cols, n, i_scale, d_e, d_p,
                         d_w, garr);
}

std::int64_t geniex_epilogue(float* out, std::int8_t* flags,
                             const float* iid, const float* rel,
                             std::int64_t cols, std::int64_t n, float floor,
                             float full_scale, bool guard, float rel_min,
                             float rel_max) {
  static metrics::Counter& c =
      metrics::counter("simd/kernel/geniex_epilogue");
  tally(c, 5 * u64(cols) * u64(n));  // max, mul, sub, two clamp compares
  return tier().geniex_epilogue(out, flags, iid, rel, cols, n, floor,
                                full_scale, guard, rel_min, rel_max);
}

void tanh_fast_block(float* y, const float* x, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/tanh_fast_block");
  tally(c, 14 * u64(n));  // the rational tanh's multiplies, adds, divide
  tier().tanh_fast_block(y, x, n);
}

void gemv_madd(float* y, const float* a, const float* x, std::int64_t m,
               std::int64_t k, std::int64_t lda) {
  NVM_CHECK(lda >= 0 && lda < (std::int64_t{1} << 31) / 16,
            "gemv_madd lda=" << lda);
  static metrics::Counter& c = metrics::counter("simd/kernel/gemv_madd");
  tally(c, 2 * u64(m) * u64(k));
  tier().gemv_madd(y, a, x, m, k, lda);
}

void tanh_backprop(float* a, const float* err, const float* w2,
                   std::int64_t m, std::int64_t h) {
  static metrics::Counter& c = metrics::counter("simd/kernel/tanh_backprop");
  tally(c, 4 * u64(m) * u64(h));
  tier().tanh_backprop(a, err, w2, m, h);
}

void adam_step(float* p, float* m, float* v, const float* g, std::int64_t n,
               const AdamStep& c) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/adam_step");
  tally(calls, 14 * u64(n));
  tier().adam_step(p, m, v, g, n, c);
}

namespace {

/// The conv-glue kernels' geometry contract: a non-empty output and an
/// image small enough for the vector tiers' 32-bit lane offsets.
void check_conv_shape(const ConvShape& g) {
  NVM_CHECK(g.channels > 0 && g.h > 0 && g.w > 0 && g.kernel > 0 &&
                g.stride > 0 && g.pad >= 0 && g.out_h() > 0 &&
                g.out_w() > 0 &&
                g.channels * g.h * g.w < (std::int64_t{1} << 31) &&
                g.channels * g.kernel * g.kernel * g.out_h() * g.out_w() <
                    (std::int64_t{1} << 31),
            "conv shape c=" << g.channels << " h=" << g.h << " w=" << g.w
                            << " k=" << g.kernel << " s=" << g.stride
                            << " p=" << g.pad);
}

}  // namespace

void im2col(float* cols, const float* img, const ConvShape& g) {
  check_conv_shape(g);
  static metrics::Counter& c = metrics::counter("simd/kernel/im2col");
  c.add();  // a copy: no flops tallied
  tier().im2col(cols, img, g);
}

void col2im(float* img, const float* cols, const ConvShape& g) {
  check_conv_shape(g);
  static metrics::Counter& c = metrics::counter("simd/kernel/col2im");
  // One add per im2col element (padding included).
  tally(c, u64(g.channels * g.kernel * g.kernel) * u64(g.out_h() * g.out_w()));
  tier().col2im(img, cols, g);
}

void relu(float* y, std::uint8_t* mask, const float* x, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/relu");
  tally(c, u64(n));  // one compare per element
  tier().relu(y, mask, x, n);
}

void relu_backprop(float* dx, const float* grad, const std::uint8_t* mask,
                   std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/relu_backprop");
  tally(c, u64(n));
  tier().relu_backprop(dx, grad, mask, n);
}

void quantize_to_i16(std::int16_t* out, const float* x, std::int64_t n,
                     float scale, float qmax) {
  NVM_CHECK(qmax > 0.0f && qmax <= 32767.0f, "i16 qmax=" << qmax);
  static metrics::Counter& c = metrics::counter("simd/kernel/quantize_i16");
  tally(c, 4 * u64(n));
  tier().quantize_to_i16(out, x, n, scale, qmax);
}

void gemm_at_i8_i32acc(std::int32_t* c, const std::int8_t* a,
                       const std::int8_t* b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc) {
  static metrics::Counter& calls =
      metrics::counter("simd/kernel/gemm_i32acc");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  tier().gemm_at_i8_i32acc(c, a, b, m, n, k, lda, ldb, ldc);
}

void adc_shift_add_i32(float* acc, const std::int32_t* dot,
                       const float* baseline, std::int64_t n, float dot_unit,
                       float full_scale, float steps, float shift) {
  static metrics::Counter& c =
      metrics::counter("simd/kernel/adc_shift_add_i32");
  tally(c, 10 * u64(n));
  tier().adc_shift_add_i32(acc, dot, baseline, n, dot_unit, full_scale,
                           steps, shift);
}

bool dac_streams_i16(std::int8_t* chunk, std::int8_t* row_max,
                     std::int32_t* colsum, const std::int16_t* src,
                     std::int64_t rows_used, std::int64_t rows, std::int64_t n,
                     std::int64_t streams, std::int64_t stream_bits) {
  NVM_CHECK(stream_bits >= 1 && stream_bits <= 7 && streams >= 1 &&
                (streams - 1) * stream_bits < 16 && rows_used >= 0 &&
                rows_used <= rows && n >= 0,
            "dac_streams_i16: streams=" << streams << " stream_bits="
                                        << stream_bits << " rows_used="
                                        << rows_used << " rows=" << rows);
  static metrics::Counter& c = metrics::counter("simd/kernel/dac_streams_i16");
  c.add();  // integer bit ops only: no flops tallied
  return tier().dac_streams_i16(chunk, row_max, colsum, src, rows_used, rows, n,
                                streams, stream_bits);
}

// Workspace ---------------------------------------------------------------

namespace {

template <typename T>
std::span<T> acquire(std::vector<T>& buf, std::size_t n) {
  static metrics::Counter& reuses = metrics::counter("simd/workspace/reuses");
  if (buf.size() >= n)
    reuses.add();
  else
    buf.resize(n);
  return {buf.data(), n};
}

}  // namespace

std::span<float> Workspace::floats(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(f_[slot], n);
}

std::span<double> Workspace::doubles(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(d_[slot], n);
}

std::span<std::int8_t> Workspace::i8s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i8_[slot], n);
}

std::span<std::int16_t> Workspace::i16s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i16_[slot], n);
}

std::span<std::int32_t> Workspace::i32s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i32_[slot], n);
}

WorkspacePool::Lease::~Lease() {
  if (pool_ != nullptr && ws_ != nullptr) pool_->release(std::move(ws_));
}

WorkspacePool::Lease WorkspacePool::acquire() {
  static metrics::Counter& leases =
      metrics::counter("simd/workspace/pool_leases");
  static metrics::Counter& grows =
      metrics::counter("simd/workspace/pool_grows");
  leases.add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(free_.back());
      free_.pop_back();
      return {this, std::move(ws)};
    }
  }
  grows.add();
  return {this, std::make_unique<Workspace>()};
}

void WorkspacePool::release(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

WorkspacePool& shared_workspace_pool() {
  static WorkspacePool* pool = new WorkspacePool();  // never destructed
  return *pool;
}

}  // namespace nvm::simd
