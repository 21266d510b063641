// AVX-512 kernel tier: the traits below plus one instantiation of the
// kernel bodies in simd_vector.h. This is the only translation unit built
// with -mavx512f -mavx512bw -mavx512dq -mavx512vl (per-file flags from
// src/common/CMakeLists.txt, applied only when NVM_ENABLE_AVX512 is on —
// otherwise the table pointer is null and the dispatcher never routes
// here).
//
// Tail policy: every ragged vector — float, int32, int16 and int8 — is a
// masked load/store (gathers and scatters masked).
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX512_TU

// GCC 12 reports -Wmaybe-uninitialized inside the AVX-512 intrinsics'
// own bodies (their _mm512_undefined_* pass-through operands, GCC bug
// 105593) wherever they inline; silenced for this header only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cmath>

#include "common/simd_vector.h"

namespace nvm::simd::detail {
namespace {

struct Avx512 {
  using V = __m512;
  using VI = __m512i;
  using D = __m512d;
  using Tail = __mmask16;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kDLanes = 8;
  static constexpr int kMlpVectors = 4;

  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void storeu(float* p, V x) { _mm512_storeu_ps(p, x); }
  static Tail all() { return 0xFFFF; }
  static Tail tail(std::int64_t left) {
    return left >= 16 ? all() : static_cast<Tail>((1u << left) - 1);
  }
  static V load(const float* p, Tail m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, Tail m, V x) { _mm512_mask_storeu_ps(p, m, x); }

  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm512_min_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V sqrt(V a) { return _mm512_sqrt_ps(a); }
  /// floor(t) + (frac >= 0.5): frac = t - floor(t) is exact (Sterbenz), so
  /// this matches std::round on the whole non-negative domain, ties too.
  static V round_nonneg(V t) {
    const V fl =
        _mm512_roundscale_ps(t, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const Mask ge =
        _mm512_cmp_ps_mask(_mm512_sub_ps(t, fl), set1(0.5f), _CMP_GE_OQ);
    return _mm512_mask_add_ps(fl, ge, fl, set1(1.0f));
  }

  static Mask none() { return 0; }
  static Mask lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static Mask gt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  /// !(|x| < inf), as !std::isfinite.
  static Mask nonfinite(V x) {
    return _mm512_cmp_ps_mask(_mm512_abs_ps(x), set1(HUGE_VALF), _CMP_NLT_UQ);
  }
  static Mask mor(Mask a, Mask b) { return a | b; }
  static V select(Mask m, V yes, V no) {
    return _mm512_mask_blend_ps(m, no, yes);
  }
  static unsigned bits(Mask m) { return m; }
  static Mask from_bits(unsigned bits) { return static_cast<Mask>(bits); }

  static VI load_i32(const std::int32_t* p) { return _mm512_loadu_si512(p); }
  static void store_i32(std::int32_t* p, VI x) { _mm512_storeu_si512(p, x); }
  static VI set1_i32(std::int32_t x) { return _mm512_set1_epi32(x); }
  static VI add_i32(VI a, VI b) { return _mm512_add_epi32(a, b); }
  static VI mul_i32(VI a, VI b) { return _mm512_mullo_epi32(a, b); }
  static V cvt_f(VI x) { return _mm512_cvtepi32_ps(x); }
  static VI cvt_i(V x) { return _mm512_cvtps_epi32(x); }
  static VI load_i8(const std::int8_t* p) {
    return _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_i16(std::int16_t* out, VI x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm512_cvtepi32_epi16(x));
  }
  static VI row_offsets(int ld) {
    return _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(ld));
  }
  static V gather(const float* base, VI offsets, Tail m) {
    return _mm512_mask_i32gather_ps(zero(), m, offsets, base, 4);
  }
  /// Unsigned compare: a negative x reads as >= 2^31, out of range.
  static Tail in_range_i32(VI x, std::int32_t hi) {
    return _mm512_cmplt_epu32_mask(x, _mm512_set1_epi32(hi));
  }
  static Tail eq_i32(VI a, VI b) { return _mm512_cmpeq_epi32_mask(a, b); }
  static Tail tand(Tail a, Tail b) { return static_cast<Tail>(a & b); }
  static void scatter(float* base, VI offsets, Tail m, V x) {
    _mm512_mask_i32scatter_ps(base, m, offsets, x, 4);
  }

  static D zero_d() { return _mm512_setzero_pd(); }
  static D set1_d(double x) { return _mm512_set1_pd(x); }
  static D load_d(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  static D fmadd_d(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static void store_d(float* p, D x) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(x));
  }

  static VI zero_i() { return _mm512_setzero_si512(); }
  static VI set1_i16(short x) { return _mm512_set1_epi16(x); }
  static VI or_i(VI a, VI b) { return _mm512_or_si512(a, b); }
  static VI and_i(VI a, VI b) { return _mm512_and_si512(a, b); }
  static VI max_i16(VI a, VI b) { return _mm512_max_epi16(a, b); }
  static __m128i shift_count(int bits) { return _mm_cvtsi32_si128(bits); }
  static VI sra_i16(VI x, __m128i count) { return _mm512_sra_epi16(x, count); }
  static __mmask32 mask32(std::int64_t lanes) {
    return static_cast<__mmask32>((std::uint64_t{1} << lanes) - 1);
  }
  static VI load_i16(const std::int16_t* p, std::int64_t lanes) {
    return _mm512_maskz_loadu_epi16(mask32(lanes), p);
  }
  static void store_i8(std::int8_t* p, std::int64_t lanes, VI x) {
    _mm256_mask_storeu_epi8(p, mask32(lanes), _mm512_cvtepi16_epi8(x));
  }
  static void add_i16_to_i32(std::int32_t* p, std::int64_t lanes, VI x) {
    const __mmask32 m = mask32(lanes);
    const auto lo = static_cast<__mmask16>(m);
    const auto hi = static_cast<__mmask16>(m >> 16);
    _mm512_mask_storeu_epi32(
        p, lo,
        _mm512_add_epi32(_mm512_maskz_loadu_epi32(lo, p),
                         _mm512_cvtepi16_epi32(_mm512_castsi512_si256(x))));
    _mm512_mask_storeu_epi32(
        p + 16, hi,
        _mm512_add_epi32(
            _mm512_maskz_loadu_epi32(hi, p + 16),
            _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(x, 1))));
  }
  static int hmax_i16(VI x) {
    return _mm512_reduce_max_epi32(_mm512_max_epi32(
        _mm512_cvtepi16_epi32(_mm512_castsi512_si256(x)),
        _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(x, 1))));
  }
  static bool any_negative_i16(VI x) { return _mm512_movepi16_mask(x) != 0; }
};

constexpr Kernels kTable = make_kernels<Avx512>();

}  // namespace

const Kernels* const kAvx512Kernels = &kTable;

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX512_TU

namespace nvm::simd::detail {
const Kernels* const kAvx512Kernels = nullptr;
}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX512_TU
