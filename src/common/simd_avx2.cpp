// AVX2/FMA kernel tier: the traits below plus one instantiation of the
// kernel bodies in simd_vector.h. This is the only translation unit built
// with -mavx2 -mfma (per-file flags from src/common/CMakeLists.txt, applied
// only when NVM_ENABLE_AVX2 is on — otherwise the table pointer is null
// and the dispatcher never routes here).
//
// Tail policy: float and int32 tails are maskload/maskstore vectors
// (gather tails masked gathers; AVX2 has no scatter, so scatters store
// their live lanes one by one); int16 loads and int8 stores have no
// masked form in AVX2, so a ragged int16 vector is staged through a
// zero-padded buffer.
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/simd_vector.h"

namespace nvm::simd::detail {
namespace {

struct Avx2 {
  using V = __m256;
  using VI = __m256i;
  using D = __m256d;
  using Tail = __m256i;
  using Mask = __m256;
  static constexpr int kLanes = 8;
  static constexpr int kDLanes = 4;
  static constexpr int kMlpVectors = 2;

  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, V x) { _mm256_storeu_ps(p, x); }
  static Tail all() { return _mm256_set1_epi32(-1); }
  static Tail tail(std::int64_t left) {
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(left, 8))),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load(const float* p, Tail m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, Tail m, V x) { _mm256_maskstore_ps(p, m, x); }

  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_ps(a); }
  /// floor(t) + (frac >= 0.5): frac = t - floor(t) is exact (Sterbenz), so
  /// this matches std::round on the whole non-negative domain, ties too.
  static V round_nonneg(V t) {
    const V fl = _mm256_floor_ps(t);
    const V ge = _mm256_cmp_ps(_mm256_sub_ps(t, fl), set1(0.5f), _CMP_GE_OQ);
    return _mm256_add_ps(fl, _mm256_and_ps(ge, set1(1.0f)));
  }

  static Mask none() { return _mm256_setzero_ps(); }
  static Mask lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static Mask gt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  /// !(|x| < inf), as !std::isfinite.
  static Mask nonfinite(V x) {
    const V abs =
        _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
    return _mm256_cmp_ps(abs, set1(HUGE_VALF), _CMP_NLT_UQ);
  }
  static Mask mor(Mask a, Mask b) { return _mm256_or_ps(a, b); }
  static V select(Mask m, V yes, V no) { return _mm256_blendv_ps(no, yes, m); }
  static unsigned bits(Mask m) {
    return static_cast<unsigned>(_mm256_movemask_ps(m));
  }
  static Mask from_bits(unsigned bits) {
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i set = _mm256_and_si256(
        _mm256_set1_epi32(static_cast<int>(bits)), lane);
    return _mm256_castsi256_ps(_mm256_cmpeq_epi32(set, lane));
  }

  static VI load_i32(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_i32(std::int32_t* p, VI x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
  }
  static VI set1_i32(std::int32_t x) { return _mm256_set1_epi32(x); }
  static VI add_i32(VI a, VI b) { return _mm256_add_epi32(a, b); }
  static VI mul_i32(VI a, VI b) { return _mm256_mullo_epi32(a, b); }
  static V cvt_f(VI x) { return _mm256_cvtepi32_ps(x); }
  static VI cvt_i(V x) { return _mm256_cvtps_epi32(x); }
  static VI load_i8(const std::int8_t* p) {
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_i16(std::int16_t* out, VI x) {
    alignas(32) std::int32_t tmp[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), x);
    for (int l = 0; l < 8; ++l) out[l] = static_cast<std::int16_t>(tmp[l]);
  }
  static VI row_offsets(int ld) {
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(ld));
  }
  static V gather(const float* base, VI offsets, Tail m) {
    return _mm256_mask_i32gather_ps(zero(), base, offsets,
                                    _mm256_castsi256_ps(m), 4);
  }
  static Tail in_range_i32(VI x, std::int32_t hi) {
    return _mm256_and_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(hi), x),
                            _mm256_cmpgt_epi32(x, _mm256_set1_epi32(-1)));
  }
  static Tail eq_i32(VI a, VI b) { return _mm256_cmpeq_epi32(a, b); }
  static Tail tand(Tail a, Tail b) { return _mm256_and_si256(a, b); }
  /// No scatter instruction in AVX2: the live lanes are stored one by one.
  static void scatter(float* base, VI offsets, Tail m, V x) {
    alignas(32) float v[8];
    alignas(32) std::int32_t off[8];
    _mm256_store_ps(v, x);
    _mm256_store_si256(reinterpret_cast<__m256i*>(off), offsets);
    const int live = _mm256_movemask_ps(_mm256_castsi256_ps(m));
    for (int l = 0; l < 8; ++l)
      if ((live >> l) & 1) base[off[l]] = v[l];
  }

  static D zero_d() { return _mm256_setzero_pd(); }
  static D set1_d(double x) { return _mm256_set1_pd(x); }
  static D load_d(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static D fmadd_d(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static void store_d(float* p, D x) { _mm_storeu_ps(p, _mm256_cvtpd_ps(x)); }

  static VI zero_i() { return _mm256_setzero_si256(); }
  static VI set1_i16(short x) { return _mm256_set1_epi16(x); }
  static VI or_i(VI a, VI b) { return _mm256_or_si256(a, b); }
  static VI and_i(VI a, VI b) { return _mm256_and_si256(a, b); }
  static VI max_i16(VI a, VI b) { return _mm256_max_epi16(a, b); }
  static __m128i shift_count(int bits) { return _mm_cvtsi32_si128(bits); }
  static VI sra_i16(VI x, __m128i count) { return _mm256_sra_epi16(x, count); }
  static VI load_i16(const std::int16_t* p, std::int64_t lanes) {
    if (lanes == 16)
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    alignas(32) std::int16_t buf[16] = {};
    std::copy(p, p + lanes, buf);
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  }
  static void store_i8(std::int8_t* p, std::int64_t lanes, VI x) {
    // Saturating pack: exact for the 0..127 chunk values.
    const __m128i packed = _mm_packs_epi16(_mm256_castsi256_si128(x),
                                           _mm256_extracti128_si256(x, 1));
    if (lanes == 16) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p), packed);
      return;
    }
    alignas(16) std::int8_t buf[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), packed);
    std::copy(buf, buf + lanes, p);
  }
  static void add_i16_to_i32(std::int32_t* p, std::int64_t lanes, VI x) {
    const VI lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(x));
    const VI hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(x, 1));
    const Tail m_lo = tail(lanes), m_hi = tail(lanes - 8);
    _mm256_maskstore_epi32(
        p, m_lo, _mm256_add_epi32(_mm256_maskload_epi32(p, m_lo), lo));
    _mm256_maskstore_epi32(
        p + 8, m_hi, _mm256_add_epi32(_mm256_maskload_epi32(p + 8, m_hi), hi));
  }
  static int hmax_i16(VI x) {
    alignas(32) std::int16_t lanes[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), x);
    return *std::max_element(lanes, lanes + 16);
  }
  /// Odd bytes hold each int16 lane's sign bit.
  static bool any_negative_i16(VI x) {
    return (_mm256_movemask_epi8(x) & 0xAAAAAAAA) != 0;
  }
};

constexpr Kernels kTable = make_kernels<Avx2>();

}  // namespace

const Kernels* const kAvx2Kernels = &kTable;

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX2_TU

namespace nvm::simd::detail {
const Kernels* const kAvx2Kernels = nullptr;
}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX2_TU
