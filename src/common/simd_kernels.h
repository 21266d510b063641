// Internal: per-ISA kernel variants behind nvm::simd's public dispatch.
//
// The _scalar variants live in simd.cpp (baseline compile flags); the
// _avx2 / _avx512 / _neon variants live in simd_avx2.cpp /
// simd_avx512.cpp / simd_neon.cpp — the only TUs built with arch flags,
// and only when the matching NVM_ENABLE_* option is on (otherwise those
// TUs provide throwing stubs that the dispatcher never reaches). Do not
// call these directly outside simd.cpp: the public wrappers own metrics
// and ISA selection.
#pragma once

#include <cstdint>

namespace nvm::simd {
struct AdamStep;
}

namespace nvm::simd::detail {

/// True when the corresponding TU was built with real vector kernels.
bool avx2_tu_compiled();
bool avx512_tu_compiled();
bool neon_tu_compiled();

// One full kernel family per ISA suffix; the suffixed declarations are
// stamped out below for scalar, avx2, avx512, and neon.
#define NVM_SIMD_DECLARE_KERNELS(SUF)                                        \
  float dot_##SUF(const float* a, const float* b, std::int64_t n);           \
  void gemm_##SUF(float* c, const float* a, const float* b, std::int64_t m,  \
                  std::int64_t n, std::int64_t k, std::int64_t lda,          \
                  std::int64_t ldb, std::int64_t ldc);                       \
  void gemm_at_##SUF(float* c, const float* a, const float* b,               \
                     std::int64_t m, std::int64_t n, std::int64_t k,         \
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc);  \
  void gemm_bt_##SUF(float* c, const float* a, const float* b,               \
                     std::int64_t m, std::int64_t n, std::int64_t k,         \
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc);  \
  void gemm_madd_##SUF(float* c, const float* a, const float* b,             \
                       std::int64_t m, std::int64_t n, std::int64_t k,       \
                       std::int64_t lda, std::int64_t ldb,                   \
                       std::int64_t ldc);                                    \
  void mlp_tanh_##SUF(float* out, const float* x, std::int64_t n,            \
                      std::int64_t in_dim, std::int64_t hidden,              \
                      const float* w1, const float* b1, const float* w2,     \
                      float b2);                                             \
  void gemm_f64acc_##SUF(float* out, const float* a, const float* v,         \
                         std::int64_t m, std::int64_t n, std::int64_t k,     \
                         std::int64_t lda, std::int64_t ldv,                 \
                         std::int64_t ldo);                                  \
  void adc_shift_add_##SUF(float* acc, const float* cur,                     \
                           const float* baseline, std::int64_t rows,         \
                           std::int64_t n, float full_scale, float steps,    \
                           float shift);                                     \
  void geniex_inputs_##SUF(float* vv, float* vr, float* sums, const float* v, \
                           const float* growsum, std::int64_t rows,          \
                           std::int64_t n, float nv, float nv2, float nr);   \
  void geniex_features_##SUF(float* ft, const float* iid, const float* sums, \
                             const float* colf, std::int64_t cols,           \
                             std::int64_t n, float i_scale, float d_e,       \
                             float d_p, float d_w, float garr);              \
  std::int64_t geniex_epilogue_##SUF(                                        \
      float* out, std::int8_t* flags, const float* iid, const float* rel,    \
      std::int64_t cols, std::int64_t n, float floor, float full_scale,      \
      bool guard, float rel_min, float rel_max);                             \
  void tanh_fast_block_##SUF(float* y, const float* x, std::int64_t n);      \
  void gemv_madd_##SUF(float* y, const float* a, const float* x,             \
                       std::int64_t m, std::int64_t k, std::int64_t lda);    \
  void tanh_backprop_##SUF(float* a, const float* err, const float* w2,      \
                           std::int64_t m, std::int64_t h);                  \
  void adam_step_##SUF(float* p, float* m, float* v, const float* g,         \
                       std::int64_t n, const AdamStep& c);                   \
  void quantize_to_i16_##SUF(std::int16_t* out, const float* x,              \
                             std::int64_t n, float scale, float qmax);       \
  void gemm_at_i8_i32acc_##SUF(std::int32_t* c, const std::int8_t* a,        \
                               const std::int8_t* b, std::int64_t m,         \
                               std::int64_t n, std::int64_t k,               \
                               std::int64_t lda, std::int64_t ldb,           \
                               std::int64_t ldc);                            \
  void adc_shift_add_i32_##SUF(float* acc, const std::int32_t* dot,          \
                               const float* baseline, std::int64_t n,        \
                               float dot_unit, float full_scale,             \
                               float steps, float shift);                    \
  bool dac_streams_i16_##SUF(std::int8_t* chunk, std::int8_t* row_max,       \
                             std::int32_t* colsum, const std::int16_t* src,  \
                             std::int64_t rows_used, std::int64_t rows,      \
                             std::int64_t n, std::int64_t streams,           \
                             std::int64_t stream_bits)

NVM_SIMD_DECLARE_KERNELS(scalar);
NVM_SIMD_DECLARE_KERNELS(avx2);
NVM_SIMD_DECLARE_KERNELS(avx512);
NVM_SIMD_DECLARE_KERNELS(neon);

#undef NVM_SIMD_DECLARE_KERNELS

}  // namespace nvm::simd::detail
