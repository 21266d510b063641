// Internal: the per-tier kernel tables behind nvm::simd's public dispatch.
//
// The scalar table lives in simd.cpp (baseline compile flags). The AVX2
// and AVX-512 tables are one instantiation each of the kernel bodies in
// simd_vector.h, in simd_avx2.cpp / simd_avx512.cpp — the only TUs built
// with arch flags, and only when the matching NVM_ENABLE_* option is on
// (otherwise their table pointer is null and the tier is never usable).
// Do not call through these tables outside simd.cpp: the public wrappers
// own metrics and ISA selection.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

/// One implementation of every public kernel; each member has the type of
/// the public function it implements (see simd.h for the contracts).
struct Kernels {
  decltype(&simd::dot) dot;
  decltype(&simd::gemm_accum) gemm, gemm_at, gemm_bt, gemm_madd;
  decltype(&simd::mlp_tanh) mlp_tanh;
  decltype(&simd::gemm_f64acc) gemm_f64acc;
  decltype(&simd::adc_shift_add) adc_shift_add;
  decltype(&simd::geniex_inputs) geniex_inputs;
  decltype(&simd::geniex_features) geniex_features;
  decltype(&simd::geniex_epilogue) geniex_epilogue;
  decltype(&simd::tanh_fast_block) tanh_fast_block;
  decltype(&simd::gemv_madd) gemv_madd;
  decltype(&simd::tanh_backprop) tanh_backprop;
  decltype(&simd::adam_step) adam_step;
  decltype(&simd::im2col) im2col, col2im;
  decltype(&simd::relu) relu;
  decltype(&simd::relu_backprop) relu_backprop;
  decltype(&simd::quantize_to_i16) quantize_to_i16;
  decltype(&simd::gemm_at_i8_i32acc) gemm_at_i8_i32acc;
  decltype(&simd::adc_shift_add_i32) adc_shift_add_i32;
  decltype(&simd::dac_streams_i16) dac_streams_i16;
};

/// The vector tiers' tables; null when the TU was built without its arch
/// flags (NVM_ENABLE_AVX2 / NVM_ENABLE_AVX512 off).
extern const Kernels* const kAvx2Kernels;
extern const Kernels* const kAvx512Kernels;

/// The mid-tread ADC of adc_shift_add on one current, the scalar tier's
/// and the vector tails': round(clamp(cur, 0, fs) / fs * steps) * fs /
/// steps. The clamp takes max(0, cur) first, as the vector tiers' x86 max
/// does, so a NaN or -0 current reads 0 on every tier.
inline float adc_quantize_scalar(float cur, float full_scale, float steps) {
  const float clamped = std::min(std::max(0.0f, cur), full_scale);
  return std::round(clamped / full_scale * steps) * full_scale / steps;
}

}  // namespace nvm::simd::detail
