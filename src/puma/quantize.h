// Fixed-point quantization helpers for the PUMA-style mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace nvm::puma {

/// Symmetric signed quantization of a weight tensor.
/// q = round(w / scale), q in [-qmax, qmax], scale = max|w| / qmax.
struct QuantizedWeights {
  Tensor q;          ///< integer values stored as float
  float scale = 1.0f;
  std::int64_t qmax = 0;
};

QuantizedWeights quantize_weights(const Tensor& w, std::int64_t bits);

/// Unsigned quantization of a non-negative activation tensor against a
/// fixed scale (the calibrated per-layer maximum): values are clipped to
/// [0, scale] and mapped to integer codes round(x / scale * (2^bits - 1)),
/// stored as int16 for the bit-slice DAC (DESIGN.md §13; requires
/// bits <= 15). Returned vector has x.numel() entries in x's row-major
/// order.
std::vector<std::int16_t> quantize_activations_i16(const Tensor& x,
                                                   float scale,
                                                   std::int64_t bits);

/// Uniform mid-tread quantizer for analog column currents (the ADC):
/// clamps to [0, full_scale] and rounds to 2^bits - 1 steps.
float adc_quantize(float current, float full_scale, std::int64_t bits);

}  // namespace nvm::puma
