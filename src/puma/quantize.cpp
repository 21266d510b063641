#include "puma/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/simd.h"

namespace nvm::puma {

QuantizedWeights quantize_weights(const Tensor& w, std::int64_t bits) {
  NVM_CHECK(bits >= 2 && bits <= 16, "weight bits=" << bits);
  QuantizedWeights out;
  out.qmax = (std::int64_t{1} << (bits - 1)) - 1;
  const float wmax = w.abs_max();
  out.scale = wmax > 0 ? wmax / static_cast<float>(out.qmax) : 1.0f;
  out.q = Tensor(w.shape());
  const float inv = 1.0f / out.scale;
  auto src = w.data();
  auto dst = out.q.data();
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = std::round(src[i] * inv);
  return out;
}

std::vector<std::int16_t> quantize_activations_i16(const Tensor& x,
                                                   float scale,
                                                   std::int64_t bits) {
  NVM_CHECK(bits >= 1 && bits <= 15, "activation bits=" << bits);
  NVM_CHECK_GT(scale, 0.0f);
  const float qmax = static_cast<float>((std::int64_t{1} << bits) - 1);
  std::vector<std::int16_t> out(x.numel());
  simd::quantize_to_i16(out.data(), x.raw(),
                        static_cast<std::int64_t>(x.numel()), scale, qmax);
  return out;
}

float adc_quantize(float current, float full_scale, std::int64_t bits) {
  NVM_CHECK(bits >= 2 && bits <= 16, "adc bits=" << bits);
  NVM_CHECK_GT(full_scale, 0.0f);
  const float steps = static_cast<float>((std::int64_t{1} << bits) - 1);
  const float clamped = std::clamp(current, 0.0f, full_scale);
  return std::round(clamped / full_scale * steps) * full_scale / steps;
}

}  // namespace nvm::puma
