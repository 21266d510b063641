#include "puma/bit_slicing.h"

#include <cmath>

#include "common/check.h"

namespace nvm::puma {

std::int64_t slice_count(std::int64_t value_bits, std::int64_t chunk_bits) {
  NVM_CHECK(value_bits >= 1 && chunk_bits >= 1);
  return (value_bits + chunk_bits - 1) / chunk_bits;
}

Tensor extract_chunk(const Tensor& values, std::int64_t index,
                     std::int64_t chunk_bits) {
  NVM_CHECK(index >= 0 && chunk_bits >= 1 && chunk_bits < 31);
  const std::int64_t shift = index * chunk_bits;
  const std::int64_t mask = (std::int64_t{1} << chunk_bits) - 1;
  Tensor out(values.shape());
  const float* src = values.raw();
  float* dst = out.raw();
  for (std::int64_t i = 0; i < values.numel(); ++i) {
    NVM_CHECK(src[i] >= 0.0f, "negative value in bit slicing: " << src[i]);
    const auto v = static_cast<std::int64_t>(std::llround(src[i]));
    dst[i] = static_cast<float>((v >> shift) & mask);
  }
  return out;
}

float chunk_weight(std::int64_t index, std::int64_t chunk_bits) {
  return static_cast<float>(std::int64_t{1} << (index * chunk_bits));
}

}  // namespace nvm::puma
