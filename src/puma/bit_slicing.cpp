#include "puma/bit_slicing.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nvm::puma {

std::int64_t slice_count(std::int64_t value_bits, std::int64_t chunk_bits) {
  NVM_CHECK(value_bits >= 1 && chunk_bits >= 1);
  return (value_bits + chunk_bits - 1) / chunk_bits;
}

Tensor extract_chunk(const Tensor& values, std::int64_t index,
                     std::int64_t chunk_bits) {
  Tensor out(values.shape());
  extract_chunk_into(values.data(), index, chunk_bits, out.data());
  return out;
}

float extract_chunk_into(std::span<const float> src, std::int64_t index,
                         std::int64_t chunk_bits, std::span<float> dst) {
  NVM_CHECK(index >= 0 && chunk_bits >= 1 && chunk_bits < 31);
  NVM_CHECK_EQ(src.size(), dst.size());
  const std::int64_t shift = index * chunk_bits;
  const std::int64_t mask = (std::int64_t{1} << chunk_bits) - 1;
  float max_val = 0.0f;
  for (std::size_t i = 0; i < src.size(); ++i) {
    NVM_CHECK(src[i] >= 0.0f, "negative value in bit slicing: " << src[i]);
    const auto v = static_cast<std::int64_t>(std::llround(src[i]));
    const float c = static_cast<float>((v >> shift) & mask);
    dst[i] = c;
    max_val = std::max(max_val, c);
  }
  return max_val;
}

float chunk_weight(std::int64_t index, std::int64_t chunk_bits) {
  return static_cast<float>(std::int64_t{1} << (index * chunk_bits));
}

}  // namespace nvm::puma
