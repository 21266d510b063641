// Bit-slicing of integer weights and inputs (paper §II-A).
//
// NVM devices hold few bits, so a b-bit weight magnitude is split into
// ceil(b / slice_bits) slices of slice_bits each (weight slices), and a
// b-bit input into ceil(b / stream_bits) chunks applied as successive DAC
// voltages (input streams). Results recombine digitally by shift-and-add.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace nvm::puma {

/// Number of slices needed to hold `value_bits` in chunks of `chunk_bits`.
std::int64_t slice_count(std::int64_t value_bits, std::int64_t chunk_bits);

/// Extracts chunk `index` (little-endian: index 0 = least significant)
/// of `chunk_bits` bits from every non-negative integer-valued element.
Tensor extract_chunk(const Tensor& values, std::int64_t index,
                     std::int64_t chunk_bits);

/// Weight of chunk `index` in the shift-add recombination: 2^(index*bits).
float chunk_weight(std::int64_t index, std::int64_t chunk_bits);

}  // namespace nvm::puma
