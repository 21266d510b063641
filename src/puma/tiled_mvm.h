// Tiled, bit-sliced crossbar GEMM — the PUMA functional-simulator core.
//
// A float weight matrix W (M x K) is deployed once:
//   1. symmetric signed quantization to `weight_bits`;
//   2. differential split into non-negative (W+, W-) magnitude matrices;
//   3. bit-slicing of each magnitude into `slice_bits` chunks;
//   4. tiling over K (crossbar rows) and M (crossbar columns);
//   5. linear mapping of each slice value onto [g_off, g_on] conductances,
//      programmed through the configured crossbar MvmModel.
//
// Every subsequent matmul(X) quantizes the (non-negative) activations to
// `input_bits`, streams them `stream_bits` at a time as DAC voltages,
// evaluates all programmed tiles, ADC-quantizes the analog column
// currents, subtracts the g_off baseline digitally, and shift-adds
// everything back into a float result approximating W * X.
//
// All crossbar evaluations flow through the injected MvmModel, so the same
// integer bit-slice pipeline runs ideal, GENIEx, fast-noise, or
// circuit-solver crossbars (and any wrapper around them); only the tile
// evaluation differs (DESIGN.md §13). Bit widths must fit the integer
// kernels: slice_bits <= 7, stream_bits <= 7, input_bits <= 15 and
// rows * (2^slice_bits - 1) * (2^stream_bits - 1) < 2^24; the constructor
// rejects anything else.
//
// The constructor programs the tile slots and compiles their chunk
// kernels in one nvm::ThreadPool fork-join (one task per slot); this
// relies on MvmModel::program() being a pure const call. matmul() fans
// the programmed tile slots across the pool in one fork-join once the
// work (slots x input columns x crossbar rows) reaches a measured floor,
// and runs smaller ones inline; the DAC before the passes and the
// fixed-order reduction after them run on the calling thread, so results
// are bit-identical for any NVM_THREADS.
// This relies on the ProgrammedXbar concurrency contract (xbar/mvm_model.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "xbar/mvm_model.h"

namespace nvm::puma {

struct HwConfig {
  std::int64_t weight_bits = 7;  ///< signed; magnitude = weight_bits - 1
  std::int64_t slice_bits = 3;   ///< bits per device (<= log2(cfg.levels))
  std::int64_t input_bits = 6;   ///< activation quantization
  std::int64_t stream_bits = 3;  ///< bits per DAC step
  std::int64_t adc_bits = 10;
  /// Skip crossbar passes whose programmed slice is entirely zero or whose
  /// input stream chunk is entirely zero (the PUMA compiler would not map
  /// such tiles; their ideal contribution is exactly zero).
  bool skip_zero_tiles = true;
  /// Fit a per-layer digital output gain during deployment calibration to
  /// trim the systematic component of the non-ideality (compensation in
  /// the style of the paper's refs [16], [17], [36]). The paper's own
  /// stack runs WITHOUT compensation — the uncompensated, input-dependent
  /// current loss is precisely what provides the intrinsic robustness — so
  /// this defaults to off; the ablation bench flips it.
  bool gain_trim = false;
  /// Re-estimate BatchNorm running statistics on the deployed hardware
  /// (standard deployment-time recalibration). Recovers most of the clean
  /// accuracy lost to the systematic current shift while preserving the
  /// input-dependent deviation that blunts transferred attacks.
  bool bn_reestimate = false;

  std::int64_t weight_slices() const;
  std::int64_t input_streams() const;
  /// Stable identifier for cache keys / logs.
  std::string tag() const;
};

/// A weight matrix resident on crossbar tiles.
class TiledMatrix {
 public:
  /// Programs `w` (M x K) onto tiles of `model`'s crossbar geometry, the
  /// slots on the current nvm::ThreadPool. Throws CheckError when `hw`'s
  /// bit widths are outside the integer gates (see the file comment).
  TiledMatrix(const Tensor& w, std::shared_ptr<const xbar::MvmModel> model,
              HwConfig hw);
  ~TiledMatrix();

  /// Approximates W * X. `x` is (K, N), elementwise >= 0. `input_scale`
  /// fixes the activation quantization range; pass <= 0 for dynamic
  /// (per-call max) scaling. Tile evaluations run on the current
  /// nvm::ThreadPool; safe to call concurrently (tiles, schedule and
  /// fused kernels are immutable after construction).
  Tensor matmul(const Tensor& x, float input_scale = 0.0f) const;

  std::int64_t rows() const { return m_; }
  std::int64_t cols() const { return k_; }
  /// Number of crossbar tiles actually programmed (zero tiles skipped).
  std::int64_t programmed_tiles() const {
    return static_cast<std::int64_t>(steps_.size());
  }

 private:
  std::int64_t m_ = 0, k_ = 0;
  std::int64_t row_tiles_ = 0, col_tiles_ = 0;
  float weight_scale_ = 1.0f;
  HwConfig hw_;
  std::shared_ptr<const xbar::MvmModel> model_;
  // tiles_[((ti * col_tiles + tj) * 2 + pol) * slices + s]; null = skipped.
  std::vector<std::unique_ptr<xbar::ProgrammedXbar>> tiles_;
  /// Per-slot int8 weight chunks, stored only for ideal models (the
  /// fully-digital int path); same indexing and skip pattern as tiles_.
  std::vector<std::vector<std::int8_t>> wchunks_;

  /// Fused slot schedule (DESIGN.md §13): one entry per PROGRAMMED tile
  /// slot, with its used tile bounds and per-stream ADC shift factors
  /// precomputed at construction.
  struct SlotStep {
    std::size_t slot = 0;  ///< index into tiles_ / wchunks_
    std::int64_t ti = 0;   ///< row tile (selects the DAC stream blocks)
    std::int64_t m0 = 0;   ///< first output row (col tile origin)
    std::int64_t row0 = 0;  ///< first row of its partial in matmul scratch
    std::int64_t k_used = 0, m_used = 0;
    std::vector<float> shifts;  ///< per stream t: sign*2^(t*sb)*slice_w/du
    /// Compiled per-tile chunk kernel; null: the slot streams through the
    /// tile's open_stream()->mvm_chunks_active.
    std::unique_ptr<const xbar::FusedChunkKernel> kernel;
  };
  std::vector<SlotStep> steps_;
  /// Sum of the steps' m_used: rows of matmul's per-step partial buffer.
  std::int64_t partial_rows_ = 0;
};

}  // namespace nvm::puma
