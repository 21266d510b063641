#include "puma/tiled_mvm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "puma/bit_slicing.h"
#include "puma/quantize.h"

namespace nvm::puma {

namespace {

/// Fan-out floor of TiledMatrix::matmul's crossbar passes, in tile-row
/// columns (programmed slots x input columns x crossbar rows). Set from a
/// 1- vs 4-thread sweep (best of 5 x 400 matmuls) on a 4-vCPU AVX-512
/// host: the 16x128 fast-noise serve head on 32x32 tiles (16 slots) ran
/// n = 1 (512) in 0.016 ms inline against 0.028 ms fanned out and n = 2
/// (1024) in 0.025 against 0.027; a 16x144 GENIEx matmul on 64x64 tiles
/// (12 slots) ran n = 1 (768) in 0.077 against 0.046 ms; the 16x72 GENIEx
/// matmul of BM_TiledMatmul/1 (8 slots, n = 36) in 0.260 against 0.115.
/// Every GENIEx ResNet-20 conv layer of the 12x12 tasks sits at 2304 or
/// more.
constexpr std::int64_t kMinFanOutWork = 768;

}  // namespace

std::int64_t HwConfig::weight_slices() const {
  return slice_count(weight_bits - 1, slice_bits);
}

std::int64_t HwConfig::input_streams() const {
  return slice_count(input_bits, stream_bits);
}

std::string HwConfig::tag() const {
  std::ostringstream os;
  os << "w" << weight_bits << "s" << slice_bits << "i" << input_bits << "t"
     << stream_bits << "a" << adc_bits << (skip_zero_tiles ? "" : "_noskip")
     << (gain_trim ? "_trim" : "") << (bn_reestimate ? "" : "_nobn");
  return os.str();
}

TiledMatrix::TiledMatrix(const Tensor& w,
                         std::shared_ptr<const xbar::MvmModel> model,
                         HwConfig hw)
    : hw_(hw), model_(std::move(model)) {
  NVM_CHECK(model_ != nullptr);
  NVM_CHECK_EQ(w.rank(), 2u);
  const auto& cfg = model_->config();
  NVM_CHECK((std::int64_t{1} << hw_.slice_bits) <= cfg.levels,
            "slice bits exceed device levels");
  m_ = w.dim(0);
  k_ = w.dim(1);
  row_tiles_ = (k_ + cfg.rows - 1) / cfg.rows;
  col_tiles_ = (m_ + cfg.cols - 1) / cfg.cols;
  const std::int64_t slices = hw_.weight_slices();

  QuantizedWeights qw = quantize_weights(w, hw_.weight_bits);
  weight_scale_ = qw.scale;

  const float g_off = static_cast<float>(cfg.g_off());
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << hw_.slice_bits) - 1));

  // Integer bit-slice gates (DESIGN.md §13): chunk values must fit int8
  // (weight slices and DAC codes), activation codes must fit int16, and
  // every per-tile integer dot product must stay below 2^24, where float
  // arithmetic on integers is exact (so the digital route's int GEMM and
  // the float baselines equal their float-image counterparts).
  const std::int64_t smax = (std::int64_t{1} << hw_.slice_bits) - 1;
  const std::int64_t tmax = (std::int64_t{1} << hw_.stream_bits) - 1;
  NVM_CHECK(hw_.slice_bits <= 7,
            "slice_bits " << hw_.slice_bits << " exceeds the int8 gate (7)");
  NVM_CHECK(hw_.stream_bits <= 7,
            "stream_bits " << hw_.stream_bits << " exceeds the int8 gate (7)");
  NVM_CHECK(hw_.input_bits <= 15,
            "input_bits " << hw_.input_bits << " exceeds the int16 gate (15)");
  NVM_CHECK(cfg.rows * smax * tmax < (std::int64_t{1} << 24),
            "tile dot bound rows*(2^slice_bits-1)*(2^stream_bits-1) = "
                << cfg.rows << "*" << smax << "*" << tmax
                << " reaches 2^24 (slice_bits " << hw_.slice_bits
                << ", stream_bits " << hw_.stream_bits << ")");

  tiles_.resize(
      static_cast<std::size_t>(row_tiles_ * col_tiles_ * 2 * slices));
  if (model_->is_ideal()) wchunks_.resize(tiles_.size());

  // Every slot (row tile, col tile, polarity, slice) is one pool task: it
  // slices its weight magnitudes, skips an all-zero slice under
  // skip_zero_tiles, maps the rest onto a full (rows x cols) crossbar
  // (unused cells stay at g_off and are cancelled by baseline
  // subtraction; their inputs are zero-padded anyway), programs it and,
  // for non-ideal models, compiles its chunk kernel — the ideal route is
  // fully digital and never consults the tiles, so it keeps the slice as
  // int8 instead. A null kernel keeps the slot on the stream path. Each
  // task writes only its own slot, and program() / compile_chunk_kernel()
  // are pure const calls (the MvmModel contract), so the tiles are the
  // same for any NVM_THREADS.
  const float v_unit = static_cast<float>(
      cfg.v_read /
      static_cast<double>((std::int64_t{1} << hw_.stream_bits) - 1));
  const int max_code =
      static_cast<int>((std::int64_t{1} << hw_.stream_bits) - 1);
  struct SlotPos {
    std::int64_t ti, k0, k_used, m0, m_used, s;
    int pol;
  };
  const auto slot_pos = [&](std::size_t slot) {
    const auto i = static_cast<std::int64_t>(slot);
    const std::int64_t tile = i / (2 * slices);  // ti * col_tiles_ + tj
    SlotPos p;
    p.ti = tile / col_tiles_;
    p.k0 = p.ti * cfg.rows;
    p.k_used = std::min(k_, p.k0 + cfg.rows) - p.k0;
    p.m0 = (tile % col_tiles_) * cfg.cols;
    p.m_used = std::min(m_, p.m0 + cfg.cols) - p.m0;
    p.pol = static_cast<int>((i / slices) % 2);
    p.s = i % slices;
    return p;
  };
  std::vector<std::unique_ptr<const xbar::FusedChunkKernel>> kernels(
      tiles_.size());
  parallel_for(static_cast<std::int64_t>(tiles_.size()), [&](std::int64_t i) {
    const auto slot = static_cast<std::size_t>(i);
    const SlotPos p = slot_pos(slot);
    // Polarity 0 = positive weights, 1 = negative magnitudes.
    Tensor mag({p.k_used, p.m_used});
    bool any = false;
    for (std::int64_t kk = 0; kk < p.k_used; ++kk) {
      float* mrow = mag.raw() + kk * p.m_used;
      for (std::int64_t mm = 0; mm < p.m_used; ++mm) {
        const float q = qw.q.raw()[(p.m0 + mm) * k_ + p.k0 + kk];
        const float v = (p.pol == 0) ? std::max(q, 0.0f) : std::max(-q, 0.0f);
        mrow[mm] = v;
        any = any || v != 0.0f;
      }
    }
    if (hw_.skip_zero_tiles && !any) return;  // whole polarity empty
    const Tensor chunk = extract_chunk(mag, p.s, hw_.slice_bits);
    if (hw_.skip_zero_tiles && chunk.abs_max() == 0.0f) return;
    Tensor g = Tensor::full({cfg.rows, cfg.cols}, g_off);
    for (std::int64_t kk = 0; kk < p.k_used; ++kk)
      for (std::int64_t mm = 0; mm < p.m_used; ++mm)
        g.raw()[kk * cfg.cols + mm] =
            g_off + g_unit * chunk.raw()[kk * p.m_used + mm];
    tiles_[slot] = model_->program(g);
    if (!wchunks_.empty()) {
      // Same chunk values as the programmed conductances, kept as int8
      // for the fully-digital int path.
      std::vector<std::int8_t>& w8 = wchunks_[slot];
      w8.resize(static_cast<std::size_t>(chunk.numel()));
      for (std::int64_t j = 0; j < chunk.numel(); ++j)
        w8[static_cast<std::size_t>(j)] =
            static_cast<std::int8_t>(chunk.raw()[j]);
    } else {
      kernels[slot] = tiles_[slot]->compile_chunk_kernel(v_unit, max_code);
    }
  });

  // Fused slot schedule (DESIGN.md §13), built in slot order on the
  // caller: one step per programmed slot with its used tile bounds and
  // per-stream ADC shift factors.
  const std::int64_t streams = hw_.input_streams();
  const float dot_unit = v_unit * g_unit;
  for (std::size_t slot = 0; slot < tiles_.size(); ++slot) {
    if (tiles_[slot] == nullptr) continue;
    const SlotPos p = slot_pos(slot);
    SlotStep step;
    step.slot = slot;
    step.ti = p.ti;
    step.m0 = p.m0;
    step.row0 = partial_rows_;
    partial_rows_ += p.m_used;
    step.k_used = p.k_used;
    step.m_used = p.m_used;
    const float sign = (p.pol == 0) ? 1.0f : -1.0f;
    const float slice_w = chunk_weight(p.s, hw_.slice_bits);
    for (std::int64_t t = 0; t < streams; ++t)
      step.shifts.push_back(sign * chunk_weight(t, hw_.stream_bits) *
                            slice_w / dot_unit);
    step.kernel = std::move(kernels[slot]);
    steps_.push_back(std::move(step));
  }
  const auto fused = std::count_if(
      steps_.begin(), steps_.end(),
      [](const SlotStep& step) { return step.kernel != nullptr; });
  static metrics::Counter& programmed =
      metrics::counter("puma/tiled/tiles_programmed");
  programmed.add(static_cast<std::uint64_t>(steps_.size()));
  static metrics::Counter& m_fused = metrics::counter("puma/tiled/fused_slots");
  m_fused.add(static_cast<std::uint64_t>(fused));
}

TiledMatrix::~TiledMatrix() = default;

Tensor TiledMatrix::matmul(const Tensor& x, float input_scale) const {
  NVM_TRACE_SPAN("puma/tiled/matmul");
  static metrics::Counter& m_matmuls = metrics::counter("puma/tiled/matmuls");
  static metrics::Counter& m_fused_runs =
      metrics::counter("puma/tiled/fused_runs");
  m_matmuls.add();
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(0), k_);
  const std::int64_t n = x.dim(1);
  NVM_CHECK(x.min() >= -1e-4f, "crossbar inputs must be non-negative, got "
                                   << x.min());

  float s_x = input_scale;
  if (s_x <= 0.0f) s_x = x.max();
  Tensor result({m_, n});
  if (s_x <= 0.0f) return result;  // all-zero input

  const auto& cfg = model_->config();

  // Route selection (DESIGN.md §13): ideal models take the int-digital
  // route, which computes the whole evaluation with int8 GEMMs (their
  // analog step IS the exact dot product); every other model takes the
  // int-chunk route, which hands the analog model integer DAC codes
  // (bit-identical to the materialized voltages by the mvm_chunks_active
  // contract) through the slot's fused kernel when it has one and through
  // the tile's stream otherwise.
  const bool digital = !wchunks_.empty();
  static metrics::Counter& m_int_digital =
      metrics::counter("puma/tiled/matmuls_int_digital");
  static metrics::Counter& m_int_chunks =
      metrics::counter("puma/tiled/matmuls_int_chunks");
  (digital ? m_int_digital : m_int_chunks).add();

  const std::vector<std::int16_t> xq16 =
      quantize_activations_i16(x, s_x, hw_.input_bits);

  const std::int64_t streams = hw_.input_streams();
  const float v_unit = static_cast<float>(
      cfg.v_read / static_cast<double>((std::int64_t{1} << hw_.stream_bits) - 1));
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << hw_.slice_bits) - 1));
  const float g_off = static_cast<float>(cfg.g_off());
  const float i_scale = static_cast<float>(cfg.i_scale());
  const float dot_unit = v_unit * g_unit;  // amps per integer dot count
  // adc_quantize's precondition, hoisted out of the fused per-row kernel.
  NVM_CHECK(hw_.adc_bits >= 2 && hw_.adc_bits <= 16,
            "adc_bits out of range: " << hw_.adc_bits);
  NVM_CHECK_GT(i_scale, 0.0f);
  const float adc_steps =
      static_cast<float>((std::int64_t{1} << hw_.adc_bits) - 1);

  // The GEMM runs in three phases with ONE pool fork-join: the DAC and
  // the cross-slot reduction run on the calling thread, only the crossbar
  // passes fan out. Results are bit-identical for any NVM_THREADS because
  // every pass task owns a disjoint partial and the reduction happens in a
  // fixed order. Scratch comes from the shared WorkspacePool; the caller's
  // lease holds the DAC output for the whole matmul.
  //
  // Phase 1 — DAC: per (row tile, stream) integer input chunks and g_off
  // baselines.
  struct StreamBlock {
    const std::int8_t* chunk = nullptr;    // (cfg.rows, n) codes
    const std::int8_t* row_max = nullptr;  // per-row max code
    const float* baseline = nullptr;  // per input vector, g_off*v_unit*Σc
    bool active = false;              // false: chunk all-zero, skippable
  };
  const std::size_t blocks = static_cast<std::size_t>(row_tiles_ * streams);
  const std::size_t cells = static_cast<std::size_t>(cfg.rows * n);
  std::vector<StreamBlock> dac(blocks);
  simd::WorkspacePool::Lease dac_lease =
      simd::shared_workspace_pool().acquire();
  simd::Workspace& dws = dac_lease.get();
  std::span<float> baselines =
      dws.floats(0, blocks * static_cast<std::size_t>(n));
  // Each phase is one span on the calling thread (string-literal names),
  // so a trace splits a matmul into DAC, crossbar passes and reduction;
  // emplace() closes the previous phase's span.
  std::optional<trace::Span> phase(std::in_place, "puma/tiled/dac");
  // Codes stay integer end-to-end, one dac_streams_i16 pass per row tile
  // straight from the quantized codes. The float baseline float(Σc) is
  // exact: the column sums stay far below 2^24.
  std::span<std::int8_t> chunks = dws.i8s(0, blocks * cells);
  std::span<std::int8_t> row_maxes =
      dws.i8s(1, blocks * static_cast<std::size_t>(cfg.rows));
  std::span<std::int32_t> colsums =
      dws.i32s(0, static_cast<std::size_t>(streams * n));
  bool any_active = false;
  for (std::int64_t ti = 0; ti < row_tiles_; ++ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k_used = std::min(k_, k0 + cfg.rows) - k0;
    const std::size_t b0 = static_cast<std::size_t>(ti * streams);
    std::int8_t* chunk = chunks.data() + b0 * cells;
    std::int8_t* row_max =
        row_maxes.data() + b0 * static_cast<std::size_t>(cfg.rows);
    const std::int16_t* codes = xq16.data() + k0 * n;
    const bool negative =
        simd::dac_streams_i16(chunk, row_max, colsums.data(), codes, k_used,
                              cfg.rows, n, streams, hw_.stream_bits);
    NVM_CHECK(!negative, "negative value in bit slicing: "
                             << *std::min_element(codes, codes + k_used * n));
    for (std::int64_t t = 0; t < streams; ++t) {
      const std::int8_t* rm = row_max + t * cfg.rows;
      if (hw_.skip_zero_tiles && *std::max_element(rm, rm + cfg.rows) == 0)
        continue;
      StreamBlock& sb = dac[b0 + static_cast<std::size_t>(t)];
      sb.active = true;
      any_active = true;
      sb.chunk = chunk + static_cast<std::size_t>(t) * cells;
      sb.row_max = rm;
      float* base = baselines.data() + (b0 + static_cast<std::size_t>(t)) *
                                           static_cast<std::size_t>(n);
      const std::int32_t* colsum = colsums.data() + t * n;
      for (std::int64_t nn = 0; nn < n; ++nn)
        base[nn] = static_cast<float>(colsum[nn]) * (g_off * v_unit);
      sb.baseline = base;
    }
  }

  // Phase 2 — crossbar passes: every programmed tile slot of the schedule
  // is an independent task that streams its input chunks, ADC-quantizes,
  // and shift-adds into its own rows of the caller's partial buffer (one
  // adc_shift_add call per pass over the tile's m_used x n currents). The
  // matmul's only fork-join, skipped when no stream block is live (an
  // all-zero input under skip_zero_tiles: every slot would return without
  // a pass, so the result stays zero) and when the work is below
  // kMinFanOutWork.
  phase.emplace("puma/tiled/passes");
  std::span<float> partials =
      dws.floats(3, static_cast<std::size_t>(partial_rows_ * n));
  std::vector<std::uint8_t> written(steps_.size(), 0);
  static metrics::Counter& m_tile_mvms =
      metrics::counter("puma/tiled/tile_mvms");
  const std::int64_t tasks =
      any_active ? static_cast<std::int64_t>(steps_.size()) : 0;
  auto pass = [&](std::int64_t si) {
    const SlotStep& step = steps_[static_cast<std::size_t>(si)];
    const std::int64_t k_used = step.k_used, m_used = step.m_used;
    float* acc = partials.data() + step.row0 * n;
    std::uint64_t passes = 0;
    // Counts a pass; the first one zeroes the step's partial.
    auto begin_pass = [&] {
      if (passes++ == 0) std::fill(acc, acc + m_used * n, 0.0f);
    };
    simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
    simd::Workspace& ws = lease.get();
    auto chunk_block = [&](const StreamBlock& sb) {
      xbar::ChunkBlock cb;
      cb.chunk = sb.chunk;
      cb.row_max = sb.row_max;
      cb.rows = cfg.rows;
      cb.n = n;
      cb.v_unit = v_unit;
      return cb;
    };

    if (digital) {
      // Fully digital: the ideal tile's analog output IS the dot product,
      // so compute it in int8/int32 and feed the integer ADC epilogue. The
      // model tiles are not consulted.
      const std::vector<std::int8_t>& w8 = wchunks_[step.slot];
      std::span<std::int32_t> dot =
          ws.i32s(1, static_cast<std::size_t>(m_used * n));
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dac[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        begin_pass();
        std::fill(dot.begin(), dot.end(), 0);
        simd::gemm_at_i8_i32acc(dot.data(), w8.data(), sb.chunk, m_used, n,
                                k_used, m_used, n, n);
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add_i32(acc + mm * n, dot.data() + mm * n,
                                  sb.baseline, n, dot_unit, i_scale,
                                  adc_steps, shift);
      }
    } else if (step.kernel != nullptr) {
      // Fused: the slot's compiled kernel (fast-noise tables, GENIEx
      // surrogate) evaluates the integer DAC codes; currents land in
      // pooled scratch float slot 3 (no per-pass Tensor), which kernels
      // leave alone (FusedChunkKernel).
      m_fused_runs.add();
      std::span<float> cur = ws.floats(3, static_cast<std::size_t>(m_used * n));
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dac[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        begin_pass();
        step.kernel->run(chunk_block(sb), k_used, m_used, cur.data(), ws);
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        simd::adc_shift_add(acc, cur.data(), sb.baseline, m_used, n,
                            i_scale, adc_steps, shift);
      }
    } else {
      // One stream per tile visit: chunk t+1 reuses state chunk t left
      // behind (e.g. the circuit solver's converged node voltages as a
      // warm start).
      std::unique_ptr<xbar::XbarStream> stream =
          tiles_[step.slot]->open_stream();
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dac[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        begin_pass();
        const Tensor currents =  // (cols, n)
            stream->mvm_chunks_active(chunk_block(sb), k_used, m_used);
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        simd::adc_shift_add(acc, currents.raw(), sb.baseline, m_used,
                            n, i_scale, adc_steps, shift);
      }
    }
    if (passes == 0) return;
    m_tile_mvms.add(passes);
    written[static_cast<std::size_t>(si)] = 1;
  };
  // The fan-out follows the work, never the pool size: below
  // kMinFanOutWork tile-row columns (slots x n x rows) a fork-join costs
  // more than the passes it spreads, so they run inline in slot order.
  // Either way every pass writes its own partial, so the bits are equal.
  if (tasks * n * cfg.rows >= kMinFanOutWork) {
    parallel_for(tasks, pass);
  } else {
    for (std::int64_t si = 0; si < tasks; ++si) pass(si);
  }

  // Phase 3 — reduction on the caller: steps_ is in slot order, so for
  // every output element the partials fold in the fixed (row tile,
  // polarity, slice) order of its col tile.
  phase.emplace("puma/tiled/reduce");
  for (std::size_t si = 0; si < steps_.size(); ++si) {
    if (written[si] == 0) continue;
    const SlotStep& step = steps_[si];
    const float* src = partials.data() + step.row0 * n;
    float* res = result.raw() + step.m0 * n;
    for (std::int64_t i = 0; i < step.m_used * n; ++i) res[i] += src[i];
  }

  // Undo integer scaling: W ~ weight_scale * Wq, X ~ s_x * Xq / (2^ib - 1).
  const float x_unit =
      s_x / static_cast<float>((std::int64_t{1} << hw_.input_bits) - 1);
  result *= weight_scale_ * x_unit;
  return result;
}

}  // namespace nvm::puma
