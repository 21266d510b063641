// Naive reference tiled crossbar GEMM: the test oracle for
// puma::TiledMatrix::matmul.
//
// Built only from public pieces — quantize_weights, extract_chunk,
// MvmModel::program, a scalar activation quantizer, materialized DAC
// voltages, open_stream()->mvm_multi_active and a scalar ADC shift-add —
// and folded in the fixed (row tile, polarity, slice) order per column
// tile. Every float op mirrors the production pipeline's op sequence, so
// for every non-ideal model (fast-noise, GENIEx, circuit solver, and the
// fault / variation wrappers) the fused and stream routes must match it
// bit for bit. Ideal models take production's int-digital route, which
// computes exact integer dot products instead of the analog double
// accumulation this oracle runs, so they agree within one ADC step.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "puma/bit_slicing.h"
#include "puma/quantize.h"
#include "puma/tiled_mvm.h"
#include "xbar/mvm_model.h"

namespace nvm::testutil {

inline Tensor reference_tiled_matmul(
    const Tensor& w, const std::shared_ptr<const xbar::MvmModel>& model,
    const puma::HwConfig& hw, const Tensor& x, float input_scale = 0.0f) {
  const xbar::CrossbarConfig& cfg = model->config();
  const std::int64_t m = w.dim(0), k = w.dim(1), n = x.dim(1);
  const std::int64_t row_tiles = (k + cfg.rows - 1) / cfg.rows;
  const std::int64_t col_tiles = (m + cfg.cols - 1) / cfg.cols;
  const std::int64_t slices = hw.weight_slices();
  const std::int64_t streams = hw.input_streams();
  Tensor result({m, n});
  const float s_x = input_scale > 0.0f ? input_scale : x.max();
  if (s_x <= 0.0f) return result;

  const float g_off = static_cast<float>(cfg.g_off());
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << hw.slice_bits) - 1));
  const float v_unit = static_cast<float>(
      cfg.v_read /
      static_cast<double>((std::int64_t{1} << hw.stream_bits) - 1));
  const float dot_unit = v_unit * g_unit;
  const float i_scale = static_cast<float>(cfg.i_scale());
  const float steps =
      static_cast<float>((std::int64_t{1} << hw.adc_bits) - 1);

  // Activation codes: round(clamp(x, 0, s) / s * qmax).
  const float qmax =
      static_cast<float>((std::int64_t{1} << hw.input_bits) - 1);
  std::vector<std::int64_t> codes(static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    codes[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(
        std::round(std::clamp(x[i], 0.0f, s_x) / s_x * qmax));

  // DAC per (row tile, stream): materialized volts, g_off baselines, and
  // whether the stream chunk is live.
  struct Stream {
    Tensor volts;
    std::vector<float> baseline;
    bool active = false;
  };
  std::vector<Stream> dac(static_cast<std::size_t>(row_tiles * streams));
  const std::int64_t mask = (std::int64_t{1} << hw.stream_bits) - 1;
  for (std::int64_t ti = 0; ti < row_tiles; ++ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k_used = std::min(k, k0 + cfg.rows) - k0;
    for (std::int64_t t = 0; t < streams; ++t) {
      Stream& st = dac[static_cast<std::size_t>(ti * streams + t)];
      st.volts = Tensor({cfg.rows, n});
      std::vector<std::int64_t> colsum(static_cast<std::size_t>(n), 0);
      std::int64_t cmax = 0;
      for (std::int64_t r = 0; r < k_used; ++r)
        for (std::int64_t j = 0; j < n; ++j) {
          const std::int64_t c =
              (codes[static_cast<std::size_t>((k0 + r) * n + j)] >>
               (t * hw.stream_bits)) &
              mask;
          st.volts.at(r, j) = v_unit * static_cast<float>(c);
          colsum[static_cast<std::size_t>(j)] += c;
          cmax = std::max(cmax, c);
        }
      st.active = !hw.skip_zero_tiles || cmax > 0;
      for (std::int64_t j = 0; j < n; ++j)
        st.baseline.push_back(
            static_cast<float>(colsum[static_cast<std::size_t>(j)]) *
            (g_off * v_unit));
    }
  }

  puma::QuantizedWeights qw = puma::quantize_weights(w, hw.weight_bits);
  for (std::int64_t ti = 0; ti < row_tiles; ++ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k1 = std::min(k, k0 + cfg.rows);
    for (std::int64_t tj = 0; tj < col_tiles; ++tj) {
      const std::int64_t m0 = tj * cfg.cols;
      const std::int64_t m1 = std::min(m, m0 + cfg.cols);
      for (int pol = 0; pol < 2; ++pol) {
        Tensor mag({k1 - k0, m1 - m0});
        bool any = false;
        for (std::int64_t kk = k0; kk < k1; ++kk)
          for (std::int64_t mm = m0; mm < m1; ++mm) {
            const float q = qw.q.at(mm, kk);
            const float v = pol == 0 ? std::max(q, 0.0f) : std::max(-q, 0.0f);
            mag.at(kk - k0, mm - m0) = v;
            any = any || v != 0.0f;
          }
        for (std::int64_t s = 0; s < slices; ++s) {
          if (hw.skip_zero_tiles && !any) continue;
          const Tensor chunk = puma::extract_chunk(mag, s, hw.slice_bits);
          if (hw.skip_zero_tiles && chunk.abs_max() == 0.0f) continue;
          Tensor g = Tensor::full({cfg.rows, cfg.cols}, g_off);
          for (std::int64_t kk = 0; kk < k1 - k0; ++kk)
            for (std::int64_t mm = 0; mm < m1 - m0; ++mm)
              g.at(kk, mm) = g_off + g_unit * chunk.at(kk, mm);
          std::unique_ptr<xbar::ProgrammedXbar> xbar = model->program(g);
          std::unique_ptr<xbar::XbarStream> stream = xbar->open_stream();
          const float sign = pol == 0 ? 1.0f : -1.0f;
          const float slice_w = puma::chunk_weight(s, hw.slice_bits);
          Tensor partial({m1 - m0, n});
          bool written = false;
          for (std::int64_t t = 0; t < streams; ++t) {
            const Stream& st = dac[static_cast<std::size_t>(ti * streams + t)];
            if (!st.active) continue;
            written = true;
            const Tensor cur =
                stream->mvm_multi_active(st.volts, k1 - k0, m1 - m0);
            const float shift = sign * puma::chunk_weight(t, hw.stream_bits) *
                                slice_w / dot_unit;
            for (std::int64_t mm = 0; mm < m1 - m0; ++mm)
              for (std::int64_t j = 0; j < n; ++j) {
                const float c = std::clamp(cur.at(mm, j), 0.0f, i_scale);
                const float q =
                    std::round(c / i_scale * steps) * i_scale / steps;
                partial.at(mm, j) +=
                    shift * (q - st.baseline[static_cast<std::size_t>(j)]);
              }
          }
          if (!written) continue;
          for (std::int64_t mm = 0; mm < m1 - m0; ++mm)
            for (std::int64_t j = 0; j < n; ++j)
              result.at(m0 + mm, j) += partial.at(mm, j);
        }
      }
    }
  }
  const float x_unit = s_x / qmax;
  result *= qw.scale * x_unit;
  return result;
}

}  // namespace nvm::testutil
