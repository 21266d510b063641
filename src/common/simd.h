// Portable SIMD micro-kernel layer.
//
// Every hot inner loop of the analog stack — tiled-GEMM shift-add, ideal
// and fast-noise column evaluation, the GENIEx feature GEMMs, glue and MLP
// forward, activation / ADC quantization — runs over the fixed set of
// kernels below. Each kernel has a scalar reference plus one vector body
// (simd_vector.h) written over a per-tier traits type and instantiated
// for two tiers, AVX2/FMA and AVX-512, each in its own translation unit
// with per-file arch flags (see NVM_ENABLE_AVX2 / NVM_ENABLE_AVX512).
// Other architectures, AArch64 included, run the scalar tier. The active
// tier is chosen once per process at first use: cpuid + OS state (xgetbv)
// decide, and NVM_SIMD=scalar|avx2|avx512 overrides.
//
// Determinism contract (DESIGN.md §11, §13):
//   * Each kernel uses ONE deterministic accumulation tree. Results are
//     bit-identical across NVM_THREADS, across repeated runs of the same
//     build, and across calls with different blocking of the same data.
//   * Kernels marked [exact] below produce bit-identical results under
//     every NVM_SIMD tier: every lane performs the same float ops in the
//     same order as the scalar code (the whole build uses
//     -ffp-contract=off so the compiler cannot fuse the scalar side).
//   * Kernels marked [~ulp] use FMA in the vector bodies but plain
//     mul+add in the scalar fallback; per element they differ by at most
//     a few ULP of the running magnitude (tests/test_simd.cpp asserts the
//     bound pairwise across all usable tiers).
//   * Integer kernels (quantize_to_i16, gemm_at_i8_i32acc,
//     adc_shift_add_i32, dac_streams_i16) are [exact]: integer arithmetic
//     has no rounding, and their float epilogues mirror the scalar op
//     sequence.
//
// Kernel list by contract:
//   [exact] gemm_madd, gemm_f64acc, adc_shift_add, geniex_inputs,
//           geniex_features, geniex_epilogue, tanh_fast_block, gemv_madd,
//           tanh_backprop, adam_step, quantize_to_i16,
//           gemm_at_i8_i32acc, adc_shift_add_i32, dac_streams_i16
//   [~ulp]  dot, gemm_accum, gemm_at_accum, gemm_bt_accum, mlp_tanh
//
// Reduction trees:
//   * dot: 8 strided lanes (lane l accumulates elements l, l+8, ...)
//     reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). Wider tiers fold
//     their extra lanes pairwise onto the 8-lane tree (still [~ulp]).
//   * gemm*: per output element, sequential accumulation over k (the
//     microtile blocks rows/columns, never the reduction).
//   * mlp_tanh: per sample, each hidden unit's sum sequential over the
//     inputs, the output sum sequential over the hidden units (vector
//     tiers block samples, never the reductions).
//   * gemm_f64acc: sequential double accumulation over the inner index —
//     bit-identical to nvm::matvec's scalar loop per output element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace nvm::simd {

/// Values are the `simd/isa` gauge (and the perf gate's host key).
enum class Isa { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// The instruction set all kernels dispatch to. Resolved once: NVM_SIMD
/// env override if set (an unusable request logs a warning and falls
/// back to the best safe tier), else the widest tier that is compiled in,
/// reported by cpuid, AND enabled by the OS (XCR0 via xgetbv — feature
/// bits alone do not prove the kernel saves ZMM/YMM state).
Isa active_isa();
const char* isa_name(Isa isa);

/// True when the AVX2 kernel TU was compiled in (NVM_ENABLE_AVX2).
bool avx2_compiled();
/// True when this CPU supports AVX2+FMA and the OS enables YMM state.
bool avx2_supported();
/// True when the AVX-512 kernel TU was compiled in (NVM_ENABLE_AVX512).
bool avx512_compiled();
/// True when this CPU supports AVX-512 F/BW/DQ/VL and the OS enables
/// ZMM + opmask state (XCR0 bits 1,2,5,6,7).
bool avx512_supported();
/// True when `isa` is both compiled in and usable on this machine.
bool isa_usable(Isa isa);

/// Test-only: forces the dispatch while alive (restores on destruction).
/// Requesting a tier that is not usable on this build/CPU throws
/// CheckError.
class ScopedIsaForTests {
 public:
  explicit ScopedIsaForTests(Isa isa);
  ~ScopedIsaForTests();
  ScopedIsaForTests(const ScopedIsaForTests&) = delete;
  ScopedIsaForTests& operator=(const ScopedIsaForTests&) = delete;

 private:
  int prev_;
};

// Vector kernels ----------------------------------------------------------

/// [~ulp] Dot product with the fixed 8-lane reduction tree.
float dot(const float* a, const float* b, std::int64_t n);

/// Scalar rational fast-tanh of the GENIEx MLP, ~10x faster than
/// std::tanh; max abs error vs std::tanh ~2e-3, absorbed by the fit since
/// training and inference both use it. The vector tiers of mlp_tanh and
/// tanh_fast_block evaluate the same op sequence per lane, so it is exact
/// across tiers.
float tanh_fast(float x);

/// [~ulp] Batched forward of a one-hidden-layer tanh MLP over `n` samples
/// stored FEATURE-MAJOR (x[i * n + s] is feature i of sample s):
///   out[s] = b2 + sum_h w2[h] * tanh_fast(b1[h] + sum_i w1[h*in_dim+i]*x_i)
/// with both sums sequential (over i, then over h). The vector tiers run
/// each sum as one FMA chain — the op order of gemm_accum, an elementwise
/// tanh_fast and gemm_accum on a column block — and interleave several
/// sample vectors per hidden unit; the scalar tier uses unfused mul+add
/// and skips zero weights, like gemm_accum's scalar tier. Each out[s]
/// depends only on sample s (ragged tails take masked/staged vectors), so
/// any batch width or position gives the same bits on a given tier;
/// vector tiers agree with each other bit-for-bit, the scalar tier within
/// a few ULP.
void mlp_tanh(float* out, const float* x, std::int64_t n, std::int64_t in_dim,
              std::int64_t hidden, const float* w1, const float* b1,
              const float* w2, float b2);

// GEMM micro-kernels ------------------------------------------------------
// All operate on row-major storage with explicit leading dimensions and
// ACCUMULATE into C (callers zero C for a plain product). The vector
// implementations block into 4xW microtiles of broadcast-FMA (W = the
// tier's float lane count).

/// [~ulp] C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb).
void gemm_accum(float* c, const float* a, const float* b, std::int64_t m,
                std::int64_t n, std::int64_t k, std::int64_t lda,
                std::int64_t ldb, std::int64_t ldc);

/// [~ulp] C(m x n, ldc) += A^T * B where A is (k x m, lda).
void gemm_at_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc);

/// [~ulp] C(m x n, ldc) += A * B^T where B is (n x k, ldb); each element
/// is one dot() reduction tree.
void gemm_bt_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc);

/// [exact] C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb) with an UNfused
/// multiply then add per term, sequential over k — per element the same
/// op sequence as the scalar loop `for k: c = c + a * b;`, so every tier
/// (and every blocking of m and n) is bit-identical. The vector tiers hold
/// a register block of C (4 rows x 2 vectors) across the whole k loop and
/// finish ragged columns with masked vectors, never a scalar remainder. The GENIEx feature GEMMs run here.
void gemm_madd(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t n, std::int64_t k, std::int64_t lda,
               std::int64_t ldb, std::int64_t ldc);

/// [exact] out(m x n, ldo) = A(m x k, lda) * V(k x n, ldv) accumulated in
/// double per output element, sequential over k — bit-identical to the
/// scalar loop `for k: acc += double(a) * v;` and therefore to
/// nvm::matvec per column (double FMA of exact float*float products
/// rounds identically to mul-then-add). The analog models use this so
/// crossbar outputs do not depend on NVM_SIMD.
void gemm_f64acc(float* out, const float* a, const float* v, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldv, std::int64_t ldo);

// ADC kernel --------------------------------------------------------------

/// [exact] acc[r*n + i] += shift * (adc(cur[r*n + i]) - baseline[i]) over
/// a (rows x n) block, where adc() is the mid-tread ADC quantizer
/// round(clamp(c,0,fs)/fs*steps)*fs/steps — the fused ADC +
/// baseline-subtract + shift-add of the tiled GEMM, one call per crossbar
/// pass (one baseline value per input column). Ragged rows finish with a
/// masked vector, never a scalar tail.
void adc_shift_add(float* acc, const float* cur, const float* baseline,
                   std::int64_t rows, std::int64_t n, float full_scale,
                   float steps, float shift);

// GENIEx surrogate glue ---------------------------------------------------
// The elementwise stages around the GENIEx feature GEMMs and MLP forward
// (xbar/geniex.cpp). All [exact]: each lane runs the scalar reference's
// IEEE ops in the same order, ragged tails are masked, and per-vector sums
// stay sequential over rows, so every tier and every batch width gives the
// same bits.

/// [exact] Input transforms and per-vector sums of a (rows x n) voltage
/// block v (row-major, ld n):
///   vv[i*n + k] = v*v, vr[i*n + k] = v * growsum[i],
///   sums[k] = (sum_i v) * nv, sums[n + k] = (sum_i vv) * nv2,
///   sums[2n + k] = (sum_i vr) * nr,
/// each sum a float accumulation from +0 sequential over i.
void geniex_inputs(float* vv, float* vr, float* sums, const float* v,
                   const float* growsum, std::int64_t rows, std::int64_t n,
                   float nv, float nv2, float nr);

/// [exact] Assembles the feature-major GENIEx feature block of `cols`
/// columns x n vectors in place: feature f of sample (j, k) lives at
/// ft[f*ns + j*n + k] with ns = cols*n. On entry rows 4, 5 and 9 hold the
/// raw energy, power and wire-distance GEMM outputs; on exit
///   row 0 = iid / i_scale, row 4 /= d_e, row 5 /= d_p, row 9 /= d_w
///   (IEEE divides, not reciprocal multiplies),
///   rows 1 and 7 = colf[2j] and colf[2j + 1] (per-column constants),
///   row 8 = garr, rows 2, 3 and 6 = sums rows 0, 1 and 2 (per vector).
void geniex_features(float* ft, const float* iid, const float* sums,
                     const float* colf, std::int64_t cols, std::int64_t n,
                     float i_scale, float d_e, float d_p, float d_w,
                     float garr);

/// [exact] GENIEx output epilogue over (cols x n) samples:
///   out = std::clamp(iid - rel * std::max(iid, floor), 0, full_scale)
/// with an unfused multiply then subtract; a NaN passes through the clamp
/// as in std::clamp. With `guard`, flags[k] = 1 when any column's rel for
/// vector k is non-finite or outside [rel_min, rel_max] and 0 otherwise
/// (all 0 without guard). Returns the number of non-finite outputs.
std::int64_t geniex_epilogue(float* out, std::int8_t* flags,
                             const float* iid, const float* rel,
                             std::int64_t cols, std::int64_t n, float floor,
                             float full_scale, bool guard, float rel_min,
                             float rel_max);

// Surrogate training -----------------------------------------------------
// The elementwise stages and the per-sample output sum of the GENIEx MLP
// training step around its gemm_madd calls (xbar::MlpRegressor::train).
// All [exact]: each lane runs the scalar reference's IEEE ops in the same
// order and ragged tails are masked, so the trained weights are the same
// bits on every tier.

/// [exact] y[i] = tanh_fast(x[i]) for i in [0, n); y may alias x. The
/// vector tiers run mlp_tanh's lane tanh (the scalar op sequence, with
/// the +-4.97 saturation applied per lane), so +-inf saturate to +-1 and
/// NaN stays NaN as in tanh_fast.
void tanh_fast_block(float* y, const float* x, std::int64_t n);

/// [exact] y[i] = y[i] + sum_k a[i*lda + k] * x[k] for i in [0, m), an
/// unfused multiply then add per term, sequential over k: gemm_madd's op
/// sequence at n = 1, vectorized across rows (gathered lanes) instead of
/// across columns. Requires lda * 16 < 2^31.
void gemv_madd(float* y, const float* a, const float* x, std::int64_t m,
               std::int64_t k, std::int64_t lda);

/// [exact] Back-propagates an output error through a tanh hidden layer,
/// in place over the (m x h) row-major activations a:
///   a[s*h + j] = (err[s] * w2[j]) * (1 - a[s*h + j] * a[s*h + j]).
void tanh_backprop(float* a, const float* err, const float* w2,
                   std::int64_t m, std::int64_t h);

/// Coefficients of one Adam step (see adam_step); beta1, beta2 and eps
/// default to the usual Adam constants.
struct AdamStep {
  float count = 1.0f;  ///< minibatch size the gradient sums divide by
  float beta1 = 0.9f, beta2 = 0.999f;
  float bc1 = 1.0f, bc2 = 1.0f;  ///< bias corrections 1 - beta^t
  float lr = 1e-3f, eps = 1e-8f;
};

/// [exact] One Adam update of n parameters p with moments m, v from the
/// gradient sums g, per element in this op order:
///   gj = g / count
///   m  = beta1 * m + (1 - beta1) * gj
///   v  = beta2 * v + ((1 - beta2) * gj) * gj
///   p  = p - (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
/// with IEEE divides and a correctly rounded sqrt.
void adam_step(float* p, float* m, float* v, const float* g, std::int64_t n,
               const AdamStep& c);

// Integer bit-slice kernels (DESIGN.md §13) -------------------------------
// The tiled GEMM's operands are small non-negative integers (weight
// slices <= 2^slice_bits-1, DAC chunks <= 2^stream_bits-1), so the
// digital path can run them through narrow integer arithmetic. The float
// twins of these kernels are bit-identical on the same integer-valued
// inputs as long as every dot product stays below 2^24 (float adds of
// integers are exact there) — tests/test_simd.cpp pins that equivalence.

/// [exact] out[i] = int16(round(clamp(x[i], 0, scale) / scale * qmax)),
/// with round-half-away-from-zero semantics identical to std::round for
/// the non-negative domain (puma::quantize_activations_i16). Requires
/// 0 < qmax <= 32767.
void quantize_to_i16(std::int16_t* out, const float* x, std::int64_t n,
                     float scale, float qmax);

/// [exact] C(m x n, ldc) += A^T * B in int32, where A is (k x m, lda) and
/// B is (k x n, ldb), both int8. Accumulation is exact integer
/// arithmetic, so the result is independent of tier and blocking. Callers
/// must keep |a|*|b|*k below INT32_MAX (the bit-slice path guarantees
/// <= 127*127*k).
void gemm_at_i8_i32acc(std::int32_t* c, const std::int8_t* a,
                       const std::int8_t* b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc);

/// [exact] Fused integer ADC shift-add:
///   cur    = baseline[i] + dot_unit * float(dot[i])   (unfused mul+add)
///   acc[i] += shift * (adc(cur) - baseline[i])
/// with adc() the same mid-tread quantizer as adc_shift_add. This is the
/// digital epilogue of the int8 bit-slice pipeline; bit-identical to
/// composing the float ops on float(dot[i]).
void adc_shift_add_i32(float* acc, const std::int32_t* dot,
                       const float* baseline, std::int64_t n, float dot_unit,
                       float full_scale, float steps, float shift);

/// [exact] Bit-slice DAC of one crossbar row tile, all input streams in
/// one pass. `src` holds `rows_used` rows of n int16 activation codes
/// (row-major, ld n). For every stream t in [0, streams), with
/// c = (code >> t*stream_bits) & (2^stream_bits - 1) (arithmetic shift):
///   chunk[(t*rows + r)*n + k] = c as int8, zero for rows_used <= r < rows;
///   row_max[t*rows + r]       = max over k of c, zero for padded rows;
///   colsum[t*n + k]           = sum over r of c, in int32.
/// Returns true when any code is negative. Integer ops only, so every
/// tier gives the same outputs, also for negative codes; ragged columns
/// take masked (AVX-512) or staged (AVX2) vectors. Requires
/// 1 <= stream_bits <= 7 and (streams - 1) * stream_bits < 16.
bool dac_streams_i16(std::int8_t* chunk, std::int8_t* row_max,
                     std::int32_t* colsum, const std::int16_t* src,
                     std::int64_t rows_used, std::int64_t rows, std::int64_t n,
                     std::int64_t streams, std::int64_t stream_bits);

// Workspace ---------------------------------------------------------------

/// Reusable per-thread scratch for hot paths that would otherwise heap-
/// allocate per call. Each slot is an independent buffer with a stable
/// address across other slots' acquisitions; re-acquiring a slot
/// invalidates its previous span. An acquisition served without growing
/// the buffer counts one `simd/workspace/reuses` (a saved allocation).
/// Not thread-safe: declare instances as function-local thread_local.
class Workspace {
 public:
  static constexpr int kSlots = 12;

  /// Returns a span of `n` floats backed by slot `slot`. Contents are
  /// unspecified (callers fully overwrite before reading).
  std::span<float> floats(int slot, std::size_t n);
  /// Same, for doubles (slots are independent of the float slots).
  std::span<double> doubles(int slot, std::size_t n);
  /// Same, for the integer widths the bit-slice path stages data in.
  std::span<std::int8_t> i8s(int slot, std::size_t n);
  std::span<std::int16_t> i16s(int slot, std::size_t n);
  std::span<std::int32_t> i32s(int slot, std::size_t n);

 private:
  std::vector<float> f_[kSlots];
  std::vector<double> d_[kSlots];
  std::vector<std::int8_t> i8_[kSlots];
  std::vector<std::int16_t> i16_[kSlots];
  std::vector<std::int32_t> i32_[kSlots];
};

/// Thread-safe pool of Workspaces for tiled-GEMM tasks. Where the
/// thread_local idiom pins one workspace per (thread, call site) forever,
/// a pool bounds scratch to the number of CONCURRENT users and lets
/// warmed buffers migrate between the TiledMatrix::matmul tasks that
/// share it. acquire() hands
/// out a warm workspace when one is free and grows the pool otherwise;
/// the lease returns it on destruction.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease();
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace& get() { return *ws_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<Workspace> ws_;
  };

  Lease acquire();

 private:
  friend class Lease;
  void release(std::unique_ptr<Workspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> free_;
};

/// Process-wide pool shared by the puma::TiledMatrix::matmul tasks.
WorkspacePool& shared_workspace_pool();

}  // namespace nvm::simd
