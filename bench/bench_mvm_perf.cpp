// Microbenchmarks (google-benchmark) for the crossbar MVM backends and
// the tiled GEMM path — the cost hierarchy that motivates using the
// GENIEx surrogate (not the circuit solver) inside DNN experiments.
//
// The *Threads benchmarks drive the same code through explicit
// nvm::ThreadPool sizes (the benchmark Arg is the pool size, overriding
// NVM_THREADS), so one run reports the scaling curve. To capture a BENCH
// trajectory file for a PR, emit machine-readable JSON:
//
//   ./build/bench/bench_mvm_perf --benchmark_out=bench_mvm_perf.json
//       --benchmark_out_format=json
//
// --metrics-out PATH additionally writes the nvm::metrics run manifest.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/report.h"
#include "nn/loss.h"
#include "nn/resnet.h"
#include "puma/tiled_mvm.h"
#include "tensor/ops.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/geniex.h"
#include "xbar/model_zoo.h"

namespace {

using namespace nvm;

xbar::CrossbarConfig bench_cfg(std::int64_t n) {
  xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
  cfg.rows = cfg.cols = n;
  return cfg;
}

Tensor bench_g(const xbar::CrossbarConfig& cfg) {
  Rng rng(1);
  return xbar::sample_conductances(cfg, rng);
}

Tensor bench_v(const xbar::CrossbarConfig& cfg) {
  Rng rng(2);
  return xbar::sample_voltages(cfg, rng);
}

void BM_IdealMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::IdealXbarModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_IdealMvm)->Arg(32)->Arg(64);

void BM_FastNoiseMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_FastNoiseMvm)->Arg(32)->Arg(64);

void BM_GeniexMvm(benchmark::State& state) {
  // Uses the cached Table I surrogate for the 64x64_100k preset.
  auto model = xbar::make_geniex("64x64_100k");
  const auto& cfg = model->config();
  auto programmed = model->program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_GeniexMvm);

void BM_GeniexMvmBatch64(benchmark::State& state) {
  auto model = xbar::make_geniex("64x64_100k");
  const auto& cfg = model->config();
  auto programmed = model->program(bench_g(cfg));
  Rng rng(3);
  Tensor vb({cfg.rows, 64});
  for (auto& x : vb.data())
    x = static_cast<float>(rng.uniform(0, cfg.v_read));
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_batch(vb));
}
BENCHMARK(BM_GeniexMvmBatch64)->Unit(benchmark::kMillisecond);

Tensor bench_vblock(const xbar::CrossbarConfig& cfg, std::int64_t n) {
  Rng rng(8);
  Tensor vb({cfg.rows, n});
  for (auto& x : vb.data())
    x = rng.bernoulli(0.25) ? 0.0f : static_cast<float>(rng.uniform(0, cfg.v_read));
  return vb;
}

// Multi-RHS family: the same 64x64 fast-noise crossbar driven with a block
// of 1/8/32/128 input vectors, once through the single-vector mvm loop and
// once through the blocked mvm_multi path. Compare items_per_second between
// the two at equal block size for the batching speedup.
// Mirrors each leg's columns/sec into the metrics registry so the
// --metrics-out run manifest (the committed BENCH_mvm_perf.json) records
// the batched-vs-looped comparison alongside the warm-start numbers.
void record_cols_per_sec(const char* leg, std::int64_t block, double items,
                         double seconds) {
  if (seconds <= 0.0) return;
  std::ostringstream name;
  name << "bench/multi_rhs/" << leg << "_b" << block << "_cols_per_sec";
  metrics::gauge(name.str()).set(items / seconds);
}

void BM_FastNoiseMvmLooped(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  Tensor v({cfg.rows});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::int64_t k = 0; k < n; ++k) {
      for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, k);
      benchmark::DoNotOptimize(programmed->mvm(v));
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  record_cols_per_sec("looped", n,
                      static_cast<double>(state.iterations() * n), dt.count());
}
BENCHMARK(BM_FastNoiseMvmLooped)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_FastNoiseMvmMulti(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_multi(vb));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  record_cols_per_sec("multi", n,
                      static_cast<double>(state.iterations() * n), dt.count());
}
BENCHMARK(BM_FastNoiseMvmMulti)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_IdealMvmMulti(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::IdealXbarModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  // Derive sustained arithmetic throughput from the kernel layer's own
  // simd/flops counter (every gemm-family kernel self-reports 2*m*n*k)
  // rather than re-deriving shapes here; the widest block is the
  // representative number and lands in the run manifest as
  // bench/simd/gflops alongside the active tier (simd/isa).
  metrics::Counter& flops = metrics::counter("simd/flops");
  const std::uint64_t f0 = flops.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_multi(vb));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  const double gflops =
      dt.count() > 0.0
          ? static_cast<double>(flops.value() - f0) / dt.count() * 1e-9
          : 0.0;
  state.counters["gflops"] = gflops;
  if (n == 128) metrics::gauge("bench/simd/gflops").set(gflops);
}
BENCHMARK(BM_IdealMvmMulti)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// One solve under the red-black plane schedule (the solver's only
// schedule). The 64x64 arm is mirrored into the run manifest as
// bench/solver/ordering_redblack_ms, which the perf gate holds.
void BM_CircuitSolverMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::CircuitSolverModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.range(0) == 64 && state.iterations() > 0)
    metrics::gauge("bench/solver/ordering_redblack_ms")
        .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CircuitSolverMvm)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// The full GENIEx surrogate fit for the 64x64_100k crossbar with default
// options: 320 circuit solves fanned out across the pool, then the MLP
// training. Published as bench/xbar/geniex_fit_ms, which the perf gate
// holds.
void BM_GeniexFit(benchmark::State& state) {
  const xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state)
    benchmark::DoNotOptimize(xbar::GeniexModel::fit(cfg, {}));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() > 0)
    metrics::gauge("bench/xbar/geniex_fit_ms")
        .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GeniexFit)->Unit(benchmark::kMillisecond);

void BM_TiledMatmul(benchmark::State& state) {
  // A stage-2 conv GEMM: (16 x 72) weights, 36 im2col columns. The GENIEx
  // arm (Arg 1) runs the fused chunk route and lands in the run manifest
  // as bench/tiled/geniex_ms, which the perf gate holds.
  Rng rng(4);
  Tensor w = Tensor::normal({16, 72}, 0, 0.1f, rng);
  Tensor x({72, 36});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  std::shared_ptr<const xbar::MvmModel> model;
  if (state.range(0) == 0) {
    model = std::make_shared<xbar::IdealXbarModel>(xbar::xbar_64x64_100k());
  } else {
    model = xbar::make_geniex("64x64_100k");
  }
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.range(0) != 1 || state.iterations() == 0) return;
  metrics::gauge("bench/tiled/geniex_ms")
      .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TiledMatmul)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Deploying the stage-3 conv GEMM of the SCIFAR10 ResNet-20 ((64 x 576)
// weights: 9 row tiles x 2 polarities x 2 slices = 36 slots) onto GENIEx
// 64x64_100k tiles: quantize, slice, program every slot and compile its
// chunk kernel. Published as bench/tiled/program_ms, which the perf gate
// holds.
void BM_TiledProgram(benchmark::State& state) {
  Rng rng(11);
  Tensor w = Tensor::normal({64, 576}, 0, 0.1f, rng);
  std::shared_ptr<const xbar::MvmModel> model =
      xbar::make_geniex("64x64_100k");
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state)
    benchmark::DoNotOptimize(puma::TiledMatrix(w, model, puma::HwConfig{}));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() > 0)
    metrics::gauge("bench/tiled/program_ms")
        .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TiledProgram)->Unit(benchmark::kMillisecond);

// One fork-join of 4 near-empty items on a 4-thread pool: what a parallel
// region costs beyond its work, paid once per fanned-out tiled matmul.
// Published as bench/pool/fork_join_us, which the perf gate holds.
void BM_ForkJoin(benchmark::State& state) {
  ThreadPool pool(4);
  std::vector<std::int64_t> out(4, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    pool.parallel_for(4, [&](std::int64_t i) { ++out[i]; });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() > 0)
    metrics::gauge("bench/pool/fork_join_us")
        .set(dt.count() * 1e6 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ForkJoin)->Unit(benchmark::kMicrosecond);

void BM_CircuitSolverBatchThreads(benchmark::State& state) {
  // One programmed crossbar, 16 independent input vectors: the default
  // mvm_batch fans columns across the pool (GENIEx sample generation and
  // validation sweeps are exactly this shape).
  const auto cfg = bench_cfg(32);
  xbar::CircuitSolverModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Rng rng(6);
  Tensor vb({cfg.rows, 16});
  for (auto& x : vb.data())
    x = static_cast<float>(rng.uniform(0, cfg.v_read));
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ThreadPool::ScopedUse use(pool);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_batch(vb));
}
BENCHMARK(BM_CircuitSolverBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TiledMatmulThreads(benchmark::State& state) {
  // A wider GEMM than BM_TiledMatmul ((64 x 288) weights, 64 im2col
  // columns -> 2x9 tile grid x 2 polarities x 2 slices) so the per-slot
  // fan-out has enough independent crossbar passes to scale.
  Rng rng(7);
  Tensor w = Tensor::normal({64, 288}, 0, 0.1f, rng);
  Tensor x({288, 64});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  auto model =
      std::make_shared<xbar::FastNoiseModel>(xbar::xbar_64x64_100k());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ThreadPool::ScopedUse use(pool);
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
}
BENCHMARK(BM_TiledMatmulThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The serve-shaped fast-noise matmul ((16 x 128) classifier head) on the
// fused chunk kernels the TiledMatrix builds at construction. Arg 1 is
// the 32-column batched block, published as bench/tiled/fused_ms; Arg 2
// is one column, the block a lone served request costs, published as
// bench/tiled/fused_n1_ms. The perf gate holds both.
void BM_TiledMatmulFused(benchmark::State& state) {
  const bool one_column = state.range(0) == 2;
  Rng rng(10);
  Tensor w = Tensor::normal({16, 128}, 0, 0.1f, rng);
  Tensor x({128, one_column ? 1 : 32});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  auto model =
      std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() == 0) return;
  metrics::gauge(one_column ? "bench/tiled/fused_n1_ms"
                            : "bench/tiled/fused_ms")
      .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TiledMatmulFused)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Warm-start A/B: the same circuit-solver tiled matmul with stream
// warm-starting off (Arg 0, the pre-streaming behavior) and on (Arg 1).
// sweeps_per_matmul in the JSON is the acceptance number: warm-starting
// must cut total relaxation sweeps per tiled matmul by >= 20%.
void BM_SolverTiledMatmulWarmStart(benchmark::State& state) {
  Rng rng(9);
  Tensor w = Tensor::normal({16, 16}, 0, 0.1f, rng);
  Tensor x({16, 8});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  xbar::SolverOptions opt;
  opt.warm_start_streams = state.range(0) != 0;
  auto model = std::make_shared<xbar::CircuitSolverModel>(bench_cfg(16), opt);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& sweeps = metrics::counter("solver/sweeps");
  metrics::Counter& solves = metrics::counter("solver/solves");
  const std::uint64_t s0 = sweeps.value(), n0 = solves.value();
  // Streaming telemetry across the A/B: the sweep-counter trajectory per
  // benchmark iteration shows warm-starting flattening the slope.
  telemetry::track("solver/sweeps");
  std::uint64_t it = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
    telemetry::sample_all(it++);
  }
  const double iters = static_cast<double>(state.iterations());
  const double sweeps_per = static_cast<double>(sweeps.value() - s0) / iters;
  state.counters["sweeps_per_matmul"] = sweeps_per;
  state.counters["solves_per_matmul"] =
      static_cast<double>(solves.value() - n0) / iters;
  // Mirror the A/B numbers into the metrics registry so the --metrics-out
  // run manifest (the committed BENCH_mvm_perf.json) records both.
  metrics::gauge(opt.warm_start_streams
                     ? "bench/warm_start/sweeps_per_matmul_warm"
                     : "bench/warm_start/sweeps_per_matmul_cold")
      .set(sweeps_per);
}
BENCHMARK(BM_SolverTiledMatmulWarmStart)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Input-only backward A/B: one fixed-seed, untrained SCIFAR10 ResNet-20
// (widths 8/16/32, 12x12 input) on ideal engines, one Eval forward per
// measurement, then backward() and input_grad() timed alternately so host
// drift lands on both alike. The two return the same dx bits; the ratio
// bench/nn/input_grad_speedup is what skipping the parameter gradients
// (conv dW above all) saves per attack gradient, and the perf gate holds
// a floor on it.
/// The untrained SCIFAR10 ResNet-20 (widths 8/16/32) the nn benches run.
nn::Network probe_resnet20(Rng& rng) {
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 3;
  spec.widths = {8, 16, 32};
  spec.num_classes = 10;
  return nn::make_resnet_cifar(spec, rng);
}

void BM_InputGrad(benchmark::State& state) {
  Rng rng(11);
  nn::Network net = probe_resnet20(rng);
  Tensor x = Tensor::uniform({3, 12, 12}, 0.0f, 1.0f, rng);
  nn::LossGrad lg = nn::cross_entropy(net.forward(x, nn::Mode::Eval), 3);
  using Clock = std::chrono::steady_clock;
  std::chrono::duration<double> full_s{0}, input_s{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x, nn::Mode::Eval));
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(net.backward(lg.grad_logits));
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(net.input_grad(lg.grad_logits));
    input_s += Clock::now() - t1;
    full_s += t1 - t0;
  }
  net.zero_grads();
  if (state.iterations() == 0 || input_s.count() <= 0.0) return;
  const auto iters = static_cast<double>(state.iterations());
  metrics::gauge("bench/nn/backward_ms").set(full_s.count() * 1e3 / iters);
  metrics::gauge("bench/nn/input_grad_ms").set(input_s.count() * 1e3 / iters);
  metrics::gauge("bench/nn/input_grad_speedup")
      .set(full_s.count() / input_s.count());
}
BENCHMARK(BM_InputGrad)->Unit(benchmark::kMillisecond);

// One Eval forward of BM_InputGrad's network and image on ideal engines:
// the per-image digital classification every digital baseline, transfer
// attack and HIL gradient pays (GEMMs plus im2col and ReLU glue).
// bench/nn/forward_ms is its wall time per forward.
void BM_DigitalForward(benchmark::State& state) {
  Rng rng(11);
  nn::Network net = probe_resnet20(rng);
  Tensor x = Tensor::uniform({3, 12, 12}, 0.0f, 1.0f, rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, nn::Mode::Eval));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() == 0) return;
  metrics::gauge("bench/nn/forward_ms")
      .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DigitalForward)->Unit(benchmark::kMillisecond);

void BM_FloatGemmReference(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::normal({16, 72}, 0, 0.1f, rng);
  Tensor x = Tensor::uniform({72, 36}, 0, 1, rng);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(w, x));
}
BENCHMARK(BM_FloatGemmReference);

}  // namespace

// Expanded BENCHMARK_MAIN: peel our --metrics-out flag off argv before
// google-benchmark sees (and rejects) it, and write the run manifest after
// the benchmarks finish.
int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  nvm::core::RunManifest manifest =
      nvm::core::RunManifest::from_env("bench_mvm_perf", metrics_path);

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
