// nvm::serve semantics: the bit-identity determinism contract (served ==
// serial classify for every batch/thread config), work-conserving dispatch,
// shutdown drain, admission control (shed / reject-after-drain), queue
// timeout and cancellation, backend-failure replies, the deterministic
// Poisson arrival model, and NVM_SERVE_* env plumbing.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/serve.h"
#include "xbar/fast_noise.h"
#include "xbar/model_zoo.h"

namespace nvm {
namespace {

/// Test backend whose logits are a cheap pure function of each column
/// (batch-invariant by construction), with a gate so tests can hold the
/// scheduler inside a batch while they manipulate the queue.
class GateBackend final : public serve::BatchClassifier {
 public:
  GateBackend(std::int64_t feat, std::int64_t classes, bool open = false)
      : feat_(feat), classes_(classes), open_(open) {}

  std::int64_t feature_dim() const override { return feat_; }
  std::int64_t classes() const override { return classes_; }

  Tensor logits_block(const Tensor& x) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++batches_entered_;
      entered_.notify_all();
      gate_.wait(lock, [this] { return open_; });
    }
    const std::int64_t n = x.dim(1);
    Tensor out({classes_, n});
    for (std::int64_t j = 0; j < classes_; ++j)
      for (std::int64_t k = 0; k < n; ++k)
        out.at(j, k) = x.at(j % feat_, k) + static_cast<float>(j);
    return out;
  }

  /// Blocks until the scheduler has entered `k` batches in total.
  void wait_for_batches(int k) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.wait(lock, [this, k] { return batches_entered_ >= k; });
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_.notify_all();
  }

 private:
  std::int64_t feat_, classes_;
  std::mutex mu_;
  std::condition_variable entered_, gate_;
  int batches_entered_ = 0;
  bool open_;
};

class ThrowingBackend final : public serve::BatchClassifier {
 public:
  std::int64_t feature_dim() const override { return 4; }
  std::int64_t classes() const override { return 3; }
  Tensor logits_block(const Tensor&) override {
    throw std::runtime_error("injected backend failure");
  }
};

std::vector<Tensor> random_requests(std::int64_t n, std::int64_t feat,
                                    std::uint64_t seed) {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
    Tensor x({feat});
    for (auto& v : x.data()) v = static_cast<float>(rng.uniform());
    out.push_back(std::move(x));
  }
  return out;
}

// The tentpole acceptance test: N requests through the micro-batching
// server produce bit-identical logits and labels to serial single-sample
// classification, for every NVM_SERVE_MAX_BATCH x NVM_THREADS config. The
// analog backend uses a fixed input scale and a stateless (fast-noise)
// model, which is exactly the batch-invariance contract of serve.h.
TEST(Serve, ServedLogitsBitIdenticalToSerialClassify) {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "serve_test_16x16";
  auto model = std::make_shared<xbar::FastNoiseModel>(cfg);

  const std::int64_t classes = 8, feat = 48, n = 40;
  Rng wrng(3);
  Tensor w({classes, feat});
  for (auto& v : w.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));
  serve::TiledLinearBackend backend(w, model, puma::HwConfig{}, 1.0f);

  const std::vector<Tensor> requests = random_requests(n, feat, 17);

  // Serial reference: one column at a time, no server involved.
  std::vector<Tensor> ref;
  ref.reserve(static_cast<std::size_t>(n));
  for (const Tensor& x : requests) {
    Tensor col({feat, 1});
    std::memcpy(col.raw(), x.raw(), sizeof(float) * static_cast<std::size_t>(feat));
    ref.push_back(backend.logits_block(col));
  }

  for (const std::int64_t max_batch : {1, 8, 32}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("max_batch=" + std::to_string(max_batch) +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      serve::ServeOptions opt;
      opt.max_batch = max_batch;
      opt.queue_capacity = n;
      opt.pool = &pool;
      serve::Server server(backend, opt);

      std::vector<serve::Server::Ticket> tickets;
      tickets.reserve(static_cast<std::size_t>(n));
      for (const Tensor& x : requests) tickets.push_back(server.submit(x));
      for (std::int64_t i = 0; i < n; ++i) {
        serve::Reply r = tickets[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, serve::ReplyStatus::Ok);
        ASSERT_EQ(r.logits.numel(), classes);
        const Tensor& expect = ref[static_cast<std::size_t>(i)];
        EXPECT_EQ(std::memcmp(r.logits.raw(), expect.raw(),
                              sizeof(float) * static_cast<std::size_t>(classes)),
                  0)
            << "request " << i << " logits depend on batch composition";
        EXPECT_EQ(r.label, expect.reshaped({classes}).argmax());
        EXPECT_GE(r.batch_size, 1);
        EXPECT_LE(r.batch_size, max_batch);
      }
      server.drain();
    }
  }
}

// drain() must serve everything already admitted: no request lost, no
// hang, even when the queue is deep.
TEST(Serve, DrainServesEveryAdmittedRequest) {
  GateBackend backend(4, 3, /*open=*/true);
  serve::ServeOptions opt;
  opt.max_batch = 8;
  opt.queue_capacity = 64;
  serve::Server server(backend, opt);

  metrics::Counter& served = metrics::counter("serve/served");
  const std::uint64_t served_before = served.value();

  const std::vector<Tensor> requests = random_requests(64, 4, 5);
  std::vector<serve::Server::Ticket> tickets;
  for (const Tensor& x : requests) tickets.push_back(server.submit(x));
  server.drain();

  for (auto& t : tickets)
    EXPECT_EQ(t.get().status, serve::ReplyStatus::Ok);
  EXPECT_EQ(served.value() - served_before, 64u);
}

TEST(Serve, SubmitAfterDrainIsRejectedAsShutdown) {
  GateBackend backend(4, 3, /*open=*/true);
  serve::Server server(backend, serve::ServeOptions{});
  server.drain();
  const serve::Reply r = server.classify(Tensor({4}));
  EXPECT_EQ(r.status, serve::ReplyStatus::Shutdown);
}

// Admission control: with the scheduler held inside a batch and the queue
// at capacity, the next submit must be shed immediately (backpressure),
// and every admitted request must still be served once the gate opens.
TEST(Serve, QueueFullShedsDeterministically) {
  GateBackend backend(4, 3);
  serve::ServeOptions opt;
  opt.max_batch = 1;
  opt.queue_capacity = 2;
  serve::Server server(backend, opt);

  metrics::Counter& shed = metrics::counter("serve/shed");
  const std::uint64_t shed_before = shed.value();

  auto a = server.submit(Tensor({4}));
  backend.wait_for_batches(1);  // scheduler now blocked inside a's batch
  auto b = server.submit(Tensor({4}));
  auto c = server.submit(Tensor({4}));
  auto d = server.submit(Tensor({4}));  // queue holds {b, c}: full

  EXPECT_EQ(d.get().status, serve::ReplyStatus::Shed);  // resolves instantly
  EXPECT_EQ(shed.value() - shed_before, 1u);

  backend.open();
  EXPECT_EQ(a.get().status, serve::ReplyStatus::Ok);
  EXPECT_EQ(b.get().status, serve::ReplyStatus::Ok);
  EXPECT_EQ(c.get().status, serve::ReplyStatus::Ok);
  server.drain();
}

// A request that outlives timeout_us in the queue gets a Timeout reply and
// never spends analog work.
TEST(Serve, QueuedRequestTimesOut) {
  GateBackend backend(4, 3);
  serve::ServeOptions opt;
  opt.max_batch = 1;
  // Far above scheduler wake-up latency on a loaded host, so `a` is
  // dispatched before it can expire (an expired `a` never enters the
  // backend and wait_for_batches would block forever).
  opt.timeout_us = 20000;
  serve::Server server(backend, opt);

  auto a = server.submit(Tensor({4}));
  backend.wait_for_batches(1);
  auto b = server.submit(Tensor({4}));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // >> timeout
  backend.open();

  EXPECT_EQ(a.get().status, serve::ReplyStatus::Ok);
  EXPECT_EQ(b.get().status, serve::ReplyStatus::Timeout);
  server.drain();
}

TEST(Serve, CancelBeforeDispatchIsHonoured) {
  GateBackend backend(4, 3);
  serve::ServeOptions opt;
  opt.max_batch = 1;
  serve::Server server(backend, opt);

  auto a = server.submit(Tensor({4}));
  backend.wait_for_batches(1);
  auto b = server.submit(Tensor({4}));
  b.cancel();  // still queued: scheduler is blocked inside a's batch
  backend.open();

  EXPECT_EQ(a.get().status, serve::ReplyStatus::Ok);
  EXPECT_EQ(b.get().status, serve::ReplyStatus::Cancelled);
  server.drain();
}

TEST(Serve, BackendExceptionYieldsErrorReplies) {
  ThrowingBackend backend;
  serve::Server server(backend, serve::ServeOptions{});
  const serve::Reply r = server.classify(Tensor({4}));
  EXPECT_EQ(r.status, serve::ReplyStatus::Error);
  EXPECT_EQ(r.label, -1);
  server.drain();
}

// Every submitted request resolves to exactly one terminal metrics counter;
// a malformed submit throws before it is counted.
TEST(Serve, TerminalCountersPartitionRequests) {
  metrics::Counter& requests = metrics::counter("serve/requests");
  metrics::Counter& served = metrics::counter("serve/served");
  metrics::Counter& shed = metrics::counter("serve/shed");
  metrics::Counter& timeouts = metrics::counter("serve/timeouts");
  metrics::Counter& cancelled = metrics::counter("serve/cancelled");
  metrics::Counter& errors = metrics::counter("serve/errors");
  metrics::Counter& rejected = metrics::counter("serve/rejected_shutdown");
  const std::uint64_t base = served.value() + shed.value() +
                             timeouts.value() + cancelled.value() +
                             errors.value() + rejected.value();
  const std::uint64_t req_before = requests.value();

  GateBackend backend(4, 3, /*open=*/true);
  serve::ServeOptions opt;
  opt.queue_capacity = 32;
  serve::Server server(backend, opt);
  for (int i = 0; i < 12; ++i) (void)server.classify(Tensor({4}));
  EXPECT_THROW((void)server.submit(Tensor({5})), std::exception);
  server.drain();
  (void)server.submit(Tensor({4}));  // -> rejected_shutdown

  EXPECT_EQ(requests.value() - req_before, 13u);
  const std::uint64_t terminal = served.value() + shed.value() +
                                 timeouts.value() + cancelled.value() +
                                 errors.value() + rejected.value();
  EXPECT_EQ(terminal - base, 13u);
}

// Work-conserving dispatch: a lone request on an idle server rides a batch
// of one, and the requests that queue while a batch runs all ride the next
// one, however few they are. No timing assertions: the gate fixes the
// interleaving.
TEST(Serve, DispatchTakesWhateverIsQueued) {
  GateBackend backend(4, 3);
  serve::ServeOptions opt;
  opt.max_batch = 8;
  serve::Server server(backend, opt);

  auto a = server.submit(Tensor({4}));
  backend.wait_for_batches(1);  // scheduler now blocked inside a's batch
  auto b = server.submit(Tensor({4}));
  auto c = server.submit(Tensor({4}));
  auto d = server.submit(Tensor({4}));
  backend.open();

  EXPECT_EQ(a.get().batch_size, 1);
  for (auto* t : {&b, &c, &d}) {
    const serve::Reply r = t->get();
    EXPECT_EQ(r.status, serve::ReplyStatus::Ok);
    EXPECT_EQ(r.batch_size, 3);
  }
  // Idle again: a lone request is dispatched at once, alone.
  const serve::Reply lone = server.classify(Tensor({4}));
  EXPECT_EQ(lone.status, serve::ReplyStatus::Ok);
  EXPECT_EQ(lone.batch_size, 1);
  server.drain();
}

TEST(Serve, InvalidTicketReportsShutdown) {
  serve::Server::Ticket t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.get().status, serve::ReplyStatus::Shutdown);
}

TEST(Serve, PoissonArrivalsAreDeterministicAndMonotone) {
  const auto a = serve::poisson_arrivals_us(500, 2000.0, 42);
  const auto b = serve::poisson_arrivals_us(500, 2000.0, 42);
  EXPECT_EQ(a, b);  // pure function of (n, rate, seed)
  ASSERT_EQ(a.size(), 500u);
  double prev = 0.0;
  for (const double t : a) {
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Mean gap over 500 draws should be near 1/rate = 500 us.
  const double mean_gap = a.back() / 500.0;
  EXPECT_GT(mean_gap, 350.0);
  EXPECT_LT(mean_gap, 650.0);

  EXPECT_NE(a, serve::poisson_arrivals_us(500, 2000.0, 43));
  const auto sat = serve::poisson_arrivals_us(8, 0.0, 42);
  for (const double t : sat) EXPECT_EQ(t, 0.0);
}

TEST(Serve, OpenLoopTrafficServesEverythingAtModestLoad) {
  GateBackend backend(4, 3, /*open=*/true);
  serve::ServeOptions opt;
  opt.max_batch = 8;
  opt.queue_capacity = 256;
  serve::Server server(backend, opt);

  const std::vector<Tensor> requests = random_requests(64, 4, 9);
  serve::TrafficOptions traffic;
  traffic.rate_rps = 0.0;  // back-to-back: no wall-clock sleeps in the test
  const serve::TrafficReport rep =
      serve::run_open_loop(server, requests, traffic);
  server.drain();

  EXPECT_EQ(rep.ok, 64);
  EXPECT_EQ(rep.shed + rep.timed_out + rep.cancelled + rep.errors +
                rep.rejected_shutdown,
            0);
  EXPECT_EQ(rep.labels.size(), 64u);
  for (const std::int64_t label : rep.labels) EXPECT_GE(label, 0);
  EXPECT_GE(rep.mean_batch, 1.0);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_GE(rep.p99_ms, rep.p50_ms);
}

TEST(Serve, OptionsComeFromEnvironment) {
  ::setenv("NVM_SERVE_MAX_BATCH", "8", 1);
  ::setenv("NVM_SERVE_QUEUE_CAP", "7", 1);
  ::setenv("NVM_SERVE_TIMEOUT_US", "900", 1);
  serve::ServeOptions opt = serve::ServeOptions::from_env();
  EXPECT_EQ(opt.max_batch, 8);
  EXPECT_EQ(opt.queue_capacity, 7);
  EXPECT_EQ(opt.timeout_us, 900);

  // Malformed values fall back to defaults (env_int rejects "12abc"), and
  // out-of-range ones are clamped to usable minimums.
  ::setenv("NVM_SERVE_MAX_BATCH", "12abc", 1);
  ::setenv("NVM_SERVE_QUEUE_CAP", "-4", 1);
  opt = serve::ServeOptions::from_env();
  EXPECT_EQ(opt.max_batch, serve::ServeOptions{}.max_batch);
  EXPECT_EQ(opt.queue_capacity, 1);

  ::unsetenv("NVM_SERVE_MAX_BATCH");
  ::unsetenv("NVM_SERVE_QUEUE_CAP");
  ::unsetenv("NVM_SERVE_TIMEOUT_US");
}

}  // namespace
}  // namespace nvm
