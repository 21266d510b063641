#include "serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace nvm::serve {

namespace {

using Clock = std::chrono::steady_clock;

// One server's metric family, resolved once per server from its
// ServeOptions::metric_scope (standalone servers keep the historical
// "serve/..." names; cluster shards get "serve/shard<k>/..."). Servers
// constructed with the same scope alias the same process-wide metrics —
// the registry's find-or-create makes re-registration a no-op, so a
// shard's per-model servers tally into one family additively. Every
// submitted request resolves to exactly one terminal counter: served,
// shed, timeouts, cancelled, errors, or rejected_shutdown.
struct ServeMetrics {
  metrics::Counter& requests;
  metrics::Counter& served;
  metrics::Counter& batches;
  metrics::Counter& shed;
  metrics::Counter& timeouts;
  metrics::Counter& cancelled;
  metrics::Counter& errors;
  metrics::Counter& rejected_shutdown;
  /// Admitted-but-undispatched requests. Maintained with Gauge::add (not
  /// set) so several servers sharing the scope aggregate instead of
  /// clobbering each other — the signal the least-loaded router reads.
  metrics::Gauge& queue_depth;
  metrics::Histogram& batch_size;
  metrics::Histogram& queue_latency;
  // Per-request stage histograms (see StageBreakdown in serve.h).
  // Observed once per request; batch-level stages repeat for every rider
  // so the histogram mass reflects what requests experienced, not what
  // the scheduler did.
  metrics::Histogram& stage_batch_form;
  metrics::Histogram& stage_matmul;
  metrics::Histogram& stage_epilogue;

  explicit ServeMetrics(metrics::Scope& s)
      : requests(s.counter("requests")),
        served(s.counter("served")),
        batches(s.counter("batches")),
        shed(s.counter("shed")),
        timeouts(s.counter("timeouts")),
        cancelled(s.counter("cancelled")),
        errors(s.counter("errors")),
        rejected_shutdown(s.counter("rejected_shutdown")),
        queue_depth(s.gauge("queue_depth")),
        batch_size(s.histogram("batch_size",
                               {1, 2, 4, 8, 16, 32, 64, 128, 256})),
        queue_latency(s.histogram("queue_latency_ns")),
        stage_batch_form(s.histogram("stage/batch_form_ns")),
        stage_matmul(s.histogram("stage/matmul_ns")),
        stage_epilogue(s.histogram("stage/epilogue_ns")) {}
};

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

namespace detail {

/// One in-flight request; shared by the submitter's Ticket and the queue.
struct Request {
  Tensor x;  // flat (feature_dim)
  Clock::time_point enqueued;
  std::int64_t shard = -1;  // serving shard (from ServeOptions::shard)
  std::atomic<bool> cancel_requested{false};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Reply reply;

  /// Terminal transition: records the reply (stamping total_ns and the
  /// shard identity) and wakes the ticket holder. Called exactly once per
  /// request.
  void fulfill(Reply&& r) {
    r.total_ns = ns_between(enqueued, Clock::now());
    r.shard = shard;
    {
      std::lock_guard<std::mutex> lock(mu);
      reply = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

const char* to_string(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::Ok: return "ok";
    case ReplyStatus::Shed: return "shed";
    case ReplyStatus::Timeout: return "timeout";
    case ReplyStatus::Cancelled: return "cancelled";
    case ReplyStatus::Error: return "error";
    case ReplyStatus::Shutdown: return "shutdown";
  }
  return "unknown";
}

TiledLinearBackend::TiledLinearBackend(
    const Tensor& w, std::shared_ptr<const xbar::MvmModel> model,
    puma::HwConfig hw, float input_scale)
    : tiled_(w, std::move(model), hw), input_scale_(input_scale) {
  // Dynamic (per-call max) scaling would quantize a request differently
  // depending on its batch mates, breaking the determinism contract.
  NVM_CHECK(input_scale_ > 0.0f,
            "TiledLinearBackend needs a fixed positive input_scale, got "
                << input_scale_);
}

Tensor TiledLinearBackend::logits_block(const Tensor& x_block) {
  return tiled_.matmul(x_block, input_scale_);
}

ServeOptions ServeOptions::from_env() {
  ServeOptions o;
  o.max_batch =
      std::max<std::int64_t>(1, env_int("NVM_SERVE_MAX_BATCH", o.max_batch));
  o.queue_capacity = std::max<std::int64_t>(
      1, env_int("NVM_SERVE_QUEUE_CAP", o.queue_capacity));
  o.timeout_us =
      std::max<std::int64_t>(0, env_int("NVM_SERVE_TIMEOUT_US", o.timeout_us));
  return o;
}

struct Server::Impl {
  BatchClassifier& backend;
  ServeOptions opt;
  metrics::Scope scope;
  ServeMetrics m;

  std::mutex mu;
  std::condition_variable work;
  std::deque<std::shared_ptr<detail::Request>> queue;
  bool draining = false;

  std::thread scheduler;

  Impl(BatchClassifier& b, ServeOptions o)
      : backend(b), opt(std::move(o)), scope(opt.metric_scope), m(scope) {}

  void scheduler_loop();
  void process_batch(std::vector<std::shared_ptr<detail::Request>>& batch);
};

void Server::Impl::scheduler_loop() {
  // Route the backend's nvm::parallel_for fan-out through the configured
  // pool for the lifetime of this (scheduler) thread.
  std::optional<ThreadPool::ScopedUse> use;
  if (opt.pool != nullptr) use.emplace(*opt.pool);

  for (;;) {
    std::vector<std::shared_ptr<detail::Request>> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      work.wait(lock, [this] { return draining || !queue.empty(); });
      if (queue.empty()) return;  // draining and fully drained

      // Work-conserving dispatch: take whatever is queued, up to max_batch,
      // without waiting for more. Batches form from the requests that
      // arrive while the previous batch runs.
      const std::size_t take = std::min<std::size_t>(
          queue.size(), static_cast<std::size_t>(opt.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      m.queue_depth.add(-static_cast<double>(take));
    }
    process_batch(batch);
  }
}

void Server::Impl::process_batch(
    std::vector<std::shared_ptr<detail::Request>>& batch) {
  NVM_TRACE_SPAN("serve/batch");
  const Clock::time_point assembled = Clock::now();

  // Cancelled and expired requests release their batch slot here, before
  // any analog work is spent on them.
  std::vector<std::shared_ptr<detail::Request>> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    if (req->cancel_requested.load(std::memory_order_relaxed)) {
      m.cancelled.add();
      Reply r;
      r.status = ReplyStatus::Cancelled;
      req->fulfill(std::move(r));
    } else if (opt.timeout_us > 0 &&
               assembled - req->enqueued >
                   std::chrono::microseconds(opt.timeout_us)) {
      m.timeouts.add();
      Reply r;
      r.status = ReplyStatus::Timeout;
      req->fulfill(std::move(r));
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;

  const std::int64_t n = static_cast<std::int64_t>(live.size());
  const std::int64_t feat = backend.feature_dim();
  const std::int64_t classes = backend.classes();

  // One request per column, matching the (rows, n) multi-RHS convention
  // of the tiled analog path.
  Tensor x_block({feat, n});
  std::vector<double> queue_ns(static_cast<std::size_t>(n));
  {
    NVM_TRACE_SPAN("serve/stage/batch_form");
    for (std::int64_t k = 0; k < n; ++k) {
      const detail::Request& req = *live[static_cast<std::size_t>(k)];
      const float* src = req.x.raw();
      float* dst = x_block.raw();
      for (std::int64_t i = 0; i < feat; ++i) dst[i * n + k] = src[i];
      queue_ns[static_cast<std::size_t>(k)] =
          ns_between(req.enqueued, assembled);
      m.queue_latency.observe(queue_ns[static_cast<std::size_t>(k)]);
    }
  }
  const Clock::time_point formed = Clock::now();
  const double batch_form_ns = ns_between(assembled, formed);

  Tensor logits;
  try {
    NVM_TRACE_SPAN("serve/stage/matmul");
    logits = backend.logits_block(x_block);
    NVM_CHECK_EQ(logits.dim(0), classes);
    NVM_CHECK_EQ(logits.dim(1), n);
  } catch (const std::exception& e) {
    m.errors.add(static_cast<std::uint64_t>(n));
    NVM_LOG(Error) << "serve backend failed on a batch of " << n << ": "
                   << e.what();
    for (auto& req : live) {
      Reply r;
      r.status = ReplyStatus::Error;
      r.batch_size = n;
      req->fulfill(std::move(r));
    }
    return;
  }
  const Clock::time_point matmul_done = Clock::now();
  const double matmul_ns = ns_between(formed, matmul_done);

  m.batches.add();
  m.batch_size.observe(static_cast<double>(n));
  m.served.add(static_cast<std::uint64_t>(n));
  {
    NVM_TRACE_SPAN("serve/stage/epilogue");
    for (std::int64_t k = 0; k < n; ++k) {
      Reply r;
      r.status = ReplyStatus::Ok;
      r.logits = Tensor({classes});
      for (std::int64_t j = 0; j < classes; ++j)
        r.logits[j] = logits.at(j, k);
      r.label = r.logits.argmax();
      r.batch_size = n;
      r.queue_ns = queue_ns[static_cast<std::size_t>(k)];
      r.stages.queue_wait_ns = r.queue_ns;
      r.stages.batch_form_ns = batch_form_ns;
      r.stages.matmul_ns = matmul_ns;
      // Epilogue up to *this* reply: scatter/argmax work ahead of it in
      // the batch is time the request really waited post-matmul.
      r.stages.epilogue_ns = ns_between(matmul_done, Clock::now());
      m.stage_batch_form.observe(batch_form_ns);
      m.stage_matmul.observe(matmul_ns);
      m.stage_epilogue.observe(r.stages.epilogue_ns);
      live[static_cast<std::size_t>(k)]->fulfill(std::move(r));
    }
  }

  // Streaming-telemetry pulse, one per micro-batch, ticked by the batch
  // counter (no wall clock): tracked serve/* series get their trajectory
  // sampled at the scheduler's natural cadence.
  telemetry::sample_all(m.batches.value());
}

Server::Server(BatchClassifier& backend, ServeOptions opt) : opt_(opt) {
  NVM_CHECK_GT(opt_.max_batch, 0);
  NVM_CHECK_GT(opt_.queue_capacity, 0);
  NVM_CHECK_GE(opt_.timeout_us, 0);
  NVM_CHECK_GT(backend.feature_dim(), 0);
  NVM_CHECK_GT(backend.classes(), 0);
  impl_ = std::make_unique<Impl>(backend, opt_);
  // Default streaming-telemetry coverage for this server's scope: the
  // batch counter's trajectory, the queue-depth gauge, and the queue/stage
  // histograms (sampled as cumulative observation counts), pulsed once per
  // micro-batch by this server's scheduler. track() is idempotent, so
  // scope-sharing servers do not double-register.
  telemetry::track(impl_->scope.full_name("batches"));
  telemetry::track(impl_->scope.full_name("served"));
  telemetry::track(impl_->scope.full_name("queue_depth"));
  telemetry::track(impl_->scope.full_name("queue_latency_ns"));
  telemetry::track(impl_->scope.full_name("stage/matmul_ns"));
  impl_->scheduler = std::thread([this] { impl_->scheduler_loop(); });
}

Server::~Server() { drain(); }

Server::Ticket Server::submit(Tensor features) {
  // A malformed submit throws before it is counted, so every counted
  // request still resolves to exactly one terminal counter.
  NVM_CHECK_EQ(features.numel(), impl_->backend.feature_dim());
  impl_->m.requests.add();
  auto req = std::make_shared<detail::Request>();
  features.reshape({features.numel()});
  req->x = std::move(features);
  req->enqueued = Clock::now();
  req->shard = opt_.shard;

  bool admitted = false;
  ReplyStatus rejection = ReplyStatus::Shutdown;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->draining) {
      rejection = ReplyStatus::Shutdown;
    } else if (static_cast<std::int64_t>(impl_->queue.size()) >=
               opt_.queue_capacity) {
      rejection = ReplyStatus::Shed;
    } else {
      impl_->queue.push_back(req);
      admitted = true;
    }
  }
  if (admitted) {
    impl_->m.queue_depth.add(1.0);
    impl_->work.notify_one();
  } else {
    (rejection == ReplyStatus::Shed ? impl_->m.shed
                                    : impl_->m.rejected_shutdown)
        .add();
    Reply r;
    r.status = rejection;
    req->fulfill(std::move(r));
  }
  return Ticket(req);
}

Server::Ticket Server::resolved(ReplyStatus status) {
  auto req = std::make_shared<detail::Request>();
  req->enqueued = Clock::now();
  Reply r;
  r.status = status;
  req->fulfill(std::move(r));
  return Ticket(std::move(req));
}

std::int64_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<std::int64_t>(impl_->queue.size());
}

Reply Server::classify(Tensor features) {
  return submit(std::move(features)).get();
}

void Server::drain() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->draining = true;
  }
  impl_->work.notify_all();
  if (impl_->scheduler.joinable()) impl_->scheduler.join();
}

Reply Server::Ticket::get() {
  if (req_ == nullptr) {
    Reply r;
    r.status = ReplyStatus::Shutdown;
    return r;
  }
  std::unique_lock<std::mutex> lock(req_->mu);
  req_->cv.wait(lock, [this] { return req_->done; });
  return req_->reply;
}

void Server::Ticket::cancel() {
  if (req_ != nullptr)
    req_->cancel_requested.store(true, std::memory_order_relaxed);
}

std::vector<double> poisson_arrivals_us(std::int64_t n, double rate_rps,
                                        std::uint64_t seed) {
  NVM_CHECK_GE(n, 0);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  if (rate_rps <= 0.0) return out;
  double t_us = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    // Gap i is a pure function of (seed, i): inverse-CDF of Exp(rate) on
    // one uniform draw from the request's own derived stream.
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
    t_us += -std::log1p(-rng.uniform()) / rate_rps * 1e6;
    out[static_cast<std::size_t>(i)] = t_us;
  }
  return out;
}

double percentile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size() - 1) + 0.5));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx] / 1e6;
}

TrafficReport run_open_loop(Server& server, std::span<const Tensor> requests,
                            const TrafficOptions& opt) {
  const std::int64_t n = static_cast<std::int64_t>(requests.size());
  const std::vector<double> offsets =
      poisson_arrivals_us(n, opt.rate_rps, opt.seed);

  std::vector<Server::Ticket> tickets(static_cast<std::size_t>(n));
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    if (opt.rate_rps > 0.0)
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(static_cast<std::int64_t>(
                      offsets[static_cast<std::size_t>(i)])));
    tickets[static_cast<std::size_t>(i)] =
        server.submit(requests[static_cast<std::size_t>(i)]);
  }

  TrafficReport rep;
  rep.labels.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> total_ns, queue_ns;
  double batch_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    Reply r = tickets[static_cast<std::size_t>(i)].get();
    switch (r.status) {
      case ReplyStatus::Ok:
        ++rep.ok;
        rep.labels[static_cast<std::size_t>(i)] = r.label;
        total_ns.push_back(r.total_ns);
        queue_ns.push_back(r.queue_ns);
        batch_sum += static_cast<double>(r.batch_size);
        break;
      case ReplyStatus::Shed: ++rep.shed; break;
      case ReplyStatus::Timeout: ++rep.timed_out; break;
      case ReplyStatus::Cancelled: ++rep.cancelled; break;
      case ReplyStatus::Error: ++rep.errors; break;
      case ReplyStatus::Shutdown: ++rep.rejected_shutdown; break;
    }
  }
  rep.seconds = ns_between(start, Clock::now()) / 1e9;
  if (rep.ok > 0 && rep.seconds > 0.0)
    rep.throughput_rps = static_cast<double>(rep.ok) / rep.seconds;
  rep.p50_ms = percentile_ms(total_ns, 0.5);
  rep.p99_ms = percentile_ms(total_ns, 0.99);
  rep.queue_p50_ms = percentile_ms(queue_ns, 0.5);
  rep.queue_p99_ms = percentile_ms(queue_ns, 0.99);
  if (rep.ok > 0) rep.mean_batch = batch_sum / static_cast<double>(rep.ok);
  return rep;
}

}  // namespace nvm::serve
