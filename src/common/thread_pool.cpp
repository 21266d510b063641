#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"

namespace nvm {

namespace {

thread_local int t_parallel_depth = 0;
thread_local ThreadPool* t_override_pool = nullptr;

/// How long an idle thread polls for a new job (a worker) or the job's
/// last item (the submitter) before it sleeps; see DESIGN.md §8's sweep.
constexpr std::chrono::microseconds kSpinBudget{100};

/// The work word's low half counts unclaimed items of the pooled job.
constexpr std::uint64_t kMaxItems = 0xffffffffu;

std::size_t default_size() {
  const std::int64_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("NVM_THREADS", hw)));
}

/// floor(c * n / items), widened so c * n cannot overflow int64.
std::int64_t chunk_begin(std::int64_t n, std::int64_t items, std::int64_t c) {
  return static_cast<std::int64_t>(static_cast<__int128>(c) * n / items);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? default_size() : threads) {
  for (std::size_t i = 0; i + 1 < size_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  wake();
  for (auto& w : workers_) w.join();
}

// Polls `ready` for kSpinBudget, then sleeps until it holds. The sleeper
// counts itself in sleepers_ under mu_ before testing `ready` again; the
// state change behind `ready` and wake()'s read of sleepers_ are seq_cst,
// so either the waker sees the sleeper or the sleeper sees the change.
template <class Ready>
void ThreadPool::await(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1; !ready(); ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
    if (i % 64 != 0 || std::chrono::steady_clock::now() < deadline) continue;
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1);
    cv_.wait(lock, ready);
    sleepers_.fetch_sub(1);
    return;
  }
}

void ThreadPool::wake() {
  if (sleepers_.load() == 0) return;
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (std::uint64_t seen = 0;;) {  // epoch of the last job looked at
    await([&] { return (work_.load() >> 32) != seen || stop_.load(); });
    if (stop_.load()) return;
    seen = work_.load() >> 32;
    claim_items(seen, true);
  }
}

// Claims and runs items of job `epoch` until none is left unclaimed. A
// successful compare-and-swap proves the job is in flight, and the
// claimed item keeps it so until done_ counts the item: every read of the
// job's fields sits in that window.
void ThreadPool::claim_items(std::uint64_t epoch, bool worker) {
  // Publish -> start of a worker's first item of the job (ns).
  static metrics::Histogram& queue_wait =
      metrics::histogram("pool/queue_wait_ns");
  bool first = worker;
  std::uint64_t w = work_.load(std::memory_order_acquire);
  while ((w >> 32) == epoch && (w & kMaxItems) != 0) {
    if (!work_.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      continue;
    const std::int64_t items = items_;
    const std::int64_t c = items - static_cast<std::int64_t>(w & kMaxItems);
    if (std::exchange(first, false))
      queue_wait.observe(std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - published_)
                             .count());
    ++t_parallel_depth;  // nested parallel calls from fn run inline
    try {
      (*fn_)(c, chunk_begin(n_, items, c), chunk_begin(n_, items, c + 1));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    --t_parallel_depth;
    // Only a worker can finish the job while the submitter sleeps.
    if (done_.fetch_add(1) + 1 == items && worker) wake();
    w = work_.load(std::memory_order_acquire);
  }
}

void ThreadPool::run(std::int64_t n, std::int64_t items, const ChunkFn& fn) {
  // Items run (inline or pooled), and jobs published to the workers.
  static metrics::Counter& chunks_run = metrics::counter("pool/chunks_run");
  static metrics::Counter& forks = metrics::counter("pool/forks");
  if (items == 1 || static_cast<std::uint64_t>(items) > kMaxItems ||
      size_ == 1 || in_parallel_region() ||
      busy_.exchange(true, std::memory_order_acquire)) {
    // Serial: same decomposition, same order, no threads.
    for (std::int64_t c = 0; c < items; ++c)
      fn(c, chunk_begin(n, items, c), chunk_begin(n, items, c + 1));
    chunks_run.add(static_cast<std::uint64_t>(items));
    return;
  }
  fn_ = &fn;
  n_ = n;
  items_ = items;
  published_ = std::chrono::steady_clock::now();
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t epoch = ((work_.load() >> 32) + 1) & kMaxItems;
  work_.store(epoch << 32 | static_cast<std::uint64_t>(items));
  wake();
  forks.add();
  chunks_run.add(static_cast<std::uint64_t>(items));
  claim_items(epoch, false);
  await([&] { return done_.load() == items; });
  std::exception_ptr error = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                                 const ChunkFn& fn) {
  if (n <= 0) return;
  NVM_CHECK_GT(max_chunks, 0);
  run(n, std::min(max_chunks, n), fn);
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  run(n, std::min(n, static_cast<std::int64_t>(kMaxItems)),
      [&fn](std::int64_t, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) fn(i);
      });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_size());
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_override_pool != nullptr ? *t_override_pool : global();
}

bool ThreadPool::in_parallel_region() { return t_parallel_depth > 0; }

ThreadPool::ScopedUse::ScopedUse(ThreadPool& pool) : prev_(t_override_pool) {
  t_override_pool = &pool;
}

ThreadPool::ScopedUse::~ScopedUse() { t_override_pool = prev_; }

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  ThreadPool::current().parallel_for(n, fn);
}

void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                     const ThreadPool::ChunkFn& fn) {
  ThreadPool::current().parallel_chunks(n, max_chunks, fn);
}

}  // namespace nvm
