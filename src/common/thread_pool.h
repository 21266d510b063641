// Fixed-size fork-join pool: the library's one parallel substrate. Tiled
// crossbar GEMMs (above a work floor), TiledMatrix construction, batched
// MVM columns, GENIEx sample generation, synthetic datasets, and
// per-sample evaluation / attack crafting fan out through it.
//
//   * Determinism: parallel_chunks' decomposition ignores the pool size and
//     parallel_for work is index-wise independent, so results are
//     bit-identical for any NVM_THREADS, including 1.
//   * One job in flight, claimed item by item from one atomic word that
//     packs the job's epoch with its unclaimed-item count (thread_pool.cpp
//     says why a late thread never reads a newer job). A second concurrent
//     submitter, like any nested call, runs its job inline.
//   * Idle threads spin for a short budget, then sleep.
//
// Size: NVM_THREADS when set, else hardware_concurrency(); S-1 workers
// beside the submitter. Size 1 starts no threads — the serial baseline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nvm {

class ThreadPool {
 public:
  /// fn(chunk_index, begin, end): process indices [begin, end).
  using ChunkFn =
      std::function<void(std::int64_t, std::int64_t, std::int64_t)>;

  /// `threads` == 0 selects the NVM_THREADS / hardware default.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Runs fn(i) for every i in [0, n), blocking until all complete. Each
  /// index goes to whichever thread is free, so fn must be safe to call
  /// concurrently for distinct i. The first exception is rethrown once the
  /// region ends; pooled, every other index still runs.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// Splits [0, n) into exactly min(max_chunks, n) contiguous chunks and
  /// runs fn(chunk, begin, end) for each, blocking until all complete.
  /// The decomposition depends only on (n, max_chunks) — never on the pool
  /// size — so chunk-indexed state (e.g. per-worker model replicas) sees
  /// the same partition under any NVM_THREADS; one thread runs a chunk.
  void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                       const ChunkFn& fn);

  /// Process-wide default-sized pool, constructed on first use.
  static ThreadPool& global();

  /// The pool free nvm::parallel_for routes through: the innermost active
  /// ScopedUse override on this thread, else global().
  static ThreadPool& current();

  /// True while the calling thread runs an item of a parallel region;
  /// parallel calls made in this state run inline.
  static bool in_parallel_region();

  /// Routes nvm::parallel_for / parallel_chunks on this thread through
  /// `pool` for the scope's lifetime (tests, benchmarks, serve::Server).
  class ScopedUse {
   public:
    explicit ScopedUse(ThreadPool& pool);
    ~ScopedUse();
    ScopedUse(const ScopedUse&) = delete;
    ScopedUse& operator=(const ScopedUse&) = delete;

   private:
    ThreadPool* prev_;
  };

 private:
  void run(std::int64_t n, std::int64_t items, const ChunkFn& fn);
  void claim_items(std::uint64_t epoch, bool worker);
  template <class Ready>
  void await(Ready ready);
  void wake();
  void worker_loop();
  std::size_t size_ = 1;
  // The job in flight: set under busy_ before work_, read under a claim.
  const ChunkFn* fn_ = nullptr;
  std::int64_t n_ = 0, items_ = 0;
  std::chrono::steady_clock::time_point published_;
  std::exception_ptr error_;            // first exception; set under mu_
  std::atomic<std::uint64_t> work_{0};  // (epoch << 32) | unclaimed items
  std::atomic<std::int64_t> done_{0};   // finished items of the job
  std::atomic<bool> busy_{false}, stop_{false};
  std::atomic<int> sleepers_{0};  // threads in cv_.wait; changed under mu_
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;  // last: workers use every member
};

/// Convenience wrappers over ThreadPool::current().
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);
void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                     const ThreadPool::ChunkFn& fn);

}  // namespace nvm
