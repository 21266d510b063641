// Fixed-size thread pool with a blocking parallel_for primitive.
//
// This is the single parallel-execution substrate for the whole library:
// tiled crossbar GEMMs (above a work floor), tile programming and chunk-
// kernel compilation when a TiledMatrix is built, per-column batched
// MVMs, GENIEx training-sample generation, synthetic dataset generation,
// and per-sample evaluation / attack crafting all fan out through it.
// GENIEx MLP training does not: a minibatch step is cheaper than a
// fork-join. Design constraints, in order:
//
//   * Determinism. parallel_for / parallel_chunks decompose work
//     independently of the pool size, and callers only submit index-wise
//     independent work (or reduce partials in a fixed order), so results
//     are bit-identical for any NVM_THREADS value, including 1.
//   * No work stealing, no task futures. One blocking fork-join primitive
//     keeps the concurrency surface small enough to reason about (and to
//     run cleanly under -fsanitize=thread).
//   * Nested calls never deadlock: a parallel_for issued from inside a
//     pool task runs inline (serially) on the current thread.
//
// The pool size is NVM_THREADS when set (via env_int), otherwise
// std::thread::hardware_concurrency(). Size 1 spawns no worker threads
// and executes everything inline on the caller — the serial baseline.
//
// A pool of size S runs S-1 dedicated workers; the submitting thread
// executes the first chunk itself, so S chunks make progress at once.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
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

  /// Runs fn(i) for every i in [0, n), blocking until all complete. The
  /// first exception thrown by any invocation is rethrown here after every
  /// chunk has finished; the throwing chunk abandons its remaining indices
  /// while other chunks run to completion. Indices are processed in
  /// contiguous blocks; fn must be safe to call concurrently for distinct i.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// Splits [0, n) into exactly min(max_chunks, n) contiguous chunks and
  /// runs fn(chunk, begin, end) for each, blocking until all complete.
  /// The decomposition depends only on (n, max_chunks) — never on the pool
  /// size — so chunk-indexed state (e.g. per-worker model replicas) sees
  /// the same partition under any NVM_THREADS. At most one invocation per
  /// chunk index runs at a time.
  void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                       const ChunkFn& fn);

  /// Process-wide pool, sized by NVM_THREADS (default
  /// hardware_concurrency). Constructed on first use.
  static ThreadPool& global();

  /// The pool free nvm::parallel_for routes through: the innermost active
  /// ScopedUse override on this thread, else global().
  static ThreadPool& current();

  /// True while the calling thread is executing inside a parallel region
  /// (pool worker or submitter running its own chunk). Nested parallel
  /// calls in this state run inline.
  static bool in_parallel_region();

  /// Routes nvm::parallel_for / parallel_chunks on this thread through
  /// `pool` for the scope's lifetime (tests and benchmarks comparing
  /// thread counts; normal code uses the global pool).
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
  void worker_loop();

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrappers over ThreadPool::current().
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);
void parallel_chunks(std::int64_t n, std::int64_t max_chunks,
                     const ThreadPool::ChunkFn& fn);

}  // namespace nvm
