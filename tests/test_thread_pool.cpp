// ThreadPool semantics: completion, exception propagation, nesting,
// pool-size-independent decomposition, serial degeneration, concurrent
// submitters, and the spin-then-sleep worker lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace nvm {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 5000;
  std::vector<std::int64_t> out(kN, -1);
  pool.parallel_for(kN, [&](std::int64_t i) { out[i] = i * i; });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::int64_t) { ++calls; });
  pool.parallel_for(-3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::int64_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          ++completed;
                        }),
      std::runtime_error);
  // Indices are claimed one at a time, so the throw abandons only index
  // 37: every other index still completed before the rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ExceptionPropagatesFromSerialPoolToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::int64_t) { throw std::logic_error("serial"); }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlockAndCompletes) {
  ThreadPool pool(4);
  constexpr std::int64_t kOuter = 16, kInner = 32;
  std::vector<std::int64_t> sums(kOuter, 0);
  pool.parallel_for(kOuter, [&](std::int64_t o) {
    // Nested call from inside a parallel region: must run inline.
    std::int64_t local = 0;
    pool.parallel_for(kInner, [&](std::int64_t i) {
      EXPECT_TRUE(ThreadPool::in_parallel_region());
      local += i;
    });
    sums[o] = local;
  });
  for (std::int64_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
}

TEST(ThreadPool, SizeOneDegeneratesToInlineSerialExecution) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  std::vector<std::int64_t> order;
  pool.parallel_for(16, [&](std::int64_t i) {
    seen[i] = std::this_thread::get_id();
    order.push_back(i);  // safe: serial execution, no concurrency
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
  // Serial execution visits indices in order.
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
}

TEST(ThreadPool, ChunkDecompositionIsPoolSizeIndependent) {
  // parallel_chunks must split identically under any pool size: chunk
  // count min(max_chunks, n), contiguous, covering [0, n).
  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(pool_size);
    std::mutex mu;
    std::vector<std::array<std::int64_t, 3>> chunks;
    pool.parallel_chunks(10, 3,
                         [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                           std::lock_guard<std::mutex> lock(mu);
                           chunks.push_back({c, b, e});
                         });
    ASSERT_EQ(chunks.size(), 3u);
    std::sort(chunks.begin(), chunks.end());
    std::int64_t covered = 0;
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(chunks[static_cast<std::size_t>(c)][0], c);
      EXPECT_EQ(chunks[static_cast<std::size_t>(c)][1], covered);
      covered = chunks[static_cast<std::size_t>(c)][2];
    }
    EXPECT_EQ(covered, 10);
  }
}

TEST(ThreadPool, ChunkBoundariesMatchLegacyFormulaWhereItWasSafe) {
  // The overflow-safe split must keep the exact floor(c*n/chunks)
  // boundaries of the narrow int64 formula for every size it handled, so
  // any decomposition-keyed result (seeds, reduction order) is unchanged.
  ThreadPool pool(1);
  const std::int64_t cases[][2] = {
      {1, 1}, {7, 3}, {10, 3}, {64, 8}, {1000, 7}, {12345, 13}, {1 << 20, 48},
  };
  for (const auto& [n, max_chunks] : cases) {
    std::vector<std::array<std::int64_t, 3>> chunks;
    pool.parallel_chunks(n, max_chunks,
                         [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                           chunks.push_back({c, b, e});
                         });
    const std::int64_t k = std::min(max_chunks, n);
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(k));
    for (const auto& [c, b, e] : chunks) {
      EXPECT_EQ(b, c * n / k) << "n=" << n << " chunks=" << k;
      EXPECT_EQ(e, (c + 1) * n / k) << "n=" << n << " chunks=" << k;
    }
  }
}

TEST(ThreadPool, HugeRangeChunksDoNotOverflow) {
  // With n near 2^63, c * n overflows int64 for every c > 1; the widened
  // split must still produce exact, contiguous, monotone boundaries.
  ThreadPool pool(1);
  const std::int64_t n = std::int64_t{6'000'000'000'000'000'000};
  std::vector<std::array<std::int64_t, 3>> chunks;
  pool.parallel_chunks(n, 4,
                       [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                         chunks.push_back({c, b, e});
                       });
  ASSERT_EQ(chunks.size(), 4u);
  std::sort(chunks.begin(), chunks.end());
  const std::int64_t expect[] = {0, n / 4, n / 2, 3 * (n / 4), n};
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(chunks[static_cast<std::size_t>(c)][1], expect[c]);
    EXPECT_EQ(chunks[static_cast<std::size_t>(c)][2], expect[c + 1]);
  }
}

TEST(ThreadPool, ChunkCountNeverExceedsWorkCount) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_chunks(2, 8, [&](std::int64_t, std::int64_t b, std::int64_t e) {
    EXPECT_EQ(e - b, 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, ScopedUseRoutesFreeFunctions) {
  ThreadPool pool(3);
  EXPECT_NE(&ThreadPool::current(), &pool);
  {
    ThreadPool::ScopedUse use(pool);
    EXPECT_EQ(&ThreadPool::current(), &pool);
    std::atomic<std::int64_t> sum{0};
    parallel_for(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
  EXPECT_NE(&ThreadPool::current(), &pool);
}

TEST(ThreadPool, GlobalPoolHonorsAtLeastOneThread) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, ManyRoundsStayConsistent) {
  // Regression guard for queue/join lifecycle bugs: many small regions.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(17, [&](std::int64_t i) { sum += i + round; });
    EXPECT_EQ(sum.load(), 17 * round + 136);
  }
}

TEST(ThreadPool, JoinNeverReturnsBeforeTheLastChunkLetsGo) {
  // parallel_for may return, and the next region reuse the pool's job
  // slot, only once the last item has finished touching the job. Many
  // tiny regions make the submitter's own items finish at the same moment
  // as the workers'; under -fsanitize=thread an early return shows up as a
  // race on the job's fields or on the caller's function object.
  ThreadPool pool(4);
  std::atomic<std::int64_t> calls{0};
  for (int round = 0; round < 20000; ++round)
    pool.parallel_for(4, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 4 * 20000);
}

/// Spins until `ready` holds or `limit` passes; returns whether it held.
template <class Ready>
bool wait_for(Ready ready, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, ConcurrentSubmittersEachRunEveryIndexOnce) {
  // Several serve::Servers sharing ServeOptions::pool submit from their
  // own scheduler threads: four 4-thread parallel_fors on one pool, issued
  // at once from four threads, round after round. One job is in flight at
  // a time; the others run inline, and every index runs exactly once.
  ThreadPool pool(4);
  constexpr std::int64_t kN = 257;
  constexpr int kSubmitters = 4, kRounds = 300;
  std::vector<std::vector<int>> hits(kSubmitters,
                                     std::vector<int>(kN * kRounds, 0));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(kN, [&](std::int64_t i) {
          ++hits[static_cast<std::size_t>(t)]
                [static_cast<std::size_t>(round * kN + i)];
        });
    });
  for (auto& th : submitters) th.join();
  for (int t = 0; t < kSubmitters; ++t)
    EXPECT_EQ(std::count(hits[static_cast<std::size_t>(t)].begin(),
                         hits[static_cast<std::size_t>(t)].end(), 1),
              kN * kRounds)
        << "submitter " << t;
}

TEST(ThreadPool, ParallelForHandsIndicesToWhicheverThreadIsFree) {
  // Index 0 holds its thread until every other index has run. Under a
  // fixed contiguous split its thread would also own index 1 and the wait
  // could never end; claimed one at a time, the other threads run all 7.
  ThreadPool pool(4);
  std::atomic<int> others{0};
  std::atomic<bool> saw_all{false};
  pool.parallel_for(8, [&](std::int64_t i) {
    if (i == 0) {
      saw_all = wait_for([&] { return others.load() == 7; },
                         std::chrono::milliseconds(10000));
    } else {
      ++others;
    }
  });
  EXPECT_TRUE(saw_all.load());
}

TEST(ThreadPool, JobAfterWorkersSleptStillCompletes) {
  // After a region the workers spin for a short budget, then sleep. A job
  // published long after that must wake every one of them: each of 4
  // items waits until 4 threads hold an item at once, which a lost
  // wake-up would never let happen.
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::atomic<int> arrived{0}, met{0};
    pool.parallel_for(4, [&](std::int64_t) {
      ++arrived;
      if (wait_for([&] { return arrived.load() == 4; },
                   std::chrono::milliseconds(10000)))
        ++met;
    });
    EXPECT_EQ(met.load(), 4) << "round " << round;
  }
}

TEST(ThreadPool, WorkerThrowPropagatesAndPoolStaysUsable) {
  // The items of a 4-thread pool meet (as above), so workers run three of
  // them; those throw. The first throw reaches the submitter, and the
  // pool then runs further regions normally.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::int64_t) {
                                   ++arrived;
                                   wait_for([&] { return arrived.load() == 4; },
                                            std::chrono::milliseconds(10000));
                                   if (std::this_thread::get_id() != caller)
                                     throw std::runtime_error("worker");
                                 }),
               std::runtime_error);
  EXPECT_EQ(arrived.load(), 4);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(100, 0);
    pool.parallel_for(100, [&](std::int64_t i) { ++hits[i]; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 100);
  }
}

TEST(ThreadPool, DestroyingASpinningPoolReturnsPromptly) {
  // Right after a region the workers are still spinning; the destructor
  // must stop them at once, not after a sleep they never start.
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallel_for(4, [&](std::int64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 4);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

}  // namespace
}  // namespace nvm
