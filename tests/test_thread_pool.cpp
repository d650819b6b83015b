#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/thread_pool.hpp"

namespace wrsn {
namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.submit([&] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] = static_cast<int>(i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], i);
}

TEST(ThreadPool, ParallelForZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins; queued tasks either ran or were dropped post-stop
  // The single worker must have executed at least the task it was running,
  // and no crash/UB may occur. Executed count is <= 50.
  EXPECT_LE(counter.load(), 50);
}

TEST(ThreadPool, SingleThreadPreservesUsability) {
  ThreadPool pool(1);
  int sum = 0;
  std::vector<std::future<int>> futs;
  for (int i = 1; i <= 10; ++i) futs.push_back(pool.submit([i] { return i; }));
  for (auto& f : futs) sum += f.get();
  EXPECT_EQ(sum, 55);
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

TEST(ResolveThreads, ExplicitValuePassesThrough) {
  ::unsetenv("WRSN_THREADS");
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ResolveThreads, AutoWithoutEnvIsHardwareConcurrency) {
  ::unsetenv("WRSN_THREADS");
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  ::setenv("WRSN_THREADS", "", 1);  // empty counts as unset
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  ::unsetenv("WRSN_THREADS");
}

TEST(ResolveThreads, AutoReadsEnv) {
  ::setenv("WRSN_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5u);
  // Explicit config beats the env.
  EXPECT_EQ(resolve_threads(3), 3u);
  // Env value 0 = hardware concurrency (>= 1).
  ::setenv("WRSN_THREADS", "0", 1);
  EXPECT_GE(resolve_threads(0), 1u);
  ::unsetenv("WRSN_THREADS");
}

// Only plain digits are a thread count: a sign, junk or an overflow must
// not wrap or truncate, and the error names the variable.
TEST(ResolveThreads, RejectsMalformedEnv) {
  for (const char* bad : {"-1", "abc", "4x", " 4", "+4", "99999999999999999999999"}) {
    ::setenv("WRSN_THREADS", bad, 1);
    try {
      (void)resolve_threads(0);
      ADD_FAILURE() << "accepted WRSN_THREADS='" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("WRSN_THREADS"), std::string::npos)
          << e.what();
    }
    // An explicit budget never consults the env.
    EXPECT_EQ(resolve_threads(2), 2u);
  }
  ::unsetenv("WRSN_THREADS");
}

}  // namespace
}  // namespace wrsn
