#include "core/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

namespace wrsn {

namespace {

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::size_t resolve_threads(std::size_t config_threads) {
  if (config_threads >= 1) return config_threads;
  const char* env = std::getenv("WRSN_THREADS");
  if (env == nullptr || *env == '\0') return hardware_threads();
  // from_chars on an unsigned type takes digits only: no sign, no
  // whitespace, and out-of-range values fail instead of wrapping.
  const char* end = env + std::strlen(env);
  std::size_t v = 0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  WRSN_REQUIRE(ec == std::errc{} && ptr == end,
               "WRSN_THREADS must be a non-negative integer (got '" +
                   std::string(env) + "')");
  return v == 0 ? hardware_threads() : v;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = hardware_threads();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace wrsn
