#include "common/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace pod {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::jobs_from_env(std::size_t fallback) {
  if (fallback == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    fallback = hw > 0 ? hw : 1;
  }
  const char* env = std::getenv("POD_JOBS");
  if (env == nullptr) return fallback;
  std::size_t v = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc{} || ptr != end || v == 0)
    throw std::invalid_argument("POD_JOBS='" + std::string(env) +
                                "' is not a positive integer");
  return v;
}

}  // namespace pod
