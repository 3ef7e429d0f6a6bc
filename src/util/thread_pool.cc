#include "util/thread_pool.h"

#include <atomic>

namespace les3 {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    // One cell has nothing to spread: a handoff to a worker would only add
    // a cross-thread wake to the caller's latency.
    fn(0);
    return;
  }
  // Chunked dispatch: one task per worker stride to bound queue churn.
  size_t chunks = std::min(n, num_threads() * 4);
  std::atomic<size_t> next{0};
  // Completion is tracked per call, not via Wait(): Wait() blocks until
  // the pool's GLOBAL queue drains, so concurrent ParallelFor callers
  // (e.g. several scatter-gather queries sharing one engine pool) would
  // convoy on each other's tasks and every caller's latency would become
  // the max over all in-flight calls.
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done_chunks = 0;
  for (size_t c = 0; c < chunks; ++c) {
    Submit([&, n, chunks] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= n) break;
        fn(i);
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done_chunks == chunks) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done_chunks == chunks; });
}

}  // namespace les3
