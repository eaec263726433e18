#ifndef TMAN_COMMON_THREAD_POOL_H_
#define TMAN_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tman {

// Fixed-size thread pool. Regions of the simulated cluster execute
// pushed-down scans on this pool, which models the per-node parallelism of
// a distributed key-value store.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules fn and returns a future for its completion.
  template <typename F>
  auto Submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // Calls fn(i) for every i in [0, n) and returns when all calls are done.
  // num_threads() workers (the calling thread and num_threads() - 1 pool
  // tasks) take the next index in turn, so uneven calls still balance.
  // fn must be safe to call concurrently for different indices.
  template <typename F>
  void ParallelFor(size_t n, const F& fn) {
    std::atomic<size_t> next{0};
    auto worker = [&next, &fn, n] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    };
    std::vector<std::future<void>> helpers;
    for (size_t w = 1; w < std::min(n, num_threads()); w++) {
      helpers.push_back(Submit(worker));
    }
    worker();
    for (auto& helper : helpers) helper.get();
  }

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tman

#endif  // TMAN_COMMON_THREAD_POOL_H_
