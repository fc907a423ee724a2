#include "common/worker_pool.h"

#include <algorithm>
#include <utility>

namespace mufuzz {

WorkerPool::WorkerPool(int threads) {
  int n = std::max(1, threads);
  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { ThreadMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::ThreadMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace mufuzz
