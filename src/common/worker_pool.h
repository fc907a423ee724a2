#ifndef MUFUZZ_COMMON_WORKER_POOL_H_
#define MUFUZZ_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mufuzz {

/// A small persistent thread pool. Threads are spawned once at construction
/// and reused for every task. Post(task) is fire-and-forget: the async
/// execution backend posts its long-running drainer loops here and does its
/// own completion and shutdown signalling.
class WorkerPool {
 public:
  /// Spawns `threads` workers (minimum 1).
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Drains outstanding tasks, then joins all workers.
  ~WorkerPool();

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for any free worker.
  void Post(std::function<void()> task);

 private:
  void ThreadMain();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_WORKER_POOL_H_
