#ifndef PRIMELABEL_UTIL_THREAD_POOL_H_
#define PRIMELABEL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace primelabel {

/// Minimal fixed-size worker pool backing the join executor's anchor-group
/// fan-out (store/plan.cc, QueryContext::num_workers).
///
/// Design constraints from that use: tasks are coarse (one per anchor
/// group), submitted in one burst, and the submitter blocks on Wait() until
/// the burst drains — so a mutex-protected deque is plenty; no
/// work-stealing or lock-free queue is warranted. The pool is cheap enough
/// to construct per join (the fan-out only starts above a minimum pair
/// count, where thread startup is small against the label tests).
///
/// Tasks must not throw; the join code reports failure through PL_CHECK,
/// which aborts, so there is no exception plumbing.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads) {
    if (num_threads < 1) num_threads = 1;
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Enqueues a task. May be called from the owning thread only.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push_back(std::move(task));
      ++unfinished_;
    }
    task_ready_.notify_one();
  }

  /// Blocks until every submitted task has run to completion.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
  }

  /// True when the calling thread is a pool worker (of any ThreadPool).
  /// JoinBatched consults this to run sequentially instead of fanning out
  /// again when a join runs inside a pool worker — nested pools would
  /// multiply threads without adding cores.
  static bool InWorkerThread() { return t_in_worker_; }

 private:
  void WorkerLoop() {
    t_in_worker_ = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping_ with an empty queue
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--unfinished_ == 0) all_done_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> tasks_;
  std::size_t unfinished_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  inline static thread_local bool t_in_worker_ = false;
};

}  // namespace primelabel

#endif  // PRIMELABEL_UTIL_THREAD_POOL_H_
