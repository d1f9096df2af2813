// Fixed-size worker pool for data-parallel batch work. The crypto batch
// engine shards homogeneous vectors (encrypt/rerandomize/strip passes)
// across it; results never depend on the worker count because shard
// boundaries and per-shard RNG streams are fixed by the caller, not by
// scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tormet::util {

class thread_pool {
 public:
  /// Starts `workers` threads. With 0 workers every parallel_for runs
  /// inline on the calling thread.
  explicit thread_pool(std::size_t workers);
  ~thread_pool();
  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Partitions [0, n) into chunks of at most `grain` indices, runs
  /// fn(begin, end) for every chunk across the workers plus the calling
  /// thread (in chunk order on the caller alone when there are no
  /// workers), and blocks until all chunks finish. The first exception thrown
  /// by any chunk is rethrown on the caller after the batch drains. `fn`
  /// must be safe to invoke concurrently on disjoint ranges.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct batch_state;
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::vector<std::function<void()>> queue_;
  bool shutting_down_ = false;
};

/// The worker count that fills this host: one fewer than its hardware
/// threads, because the thread that calls parallel_for drains chunks too;
/// 0 (inline) on a single-core host or when the count is unknown. The only
/// place the host's size is read.
[[nodiscard]] std::size_t host_workers() noexcept;

}  // namespace tormet::util
