#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "src/util/check.h"

namespace tormet::util {

// Per-parallel_for bookkeeping shared by all of its chunk tasks.
struct thread_pool::batch_state {
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> remaining{0};
  std::size_t n = 0;
  std::size_t grain = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::mutex done_mutex;
  std::condition_variable done;
  std::exception_ptr error;

  // Claims and runs chunks until none are left. Returns when the claimer
  // runs out of work (other chunks may still be running elsewhere).
  void drain() noexcept {
    for (;;) {
      const std::size_t chunk = next_chunk.fetch_add(1);
      const std::size_t begin = chunk * grain;
      if (begin >= n) return;
      const std::size_t end = std::min(begin + grain, n);
      try {
        (*fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock{done_mutex};
        if (!error) error = std::current_exception();
      }
      std::size_t left;
      {
        std::lock_guard<std::mutex> lock{done_mutex};
        left = --remaining;
      }
      if (left == 0) done.notify_all();
    }
  }
};

std::size_t host_workers() noexcept {
  const std::size_t threads = std::thread::hardware_concurrency();
  return threads > 1 ? threads - 1 : 0;
}

thread_pool::thread_pool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_ready_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task();
  }
}

void thread_pool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  expects(grain > 0, "parallel_for grain must be positive");
  if (n == 0) return;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1 || workers_.empty()) {
    // Inline, still one call per chunk: callers may key work on the chunk
    // boundaries (the batch engine's per-shard RNG streams do).
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }

  auto state = std::make_shared<batch_state>();
  state->n = n;
  state->grain = grain;
  state->fn = &fn;
  state->remaining.store(chunks);

  // Hand each worker one "drain" task; they pull chunks off the shared
  // counter until the batch is exhausted. The caller drains too, so the
  // pool makes progress even under contention from other batches.
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  {
    std::lock_guard<std::mutex> lock{mutex_};
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.push_back([state] { state->drain(); });
    }
  }
  work_ready_.notify_all();
  state->drain();

  std::unique_lock<std::mutex> lock{state->done_mutex};
  state->done.wait(lock, [&] { return state->remaining.load() == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace tormet::util
