#include "util/thread_pool.h"

#include <algorithm>
#include <limits>

#include "util/contracts.h"
#include "util/env.h"

namespace gqa {

ThreadPool::ThreadPool(int num_threads) {
  GQA_EXPECTS_MSG(num_threads >= 1, "thread pool needs at least one lane");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       std::size_t count) {
  for (;;) {
    // memory_order_relaxed: the counter only distributes indices — no data
    // is published through it. The work fn(i) writes is made visible to
    // the caller by the mutex handshake that ends the job (active_workers_
    // reaching 0 under mutex_), not by this counter.
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      fn(i);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Keep draining indices so the job still terminates promptly; the
      // remaining iterations are skipped by stealing them without running.
      // memory_order_relaxed: a best-effort early-exit hint — lanes that
      // miss it merely drain one more empty index.
      next_index_.store(count, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t count = 0;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && epoch_ == seen_epoch) start_cv_.wait(lock.native());
      if (stopping_) return;
      seen_epoch = epoch_;
      job = job_;
      count = job_count_;
    }
    drain(*job, count);
    {
      MutexLock lock(mutex_);
      --active_workers_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  GQA_EXPECTS_MSG(fn != nullptr, "parallel_for needs a body");
  if (count == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Concurrent callers (the async server's dispatcher plus any engine
  // thread sharing the process pool) serialize here: one job owns the
  // workers at a time. Held across the whole dispatch, which is also why
  // parallel_for must never be re-entered from a worker lane.
  MutexLock dispatch(dispatch_mutex_);

  {
    MutexLock lock(mutex_);
    job_ = &fn;
    job_count_ = count;
    // memory_order_relaxed: the reset is published to workers by the
    // epoch_ bump under mutex_ (they read the new epoch only after
    // acquiring it), so the counter needs no ordering of its own.
    next_index_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    first_error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();

  drain(fn, count);  // the caller is a lane too

  MutexLock lock(mutex_);
  while (active_workers_ != 0) done_cv_.wait(lock.native());
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::run_lanes(const std::function<void(std::size_t)>& body) {
  // One index per lane; the dynamic handout degenerates to lane identity
  // because every body is long-running (it loops until its work source is
  // dry), so all lanes participate whenever there is sustained work.
  parallel_for(static_cast<std::size_t>(size()), body);
}

void pooled_for(ThreadPool* pool, std::size_t count,
                const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || pool->size() <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->parallel_for(count, fn);
}

void pooled_for_chunks(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t lanes =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->size());
  // A few chunks per lane keeps the dynamic index handout balanced without
  // paying per-index overhead.
  const std::size_t target = std::min(count, lanes <= 1 ? 1 : 4 * lanes);
  const std::size_t per = (count + target - 1) / target;
  // Recompute the chunk count from the rounded-up size: ceil(count/target)
  // sized chunks can cover count in fewer than `target` pieces, and a
  // trailing empty chunk must never reach fn with lo > count.
  const std::size_t chunks = (count + per - 1) / per;
  pooled_for(lanes <= 1 ? nullptr : pool, chunks, [&](std::size_t c) {
    const std::size_t lo = c * per;
    fn(lo, std::min(count, lo + per));
  });
}

int global_pool_threads() {
  const std::int64_t requested = env_int("GQA_NUM_THREADS", 0);
  GQA_EXPECTS_MSG(requested >= 0 &&
                      requested <= std::numeric_limits<int>::max(),
                  "GQA_NUM_THREADS must be in [0, INT_MAX] (0 = hardware "
                  "concurrency)");
  if (requested >= 1) return static_cast<int>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& global_pool() {
  // Function-local static: created thread-safely on first use, joined at
  // process exit. The env var is read once — resizing a live pool is not
  // supported (engine callers wanting a specific lane count own a pool).
  static ThreadPool pool(global_pool_threads());
  return pool;
}

}  // namespace gqa
