// Fixed-size worker pool with a blocking parallel_for, plus the bounded
// MPMC queue the serving front-end drains through it.
//
// ThreadPool is built for the scene-batched serving dispatches and the
// eval sweeps: the caller thread participates in the work, indices
// are handed out dynamically through an atomic counter (so uneven per-item
// costs balance), and the first exception thrown by any worker is rethrown
// on the caller. Determinism is the caller's job: parallel_for only says
// *who* computes fn(i), never reorders observable writes, so pure
// functions writing to disjoint slots give bit-identical results at any
// thread count.
//
// Thread-safety contract (statically checked — every guarded field below
// carries GQA_GUARDED_BY and a Clang -Werror=thread-safety build enforces
// it; see util/thread_annotations.h):
//   - parallel_for may be called from several threads concurrently on one
//     pool; jobs are serialized (one dispatch at a time, FIFO by mutex
//     acquisition). This is what lets an async Server and batch
//     InferenceEngines co-serve on the single process-wide global_pool().
//   - parallel_for is NOT reentrant: calling it from inside a running
//     fn(i) on the same pool self-deadlocks. Every fan-out in the repo is
//     one level deep (images, sweep scales), and a model forward never
//     dispatches onto a pool.
//   - BoundedQueue is fully thread-safe (any number of producers and
//     consumers); close() releases every blocked producer and consumer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace gqa {

/// RAII-owned thread: joins on destruction (or on an explicit join()), so
/// a thread can never be leaked or detached by accident. This is the only
/// way code outside util/ may own a thread — the repo-invariant linter
/// (tools/lint/check_invariants.sh) rejects naked std::thread
/// construction and detach() everywhere else.
class ScopedThread {
 public:
  ScopedThread() = default;
  template <typename Fn>
  explicit ScopedThread(Fn&& fn) : thread_(std::forward<Fn>(fn)) {}
  ~ScopedThread() {
    if (thread_.joinable()) thread_.join();
  }

  ScopedThread(ScopedThread&&) = default;
  ScopedThread& operator=(ScopedThread&& other) {
    if (thread_.joinable()) thread_.join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;

  [[nodiscard]] bool joinable() const { return thread_.joinable(); }
  void join() { thread_.join(); }

 private:
  std::thread thread_;
};

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread is the last lane).
  /// `num_threads <= 1` creates no workers; parallel_for then runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, count), blocking until all complete.
  /// Rethrows the first exception raised by any invocation. Safe to call
  /// from several threads at once (jobs serialize); never call it from
  /// inside a running fn on the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      GQA_EXCLUDES(dispatch_mutex_, mutex_);

  /// Runs body(lane) once per lane (the caller participates as the last
  /// lane), blocking until every body returns. This is the continuous-
  /// service primitive: unlike parallel_for there is no fixed work list —
  /// each body is expected to LOOP, pulling tasks from a shared source, so
  /// work admitted while the job is live is picked up by whichever lane
  /// frees first instead of waiting behind a batch barrier. A body with no
  /// work may park on the caller's own condition variable while sibling
  /// bodies still run (the job occupies the pool's dispatch slot either
  /// way), but every body must be woken and return once the shared source
  /// is exhausted — the job ends only when all bodies have returned,
  /// releasing the pool to co-resident callers. Same contract as
  /// parallel_for otherwise: safe from several threads (jobs serialize),
  /// never reentrant, first exception rethrown on the caller.
  void run_lanes(const std::function<void(std::size_t)>& body)
      GQA_EXCLUDES(dispatch_mutex_, mutex_);

  /// Total lanes including the caller (>= 1).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

 private:
  void worker_loop() GQA_EXCLUDES(mutex_);
  /// Runs the shared index handout for one job. `count` is the job's
  /// element count, captured under mutex_ by the caller — passing it in
  /// keeps the hot loop off the guarded field.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t count)
      GQA_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  ///< written in ctor/dtor only

  Mutex dispatch_mutex_;  ///< serializes concurrent parallel_for callers
  Mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ GQA_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t job_count_ GQA_GUARDED_BY(mutex_) = 0;
  /// Not guarded: the dynamic work handout. Relaxed ordering suffices —
  /// see the justification at its operations in thread_pool.cpp.
  std::atomic<std::size_t> next_index_{0};
  std::size_t active_workers_ GQA_GUARDED_BY(mutex_) = 0;
  std::uint64_t epoch_ GQA_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ GQA_GUARDED_BY(mutex_);
  bool stopping_ GQA_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for every i in [0, count): serially when `pool` is null or
/// single-lane, through the pool otherwise. Callers guarantee each index
/// writes disjoint output slots, so both paths are bit-identical.
void pooled_for(ThreadPool* pool, std::size_t count,
                const std::function<void(std::size_t)>& fn);

/// Splits [0, count) into contiguous chunks (a few per lane; one chunk when
/// serial) and runs fn(lo, hi) per chunk, so per-chunk state (a leased
/// workspace) is set up once per chunk instead of once per index. Chunk
/// boundaries depend only on (count, lane count), never on scheduling, so
/// results stay deterministic.
void pooled_for_chunks(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// Lazily-created process-wide pool for scene-batched serving, sized by the
/// GQA_NUM_THREADS environment variable (default: hardware concurrency).
/// Created on first use and reused for the lifetime of the process, so
/// repeated engine dispatches never pay thread spawn/join costs.
[[nodiscard]] ThreadPool& global_pool();

/// The lane count global_pool() has (or will have): GQA_NUM_THREADS when
/// set and >= 1, otherwise std::thread::hardware_concurrency().
[[nodiscard]] int global_pool_threads();

/// Bounded multi-producer/multi-consumer FIFO — the admission queue of the
/// async serving front-end (eval/server.h), generic over the item type.
///
/// Capacity bounds the items *queued* (pushed, not yet popped); that is the
/// backpressure surface: push() blocks while full, try_push() rejects, and
/// the caller picks which. close() transitions the queue to a draining
/// state: every blocked producer wakes and fails, consumers keep receiving
/// the remaining items and then get an empty result, so a drain loop
/// `while (!(batch = pop_all()).empty())` terminates cleanly.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false (item dropped) iff the
  /// queue was closed before space became available.
  bool push(T item) GQA_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.size() >= capacity_) {
        space_cv_.wait(lock.native());
      }
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    item_cv_.notify_one();
    return true;
  }

  /// Non-blocking admit: false when the queue is full or closed.
  bool try_push(T item) GQA_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    item_cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available (or the queue is closed and empty,
  /// returning nullopt).
  std::optional<T> pop() GQA_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.empty()) item_cv_.wait(lock.native());
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    space_cv_.notify_one();
    return item;
  }

  /// Non-blocking drain: takes everything queued right now (possibly
  /// nothing) without waiting, releasing any producers blocked on a full
  /// queue. Items queued before close() remain takeable after it. This is
  /// how continuous-service lanes refill mid-job — a blocking pop would
  /// park the lane and hold the pool.
  std::vector<T> try_pop_all() GQA_EXCLUDES(mutex_) {
    std::vector<T> out;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return out;
      out.assign(std::make_move_iterator(items_.begin()),
                 std::make_move_iterator(items_.end()));
      items_.clear();
    }
    space_cv_.notify_all();
    return out;
  }

  /// Blocks until at least one item is available, then takes everything
  /// queued. An empty result means closed-and-drained — the consumer's
  /// termination signal.
  std::vector<T> pop_all() GQA_EXCLUDES(mutex_) {
    std::vector<T> out;
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.empty()) item_cv_.wait(lock.native());
      out.assign(std::make_move_iterator(items_.begin()),
                 std::make_move_iterator(items_.end()));
      items_.clear();
    }
    space_cv_.notify_all();
    return out;
  }

  /// Stops admission and wakes every blocked producer/consumer. Items
  /// already queued stay poppable. Idempotent.
  void close() GQA_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    space_cv_.notify_all();
    item_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const GQA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const GQA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  mutable Mutex mutex_;
  std::condition_variable space_cv_;  ///< producers wait here while full
  std::condition_variable item_cv_;   ///< consumers wait here while empty
  std::deque<T> items_ GQA_GUARDED_BY(mutex_);
  const std::size_t capacity_;
  bool closed_ GQA_GUARDED_BY(mutex_) = false;
};

}  // namespace gqa
