#include "tfm/workspace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace gqa::tfm {

namespace {

constexpr std::size_t kSizeClasses = 48;

/// Power-of-two size class: the bit-width of n-1 (ceil log2), so every n
/// in (2^(k-1), 2^k] maps to class k. Class 0 holds n <= 1.
std::size_t size_class(std::size_t n) {
  const std::size_t cls = n <= 1 ? 0 : std::bit_width(n - 1);
  return cls < kSizeClasses ? cls : kSizeClasses - 1;
}

constexpr std::size_t kMaxPerClass = 8;
// Buffers below this element count skip the pool entirely: the allocator's
// thread-cache serves them in tens of nanoseconds, so pooling them buys
// nothing and the bucket bookkeeping would be pure overhead. The pool's
// win lives in the large activation buffers (mmap-threshold regime).
constexpr std::size_t kMinPooledElems = 2048;

/// First buffer in a capacity-sorted bucket whose capacity is >= n.
template <typename T>
auto first_covering(std::vector<std::vector<T>>& bucket, std::size_t n) {
  return std::partition_point(
      bucket.begin(), bucket.end(),
      [n](const std::vector<T>& v) { return v.capacity() < n; });
}

/// Takes a buffer from the request's size class (or starts fresh) and
/// zero-fills it to `n` elements. Buckets are kept sorted by capacity, and
/// the smallest parked buffer that covers the request wins; only when none
/// does, the largest grows. So a request never grows a buffer while a
/// larger one sits parked, and steady-state acquires never touch the
/// allocator.
template <typename T, typename Stats>
std::vector<T> refill(
    std::array<std::vector<std::vector<T>>, kSizeClasses>& pool,
    std::size_t n, Stats& stats) {
  if (n < kMinPooledElems) return std::vector<T>(n, T{});
  ++stats.acquires;
  auto& bucket = pool[size_class(n)];
  std::vector<T> storage;
  if (bucket.empty()) {
    ++stats.fresh;
  } else {
    auto it = first_covering(bucket, n);
    if (it == bucket.end()) {
      --it;
      ++stats.grows;
    }
    storage = std::move(*it);
    bucket.erase(it);
  }
  storage.assign(n, T{});
  return storage;
}

template <typename T>
void park(std::array<std::vector<std::vector<T>>, kSizeClasses>& pool,
          std::vector<T>&& v) {
  if (v.capacity() < kMinPooledElems) return;  // tcache territory
  // Park by capacity so the class advertises what the buffer can serve
  // without reallocating. A full class keeps the larger of its smallest
  // buffer and this one (footprint bound without losing coverage).
  auto& bucket = pool[size_class(v.capacity())];
  if (bucket.size() >= kMaxPerClass) {
    if (v.capacity() <= bucket.front().capacity()) return;
    bucket.erase(bucket.begin());
  }
  bucket.insert(first_covering(bucket, v.capacity()), std::move(v));
}

template <typename T>
std::size_t bucket_count(
    const std::array<std::vector<std::vector<T>>, kSizeClasses>& pool) {
  std::size_t count = 0;
  for (const auto& bucket : pool) count += bucket.size();
  return count;
}

}  // namespace

Tensor Workspace::tensor(Shape shape) {
  const auto n = static_cast<std::size_t>(shape.numel());
  return Tensor(std::move(shape), refill(fp_, n, stats_));
}

QTensor Workspace::qtensor(Shape shape, const QuantParams& qp) {
  const auto n = static_cast<std::size_t>(shape.numel());
  return QTensor(std::move(shape), qp, refill(i32_, n, stats_));
}

std::vector<std::int32_t> Workspace::i32(std::size_t n) {
  return refill(i32_, n, stats_);
}

std::vector<std::int64_t> Workspace::i64(std::size_t n) {
  return refill(i64_, n, stats_);
}

std::vector<double> Workspace::f64(std::size_t n) {
  return refill(f64_, n, stats_);
}

void Workspace::release(Tensor&& t) { park(fp_, std::move(t).take_storage()); }

void Workspace::release(QTensor&& t) {
  park(i32_, std::move(t).take_storage());
}

void Workspace::release(std::vector<std::int32_t>&& v) {
  park(i32_, std::move(v));
}

void Workspace::release(std::vector<std::int64_t>&& v) {
  park(i64_, std::move(v));
}

void Workspace::release(std::vector<double>&& v) { park(f64_, std::move(v)); }

std::size_t Workspace::parked() const {
  return bucket_count(fp_) + bucket_count(i32_) + bucket_count(i64_) +
         bucket_count(f64_);
}

Workspace WorkspacePool::acquire() {
  MutexLock lock(mutex_);
  if (pool_.empty()) return Workspace{};
  Workspace ws = std::move(pool_.back());
  pool_.pop_back();
  return ws;
}

void WorkspacePool::release(Workspace&& ws) {
  MutexLock lock(mutex_);
  pool_.push_back(std::move(ws));
}

}  // namespace gqa::tfm
