#include "kernel/dispatch.h"

#include <atomic>
#include <string>

#include "util/contracts.h"
#include "util/env.h"

namespace gqa::kernel {

namespace {

/// The oracle backend: probe always passes, every op is null, so call
/// sites run the scalar loops that predate the dispatch layer.
constexpr KernelBackend kScalarBackend{
    .name = "scalar",
    .probe = [] { return true; },
    .ops = KernelOps{},
};

/// Active-backend pointer. Null until first resolution; the pointees are
/// constant-initialized statics, so publication needs no fence beyond the
/// release store (readers acquire-load a pointer to immutable data).
std::atomic<const KernelBackend*> g_active{nullptr};

}  // namespace

const std::vector<const KernelBackend*>& registry() {
  static const std::vector<const KernelBackend*> backends = [] {
    std::vector<const KernelBackend*> v;
#if defined(__x86_64__) || defined(_M_X64)
    v.push_back(&kAvx2Backend);
#endif
    v.push_back(&kScalarBackend);  // always registered, always last
    return v;
  }();
  return backends;
}

bool backend_available(const KernelBackend& backend) {
  return backend.probe();
}

const KernelBackend& resolve_backend(const std::string& name) {
  if (name == "auto") {
    for (const KernelBackend* b : registry()) {
      if (backend_available(*b)) return *b;
    }
    return kScalarBackend;  // unreachable: scalar's probe always passes
  }
  for (const KernelBackend* b : registry()) {
    if (name == b->name) {
      GQA_EXPECTS_MSG(backend_available(*b),
                      "GQA_KERNEL_BACKEND names backend '" + name +
                          "', but its capability probe fails on this host");
      return *b;
    }
  }
  GQA_EXPECTS_MSG(false, "GQA_KERNEL_BACKEND names unknown backend '" + name +
                             "' (registered: scalar|avx2, or auto)");
  return kScalarBackend;  // unreachable
}

const KernelBackend& active() {
  const KernelBackend* current = g_active.load(std::memory_order_acquire);
  if (current == nullptr) {
    const KernelBackend& resolved =
        resolve_backend(env_string("GQA_KERNEL_BACKEND", "auto"));
    const KernelBackend* expected = nullptr;
    // Concurrent first calls resolve identically (env + registry are
    // stable); whichever store wins, the value is the same.
    g_active.compare_exchange_strong(expected, &resolved,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire);
    current = g_active.load(std::memory_order_acquire);
  }
  return *current;
}

BackendScope::BackendScope(const std::string& name) : previous_(&active()) {
  g_active.store(&resolve_backend(name), std::memory_order_release);
}

BackendScope::~BackendScope() {
  g_active.store(previous_, std::memory_order_release);
}

}  // namespace gqa::kernel
