// Pluggable non-linearity backend for the quantized Transformer modules.
//
// The "None" baseline of Tables 4/5 computes every non-linear op exactly on
// dequantized values; each replacement row swaps one (or all) op(s) for the
// bit-accurate pwl kernels produced by a fitting method. The provider owns
// the fitted approximators and a cache of per-scale hardware units.
//
// Concurrency: all evaluation methods — and warm_up() itself — are safe to
// call from many threads on one provider (a server's lanes each run serial
// forwards against one shared provider). Lazy unit construction is
// mutex-guarded; warm_up() publishes immutable snapshot tiers read
// lock-free, so warmed hot paths never touch the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/approximator.h"
#include "util/thread_annotations.h"

namespace gqa::tfm {

class NonlinearProvider {
 public:
  /// Exact reference backend (the fine-tuning baseline "None").
  [[nodiscard]] static NonlinearProvider exact();

  /// pwl backend: `replaced` ops go through `method`-fitted kernels, all
  /// other ops stay exact — reproducing the per-row replacements of
  /// Tables 4/5. `entries` matches the paper's 8-entry deployment.
  ///
  /// Construction is cheap: fitting is deferred to first use (warm_up or a
  /// lazy cache fill), where it resolves cache-first against the process
  /// artifact store (GQA_CACHE_DIR, util/artifact_store.h) and falls back
  /// to an in-process fit — bit-identical either way.
  [[nodiscard]] static NonlinearProvider with_method(Method method,
                                                    std::set<Op> replaced,
                                                    int entries = 8);

  [[nodiscard]] bool replaces(Op op) const { return replaced_.count(op) > 0; }

  /// Every op this provider serves through fitted kernels — the union the
  /// serving layer warms when one provider backs several co-served models.
  [[nodiscard]] const std::set<Op>& replaced_ops() const { return replaced_; }

  /// Pre-builds the hardware units for `ops` (activation ops at every scale
  /// in `scale_exps`; DIV/RSQRT ignore the exponents) into an immutable
  /// warmed tier that concurrent evaluation reads without locking. Misses
  /// outside the warmed set stay correct through a mutex-guarded overflow
  /// cache, so warm_up is an optimization, never a requirement. Safe to
  /// call at any time, including while other threads evaluate (the new
  /// tier is published atomically). Ops the provider does not replace are
  /// skipped. Carries the `warmup` fault-injection point
  /// (util/fault_injection.h): under an armed chaos spec this may throw a
  /// transient ServingError, which the serving layers catch to degrade to
  /// cold lazy unit builds — results are identical either way.
  void warm_up(const std::set<Op>& ops,
               const std::vector<int>& scale_exps) const
      GQA_EXCLUDES(cache_mutex_);

  /// The deployment scale-exponent window the frozen tfm models produce
  /// (po2 activation scales all land in it) — the canonical `scale_exps`
  /// argument for warm_up before an end-to-end forward.
  [[nodiscard]] static std::vector<int> deployment_scale_exps();

  /// warm_up(replaced_ops(), deployment_scale_exps()): one call warms every
  /// unit any co-served model can request, so the engine and the async
  /// server share a single pre-warmed tier per provider regardless of which
  /// model op-sets it backs. Copy-free no-op when already fully warm.
  ///
  /// Cache-first: fitted params for ops not yet resolved are loaded from
  /// the process artifact store when GQA_CACHE_DIR is set; on a miss or a
  /// quarantined artifact the op is fitted in-process and the fresh params
  /// are published back (self-healing cache). The only serving-visible
  /// difference between a hit, a miss, and a corrupted cache is latency.
  void warm_up_deployment() const;

  /// exp(S·q) for an integer code with S = 2^scale_exp (Softmax numerator).
  [[nodiscard]] double exp_code(std::int64_t q, int scale_exp) const;

  /// GELU(S·q) / HSWISH(S·q) for integer activation codes.
  [[nodiscard]] double gelu_code(std::int64_t q, int scale_exp) const;
  [[nodiscard]] double hswish_code(std::int64_t q, int scale_exp) const;

  /// 1/x for a fixed-point value code·2^-frac (Softmax denominator,
  /// linear-attention normalizer). Uses the Table 2 multi-range unit.
  [[nodiscard]] double recip_fxp(std::int64_t code, int frac) const;

  /// 1/sqrt(x) for a fixed-point value code·2^-frac (LayerNorm).
  [[nodiscard]] double rsqrt_fxp(std::int64_t code, int frac) const;

  /// Batched activation paths, bit-identical to the per-element calls:
  /// the unit-cache lookup happens once per span instead of once per code,
  /// and the element loop runs through IntPwlUnit's dense segment table.
  void exp_codes(std::span<const std::int64_t> q, int scale_exp,
                 std::span<double> out) const;
  void gelu_codes(std::span<const std::int64_t> q, int scale_exp,
                  std::span<double> out) const;
  void hswish_codes(std::span<const std::int64_t> q, int scale_exp,
                    std::span<double> out) const;

  /// Batched wide-range paths (shared `frac`), bit-identical to the
  /// per-element recip_fxp / rsqrt_fxp.
  void recip_fxp_batch(std::span<const std::int64_t> codes, int frac,
                       std::span<double> out) const;
  void rsqrt_fxp_batch(std::span<const std::int64_t> codes, int frac,
                       std::span<double> out) const;

  /// Copies take the source's fitted tables (under the source's cache
  /// lock — fits fill in lazily, so approx_ is guarded state) but start
  /// with cold unit caches: caches are deployment artifacts, and not
  /// copying them keeps copying safe even while other threads evaluate on
  /// the source.
  NonlinearProvider(const NonlinearProvider& other);
  NonlinearProvider& operator=(const NonlinearProvider& other);

 private:
  NonlinearProvider() = default;

  [[nodiscard]] const IntPwlUnit& unit_for(Op op, int scale_exp) const
      GQA_EXCLUDES(cache_mutex_);
  [[nodiscard]] const MultiRangeUnit& multirange_for(Op op) const
      GQA_EXCLUDES(cache_mutex_);
  /// Fit-or-load for one op (cache-first, see warm_up_deployment), filling
  /// approx_ on first request. Caller holds cache_mutex_, which serializes
  /// the fit and makes the returned reference stable for the provider's
  /// lifetime (map entries are never erased while locked-in).
  [[nodiscard]] const Approximator& approx_for(Op op) const
      GQA_REQUIRES(cache_mutex_);
  [[nodiscard]] double act_code(Op op, std::int64_t q, int scale_exp) const;
  void act_codes(Op op, std::span<const std::int64_t> q, int scale_exp,
                 std::span<double> out) const;
  void wide_fxp_batch(Op op, std::span<const std::int64_t> codes, int frac,
                      std::span<double> out) const;

  /// One immutable warmed-cache snapshot: readers resolve it with a single
  /// acquire load and never lock. warm_up() builds the next snapshot as a
  /// superset copy and publishes it atomically; superseded snapshots are
  /// retired (kept alive) so references handed out earlier stay valid.
  struct WarmTier {
    std::map<std::pair<int, int>, IntPwlUnit> units;
    std::map<int, MultiRangeUnit> multirange;
  };

  std::optional<Method> method_;  ///< nullopt = exact backend
  std::set<Op> replaced_;
  FitOptions fit_options_;  ///< full fit config — part of the cache key
  // Unit caches are deployment artifacts, not logical state. Two tiers:
  // the warmed tier (atomically published immutable snapshots, lock-free
  // reads) and the overflow tier for lazy fills on misses, guarded by
  // cache_mutex_. Entries are never erased and snapshots never freed
  // before the provider, so returned references stay valid for the
  // provider's lifetime.
  mutable Mutex cache_mutex_;
  /// Not guarded: the lock-free read tier. Readers resolve the newest
  /// snapshot with one acquire load; warm_up() publishes a superset copy
  /// with a release store while holding cache_mutex_ (writers serialize,
  /// readers never lock). The pointee is immutable once published.
  mutable std::atomic<const WarmTier*> warm_{nullptr};
  mutable std::vector<std::unique_ptr<const WarmTier>> warm_snapshots_
      GQA_GUARDED_BY(cache_mutex_);
  mutable std::map<std::pair<int, int>, IntPwlUnit> unit_cache_
      GQA_GUARDED_BY(cache_mutex_);
  mutable std::map<int, MultiRangeUnit> multirange_cache_
      GQA_GUARDED_BY(cache_mutex_);
  /// Fitted approximators, resolved lazily by approx_for (cache-first
  /// fit-or-load). Guarded because any evaluating thread may be the one
  /// that faults in the fit; entries are never erased, so references
  /// handed out under the lock stay valid for the provider's lifetime.
  mutable std::map<Op, Approximator> approx_ GQA_GUARDED_BY(cache_mutex_);
};

}  // namespace gqa::tfm
