#ifndef IPDB_KC_CACHE_H_
#define IPDB_KC_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kc/compile.h"
#include "util/status.h"

namespace ipdb {
namespace kc {

/// Identifies who is charged for artifact-cache traffic. Owner 0 is the
/// anonymous/shared owner every probe uses by default; the query service
/// assigns each tenant a non-zero owner id and wraps query execution in
/// a ScopedCacheOwner so that hits, misses, resident entries and bytes
/// are attributed per tenant even though the cache itself is shared.
using CacheOwner = uint32_t;

/// Per-owner accounting of a shared CompiledQueryCache. `entries` and
/// `bytes` describe the owner's residency right now (an entry belongs to
/// the owner whose probe compiled it); the tallies are cumulative.
struct CacheOwnerStats {
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

/// Installs `owner` as this thread's ambient cache owner for the scope's
/// lifetime (restores the previous owner on destruction; nests).
class ScopedCacheOwner {
 public:
  explicit ScopedCacheOwner(CacheOwner owner);
  ~ScopedCacheOwner();
  ScopedCacheOwner(const ScopedCacheOwner&) = delete;
  ScopedCacheOwner& operator=(const ScopedCacheOwner&) = delete;

 private:
  CacheOwner previous_;
};

/// The ambient owner installed by the innermost live ScopedCacheOwner on
/// this thread (0 when none is installed).
CacheOwner CurrentCacheOwner();

/// An LRU cache of compiled d-DNNF artifacts keyed by the 128-bit
/// lineage fingerprint (LineageFingerprint), which covers the formula's
/// structure and each variable's global fact index. A query whose
/// grounding yields the same lineage — the same query re-asked with
/// updated marginals, or grounded again after Insert/Erase left its
/// facts' numbers alone — skips compilation and goes straight to
/// circuit-linear evaluation. Lineages that are isomorphic but range
/// over different facts get different keys. Because a circuit is a
/// function of its lineage and evaluation reads the marginals, nothing
/// here goes stale when a store mutates; old entries age out under the
/// LRU and the per-owner caps. Thread-safe: pqe::RankedAnswers and
/// friends call into it from worker threads.
class CompiledQueryCache {
 public:
  explicit CompiledQueryCache(size_t capacity = 128);

  /// Returns the cached artifact for `root`'s fingerprint, compiling
  /// (and inserting) on a miss. `was_hit`, if non-null, reports whether
  /// the artifact came from the cache. Artifacts are shared_ptr-held,
  /// so an entry evicted mid-use stays alive for its holders.
  ///
  /// `options` govern the miss-path compilation only (a hit never
  /// consults them): a budget-aborted compile propagates its error and
  /// leaves the cache untouched, so a later retry with a bigger budget
  /// starts clean. Note a cache hit can satisfy a query whose budget
  /// would have rejected compiling it — the artifact is already paid
  /// for, which is the point of the cache.
  ///
  /// `fingerprint`, if non-null, receives the lineage's 128-bit key, which
  /// a caller can keep instead of the artifact and hand to Find later.
  StatusOr<std::shared_ptr<const CompiledQuery>> GetOrCompile(
      pqe::Lineage* lineage, pqe::NodeId root, bool* was_hit = nullptr,
      const CompileOptions& options = {},
      std::pair<uint64_t, uint64_t>* fingerprint = nullptr);

  /// The resident artifact with the given 128-bit lineage fingerprint, or
  /// null. Lets a caller that kept a fingerprint fetch its circuit without
  /// grounding again (pqe::PreparedQuery does, while its store's structure
  /// generation is unchanged). A resident key is counted, charged to
  /// CurrentCacheOwner() and moved to the LRU front exactly as a
  /// GetOrCompile hit is; an absent key counts nothing, so the caller's
  /// GetOrCompile after a null return is the query's one counted probe.
  std::shared_ptr<const CompiledQuery> Find(uint64_t hi, uint64_t lo);

  /// Drops the artifact with the given 128-bit lineage fingerprint, if
  /// resident; true when something was erased. The library itself never
  /// calls it: it stays for perfbench's ingest_refresh replay, which drops
  /// its keys after each structural batch.
  bool EraseFingerprint(uint64_t hi, uint64_t lo);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }

  // --- Per-owner (tenant) accounting -------------------------------
  //
  // Every probe is charged to CurrentCacheOwner(): a hit or miss tallies
  // against the prober, and a miss-compiled artifact is *owned* by the
  // prober until it leaves the cache, so `entries`/`bytes` partition the
  // resident set exactly (CheckAccounting gates the invariant in CI).

  /// Caps an owner's resident footprint. Before inserting an artifact
  /// for an owner over either cap, the owner's own least-recently-used
  /// entries are evicted first — a tenant that floods the cache pays
  /// with its own residency, not its neighbours'. 0 = uncapped.
  void SetOwnerLimits(CacheOwner owner, int64_t max_bytes,
                      int64_t max_entries);

  /// Accounting for one owner (zeroes for an owner never seen).
  CacheOwnerStats OwnerStats(CacheOwner owner) const;

  /// Accounting for every owner with any recorded traffic, sorted by
  /// owner id.
  std::vector<std::pair<CacheOwner, CacheOwnerStats>> AccountingSnapshot()
      const;

  /// Verifies the cross-owner accounting invariant: per-owner entries
  /// sum to size() and per-owner bytes sum to approx_bytes(). Any drift
  /// (a misattributed eviction, a double charge) surfaces as kInternal.
  Status CheckAccounting() const;

  // Counters are atomics, so these accessors are lock-free and safe to
  // poll while other threads are querying. The same tallies flow into
  // the global metrics registry ("kc.artifact_cache.*"), where they are
  // cumulative for the process (Clear resets the accessors below, never
  // the registry).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Estimated heap footprint of the resident artifacts (node/edge
  /// counts times their storage cost; not an allocator measurement).
  int64_t approx_bytes() const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.first ^ (key.second * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const CompiledQuery> artifact;
    CacheOwner owner = 0;
    int64_t bytes = 0;
  };
  struct OwnerLimits {
    int64_t max_bytes = 0;    // 0 = uncapped
    int64_t max_entries = 0;  // 0 = uncapped
  };

  /// The hit path shared by GetOrCompile and Find: touches, counts and
  /// charges `owner` for a resident `key`; null when `key` is absent.
  std::shared_ptr<const CompiledQuery> HitLocked(const Key& key,
                                                 CacheOwner owner);
  /// Removes one entry, updating global and per-owner accounting.
  void EvictLocked(std::list<Entry>::iterator it);
  /// Evicts `owner`'s least-recently-used entry; false when the owner
  /// has no resident entries.
  bool EvictOwnerLruLocked(CacheOwner owner);
  /// Capacity eviction with cross-owner fairness: the owner holding the
  /// most entries sheds its own LRU entry when it is over its fair share
  /// of the capacity; otherwise the global LRU tail goes.
  void EvictForCapacityLocked();
  void PublishGaugesLocked();

  mutable std::mutex mutex_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::unordered_map<CacheOwner, CacheOwnerStats> owners_;
  std::unordered_map<CacheOwner, OwnerLimits> owner_limits_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  int64_t approx_bytes_ = 0;  // guarded by mutex_
};

/// The process-wide cache behind pqe::QueryProbability.
CompiledQueryCache& GlobalCompiledQueryCache();

}  // namespace kc
}  // namespace ipdb

#endif  // IPDB_KC_CACHE_H_
