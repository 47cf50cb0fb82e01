#include "kc/cache.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/fault.h"

namespace ipdb {
namespace kc {

namespace {

/// Estimated resident bytes of a compiled artifact: node records plus
/// child-edge storage plus the fixed struct. Feeds the
/// kc.artifact_cache.bytes gauge; an estimate is enough to spot a cache
/// whose artifacts dwarf its entry count.
int64_t ArtifactApproxBytes(const CompiledQuery& artifact) {
  return static_cast<int64_t>(sizeof(CompiledQuery)) +
         static_cast<int64_t>(artifact.circuit.size()) * 48 +
         artifact.circuit.num_edges() *
             static_cast<int64_t>(sizeof(NodeId));
}

/// The thread's ambient cache owner (see ScopedCacheOwner).
thread_local CacheOwner g_cache_owner = 0;

}  // namespace

ScopedCacheOwner::ScopedCacheOwner(CacheOwner owner)
    : previous_(g_cache_owner) {
  g_cache_owner = owner;
}

ScopedCacheOwner::~ScopedCacheOwner() { g_cache_owner = previous_; }

CacheOwner CurrentCacheOwner() { return g_cache_owner; }

CompiledQueryCache::CompiledQueryCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void CompiledQueryCache::PublishGaugesLocked() {
  IPDB_OBS_GAUGE_SET("kc.artifact_cache.entries",
                     static_cast<int64_t>(lru_.size()));
  IPDB_OBS_GAUGE_SET("kc.artifact_cache.bytes", approx_bytes_);
}

void CompiledQueryCache::EvictLocked(std::list<Entry>::iterator it) {
  CacheOwnerStats& stats = owners_[it->owner];
  stats.entries -= 1;
  stats.bytes -= it->bytes;
  stats.evictions += 1;
  approx_bytes_ -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  IPDB_OBS_COUNT("kc.artifact_cache.evictions", 1);
}

bool CompiledQueryCache::EvictOwnerLruLocked(CacheOwner owner) {
  for (auto it = lru_.end(); it != lru_.begin();) {
    --it;
    if (it->owner == owner) {
      EvictLocked(it);
      return true;
    }
  }
  return false;
}

void CompiledQueryCache::EvictForCapacityLocked() {
  // Fairness: the owner with the most resident entries sheds its own
  // LRU entry when it holds more than capacity / live-owners; a cache
  // flooded by one tenant therefore converges to that tenant recycling
  // its own slots while small tenants' artifacts survive. When every
  // owner is at or below fair share, plain global LRU applies.
  int64_t live_owners = 0;
  CacheOwner heaviest = 0;
  int64_t heaviest_entries = 0;
  for (const auto& [owner, stats] : owners_) {
    if (stats.entries <= 0) continue;
    ++live_owners;
    if (stats.entries > heaviest_entries) {
      heaviest_entries = stats.entries;
      heaviest = owner;
    }
  }
  const int64_t fair_share =
      live_owners > 0 ? static_cast<int64_t>(capacity_) / live_owners : 0;
  if (live_owners > 1 && heaviest_entries > std::max<int64_t>(fair_share, 1) &&
      EvictOwnerLruLocked(heaviest)) {
    return;
  }
  EvictLocked(std::prev(lru_.end()));
}

std::shared_ptr<const CompiledQuery> CompiledQueryCache::HitLocked(
    const Key& key, CacheOwner owner) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  owners_[owner].hits += 1;
  IPDB_OBS_COUNT("kc.artifact_cache.hits", 1);
  return it->second->artifact;
}

std::shared_ptr<const CompiledQuery> CompiledQueryCache::Find(uint64_t hi,
                                                              uint64_t lo) {
  const CacheOwner owner = CurrentCacheOwner();
  std::lock_guard<std::mutex> lock(mutex_);
  return HitLocked(Key{hi, lo}, owner);
}

StatusOr<std::shared_ptr<const CompiledQuery>>
CompiledQueryCache::GetOrCompile(pqe::Lineage* lineage, pqe::NodeId root,
                                 bool* was_hit, const CompileOptions& options,
                                 std::pair<uint64_t, uint64_t>* fingerprint) {
  if (lineage == nullptr) return InvalidArgumentError("null lineage");
  if (root < 0 || root >= lineage->size()) {
    return InvalidArgumentError("lineage root out of range");
  }
  IPDB_FAULT_POINT("kc.cache.lookup");
  const CacheOwner owner = CurrentCacheOwner();
  const Key key = LineageFingerprint(*lineage, root);
  if (fingerprint != nullptr) *fingerprint = key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<const CompiledQuery> hit = HitLocked(key, owner);
    if (hit != nullptr) {
      if (was_hit != nullptr) *was_hit = true;
      return hit;
    }
  }
  // Compile outside the lock: compilation can be expensive and other
  // queries should not stall behind it. A racing thread may compile the
  // same fingerprint concurrently; the second insert is a no-op.
  StatusOr<CompiledQuery> compiled = CompileLineage(lineage, root, options);
  if (!compiled.ok()) return compiled.status();
  IPDB_FAULT_POINT("kc.cache.insert");
  auto artifact =
      std::make_shared<const CompiledQuery>(std::move(compiled).value());
  const int64_t artifact_bytes = ArtifactApproxBytes(*artifact);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    misses_.fetch_add(1, std::memory_order_relaxed);
    owners_[owner].misses += 1;
    IPDB_OBS_COUNT("kc.artifact_cache.misses", 1);
    auto it = index_.find(key);
    if (it == index_.end()) {
      // Per-owner quota first: an owner over its byte/entry limit makes
      // room out of its own residency before touching the shared pool.
      // (A single artifact larger than the byte cap still inserts once
      // the owner holds nothing else — the cap bounds hoarding, it does
      // not reject individual queries.)
      auto limit_it = owner_limits_.find(owner);
      if (limit_it != owner_limits_.end()) {
        const OwnerLimits& limits = limit_it->second;
        CacheOwnerStats& stats = owners_[owner];
        while ((limits.max_entries > 0 &&
                stats.entries + 1 > limits.max_entries) ||
               (limits.max_bytes > 0 &&
                stats.bytes + artifact_bytes > limits.max_bytes)) {
          if (!EvictOwnerLruLocked(owner)) break;
        }
      }
      lru_.push_front(Entry{key, artifact, owner, artifact_bytes});
      index_.emplace(key, lru_.begin());
      CacheOwnerStats& stats = owners_[owner];
      stats.entries += 1;
      stats.bytes += artifact_bytes;
      approx_bytes_ += artifact_bytes;
      while (lru_.size() > capacity_) EvictForCapacityLocked();
    }
    PublishGaugesLocked();
  }
  if (was_hit != nullptr) *was_hit = false;
  return artifact;
}

bool CompiledQueryCache::EraseFingerprint(uint64_t hi, uint64_t lo) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(Key{hi, lo});
  if (it == index_.end()) return false;
  EvictLocked(it->second);
  PublishGaugesLocked();
  return true;
}

void CompiledQueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  owners_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  approx_bytes_ = 0;
  PublishGaugesLocked();
}

size_t CompiledQueryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

int64_t CompiledQueryCache::approx_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return approx_bytes_;
}

void CompiledQueryCache::SetOwnerLimits(CacheOwner owner, int64_t max_bytes,
                                        int64_t max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  owner_limits_[owner] = OwnerLimits{max_bytes, max_entries};
}

CacheOwnerStats CompiledQueryCache::OwnerStats(CacheOwner owner) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? CacheOwnerStats{} : it->second;
}

std::vector<std::pair<CacheOwner, CacheOwnerStats>>
CompiledQueryCache::AccountingSnapshot() const {
  std::vector<std::pair<CacheOwner, CacheOwnerStats>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(owners_.begin(), owners_.end());
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

Status CompiledQueryCache::CheckAccounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t entries = 0;
  int64_t bytes = 0;
  for (const auto& [owner, stats] : owners_) {
    if (stats.entries < 0 || stats.bytes < 0) {
      return IPDB_STATUS(StatusCode::kInternal)
             << "cache owner " << owner << " has negative accounting ("
             << stats.entries << " entries, " << stats.bytes << " bytes)";
    }
    entries += stats.entries;
    bytes += stats.bytes;
  }
  if (entries != static_cast<int64_t>(lru_.size())) {
    return IPDB_STATUS(StatusCode::kInternal)
           << "cache accounting drift: owners claim " << entries
           << " entries, cache holds " << lru_.size();
  }
  if (bytes != approx_bytes_) {
    return IPDB_STATUS(StatusCode::kInternal)
           << "cache accounting drift: owners claim " << bytes
           << " bytes, cache holds " << approx_bytes_;
  }
  return Status::Ok();
}

CompiledQueryCache& GlobalCompiledQueryCache() {
  static CompiledQueryCache* cache = new CompiledQueryCache(128);
  return *cache;
}

}  // namespace kc
}  // namespace ipdb
