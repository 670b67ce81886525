#ifndef TOPODB_PIPELINE_TEXT_CACHE_H_
#define TOPODB_PIPELINE_TEXT_CACHE_H_

// A bounded cache of canonical invariant strings keyed by the *raw
// instance text*, consulted before any parsing. A text hit skips parse,
// arrangement build and canonical form. It is the server's only
// canonical memo: the structural InvariantCache
// (src/pipeline/invariant_cache.h), keyed by the built arrangement, is
// unbounded and still pays the full parse + build on a hit, so the
// server does not attach it (it stays available to batch callers). Two
// spellings of the same instance miss here and are recomputed — text
// identity is a fast path, not the identity scheme.
//
// Eviction policy: admission-capped, not LRU. The serving workload this
// cache exists for is a round-robin sweep over a working set of distinct
// instances (closed-loop batch clients); when the working set exceeds the
// capacity, LRU evicts every entry just before its next use and the hit
// rate collapses to zero, while first-in-wins admission keeps a stable
// resident subset and degrades linearly (hits = capacity / working set).
// Since a miss costs a full parse + build, the stable subset wins. This
// is also what makes shard scaling effective: each shard pins the subset
// of keys the ring routes to it, so the aggregate resident set grows
// linearly with the number of shards (see DESIGN.md §5i).
//
// Errors are never inserted (the server only stores successful
// canonicals), and a hit does no pipeline work, so it charges nothing
// against a request's deadline budget.
//
// Thread safety: all methods lock one mutex; the serving path touches the
// cache once per item, never per element.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include <mutex>

#include "src/obs/metrics.h"

namespace topodb {

struct TextCacheOptions {
  // Admission bounds; an insert that would exceed either is rejected
  // (counted in textcache.rejected). Zero entries disables the cache:
  // Lookup always misses and Insert is a no-op.
  size_t max_entries = 4096;
  size_t max_bytes = size_t{16} << 20;
  // Optional sink for textcache.{hits,misses,insertions,rejected}
  // counters and textcache.{entries,bytes} gauges.
  MetricsRegistry* metrics = nullptr;
};

class TextInvariantCache {
 public:
  explicit TextInvariantCache(const TextCacheOptions& options);

  TextInvariantCache(const TextInvariantCache&) = delete;
  TextInvariantCache& operator=(const TextInvariantCache&) = delete;

  // The cached canonical for `text`, or nullopt on a miss.
  std::optional<std::string> Lookup(std::string_view text);

  // Caches text -> canonical if neither bound would be exceeded; a
  // duplicate key is a no-op (first insert wins). Byte accounting charges
  // key + value sizes.
  void Insert(std::string_view text, std::string_view canonical);

  size_t entries() const;
  size_t bytes() const;

 private:
  const TextCacheOptions options_;
  Counter* c_hits_;
  Counter* c_misses_;
  Counter* c_insertions_;
  Counter* c_rejected_;
  Gauge* g_entries_;
  Gauge* g_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> map_;
  size_t bytes_ = 0;
};

}  // namespace topodb

#endif  // TOPODB_PIPELINE_TEXT_CACHE_H_
