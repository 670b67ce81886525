#ifndef TOPODB_PIPELINE_SEMANTIC_CACHE_H_
#define TOPODB_PIPELINE_SEMANTIC_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/query/eval.h"

namespace topodb {

// Bounded LRU cache of query *verdicts*, the layer above EngineCache:
// where EngineCache avoids re-building an engine, this avoids re-running
// an evaluation whose answer is already known. Keys are semantic, not
// syntactic — the query component is CanonicalQueryKey (plan.h), so every
// query in a canonicalization equivalence class (operand order, double
// negation, implies-vs-or spelling, binder names, ...) shares one entry.
//
// Staleness is handled the same way EngineCache handles it: the key
// embeds (entry_id, format_version), and the entry id is the store
// file's payload checksum. A re-ingest — same catalog name, new bytes —
// produces a new entry id, so stale verdicts are never hit again; they
// age out of the LRU. Names are deliberately *not* part of the key.
//
// Verdicts also depend on evaluation limits (budget exhaustion points
// differ across budgets, strategies and thread counts), so the key embeds
// a fingerprint of the verdict-relevant EvalOptions. Deadlines are
// excluded: they bound wall-clock, not the answer, and a cache hit under
// an expired deadline must still fail — EvaluateQueryCached checks the
// stop signal *before* the lookup. Errors are never cached: a budget or
// deadline failure says nothing about the query on a later, bigger
// budget.
struct SemanticCacheOptions {
  // Entry-count and byte ceilings; least-recently-used entries are
  // evicted when either would be exceeded. Bytes are accounted as key
  // size plus a fixed per-entry overhead estimate.
  size_t max_entries = 4096;
  size_t max_bytes = size_t{4} << 20;
  // Optional sink for semcache.{hits,misses,evictions,insertions}
  // counters and semcache.{entries,bytes} gauges (topodb.metrics.v2).
  // Must outlive the cache.
  MetricsRegistry* metrics = nullptr;
};

class SemanticCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
  };

  explicit SemanticCache(SemanticCacheOptions options = {});
  SemanticCache(const SemanticCache&) = delete;
  SemanticCache& operator=(const SemanticCache&) = delete;

  // The verdict for the key, refreshing its recency; nullopt on miss.
  std::optional<bool> Lookup(const std::string& key);

  // Inserts (or refreshes) a verdict, evicting LRU entries to stay
  // within bounds. A key wider than max_bytes is ignored.
  void Insert(const std::string& key, bool verdict);

  Stats stats() const;
  size_t size() const;
  size_t bytes() const;
  void Clear();

 private:
  struct Entry {
    std::string key;
    bool verdict = false;
  };

  // Caller must hold mu_.
  void EvictWhileOverLimitLocked(size_t incoming_bytes);
  void ExportGaugesLocked();
  static size_t EntryBytes(const std::string& key);

  const SemanticCacheOptions options_;
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Counter* insertions_;
  Gauge* entries_gauge_;
  Gauge* bytes_gauge_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recent.
  std::map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  Stats stats_;
};

// The verdict-relevant slice of EvalOptions, rendered deterministically:
// budgets, thread count and the plan flag — everything that can move a
// budget-exhaustion point or change which query is evaluated. Deadline,
// cancel token and metrics sink are excluded (they never change a
// successful verdict, and errors are not cached).
std::string EvalOptionsFingerprint(const EvalOptions& options);

// Full cache key: (entry_id, format_version, options fingerprint,
// canonical query). `canonical_query` must be CanonicalQueryKey output —
// passing a raw query string would fracture equivalence classes.
std::string SemanticCacheKey(uint64_t entry_id, uint32_t format_version,
                             const std::string& canonical_query,
                             const EvalOptions& options);

// Cache-aware evaluation entry point for the serving path. Behavior:
//   1. Checks the (deadline, cancel) stop signal first, so an expired
//      request fails with DeadlineExceeded even when the verdict is warm
//      — a cache hit must not bypass admission control.
//   2. Falls through to plain engine.Evaluate when options.semantic_cache
//      is null or options.cache_entry_id is 0 (no durable identity, e.g.
//      inline instance text).
//   3. On a hit, returns the cached verdict without touching the engine:
//      no region-candidate or enumeration budget is consumed.
//   4. On a miss, evaluates and caches the verdict only on success.
Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const FormulaPtr& query,
                                 const EvalOptions& options);

// Parse + evaluate. Parse errors are returned directly (never cached).
Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const std::string& query,
                                 const EvalOptions& options);

}  // namespace topodb

#endif  // TOPODB_PIPELINE_SEMANTIC_CACHE_H_
