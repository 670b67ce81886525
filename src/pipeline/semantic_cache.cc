#include "src/pipeline/semantic_cache.h"

#include <sstream>
#include <utility>

#include "src/query/plan.h"

namespace topodb {

SemanticCache::SemanticCache(SemanticCacheOptions options)
    : options_(options),
      hits_(RegistryCounter(options.metrics, "semcache.hits")),
      misses_(RegistryCounter(options.metrics, "semcache.misses")),
      evictions_(RegistryCounter(options.metrics, "semcache.evictions")),
      insertions_(RegistryCounter(options.metrics, "semcache.insertions")),
      entries_gauge_(RegistryGauge(options.metrics, "semcache.entries")),
      bytes_gauge_(RegistryGauge(options.metrics, "semcache.bytes")) {}

size_t SemanticCache::EntryBytes(const std::string& key) {
  // Key bytes plus a flat estimate of list/map node overhead; exactness
  // does not matter, only that the bound scales with what is stored.
  return key.size() + 96;
}

std::optional<bool> SemanticCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    CounterAdd(misses_);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  CounterAdd(hits_);
  return it->second->verdict;
}

void SemanticCache::Insert(const std::string& key, bool verdict) {
  const size_t incoming = EntryBytes(key);
  std::lock_guard<std::mutex> lock(mu_);
  if (incoming > options_.max_bytes || options_.max_entries == 0) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->verdict = verdict;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  EvictWhileOverLimitLocked(incoming);
  lru_.push_front(Entry{key, verdict});
  index_.emplace(key, lru_.begin());
  bytes_ += incoming;
  ++stats_.insertions;
  CounterAdd(insertions_);
  ExportGaugesLocked();
}

void SemanticCache::EvictWhileOverLimitLocked(size_t incoming_bytes) {
  while (!lru_.empty() && (lru_.size() + 1 > options_.max_entries ||
                           bytes_ + incoming_bytes > options_.max_bytes)) {
    const Entry& victim = lru_.back();
    bytes_ -= EntryBytes(victim.key);
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    CounterAdd(evictions_);
  }
}

void SemanticCache::ExportGaugesLocked() {
  GaugeSet(entries_gauge_, static_cast<int64_t>(lru_.size()));
  GaugeSet(bytes_gauge_, static_cast<int64_t>(bytes_));
}

SemanticCache::Stats SemanticCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SemanticCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t SemanticCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void SemanticCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  ExportGaugesLocked();
}

std::string EvalOptionsFingerprint(const EvalOptions& options) {
  std::ostringstream os;
  os << "rc=" << options.max_region_candidates
     << ";es=" << options.max_enumeration_steps
     << ";t=" << options.num_threads << ";p=" << (options.plan ? 1 : 0);
  return os.str();
}

std::string SemanticCacheKey(uint64_t entry_id, uint32_t format_version,
                             const std::string& canonical_query,
                             const EvalOptions& options) {
  std::ostringstream os;
  // entry_id first: after a re-ingest every component but it is
  // unchanged, and a differing prefix fails the map comparison earliest.
  os << entry_id << "/" << format_version << "/"
     << EvalOptionsFingerprint(options) << "/" << canonical_query;
  return os.str();
}

Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const FormulaPtr& query,
                                 const EvalOptions& options) {
  // Admission checkpoint: a warm verdict must not let an expired or
  // cancelled request through — the deadline bounds the request, not the
  // computation that once produced the answer.
  TOPODB_RETURN_NOT_OK(StopSignal(options.deadline, options.cancel).Check());
  if (options.semantic_cache == nullptr || options.cache_entry_id == 0) {
    return engine.Evaluate(query, options);
  }
  std::string key;
  {
    ScopedTimer timer(RegistryHistogram(options.metrics, "semcache.key_us"));
    key = SemanticCacheKey(options.cache_entry_id,
                           options.cache_format_version,
                           CanonicalQueryKey(query), options);
  }
  if (std::optional<bool> verdict = options.semantic_cache->Lookup(key)) {
    return *verdict;
  }
  Result<bool> result = engine.Evaluate(query, options);
  // Errors are never cached: budget and deadline failures are properties
  // of this request's limits, not of the query.
  if (result.ok()) options.semantic_cache->Insert(key, *result);
  return result;
}

Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const std::string& query,
                                 const EvalOptions& options) {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return EvaluateQueryCached(engine, formula, options);
}

}  // namespace topodb
