// Tests for the semantic verdict cache (src/pipeline/semantic_cache.h):
// LRU bounds, key structure (entry identity, options fingerprint,
// canonical query), the cache-hit contract (no budget consumed, deadline
// still enforced), and the errors-are-never-cached rule.

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/pipeline/semantic_cache.h"
#include "src/query/eval.h"
#include "src/region/fixtures.h"

namespace topodb {
namespace {

TEST(SemanticCacheTest, LookupInsertAndLruEviction) {
  SemanticCacheOptions options;
  options.max_entries = 3;
  SemanticCache cache(options);

  EXPECT_EQ(cache.Lookup("a"), std::nullopt);
  cache.Insert("a", true);
  cache.Insert("b", false);
  cache.Insert("c", true);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup("a"), std::optional<bool>(true));
  EXPECT_EQ(cache.Lookup("b"), std::optional<bool>(false));

  // "c" is now least recent; a fourth insert evicts it, not "a" or "b".
  cache.Insert("d", true);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup("c"), std::nullopt);
  EXPECT_EQ(cache.Lookup("a"), std::optional<bool>(true));
  EXPECT_EQ(cache.Lookup("d"), std::optional<bool>(true));

  const SemanticCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 2u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(SemanticCacheTest, ByteBoundEvictsAndOversizedKeysAreIgnored) {
  SemanticCacheOptions options;
  options.max_bytes = 400;  // Room for ~3 small entries (96B overhead each).
  SemanticCache cache(options);

  cache.Insert(std::string(200, 'k'), true);  // Fits alone.
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(std::string(200, 'm'), true);  // Evicts the first.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), options.max_bytes);

  // A key that could never fit is dropped without disturbing the cache.
  cache.Insert(std::string(1000, 'x'), true);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(std::string(200, 'm')), std::optional<bool>(true));
}

TEST(SemanticCacheTest, MetricsExportThroughRegistry) {
  MetricsRegistry registry;
  SemanticCacheOptions options;
  options.max_entries = 1;
  options.metrics = &registry;
  SemanticCache cache(options);

  cache.Insert("a", true);
  cache.Insert("b", true);  // Evicts "a".
  (void)cache.Lookup("b");
  (void)cache.Lookup("a");
  EXPECT_EQ(registry.counter("semcache.hits")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.misses")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.evictions")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.insertions")->value(), 2u);
  EXPECT_EQ(registry.gauge("semcache.entries")->value(), 1);
  EXPECT_GT(registry.gauge("semcache.bytes")->value(), 0);
}

TEST(SemanticCacheTest, KeySeparatesEntryIdentityAndOptions) {
  EvalOptions base;
  const std::string canonical = "connect(A, B)";
  const std::string key = SemanticCacheKey(7, 1, canonical, base);

  // Same inputs -> same key (the cache depends on determinism).
  EXPECT_EQ(SemanticCacheKey(7, 1, canonical, base), key);
  // Any identity component fractures the key: a re-ingest (new entry id),
  // a store format bump, or another query.
  EXPECT_NE(SemanticCacheKey(8, 1, canonical, base), key);
  EXPECT_NE(SemanticCacheKey(7, 2, canonical, base), key);
  EXPECT_NE(SemanticCacheKey(7, 1, "connect(A, C)", base), key);

  // Verdict-relevant options fracture it too...
  EvalOptions other = base;
  other.max_region_candidates = 1;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);
  other = base;
  other.max_enumeration_steps = 1;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);
  other = base;
  other.num_threads = 4;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);
  other = base;
  other.plan = true;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);

  // ...while the wall-clock knobs do not: a verdict is equally valid
  // under any deadline, and admission checks handle expiry.
  other = base;
  other.deadline = Deadline::AfterMillis(1);
  CancelToken cancel;
  other.cancel = &cancel;
  EXPECT_EQ(SemanticCacheKey(7, 1, canonical, other), key);
}

TEST(SemanticCacheTest, EquivalentQueriesShareOneEntry) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.cache_format_version = 1;

  // Four spellings of one query: operand order, double negation, the
  // implies expansion. All collapse to one canonical key.
  const char* spellings[] = {
      "connect(A, B) and connect(A, C)",
      "connect(C, A) and connect(B, A)",
      "not (not (connect(A, B) and connect(A, C)))",
      "not (connect(A, B) implies not connect(A, C))",
  };
  std::optional<bool> verdict;
  for (const char* spelling : spellings) {
    const auto result = EvaluateQueryCached(engine, spelling, eval);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!verdict) verdict = *result;
    EXPECT_EQ(*result, *verdict) << spelling;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(SemanticCacheTest, ReingestIdentityChangeRoutesAroundStaleVerdicts) {
  // The same query against the "same" catalog name must re-evaluate when
  // the underlying bytes changed. Identity is the entry id (payload
  // checksum), never the name: simulate a re-ingest by switching ids.
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 1;
  eval.cache_format_version = 1;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  eval.cache_entry_id = 2;  // Re-ingest under the same name: new id.
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SemanticCacheTest, ZeroEntryIdDisablesCaching) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 0;  // Inline text: no durable identity.

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(SemanticCacheTest, HitDoesNotReevaluateOrConsumeBudget) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  MetricsRegistry registry;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.metrics = &registry;

  const char* query = "exists region r . subset(r, A) and subset(r, B)";
  ASSERT_TRUE(EvaluateQueryCached(engine, query, eval).ok());
  const uint64_t atoms_after_miss = registry.counter("query.atoms")->value();
  const auto raw_after_miss = engine.cache_stats().raw_candidates;
  EXPECT_GT(atoms_after_miss, 0u);

  // The warm evaluation answers from the cache: the engine never runs, so
  // no atoms are evaluated and no enumeration budget is charged.
  ASSERT_TRUE(EvaluateQueryCached(engine, query, eval).ok());
  EXPECT_EQ(registry.counter("query.atoms")->value(), atoms_after_miss);
  EXPECT_EQ(engine.cache_stats().raw_candidates, raw_after_miss);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SemanticCacheTest, ExpiredDeadlineFailsEvenOnWarmEntry) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  ASSERT_EQ(cache.size(), 1u);

  // A warm verdict must not bypass admission control: the expired request
  // fails before the lookup, and the hit counter stays untouched.
  eval.deadline = Deadline::Expired();
  const auto expired = EvaluateQueryCached(engine, "connect(A, B)", eval);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.stats().hits, 0u);

  eval.deadline = Deadline::Infinite();
  CancelToken cancel;
  cancel.Cancel();
  eval.cancel = &cancel;
  const auto cancelled = EvaluateQueryCached(engine, "connect(A, B)", eval);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SemanticCacheTest, ErrorsAreNeverCached) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.max_enumeration_steps = 1;  // Guaranteed ResourceExhausted below.

  // The body is false for every binding, so the exists must exhaust the
  // whole region range — which the 1-step budget cannot cover.
  const char* query = "exists region r . not connect(r, r)";
  const auto exhausted = EvaluateQueryCached(engine, query, eval);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // With a workable budget the same key gets a verdict; the earlier
  // failure left nothing behind to shadow it.
  eval.max_enumeration_steps = int64_t{1} << 22;
  const auto ok = EvaluateQueryCached(engine, query, eval);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SemanticCacheTest, DistinctBudgetsDoNotShareVerdicts) {
  // A verdict computed under one budget must not answer a request with
  // another: exhaustion points differ, so the keys differ.
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  eval.max_region_candidates = 1000;
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace topodb
