#include "e2ebench/workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "src/arrangement/cell_complex.h"
#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/pipeline/text_cache.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/io.h"
#include "src/region/transform.h"
#include "src/server/server.h"
#include "src/shard/router.h"
#include "src/store/catalog.h"
#include "src/store/format.h"
#include "src/thematic/thematic.h"
#include "src/workload/generators.h"

namespace topodb::e2e {

Answer CanonicalAnswer(uint64_t key, const Result<std::string>& result) {
  Answer answer;
  answer.key = key;
  answer.code = static_cast<uint32_t>(result.status().code());
  if (result.ok()) {
    answer.size = result->size();
    answer.digest = Fnv1a64(*result);
  }
  return answer;
}

Answer VerdictAnswer(uint64_t key, const Result<bool>& result) {
  Answer answer;
  answer.key = key;
  answer.code = static_cast<uint32_t>(result.status().code());
  if (result.ok()) {
    answer.size = 1;
    answer.digest = *result ? 1 : 0;
  }
  return answer;
}

bool IsFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

uint16_t Deployment::port() const {
  return router != nullptr ? router->port() : servers.front()->port();
}

Status Deployment::Shutdown() {
  Status first = Status::OK();
  auto keep = [&first](const Status& status) {
    if (first.ok() && !status.ok()) first = status;
  };
  if (router != nullptr) keep(router->Shutdown());
  for (auto& server : servers) keep(server->Shutdown());
  router.reset();
  servers.clear();
  catalogs.clear();
  if (!dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dir.clear();
  }
  return first;
}

Deployment::~Deployment() { (void)Shutdown(); }

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::min<size_t>(
      n, std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& thread : pool) thread.join();
}

namespace {

using Clock = std::chrono::steady_clock;

QueryEngine::CacheStats SumStats(
    const std::vector<const QueryEngine*>& engines) {
  QueryEngine::CacheStats sum;
  for (const QueryEngine* engine : engines) {
    const QueryEngine::CacheStats s = engine->cache_stats();
    sum.disc_memo_hits += s.disc_memo_hits;
    sum.disc_memo_misses += s.disc_memo_misses;
    sum.materialized_discs += s.materialized_discs;
    sum.raw_candidates += s.raw_candidates;
  }
  return sum;
}

// Seed of the fixed datasets (catalog-eval's catalog, routed-write-mix's
// inline and repeated texts); --seed draws the traffic over them.
constexpr uint64_t kDatasetSeed = 0x70b0db;

uint64_t Mix(uint64_t a, uint64_t b) {
  SplitMix64 rng(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  return rng.Next();
}

// Request keys: kind in the top byte, two indices below it.
enum KeyKind : uint64_t {
  kColdText = 1,    // invariant-cold text index
  kPoolQuery = 2,   // catalog-eval (entry, query) pool index
  kLoaded = 3,      // routed LOAD index; answered by the stored canonical
  kNameEval = 4,    // routed EVAL_QUERY by name: (load index, query)
  kInlineEval = 5,  // routed inline EVAL_QUERY: (inline text, query)
  kRepeatText = 6,  // routed BATCH item: repeated text index
};

uint64_t Key(uint64_t kind, uint64_t a, uint64_t b = 0) {
  return kind << 56 | (a & 0xffffffffULL) << 24 | (b & 0xffffffULL);
}
uint64_t KeyKindOf(uint64_t key) { return key >> 56; }
uint64_t KeyA(uint64_t key) { return (key >> 24) & 0xffffffffULL; }
uint64_t KeyB(uint64_t key) { return key & 0xffffffULL; }

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// The query templates real clients send: 4-intersection atoms, and one
// level of cell, name or region quantification. $A and $B are two
// distinct region names of the instance.
struct QueryTemplate {
  const char* text;
  bool region_quantifier;
};
constexpr QueryTemplate kTemplates[] = {
    {"connect($A, $B)", false},
    {"overlap($A, $B) or meet($A, $B)", false},
    {"inside($A, $B) or covers($A, $B)", false},
    {"exists cell c . subset(c, $A) and subset(c, $B)", false},
    {"forall cell c . subset(c, $A) implies not subset(c, $B)", false},
    {"exists cell c . subset(c, $A) and not connect(c, $B)", false},
    {"exists name a . overlap(a, $A) and overlap(a, $B)", false},
    {"forall name a . connect(a, $A) implies connect(a, $B)", false},
    {"exists region r . subset(r, $A) and subset(r, $B)", true},
    {"exists region r . subset(r, $A) and disjoint(r, $B)", true},
    {"forall region r . subset(r, $A) implies connect(r, $B)", true},
};
// Region quantifiers enumerate open-disc unions, exponential in the face
// count; above this many faces a query can exhaust the evaluator's
// budget, and where that happens depends on the plan, so such queries are
// left out rather than compared.
constexpr size_t kMaxRegionQueryFaces = 14;

std::string Instantiate(const char* text, const std::string& a,
                        const std::string& b) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    if (p[0] == '$' && (p[1] == 'A' || p[1] == 'B')) {
      out += QuoteQueryName(p[1] == 'A' ? a : b);
      ++p;
    } else {
      out += *p;
    }
  }
  return out;
}

// Records item k of a BATCH_INVARIANTS reply as the answer for `key`, or
// returns false when the item got no answer (shed or deadline). A reply
// that is an error, or has the wrong number of items, is an answer: a
// wrong one.
bool BatchItem(const Result<std::vector<Result<std::string>>>& results,
               size_t expected_items, int k, uint64_t key,
               std::vector<Answer>* answers) {
  if (!results.ok()) {
    answers->push_back(CanonicalAnswer(key, results.status()));
    return true;
  }
  if (results->size() != expected_items) {
    answers->push_back(CanonicalAnswer(
        key, Status::Internal("batch answered with the wrong item count")));
    return true;
  }
  const Result<std::string>& item = (*results)[k];
  if (IsFailure(item.status())) return false;
  answers->push_back(CanonicalAnswer(key, item));
  return true;
}

// The library's verdict under the server's evaluation options.
Result<bool> LibraryVerdict(const QueryEngine& engine,
                            const std::string& query) {
  EvalOptions options;
  options.plan = true;
  return engine.Evaluate(query, options);
}

Result<std::string> LibraryCanonical(const std::string& text) {
  TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance, ParseInstanceText(text));
  TOPODB_ASSIGN_OR_RETURN(TopologicalInvariant invariant,
                          TopologicalInvariant::Compute(instance));
  return invariant.canonical();
}

// --- Replay helpers: one span per public layer call ------------------------

Result<SpatialInstance> TracedParse(const std::string& text, SpanBuffer& t,
                                    int32_t parent, uint64_t rid) {
  ScopedSpan span(&t, "region.parse", parent, rid);
  return ParseInstanceText(text);
}

// parse -> arrangement -> extract -> canonical: the inline-text invariant
// path of the server (a text-cache miss), as separate layer calls.
Result<InvariantData> TracedInvariant(const std::string& text, SpanBuffer& t,
                                      int32_t parent, uint64_t rid) {
  TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance,
                          TracedParse(text, t, parent, rid));
  Result<CellComplex> complex = Status::Internal("unset");
  {
    ScopedSpan span(&t, "arrangement.build", parent, rid);
    complex = CellComplex::Build(instance);
  }
  TOPODB_RETURN_NOT_OK(complex.status());
  InvariantData data;
  {
    ScopedSpan span(&t, "invariant.extract", parent, rid);
    data = InvariantData::FromComplex(*complex);
  }
  {
    ScopedSpan span(&t, "invariant.canonical", parent, rid);
    TOPODB_RETURN_NOT_OK(CanonicalInvariantString(data).status());
  }
  return data;
}

// parse -> plan -> evaluate on an engine, as the server's EVAL_QUERY
// does it on a semantic-cache miss.
void TracedEval(const QueryEngine& engine, const std::string& query,
                SpanBuffer& t, int32_t parent, uint64_t rid) {
  Result<FormulaPtr> formula = Status::Internal("unset");
  {
    ScopedSpan span(&t, "query.parse", parent, rid);
    formula = ParseQuery(query);
  }
  if (!formula.ok()) return;
  FormulaPtr planned;
  {
    ScopedSpan span(&t, "query.plan", parent, rid);
    planned = PlanQuery(CanonicalizeQuery(*formula), engine.planner_stats());
  }
  ScopedSpan span(&t, "query.eval", parent, rid);
  (void)engine.Evaluate(planned, EvalOptions{});
}

// --- Deployments -------------------------------------------------------------

struct ServingPlan {
  int shards = 0;  // 0: one server, clients connect to it directly.
  int workers = 2;
  bool catalog = false;
  // Runs on each opened catalog before its server starts.
  std::function<Status(Catalog&)> fill;
};

Result<std::unique_ptr<Deployment>> StartServing(const std::string& dir,
                                                 const ServingPlan& plan) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir);
  const int servers = std::max(plan.shards, 1);
  RouterOptions router_options;
  router_options.metrics = &d->router_metrics;
  for (int s = 0; s < servers; ++s) {
    ServerOptions options;
    options.num_workers = plan.workers;
    options.metrics = &d->server_metrics;
    if (plan.catalog) {
      CatalogOptions catalog_options;
      catalog_options.directory = dir + "/s" + std::to_string(s);
      catalog_options.metrics = &d->server_metrics;
      TOPODB_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                              Catalog::Open(catalog_options));
      if (plan.fill) TOPODB_RETURN_NOT_OK(plan.fill(*catalog));
      options.catalog = catalog.get();
      d->catalogs.push_back(std::move(catalog));
    }
    d->servers.push_back(std::make_unique<TopoDbServer>(options));
    TOPODB_RETURN_NOT_OK(d->servers.back()->Start());
    router_options.shards.push_back(
        {"s" + std::to_string(s), d->servers.back()->port()});
  }
  if (plan.shards > 0) {
    d->router = std::make_unique<TopoDbRouter>(router_options);
    TOPODB_RETURN_NOT_OK(d->router->Start());
  }
  return d;
}

// --- invariant-cold ---------------------------------------------------------

// Inline COMPUTE_INVARIANT and BATCH_INVARIANTS over texts that are
// distinct over the whole run, so the text cache never hits and every
// item runs parse, arrangement, predicates and canonical form.
class InvariantCold final : public Workload {
 public:
  explicit InvariantCold(uint64_t seed) : seed_(seed) {
    BigInt factor(1);
    for (int i = 0; i < 64; ++i) factor = factor * BigInt(2);
    stretch_ = std::make_unique<AffineTransform>(
        Must(AffineTransform::Make(Rational(factor, BigInt(3)), 0,
                                   Rational(BigInt(7), factor), 0,
                                   Rational(factor, BigInt(5)), Rational(1, 3)),
             "stretch transform"));
  }

  const WorkloadShape& shape() const override { return shape_; }

  std::string Describe() const override {
    return "every text distinct (6-12 rects, 1 in 8 stretched to 64-bit "
           "coordinates) against a 4096-entry text cache: 0% reuse";
  }

  // Text i of the run: 6-12 random rectangles; one in eight stretched by
  // the 2^64 affine map of the exactness ablation.
  std::string Text(uint64_t i) const {
    const uint64_t h = Mix(seed_, i);
    SpatialInstance instance = Must(
        RandomRectInstance(6 + static_cast<int>(h % 7), 64, h), "rects");
    if (i % 8 == 7) {
      instance = Must(stretch_->ApplyToInstance(instance), "stretch");
    }
    return WriteInstanceText(instance);
  }

  Result<std::unique_ptr<Deployment>> Deploy(const std::string& dir) override {
    ServingPlan plan;
    plan.workers = shape_.workers_per_server;
    TOPODB_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                            StartServing(dir, plan));
    for (int c = 0; c < shape_.clients; ++c) {
      d->streams.push_back(std::make_unique<Stream>(this, Mix(seed_, c)));
    }
    return d;
  }

  void PrepareTruth(const std::vector<uint64_t>&) override {}

  Answer Truth(uint64_t key) const override {
    return CanonicalAnswer(key, LibraryCanonical(Text(KeyA(key))));
  }

  void Replay(uint64_t key, Deployment&, SpanBuffer& t,
              uint64_t rid) override {
    const std::string text = Text(KeyA(key));
    ScopedSpan root(&t, "request", -1, rid);
    (void)TracedInvariant(text, t, root.index(), rid);
  }

 private:
  class Stream final : public ClientStream {
   public:
    Stream(InvariantCold* w, uint64_t seed) : w_(w), rng_(seed) {}

    Sample Issue(TopoDbClient& client, std::vector<Answer>* answers,
                 SpanBuffer* trace, int32_t parent, uint64_t rid) override {
      // One request in four is a BATCH_INVARIANTS of four texts.
      const int items = rng_.Below(4) == 0 ? 4 : 1;
      const uint64_t first = w_->next_text_.fetch_add(items);
      std::vector<std::string> texts;
      for (int k = 0; k < items; ++k) texts.push_back(w_->Text(first + k));
      Sample sample;
      sample.op = OpClass::kInvariant;
      sample.items = static_cast<uint32_t>(items);
      sample.key = Key(kColdText, first);
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(trace, "client.call", parent, rid);
      if (items == 1) {
        Result<std::string> result = client.ComputeInvariant(texts[0]);
        sample.latency_us = MicrosSince(t0);
        sample.failed = IsFailure(result.status());
        if (!sample.failed) answers->push_back(CanonicalAnswer(sample.key, result));
        return sample;
      }
      auto results = client.BatchInvariants(texts);
      sample.latency_us = MicrosSince(t0);
      sample.failed = IsFailure(results.status());
      if (sample.failed) return sample;
      for (int k = 0; k < items; ++k) {
        const uint64_t key = Key(kColdText, first + k);
        if (!BatchItem(results, texts.size(), k, key, answers)) {
          sample.failed = true;
        }
      }
      return sample;
    }

   private:
    InvariantCold* w_;
    SplitMix64 rng_;
  };

  const WorkloadShape shape_{"invariant-cold", 2, 0, 2, 2, 24, "textcache"};
  uint64_t seed_;
  std::unique_ptr<AffineTransform> stretch_;
  std::atomic<uint64_t> next_text_{0};
};

// --- catalog-eval -----------------------------------------------------------

// 48 catalog entries ingested at set-up; EVAL_QUERY by name over a pool
// of (entry, query) pairs, skewed to a hot subset that fits the semantic
// cache plus a uniform long tail that does not. The catalog and its query
// pool are one fixed dataset; the seed draws the traffic over it (the hot
// subset and every request), so a handful of costly queries cannot make
// one seed's tail unlike another's.
class CatalogEval final : public Workload {
 public:
  static constexpr int kEntries = 48;
  static constexpr size_t kPairsPerEntry = 24;
  static constexpr size_t kHot = 1500;
  static constexpr uint64_t kHotPercent = 80;

  explicit CatalogEval(uint64_t seed) : seed_(seed) {
    for (int e = 0; e < kEntries; ++e) {
      const uint64_t h = Mix(kDatasetSeed, e);
      SpatialInstance instance;
      switch (e % 6) {
        case 0:
          instance = Must(ChainInstance(3 + static_cast<int>(h % 4)), "chain");
          break;
        case 1:
          instance = Must(RectGridInstance(2, 2 + static_cast<int>(h % 2)),
                          "grid");
          break;
        default:
          instance = Must(
              RandomRectInstance(5 + static_cast<int>(h % 4), 40, h), "rects");
      }
      Entry entry;
      entry.name = "e" + std::to_string(e);
      entry.text = WriteInstanceText(instance);
      const size_t faces =
          Must(CellComplex::Build(instance), "complex").faces().size();
      AddQueries(e, instance.names(), faces <= kMaxRegionQueryFaces, h);
      entries_.push_back(std::move(entry));
    }
    hot_order_.resize(pool_.size());
    for (size_t i = 0; i < pool_.size(); ++i) hot_order_[i] = i;
    SplitMix64 rng(Mix(seed_, 0x407));
    for (size_t i = pool_.size(); i > 1; --i) {
      std::swap(hot_order_[i - 1], hot_order_[rng.Below(i)]);
    }
  }

  const WorkloadShape& shape() const override { return shape_; }

  std::string Describe() const override {
    return std::to_string(pool_.size()) + " (entry, query) pairs over " +
           std::to_string(kEntries) + " entries; " +
           std::to_string(kHotPercent) + "% of requests to a hot " +
           std::to_string(kHot) +
           " against a 4096-entry semantic cache, the rest uniform";
  }

  Result<std::unique_ptr<Deployment>> Deploy(const std::string& dir) override {
    ServingPlan plan;
    plan.workers = shape_.workers_per_server;
    plan.catalog = true;
    plan.fill = [this](Catalog& catalog) -> Status {
      for (const Entry& entry : entries_) {
        TOPODB_RETURN_NOT_OK(catalog.Ingest(entry.name, entry.text).status());
      }
      return Status::OK();
    };
    TOPODB_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                            StartServing(dir, plan));
    for (int c = 0; c < shape_.clients; ++c) {
      d->streams.push_back(std::make_unique<Stream>(this, Mix(seed_, 100 + c)));
    }
    return d;
  }

  void PrepareTruth(const std::vector<uint64_t>&) override { BuildEngines(); }

  QueryEngine::CacheStats EngineStats() const override {
    std::vector<const QueryEngine*> engines;
    for (const auto& engine : engines_) engines.push_back(engine.get());
    return SumStats(engines);
  }

  Answer Truth(uint64_t key) const override {
    const PoolItem& item = pool_[KeyA(key)];
    return VerdictAnswer(key, LibraryVerdict(*engines_[item.entry], item.query));
  }

  void Replay(uint64_t key, Deployment& d, SpanBuffer& t,
              uint64_t rid) override {
    BuildEngines();
    const PoolItem& item = pool_[KeyA(key)];
    ScopedSpan root(&t, "request", -1, rid);
    {
      ScopedSpan span(&t, "catalog.find", root.index(), rid);
      (void)d.catalogs.front()->Find(entries_[item.entry].name);
    }
    TracedEval(*engines_[item.entry], item.query, t, root.index(), rid);
  }

 private:
  struct Entry {
    std::string name;
    std::string text;
  };
  struct PoolItem {
    int entry;
    std::string query;
  };

  void AddQueries(int entry, const std::vector<std::string>& names,
                  bool region_ok, uint64_t h) {
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t a = 0; a < names.size(); ++a) {
      for (size_t b = 0; b < names.size(); ++b) {
        if (a != b) pairs.push_back({a, b});
      }
    }
    SplitMix64 rng(h);
    for (size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1], pairs[rng.Below(i)]);
    }
    pairs.resize(std::min(pairs.size(), kPairsPerEntry));
    for (const auto& [a, b] : pairs) {
      for (const QueryTemplate& tmpl : kTemplates) {
        if (tmpl.region_quantifier && !region_ok) continue;
        pool_.push_back({entry, Instantiate(tmpl.text, names[a], names[b])});
      }
    }
  }

  void BuildEngines() {
    if (!engines_.empty()) return;
    engines_.resize(entries_.size());
    ParallelFor(entries_.size(), [&](size_t e) {
      engines_[e] = std::make_unique<QueryEngine>(Must(
          QueryEngine::Build(Must(ParseInstanceText(entries_[e].text), "parse")),
          "engine"));
    });
  }

  class Stream final : public ClientStream {
   public:
    Stream(CatalogEval* w, uint64_t seed) : w_(w), rng_(seed) {}

    Sample Issue(TopoDbClient& client, std::vector<Answer>* answers,
                 SpanBuffer* trace, int32_t parent, uint64_t rid) override {
      const size_t n = w_->pool_.size();
      const size_t p = rng_.Below(100) < kHotPercent
                           ? w_->hot_order_[rng_.Below(std::min(kHot, n))]
                           : rng_.Below(n);
      const PoolItem& item = w_->pool_[p];
      Sample sample;
      sample.op = OpClass::kEval;
      sample.key = Key(kPoolQuery, p);
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(trace, "client.call", parent, rid);
      Result<bool> verdict = client.EvalQuery(
          InstanceRef::Name(w_->entries_[item.entry].name), item.query);
      sample.latency_us = MicrosSince(t0);
      sample.failed = IsFailure(verdict.status());
      if (!sample.failed) answers->push_back(VerdictAnswer(sample.key, verdict));
      return sample;
    }

   private:
    CatalogEval* w_;
    SplitMix64 rng_;
  };

  const WorkloadShape shape_{"catalog-eval", 1, 0, 2, 1, 2000, "semcache"};
  uint64_t seed_;
  std::vector<Entry> entries_;
  std::vector<PoolItem> pool_;
  std::vector<size_t> hot_order_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
};

// --- routed-write-mix -------------------------------------------------------

// One client through TopoDbRouter to two catalog-backed shards of one
// worker each: LOADs of new names beside EVAL_QUERY sweeping every name
// loaded so far, inline EVAL_QUERY, and BATCH_INVARIANTS of repeated
// texts that the shards' text caches serve.
class RoutedWriteMix final : public Workload {
 public:
  static constexpr uint64_t kPreloaded = 8;
  static constexpr int kInlineTexts = 4;
  static constexpr int kRepeatTexts = 32;
  static constexpr int kBatchItems = 8;

  // The inline and repeated texts are fixed; the seed draws the LOADed
  // instances and the request mix.
  explicit RoutedWriteMix(uint64_t seed) : seed_(seed) {
    // Queries over the first three region names every instance here has;
    // no region quantifiers, whose budget behaviour depends on faces.
    const std::string names[] = {"R000", "R001", "R002"};
    for (const QueryTemplate& tmpl : kTemplates) {
      if (tmpl.region_quantifier) continue;
      for (int p = 0; p < 3; ++p) {
        queries_.push_back(
            Instantiate(tmpl.text, names[p], names[(p + 1) % 3]));
      }
    }
    inline_texts_ = {
        WriteInstanceText(Must(ChainInstance(4), "chain")),
        WriteInstanceText(Must(RectGridInstance(2, 2), "grid")),
        WriteInstanceText(Must(RandomRectInstance(5, 40, Mix(kDatasetSeed, 1)),
                               "rects")),
        WriteInstanceText(Must(RandomRectInstance(5, 40, Mix(kDatasetSeed, 2)),
                               "rects")),
    };
    for (int t = 0; t < kRepeatTexts; ++t) {
      repeat_texts_.push_back(WriteInstanceText(Must(
          RandomRectInstance(6, 48, Mix(kDatasetSeed, 100 + t)), "rects")));
    }
  }

  const WorkloadShape& shape() const override { return shape_; }

  std::string Describe() const override {
    return "LOADs grow the catalog without bound (one engine per name "
           "swept); " + std::to_string(kRepeatTexts) +
           " repeated BATCH texts against a 4096-entry text cache per shard; " +
           std::to_string(queries_.size()) + " queries per swept name";
  }

  std::string LoadName(uint64_t j) const { return "n" + std::to_string(j); }
  std::string LoadText(uint64_t j) const {
    const uint64_t h = Mix(seed_ ^ 0x10ad, j);
    return WriteInstanceText(Must(
        RandomRectInstance(5 + static_cast<int>(h % 4), 40, h), "rects"));
  }

  Result<std::unique_ptr<Deployment>> Deploy(const std::string& dir) override {
    ServingPlan plan;
    plan.shards = shape_.shards;
    plan.workers = shape_.workers_per_server;
    plan.catalog = true;
    TOPODB_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                            StartServing(dir, plan));
    TOPODB_ASSIGN_OR_RETURN(TopoDbClient client,
                            TopoDbClient::Connect(d->port()));
    auto stream = std::make_unique<Stream>(this, Mix(seed_, 200));
    for (uint64_t j = 0; j < kPreloaded; ++j) {
      TOPODB_RETURN_NOT_OK(client.Load(LoadName(j), LoadText(j)).status());
      stream->acked_.push_back(j);
    }
    stream->loaded_ = kPreloaded;
    d->streams.push_back(std::move(stream));
    return d;
  }

  void CollectStoredAnswers(Deployment& d,
                            std::vector<Answer>* answers) override {
    for (uint64_t j : static_cast<Stream&>(*d.streams.front()).acked_) {
      Result<std::string> canonical = UnknownInstanceError(LoadName(j));
      for (auto& catalog : d.catalogs) {
        auto entry = catalog->Find(LoadName(j));
        if (entry.ok()) {
          canonical = std::string((*entry)->view().canonical());
          break;
        }
      }
      answers->push_back(CanonicalAnswer(Key(kLoaded, j), canonical));
    }
  }

  void PrepareTruth(const std::vector<uint64_t>& keys) override {
    std::vector<uint64_t> loads;
    for (uint64_t key : keys) {
      if (KeyKindOf(key) == kNameEval) loads.push_back(KeyA(key));
    }
    std::sort(loads.begin(), loads.end());
    loads.erase(std::unique(loads.begin(), loads.end()), loads.end());
    std::vector<std::unique_ptr<QueryEngine>> built(loads.size());
    ParallelFor(loads.size(), [&](size_t i) {
      built[i] = std::make_unique<QueryEngine>(
          Must(QueryEngine::Build(Must(ParseInstanceText(LoadText(loads[i])),
                                       "parse")),
               "engine"));
    });
    for (size_t i = 0; i < loads.size(); ++i) {
      engines_[loads[i]] = std::move(built[i]);
    }
    for (int t = 0; t < kInlineTexts; ++t) {
      if (inline_engines_.size() < kInlineTexts) {
        inline_engines_.push_back(std::make_unique<QueryEngine>(
            Must(QueryEngine::Build(
                     Must(ParseInstanceText(inline_texts_[t]), "parse")),
                 "engine")));
      }
    }
  }

  QueryEngine::CacheStats EngineStats() const override {
    std::vector<const QueryEngine*> engines;
    for (const auto& [j, engine] : engines_) engines.push_back(engine.get());
    for (const auto& engine : inline_engines_) engines.push_back(engine.get());
    return SumStats(engines);
  }

  Answer Truth(uint64_t key) const override {
    switch (KeyKindOf(key)) {
      case kLoaded:
        return CanonicalAnswer(key, LibraryCanonical(LoadText(KeyA(key))));
      case kNameEval:
        return VerdictAnswer(key, LibraryVerdict(*engines_.at(KeyA(key)),
                                                 queries_[KeyB(key)]));
      case kInlineEval:
        return VerdictAnswer(key, LibraryVerdict(*inline_engines_[KeyA(key)],
                                                 queries_[KeyB(key)]));
      default:
        return CanonicalAnswer(key, LibraryCanonical(repeat_texts_[KeyA(key)]));
    }
  }

  void Replay(uint64_t key, Deployment& d, SpanBuffer& t,
              uint64_t rid) override {
    switch (KeyKindOf(key)) {
      case kLoaded: {
        const std::string text = LoadText(KeyA(key));
        {
          ScopedSpan root(&t, "request", -1, rid);
          ScopedSpan span(&t, "catalog.ingest", root.index(), rid);
          (void)replay_catalog(d).Ingest("r" + std::to_string(rid), text);
        }
        // What ingest computes, layer by layer; a root of its own so the
        // request's self-time shares are not counted twice.
        ScopedSpan root(&t, "ingest.breakdown", -1, rid);
        Result<InvariantData> data = TracedInvariant(text, t, root.index(), rid);
        if (data.ok()) {
          ScopedSpan span(&t, "thematic.build", root.index(), rid);
          (void)ToThematic(*data);
        }
        return;
      }
      case kNameEval: {
        const QueryEngine& engine = *engines_.at(KeyA(key));
        ScopedSpan root(&t, "request", -1, rid);
        {
          ScopedSpan span(&t, "catalog.find", root.index(), rid);
          for (auto& catalog : d.catalogs) {
            if (catalog->Find(LoadName(KeyA(key))).ok()) break;
          }
        }
        TracedEval(engine, queries_[KeyB(key)], t, root.index(), rid);
        return;
      }
      case kInlineEval: {
        ScopedSpan root(&t, "request", -1, rid);
        Result<SpatialInstance> instance =
            TracedParse(inline_texts_[KeyA(key)], t, root.index(), rid);
        if (!instance.ok()) return;
        Result<QueryEngine> engine = Status::Internal("unset");
        {
          ScopedSpan span(&t, "query.engine_build", root.index(), rid);
          engine = QueryEngine::Build(*instance);
        }
        if (engine.ok()) {
          TracedEval(*engine, queries_[KeyB(key)], t, root.index(), rid);
        }
        return;
      }
      default: {
        // A repeated text is a text-cache hit on the shard.
        TextInvariantCache& cache = replay_text_cache();
        ScopedSpan root(&t, "request", -1, rid);
        for (int k = 0; k < kBatchItems; ++k) {
          ScopedSpan span(&t, "pipeline.textcache", root.index(), rid);
          (void)cache.Lookup(repeat_texts_[(KeyA(key) + k) % kRepeatTexts]);
        }
      }
    }
  }

 private:
  Catalog& replay_catalog(Deployment& d) {
    if (replay_catalog_ == nullptr) {
      CatalogOptions options;
      options.directory = d.dir + "/replay";
      replay_catalog_ = Must(Catalog::Open(options), "replay catalog");
    }
    return *replay_catalog_;
  }

  TextInvariantCache& replay_text_cache() {
    if (replay_text_cache_ == nullptr) {
      replay_text_cache_ =
          std::make_unique<TextInvariantCache>(TextCacheOptions{});
      for (const std::string& text : repeat_texts_) {
        replay_text_cache_->Insert(text, Must(LibraryCanonical(text), "c"));
      }
    }
    return *replay_text_cache_;
  }

  class Stream final : public ClientStream {
   public:
    Stream(RoutedWriteMix* w, uint64_t seed) : w_(w), rng_(seed) {}

    Sample Issue(TopoDbClient& client, std::vector<Answer>* answers,
                 SpanBuffer* trace, int32_t parent, uint64_t rid) override {
      const uint64_t r = rng_.Below(100);
      const uint64_t q = rng_.Below(w_->queries_.size());
      Sample sample;
      if (r < 10) {
        const uint64_t j = loaded_++;
        const std::string text = w_->LoadText(j);
        sample.op = OpClass::kLoad;
        sample.key = Key(kLoaded, j);
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span(trace, "client.call", parent, rid);
        auto result = client.Load(w_->LoadName(j), text);
        sample.latency_us = MicrosSince(t0);
        sample.failed = IsFailure(result.status());
        if (result.ok()) {
          acked_.push_back(j);
        } else if (!sample.failed) {
          answers->push_back(CanonicalAnswer(sample.key, result.status()));
        }
        return sample;
      }
      if (r < 50) {
        // The sweep visits every name loaded so far, in order, and wraps.
        const uint64_t j = sweep_ < loaded_ ? sweep_ : 0;
        sweep_ = j + 1;
        sample.op = OpClass::kEval;
        sample.key = Key(kNameEval, j, q);
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span(trace, "client.call", parent, rid);
        Result<bool> verdict = client.EvalQuery(
            InstanceRef::Name(w_->LoadName(j)), w_->queries_[q]);
        return Finish(sample, t0, verdict, answers);
      }
      if (r < 65) {
        const uint64_t t = rng_.Below(kInlineTexts);
        sample.op = OpClass::kEval;
        sample.key = Key(kInlineEval, t, q);
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span(trace, "client.call", parent, rid);
        Result<bool> verdict =
            client.EvalQuery(w_->inline_texts_[t], w_->queries_[q]);
        return Finish(sample, t0, verdict, answers);
      }
      const uint64_t first = rng_.Below(kRepeatTexts);
      std::vector<std::string> texts;
      for (int k = 0; k < kBatchItems; ++k) {
        texts.push_back(w_->repeat_texts_[(first + k) % kRepeatTexts]);
      }
      sample.op = OpClass::kInvariant;
      sample.items = kBatchItems;
      sample.key = Key(kRepeatText, first);
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(trace, "client.call", parent, rid);
      auto results = client.BatchInvariants(texts);
      sample.latency_us = MicrosSince(t0);
      sample.failed = IsFailure(results.status());
      if (sample.failed) return sample;
      for (int k = 0; k < kBatchItems; ++k) {
        const uint64_t key = Key(kRepeatText, (first + k) % kRepeatTexts);
        if (!BatchItem(results, texts.size(), k, key, answers)) {
          sample.failed = true;
        }
      }
      return sample;
    }

    std::vector<uint64_t> acked_;  // LOADs the router acknowledged.
    uint64_t loaded_ = 0;

   private:
    static Sample Finish(Sample sample, Clock::time_point t0,
                         const Result<bool>& verdict,
                         std::vector<Answer>* answers) {
      sample.latency_us = MicrosSince(t0);
      sample.failed = IsFailure(verdict.status());
      if (!sample.failed) answers->push_back(VerdictAnswer(sample.key, verdict));
      return sample;
    }

    RoutedWriteMix* w_;
    SplitMix64 rng_;
    uint64_t sweep_ = 0;
  };

  const WorkloadShape shape_{"routed-write-mix", 1, 2, 1, 1, 400, "textcache"};
  uint64_t seed_;
  std::vector<std::string> queries_;
  std::vector<std::string> inline_texts_;
  std::vector<std::string> repeat_texts_;
  std::map<uint64_t, std::unique_ptr<QueryEngine>> engines_;
  std::vector<std::unique_ptr<QueryEngine>> inline_engines_;
  std::unique_ptr<Catalog> replay_catalog_;
  std::unique_ptr<TextInvariantCache> replay_text_cache_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"invariant-cold", "catalog-eval", "routed-write-mix"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "invariant-cold") return std::make_unique<InvariantCold>(seed);
  if (name == "catalog-eval") return std::make_unique<CatalogEval>(seed);
  if (name == "routed-write-mix") return std::make_unique<RoutedWriteMix>(seed);
  return nullptr;
}

}  // namespace topodb::e2e
