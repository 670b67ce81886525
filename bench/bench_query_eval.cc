// Reference-vs-engine query evaluation: the byte-per-cell reference
// evaluator (tests/query_reference.h) against QueryEngine (packed cell
// sets, precomputed closures, memoized disc checks, shared materialized
// quantifier range) on the Fig 11 / Ex 4.1-4.2 query corpus and
// quantifier-heavy workload sweeps. The report exits nonzero on any
// verdict mismatch before timing; the timing series below it covers both
// evaluators, the parallel fan-out and the batch pipeline.
//
// Smoke mode (TOPODB_BENCH_SMOKE=1, used by CI) shrinks repetition counts
// and workload sizes so the binary exercises every code path in well under
// a second.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/pipeline/query_batch.h"
#include "src/topodb.h"
#include "tests/query_reference.h"

namespace topodb {
namespace {

using bench::Unwrap;

bool SmokeMode() {
  const char* env = std::getenv("TOPODB_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

constexpr char kExample41[] =
    "exists region r . subset(r, A) and subset(r, B) and subset(r, C)";
constexpr char kExample41Cells[] =
    "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)";
constexpr char kExample42[] =
    "forall region r . forall region s . "
    "(subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) "
    "implies exists region t . subset(t, A) and subset(t, B) and "
    "connect(t, t) and connect(t, r) and connect(t, s)";
constexpr char kForallConnect[] = "forall region r . connect(r, r)";
// ChainInstance names its regions R000, R001, ...
constexpr char kCellSweep[] =
    "forall cell c . subset(c, R000) implies connect(c, R000)";

struct CorpusRow {
  const char* label;
  SpatialInstance instance;
  std::string query;
};

std::vector<CorpusRow> BuildCorpus() {
  const int chain = SmokeMode() ? 3 : 6;
  const int teeth = SmokeMode() ? 2 : 4;
  // Cell sweeps are linear per binding, so they need a larger arrangement
  // before per-cell work (not fixed setup) dominates the row.
  const int cell_chain = SmokeMode() ? 3 : 24;
  std::vector<CorpusRow> corpus;
  corpus.push_back({"Ex4.1 region (Fig1a)", Fig1aInstance(), kExample41});
  corpus.push_back({"Ex4.1 region (Fig1b)", Fig1bInstance(), kExample41});
  corpus.push_back({"Ex4.1 cell (Fig1a)", Fig1aInstance(), kExample41Cells});
  corpus.push_back({"Ex4.2 (Fig1c)", Fig1cInstance(), kExample42});
  corpus.push_back({"Ex4.2 (Fig1d)", Fig1dInstance(), kExample42});
  corpus.push_back({"forall region (chain)", Unwrap(ChainInstance(chain)),
                    kForallConnect});
  corpus.push_back({"forall region (comb)", Unwrap(CombInstance(teeth)),
                    kForallConnect});
  corpus.push_back({"forall cell (chain)", Unwrap(ChainInstance(cell_chain)),
                    kCellSweep});
  return corpus;
}

double MedianMicros(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Times one cold evaluation (fresh engine, empty caches) per repetition,
// so the engine column pays for its own memoization — the speedup shown
// is not an artifact of a warm cache.
void ReportOldVsNew() {
  bench::Header(
      "query evaluation, reference (vector<char>) vs engine (packed words)");
  const int reps = SmokeMode() ? 1 : 5;
  EvalOptions options;
  options.max_region_candidates = 2'000'000;

  std::printf("%-24s | %12s | %12s | %8s | %s\n", "query", "reference us",
              "engine us", "speedup", "verdict");
  double total_reference = 0, total_engine = 0;
  for (CorpusRow& row : BuildCorpus()) {
    FormulaPtr query = Unwrap(ParseQuery(row.query));
    bool verdict_reference = false, verdict_engine = false;
    std::vector<double> us_reference, us_engine;
    for (int r = 0; r < reps; ++r) {
      {
        const CellComplex complex = Unwrap(CellComplex::Build(row.instance));
        const QueryReference reference(complex);
        const auto t0 = std::chrono::steady_clock::now();
        verdict_reference = Unwrap(reference.Evaluate(query, options));
        const auto t1 = std::chrono::steady_clock::now();
        us_reference.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      {
        QueryEngine engine = Unwrap(QueryEngine::Build(row.instance));
        const auto t0 = std::chrono::steady_clock::now();
        verdict_engine = Unwrap(engine.Evaluate(query, options));
        const auto t1 = std::chrono::steady_clock::now();
        us_engine.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    }
    if (verdict_reference != verdict_engine) {
      std::fprintf(stderr, "VERDICT MISMATCH on %s\n", row.label);
      std::exit(1);
    }
    const double b = MedianMicros(us_reference);
    const double n = MedianMicros(us_engine);
    total_reference += b;
    total_engine += n;
    std::printf("%-24s | %12.1f | %12.1f | %7.1fx | %s\n", row.label, b, n,
                b / n, verdict_engine ? "true" : "false");
  }
  std::printf("%-24s | %12.1f | %12.1f | %7.1fx |\n", "TOTAL",
              total_reference, total_engine, total_reference / total_engine);
}

// Runs the corpus once against an instrumented engine and prints the
// evaluation metrics (atoms, bindings, memo traffic, latency histogram).
// Honors TOPODB_METRICS_JSON=<path> like bench_pipeline_batch.
void ReportMetrics() {
  bench::Header("Query metrics: instrumented corpus sweep (JSON exportable)");
  MetricsRegistry registry;
  EvalOptions options;
  options.max_region_candidates = 2'000'000;
  options.metrics = &registry;
  for (CorpusRow& row : BuildCorpus()) {
    QueryEngine engine = Unwrap(QueryEngine::Build(row.instance));
    FormulaPtr query = Unwrap(ParseQuery(row.query));
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query, options)));
  }
  std::fputs(registry.ExportText().c_str(), stdout);

  if (const char* path = std::getenv("TOPODB_METRICS_JSON");
      path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write TOPODB_METRICS_JSON=%s\n", path);
      std::exit(1);
    }
    const std::string json = registry.ExportJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("metrics JSON written to %s\n", path);
  }
}

// Acceptance bar: a null registry must cost < 1% on the evaluation path.
void ReportMetricsOverhead() {
  bench::Header("Metrics overhead: corpus evaluation, off vs on");
  const int reps = SmokeMode() ? 1 : 5;
  std::vector<CorpusRow> corpus = BuildCorpus();
  auto run = [&](MetricsRegistry* registry) {
    EvalOptions options;
    options.max_region_candidates = 2'000'000;
    options.metrics = registry;
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (CorpusRow& row : corpus) {
        QueryEngine engine = Unwrap(QueryEngine::Build(row.instance));
        FormulaPtr query = Unwrap(ParseQuery(row.query));
        benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query, options)));
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best) best = ms;
    }
    return best;
  };
  const double off = run(nullptr);
  MetricsRegistry registry;
  const double on = run(&registry);
  std::printf("%-22s | %10.2f ms\n", "metrics off (null)", off);
  std::printf("%-22s | %10.2f ms  (%+.2f%%)\n", "metrics on", on,
              off > 0 ? 100.0 * (on - off) / off : 0.0);
}

// --- Timing series ---

void BM_Example42Reference(benchmark::State& state) {
  const SpatialInstance instance = Fig1dInstance();
  FormulaPtr query = Unwrap(ParseQuery(kExample42));
  for (auto _ : state) {
    const CellComplex complex = Unwrap(CellComplex::Build(instance));
    const QueryReference reference(complex);
    benchmark::DoNotOptimize(Unwrap(reference.Evaluate(query)));
  }
}
BENCHMARK(BM_Example42Reference);

void BM_Example42BitsetCold(benchmark::State& state) {
  const SpatialInstance instance = Fig1dInstance();
  FormulaPtr query = Unwrap(ParseQuery(kExample42));
  for (auto _ : state) {
    QueryEngine engine = Unwrap(QueryEngine::Build(instance));
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query)));
  }
}
BENCHMARK(BM_Example42BitsetCold);

// Warm engine: the materialized quantifier range and disc memo are reused
// across evaluations — the serving steady state.
void BM_Example42BitsetWarm(benchmark::State& state) {
  QueryEngine engine = Unwrap(QueryEngine::Build(Fig1dInstance()));
  FormulaPtr query = Unwrap(ParseQuery(kExample42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query)));
  }
}
BENCHMARK(BM_Example42BitsetWarm);

void BM_RegionSweepByStrategy(benchmark::State& state) {
  const int n = SmokeMode() ? 3 : static_cast<int>(state.range(0));
  const SpatialInstance instance = Unwrap(ChainInstance(n));
  FormulaPtr query = Unwrap(ParseQuery(kForallConnect));
  EvalOptions options;
  options.max_region_candidates = 2'000'000;
  for (auto _ : state) {
    if (state.range(1) == 0) {
      const CellComplex complex = Unwrap(CellComplex::Build(instance));
      const QueryReference reference(complex);
      benchmark::DoNotOptimize(Unwrap(reference.Evaluate(query, options)));
    } else {
      QueryEngine engine = Unwrap(QueryEngine::Build(instance));
      benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query, options)));
    }
  }
}
BENCHMARK(BM_RegionSweepByStrategy)
    ->ArgsProduct({{4, 5, 6}, {0, 1}})
    ->ArgNames({"chain", "engine"});

void BM_ParallelQuantifier(benchmark::State& state) {
  const SpatialInstance instance = Fig1dInstance();
  FormulaPtr query = Unwrap(ParseQuery(kExample42));
  EvalOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  QueryEngine engine = Unwrap(QueryEngine::Build(instance));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query, options)));
  }
}
BENCHMARK(BM_ParallelQuantifier)->Arg(1)->Arg(2)->Arg(4);

void BM_BatchQueries(benchmark::State& state) {
  QueryEngine engine = Unwrap(QueryEngine::Build(Fig1aInstance()));
  std::vector<std::string> queries;
  const int copies = SmokeMode() ? 2 : 16;
  for (int i = 0; i < copies; ++i) {
    queries.push_back(kExample41);
    queries.push_back(kExample41Cells);
    queries.push_back(kForallConnect);
  }
  QueryBatchOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = BatchEvaluateQueries(engine, queries, options);
    for (const auto& r : results) bench::Check(r.status());
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_BatchQueries)->Arg(1)->Arg(4);

}  // namespace
}  // namespace topodb

int main(int argc, char** argv) {
  topodb::ReportOldVsNew();
  topodb::ReportMetrics();
  topodb::ReportMetricsOverhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
