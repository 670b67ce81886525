// Shard-scaling benchmark for the topodb_router (src/shard): closed-loop
// BATCH_INVARIANTS throughput against 1, 2, and 4 topodb_server shards
// behind one router, with every response byte-compared against ground
// truth from a direct single-server run.
//
// What scales on a single-core host: aggregate *cache capacity*, not CPU.
// Each shard caps its text cache at B entries while the working set holds
// M > B distinct instances; the ring pins a disjoint subset of the
// keyspace on each shard, so the fleet's resident set grows linearly with
// shards and the per-sweep miss count (each miss = a full parse +
// arrangement build) falls from M-B at one shard toward zero at M/B
// shards — exactly the memcached-style scale-out story (DESIGN.md §5i).
// On a multi-core host the same harness additionally scales compute; the
// floors asserted by ci/check_bench_shard.py (>=1.6x at 2 shards, >=2.5x
// at 4) hold in either regime.
//
// Smoke mode (TOPODB_BENCH_SMOKE=1, used by CI) shrinks the working set
// and pass counts so the binary exercises every path in seconds.
// TOPODB_BENCH_SHARD_JSON=<path> writes the topodb.bench_shard.v1
// artifact (the checked-in BENCH_shard.json comes from a full run).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/client/client.h"
#include "src/invariant/canonical.h"
#include "src/region/io.h"
#include "src/server/server.h"
#include "src/shard/router.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

using bench::Check;
using bench::Unwrap;

bool SmokeMode() {
  const char* env = std::getenv("TOPODB_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

struct Params {
  int working_set;        // M distinct instances.
  int cache_entries;      // B text-cache entries per shard.
  int batch_items;        // Items per BATCH_INVARIANTS request.
  int warmup_passes;      // Sweeps before the clock starts.
  int timed_passes;       // Sweeps under the clock.
  int rect_count;         // Rectangles per random instance (miss cost).
};

Params MakeParams() {
  if (SmokeMode()) return {24, 8, 6, 1, 2, 5};
  return {96, 36, 12, 2, 6, 7};
}

struct Workload {
  std::vector<std::string> texts;       // M distinct instance texts.
  std::vector<std::string> canonicals;  // Ground truth, one per text.
};

Workload BuildWorkload(const Params& params) {
  Workload workload;
  workload.texts.reserve(params.working_set);
  workload.canonicals.reserve(params.working_set);
  for (int i = 0; i < params.working_set; ++i) {
    const SpatialInstance instance = Unwrap(RandomRectInstance(
        params.rect_count, /*world=*/96, /*seed=*/0x5eed0000ull + i));
    workload.texts.push_back(WriteInstanceText(instance));
    workload.canonicals.push_back(
        Unwrap(TopologicalInvariant::Compute(instance)).canonical());
  }
  return workload;
}

ServerOptions ShardServerOptions(const Params& params) {
  ServerOptions options;
  options.num_workers = 1;
  options.text_cache_entries = static_cast<size_t>(params.cache_entries);
  return options;
}

// One closed-loop sweep: the working set in `batch_items`-sized
// BATCH_INVARIANTS requests, every canonical byte-compared. Returns the
// number of wrong or failed items (0 on a clean sweep).
int SweepOnce(TopoDbClient& client, const Workload& workload,
              const Params& params) {
  int bad = 0;
  const int m = static_cast<int>(workload.texts.size());
  for (int base = 0; base < m; base += params.batch_items) {
    const int count = std::min(params.batch_items, m - base);
    std::vector<std::string> batch(workload.texts.begin() + base,
                                   workload.texts.begin() + base + count);
    const auto results = client.BatchInvariants(batch);
    if (!results.ok() || static_cast<int>(results->size()) != count) {
      bad += count;
      continue;
    }
    for (int j = 0; j < count; ++j) {
      if (!(*results)[j].ok() ||
          (*results)[j].value() != workload.canonicals[base + j]) {
        ++bad;
      }
    }
  }
  return bad;
}

struct RunResult {
  int shards = 0;
  double seconds = 0;
  double items_per_sec = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// Boots `shards` servers + a router, warms the fleet's text caches, then
// times `timed_passes` verified sweeps through the router.
RunResult RunConfig(int shards, const Workload& workload,
                    const Params& params) {
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<TopoDbServer>> servers;
  RouterOptions router_options;
  // More vnodes than the router default: with only 96 keys in flight,
  // ring imbalance directly translates into cache-cap overflow misses.
  router_options.vnodes = 256;
  for (int s = 0; s < shards; ++s) {
    registries.push_back(std::make_unique<MetricsRegistry>());
    ServerOptions options = ShardServerOptions(params);
    options.metrics = registries.back().get();
    servers.push_back(std::make_unique<TopoDbServer>(options));
    Check(servers.back()->Start());
    router_options.shards.push_back(
        {std::string("s").append(std::to_string(s)), servers.back()->port()});
  }
  TopoDbRouter router(router_options);
  Check(router.Start());
  TopoDbClient client = Unwrap(TopoDbClient::Connect(router.port()));

  for (int pass = 0; pass < params.warmup_passes; ++pass) {
    if (SweepOnce(client, workload, params) != 0) {
      std::fprintf(stderr, "SHARD FAILURE: wrong responses in warmup "
                           "(shards=%d)\n", shards);
      std::exit(1);
    }
  }

  auto cache_counts = [&](const char* name) {
    uint64_t total = 0;
    for (auto& registry : registries) total += registry->counter(name)->value();
    return total;
  };
  const uint64_t hits_before = cache_counts("textcache.hits");
  const uint64_t misses_before = cache_counts("textcache.misses");

  const auto t0 = std::chrono::steady_clock::now();
  int bad = 0;
  for (int pass = 0; pass < params.timed_passes; ++pass) {
    bad += SweepOnce(client, workload, params);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (bad != 0) {
    std::fprintf(stderr, "SHARD FAILURE: %d wrong/failed items "
                         "(shards=%d)\n", bad, shards);
    std::exit(1);
  }

  RunResult result;
  result.shards = shards;
  result.seconds = seconds;
  result.items_per_sec =
      params.timed_passes * params.working_set / seconds;
  result.cache_hits = cache_counts("textcache.hits") - hits_before;
  result.cache_misses = cache_counts("textcache.misses") - misses_before;

  Check(router.Shutdown());
  for (auto& server : servers) Check(server->Shutdown());
  return result;
}

// Direct single-server pass: the acceptance bar's byte-identity ground
// truth. The local library canonicals and the server's responses must
// agree before any router run is trusted against them.
void VerifyDirectGroundTruth(const Workload& workload, const Params& params) {
  bench::Header("shard scaling: direct single-server ground truth");
  ServerOptions options = ShardServerOptions(params);
  TopoDbServer server(options);
  Check(server.Start());
  TopoDbClient client = Unwrap(TopoDbClient::Connect(server.port()));
  const int bad = SweepOnce(client, workload, params);
  std::printf("%d items via direct server: %d mismatches vs library "
              "canonicals\n", params.working_set, bad);
  if (bad != 0) {
    std::fprintf(stderr, "SHARD FAILURE: direct server disagrees with "
                         "library ground truth\n");
    std::exit(1);
  }
  Check(server.Shutdown());
}

void ReportScaling() {
  const Params params = MakeParams();
  bench::Header("shard scaling: closed-loop BATCH_INVARIANTS throughput");
  std::printf("working set %d instances, %d text-cache entries/shard, "
              "batches of %d, %d timed passes%s\n",
              params.working_set, params.cache_entries, params.batch_items,
              params.timed_passes, SmokeMode() ? " (smoke)" : "");

  const Workload workload = BuildWorkload(params);
  VerifyDirectGroundTruth(workload, params);

  std::vector<RunResult> rows;
  for (const int shards : {1, 2, 4}) {
    rows.push_back(RunConfig(shards, workload, params));
    const RunResult& row = rows.back();
    const double speedup = row.items_per_sec / rows.front().items_per_sec;
    std::printf("%d shard%s: %7.1f items/s (%.3fs, %llu cache hits, "
                "%llu misses) speedup %.2fx\n",
                row.shards, row.shards == 1 ? " " : "s", row.items_per_sec,
                row.seconds,
                static_cast<unsigned long long>(row.cache_hits),
                static_cast<unsigned long long>(row.cache_misses), speedup);
  }

  if (const char* path = std::getenv("TOPODB_BENCH_SHARD_JSON");
      path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write TOPODB_BENCH_SHARD_JSON=%s\n", path);
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"schema\": \"topodb.bench_shard.v1\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", SmokeMode() ? "true" : "false");
    std::fprintf(f, "  \"working_set\": %d,\n", params.working_set);
    std::fprintf(f, "  \"cache_entries_per_shard\": %d,\n",
                 params.cache_entries);
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const RunResult& row = rows[i];
      std::fprintf(
          f,
          "    {\"shards\": %d, \"items_per_sec\": %.2f, \"seconds\": %.4f, "
          "\"cache_hits\": %llu, \"cache_misses\": %llu, "
          "\"speedup_vs_1\": %.3f}%s\n",
          row.shards, row.items_per_sec, row.seconds,
          static_cast<unsigned long long>(row.cache_hits),
          static_cast<unsigned long long>(row.cache_misses),
          row.items_per_sec / rows.front().items_per_sec,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("shard scaling JSON written to %s\n", path);
  }
}

// --- Timing series: routed round trips against a warm 2-shard fleet ---

struct WarmFleet {
  WarmFleet() {
    const Params params = MakeParams();
    RouterOptions router_options;
    for (int s = 0; s < 2; ++s) {
      servers.push_back(
          std::make_unique<TopoDbServer>(ShardServerOptions(params)));
      Check(servers.back()->Start());
      router_options.shards.push_back(
          {std::string("s").append(std::to_string(s)), servers.back()->port()});
    }
    router = std::make_unique<TopoDbRouter>(router_options);
    Check(router->Start());
    client.emplace(Unwrap(TopoDbClient::Connect(router->port())));
    const SpatialInstance instance =
        Unwrap(RandomRectInstance(5, 96, 0xbeefull));
    text = WriteInstanceText(instance);
    Unwrap(client->ComputeInvariant(text));  // Warm the owner's cache.
  }
  std::vector<std::unique_ptr<TopoDbServer>> servers;
  std::unique_ptr<TopoDbRouter> router;
  std::optional<TopoDbClient> client;
  std::string text;
};

WarmFleet& Warm() {
  static WarmFleet* warm = new WarmFleet();
  return *warm;
}

void BM_RoutedPing(benchmark::State& state) {
  WarmFleet& warm = Warm();
  for (auto _ : state) Check(warm.client->Ping());
}
BENCHMARK(BM_RoutedPing);

void BM_RoutedInvariantCacheHit(benchmark::State& state) {
  WarmFleet& warm = Warm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(warm.client->ComputeInvariant(warm.text)));
  }
}
BENCHMARK(BM_RoutedInvariantCacheHit);

}  // namespace
}  // namespace topodb

int main(int argc, char** argv) {
  topodb::ReportScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
