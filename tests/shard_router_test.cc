// End-to-end tests for the shard router (src/shard/router.h): key
// routing with byte-identical responses, scatter-gather batching,
// catalog placement through LOAD/LIST/DESCRIBE, failover when a shard
// dies or drains, merged metrics, and deadline forwarding — all against
// live loopback topodb_server backends. Runs under TSan alongside
// server_test (ci/run_ci.sh).

#include "src/shard/router.h"

#include <stdlib.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/region/fixtures.h"
#include "src/region/io.h"
#include "src/server/server.h"
#include "src/shard/metrics_merge.h"
#include "src/store/catalog.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

constexpr char kPathologicalQuery[] =
    "forall region r . exists region s . not connect(r, s)";

std::string GridText() {
  auto grid = RectGridInstance(3, 3);
  EXPECT_TRUE(grid.ok());
  return WriteInstanceText(*grid);
}

// A two-shard fleet plus a router in front, each backend with its own
// registry so tests can see which shard served what.
struct Cluster {
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<TopoDbServer>> servers;
  std::unique_ptr<TopoDbRouter> router;

  static Cluster Start(size_t num_shards, bool health_checker = false) {
    Cluster cluster;
    RouterOptions router_options;
    for (size_t s = 0; s < num_shards; ++s) {
      cluster.registries.push_back(std::make_unique<MetricsRegistry>());
      ServerOptions options;
      options.metrics = cluster.registries.back().get();
      cluster.servers.push_back(std::make_unique<TopoDbServer>(options));
      EXPECT_TRUE(cluster.servers.back()->Start().ok());
      router_options.shards.push_back(
          {std::string("s").append(std::to_string(s)),
           cluster.servers.back()->port()});
    }
    router_options.health_checker = health_checker;
    cluster.router = std::make_unique<TopoDbRouter>(router_options);
    EXPECT_TRUE(cluster.router->Start().ok());
    return cluster;
  }

  TopoDbClient Connect() {
    auto client = TopoDbClient::Connect(router->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return *std::move(client);
  }

  uint64_t ServedRequests(size_t shard) {
    return registries[shard]->counter("server.requests")->value();
  }
};

// An inline text whose ring owner is `shard`: fixture texts are all
// distinct, so probing a handful always finds one per shard.
std::string TextOwnedBy(const TopoDbRouter& router_const, size_t shard) {
  TopoDbRouter& router = const_cast<TopoDbRouter&>(router_const);
  const std::vector<SpatialInstance> candidates = {
      Fig1aInstance(), Fig1bInstance(), Fig1cInstance(), Fig1dInstance(),
      NestedInstance(), DisjointPairInstance(), SingleRegionInstance()};
  for (const SpatialInstance& instance : candidates) {
    const std::string text = WriteInstanceText(instance);
    if (router.topology().Owner(text) == shard) return text;
  }
  ADD_FAILURE() << "no fixture text owned by shard " << shard;
  return {};
}

TEST(RouterTest, PingAndSingleOpcodesAreByteIdenticalToDirect) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();
  EXPECT_TRUE(via_router.Ping().ok());

  const std::string text = WriteInstanceText(Fig1aInstance());
  const size_t owner = cluster.router->topology().Owner(text);
  const uint64_t before_owner = cluster.ServedRequests(owner);
  const uint64_t before_other = cluster.ServedRequests(1 - owner);

  const auto routed = via_router.ComputeInvariant(text);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  // Byte-identical to a direct exchange with the owner backend…
  auto direct_client = TopoDbClient::Connect(cluster.servers[owner]->port());
  ASSERT_TRUE(direct_client.ok());
  const auto direct = direct_client->ComputeInvariant(text);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*routed, *direct);

  // …and served by the owner, not sprayed across the fleet.
  EXPECT_GT(cluster.ServedRequests(owner), before_owner);
  EXPECT_EQ(cluster.ServedRequests(1 - owner), before_other);

  // EVAL_QUERY routes by the same key and agrees with the direct path.
  const auto routed_eval =
      via_router.EvalQuery(text, "forall region r . connect(r, r)");
  const auto direct_eval =
      direct_client->EvalQuery(text, "forall region r . connect(r, r)");
  ASSERT_TRUE(routed_eval.ok() && direct_eval.ok());
  EXPECT_EQ(*routed_eval, *direct_eval);
}

TEST(RouterTest, DeeplyNestedQueryIsRefusedAndTheFleetStaysUp) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();
  const std::string text = WriteInstanceText(Fig1cInstance());

  // `not (` nested 10,000 deep: the request that once crashed a shard.
  std::string query;
  for (int i = 0; i < 10000; ++i) query += "not (";
  query += "true" + std::string(10000, ')');
  const auto refused = via_router.EvalQuery(text, query);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();

  // The owner shard, and the router in front of it, keep serving.
  EXPECT_TRUE(via_router.Ping().ok());
  const auto verdict = via_router.EvalQuery(text, "not (not (true))");
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(*verdict);
  for (const auto& server : cluster.servers) {
    auto direct = TopoDbClient::Connect(server->port());
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(direct->Ping().ok());
  }
}

TEST(RouterTest, BatchScatterGathersAcrossShardsAndStaysAligned) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();

  // Items that land on both shards, plus a malformed one in the middle.
  const std::vector<std::string> texts = {
      TextOwnedBy(*cluster.router, 0),
      "region garbage { this is not the text format }",
      TextOwnedBy(*cluster.router, 1),
      WriteInstanceText(NestedInstance()),
  };
  const auto via = via_router.BatchInvariants(texts);
  ASSERT_TRUE(via.ok()) << via.status().ToString();
  ASSERT_EQ(via->size(), texts.size());

  // Both backends saw work: this batch genuinely scattered.
  EXPECT_GT(cluster.ServedRequests(0), 0u);
  EXPECT_GT(cluster.ServedRequests(1), 0u);

  // Per-item results identical to one direct single-server run.
  ServerOptions direct_options;
  TopoDbServer direct_server(direct_options);
  ASSERT_TRUE(direct_server.Start().ok());
  auto direct_client = TopoDbClient::Connect(direct_server.port());
  ASSERT_TRUE(direct_client.ok());
  const auto direct = direct_client->BatchInvariants(texts);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->size(), via->size());
  for (size_t i = 0; i < via->size(); ++i) {
    ASSERT_EQ((*via)[i].ok(), (*direct)[i].ok()) << i;
    if ((*via)[i].ok()) {
      EXPECT_EQ((*via)[i].value(), (*direct)[i].value()) << i;
    } else {
      EXPECT_EQ((*via)[i].status().code(), (*direct)[i].status().code()) << i;
    }
  }
}

TEST(RouterTest, IsoCheckDecomposesAcrossShards) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();

  // Keys on different shards force the cross-shard decomposition.
  const std::string text_a = TextOwnedBy(*cluster.router, 0);
  const std::string text_b = TextOwnedBy(*cluster.router, 1);
  ASSERT_NE(cluster.router->topology().Owner(text_a),
            cluster.router->topology().Owner(text_b));

  TopoDbServer direct_server{ServerOptions{}};
  ASSERT_TRUE(direct_server.Start().ok());
  auto direct_client = TopoDbClient::Connect(direct_server.port());
  ASSERT_TRUE(direct_client.ok());

  const auto via = via_router.IsoCheck(text_a, text_b);
  const auto direct = direct_client->IsoCheck(text_a, text_b);
  ASSERT_TRUE(via.ok()) << via.status().ToString();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*via, *direct);

  // The same instance spelled twice is iso to itself across shards too.
  const auto self = via_router.IsoCheck(text_a, text_a);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(*self);
}

std::string TempCatalogDir() {
  std::string tmpl = testing::TempDir() + "topodb_router_cat_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(RouterTest, LoadPlacesByNameAndListMergesTheFleet) {
  // Two catalog-backed shards.
  std::vector<std::unique_ptr<Catalog>> catalogs;
  Cluster cluster;
  RouterOptions router_options;
  for (size_t s = 0; s < 2; ++s) {
    cluster.registries.push_back(std::make_unique<MetricsRegistry>());
    CatalogOptions catalog_options;
    catalog_options.directory = TempCatalogDir();
    auto catalog = Catalog::Open(catalog_options);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalogs.push_back(*std::move(catalog));
    ServerOptions options;
    options.metrics = cluster.registries.back().get();
    options.catalog = catalogs.back().get();
    cluster.servers.push_back(std::make_unique<TopoDbServer>(options));
    ASSERT_TRUE(cluster.servers.back()->Start().ok());
    router_options.shards.push_back(
        {std::string("s").append(std::to_string(s)),
         cluster.servers.back()->port()});
  }
  router_options.health_checker = false;
  cluster.router = std::make_unique<TopoDbRouter>(router_options);
  ASSERT_TRUE(cluster.router->Start().ok());
  TopoDbClient via_router = cluster.Connect();

  // LOAD through the router: the ring decides placement per name.
  const std::map<std::string, std::string> entries = {
      {"fig1a", WriteInstanceText(Fig1aInstance())},
      {"nested", WriteInstanceText(NestedInstance())},
      {"disjoint", WriteInstanceText(DisjointPairInstance())},
      {"grid", GridText()},
  };
  for (const auto& [name, text] : entries) {
    const auto loaded = via_router.Load(name, text);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    // The entry landed exactly on the ring owner.
    const size_t owner = cluster.router->topology().Owner(name);
    auto direct = TopoDbClient::Connect(cluster.servers[owner]->port());
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(direct->Describe(name).ok()) << name;
  }

  // LIST through the router is the sorted union of both shards.
  const auto listing = via_router.List();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  ASSERT_EQ(listing->size(), entries.size());
  size_t i = 0;
  for (const auto& [name, text] : entries) {  // std::map: sorted.
    EXPECT_EQ((*listing)[i++].name, name);
  }

  // Name-keyed reads route to the placement shard and round-trip.
  for (const auto& [name, text] : entries) {
    const auto by_name = via_router.ComputeInvariant(InstanceRef::Name(name));
    const auto by_text = via_router.ComputeInvariant(text);
    ASSERT_TRUE(by_name.ok()) << name << ": " << by_name.status().ToString();
    ASSERT_TRUE(by_text.ok());
    EXPECT_EQ(*by_name, *by_text) << name;
  }
  const auto described = via_router.Describe("nested");
  ASSERT_TRUE(described.ok()) << described.status().ToString();
  EXPECT_EQ(described->name, "nested");
  EXPECT_FALSE(via_router.Describe("no-such-entry").ok());
}

TEST(RouterTest, DeadShardReroutesInlineWorkAndFailsNamesCleanly) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();

  // Work owned by shard 1, then kill shard 1 hard.
  const std::string text = TextOwnedBy(*cluster.router, 1);
  ASSERT_TRUE(cluster.servers[1]->Shutdown().ok());

  // Inline text is relocatable: the ring walk lands it on shard 0, with
  // the reroute counted.
  const auto rerouted = via_router.ComputeInvariant(text);
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_GE(cluster.router->metrics().counter("router.rerouted")->value(), 1u);
  EXPECT_EQ(cluster.router->topology().state(1), ShardState::kUnhealthy);
  EXPECT_GE(
      cluster.router->metrics().counter("router.health_transitions")->value(),
      1u);

  // A batch that would have scattered now resolves entirely on shard 0.
  const auto batch = via_router.BatchInvariants(std::vector<std::string>{
      TextOwnedBy(*cluster.router, 0), text});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const auto& item : *batch) {
    EXPECT_TRUE(item.ok()) << item.status().ToString();
  }

  // Name keys are not relocatable — their data lived on shard 1.
  const auto by_name =
      via_router.ComputeInvariant(InstanceRef::Name("anything"));
  if (cluster.router->topology().Owner("anything") == 1) {
    EXPECT_EQ(by_name.status().code(), StatusCode::kUnavailable);
  } else {
    EXPECT_EQ(by_name.status().code(), StatusCode::kNotFound);
  }

  // LIST still answers from the shards that remain.
  EXPECT_TRUE(via_router.List().ok());
}

TEST(RouterTest, DrainingShardIsRoutedAround) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();

  const std::string text = TextOwnedBy(*cluster.router, 0);
  // Force the state the HealthChecker would set after a draining PING.
  cluster.router->topology().SetState(0, ShardState::kDraining);

  const uint64_t before = cluster.ServedRequests(1);
  const auto computed = via_router.ComputeInvariant(text);
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  EXPECT_GT(cluster.ServedRequests(1), before);

  // Healing restores owner routing.
  cluster.router->topology().SetState(0, ShardState::kHealthy);
  const uint64_t healed_before = cluster.ServedRequests(0);
  ASSERT_TRUE(via_router.ComputeInvariant(text).ok());
  EXPECT_GT(cluster.ServedRequests(0), healed_before);
}

TEST(RouterTest, HealthCheckerObservesRealStates) {
  Cluster cluster = Cluster::Start(2, /*health_checker=*/true);
  // Startup probe saw two live servers.
  EXPECT_EQ(cluster.router->topology().state(0), ShardState::kHealthy);
  EXPECT_EQ(cluster.router->topology().state(1), ShardState::kHealthy);

  ASSERT_TRUE(cluster.servers[0]->Shutdown().ok());
  cluster.router->ProbeNow();
  EXPECT_EQ(cluster.router->topology().state(0), ShardState::kUnhealthy);
  EXPECT_EQ(cluster.router->topology().state(1), ShardState::kHealthy);
}

TEST(RouterTest, MetricsMergeFleetViewWithPerShardLabels) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();
  ASSERT_TRUE(via_router.ComputeInvariant(WriteInstanceText(Fig1aInstance()))
                  .ok());

  const auto merged = via_router.Metrics();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Router-own metrics under their names, backend metrics per shard.
  EXPECT_NE(merged->find("\"router.requests\""), std::string::npos);
  EXPECT_NE(merged->find("\"shard.s0.server.requests\""), std::string::npos);
  EXPECT_NE(merged->find("\"shard.s1.server.requests\""), std::string::npos);
  // The merged document stays a valid topodb.metrics.v2 export.
  const auto parsed = ParseMetricsJson(*merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(RouterTest, DeadlineBudgetTravelsToTheBackend) {
  Cluster cluster = Cluster::Start(2);
  TopoDbClient via_router = cluster.Connect();
  const std::string grid = GridText();
  // A 1ms budget must die inside the backend evaluation, proving the
  // budget was materialized into the forwarded frame rather than dropped
  // at the router hop.
  const auto verdict = via_router.EvalQuery(grid, kPathologicalQuery, 1);
  EXPECT_EQ(verdict.status().code(), StatusCode::kDeadlineExceeded)
      << verdict.status().ToString();
}

TEST(RouterTest, RouterDrainAnswersUnavailable) {
  Cluster cluster = Cluster::Start(1);
  TopoDbClient via_router = cluster.Connect();
  ASSERT_TRUE(via_router.Ping().ok());
  ASSERT_TRUE(cluster.router->Shutdown().ok());
  const Status after = via_router.Ping();
  EXPECT_FALSE(after.ok());  // Connection closed by the drained router.
}

// --- metrics_merge unit coverage ----------------------------------------

TEST(MetricsMergeTest, ParsesAnExportRoundTrip) {
  MetricsRegistry registry;
  registry.counter("a.count")->Add(3);
  registry.gauge("b.items")->Set(-7);
  registry.histogram("c.lat_us")->Record(12.5);
  const std::string json = registry.ExportJson();
  const auto parsed = ParseMetricsJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].first, "a.count");
  EXPECT_EQ(parsed->counters[0].second, "3");
  ASSERT_EQ(parsed->gauges.size(), 1u);
  EXPECT_EQ(parsed->gauges[0].second, "-7");
  ASSERT_EQ(parsed->histograms.size(), 1u);
  EXPECT_NE(parsed->histograms[0].second.find("\"count\": 1"),
            std::string::npos);

  // Merging with no shards reproduces the document byte-for-byte.
  EXPECT_EQ(MergeMetricsJson(*parsed, {}), json);
}

TEST(MetricsMergeTest, ParsesEmptySections) {
  MetricsRegistry registry;
  const auto parsed = ParseMetricsJson(registry.ExportJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->counters.empty());
  EXPECT_TRUE(parsed->gauges.empty());
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(MetricsMergeTest, MergePrefixesAndSortsShardEntries) {
  MetricsRegistry own;
  own.counter("router.requests")->Add(2);
  MetricsRegistry shard;
  shard.counter("server.requests")->Add(5);
  const auto own_parsed = ParseMetricsJson(own.ExportJson());
  const auto shard_parsed = ParseMetricsJson(shard.ExportJson());
  ASSERT_TRUE(own_parsed.ok() && shard_parsed.ok());
  const std::string merged =
      MergeMetricsJson(*own_parsed, {{"s0", *shard_parsed}});
  EXPECT_NE(merged.find("\"router.requests\": 2"), std::string::npos);
  EXPECT_NE(merged.find("\"shard.s0.server.requests\": 5"),
            std::string::npos);
  // Still parseable — the fleet view is the same schema.
  const auto reparsed = ParseMetricsJson(merged);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->counters.size(), 2u);
  // Sorted: "router.requests" < "shard.s0.server.requests".
  EXPECT_EQ(reparsed->counters[0].first, "router.requests");
  EXPECT_EQ(reparsed->counters[1].first, "shard.s0.server.requests");
}

TEST(MetricsMergeTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseMetricsJson("").ok());
  EXPECT_FALSE(ParseMetricsJson("{}").ok());
  EXPECT_FALSE(ParseMetricsJson("{\n  \"schema\": \"other.v9\",\n}").ok());
}

}  // namespace
}  // namespace topodb
