#ifndef TOPODB_E2EBENCH_WORKLOADS_H_
#define TOPODB_E2EBENCH_WORKLOADS_H_

// The benchmark's three serving workloads. Each one owns its seeded input
// generators, knows how to bring a TopoDB deployment up (catalog, server,
// router), issues its traffic mix through a blocking client, computes the
// library's answer for any request it issued, and replays a request's
// library path layer by layer for the traced run.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/trace.h"
#include "src/base/status.h"
#include "src/client/client.h"
#include "src/obs/metrics.h"
#include "src/query/eval.h"
#include "src/server/server.h"
#include "src/shard/router.h"
#include "src/store/catalog.h"

namespace topodb::e2e {

// Latency classes of the end-to-end report.
enum class OpClass : uint8_t {
  kInvariant,  // COMPUTE_INVARIANT and BATCH_INVARIANTS
  kEval,       // EVAL_QUERY
  kLoad,       // LOAD
};

// One checked answer: the request key it belongs to and what came back.
// A canonical string is compared by length plus FNV-1a digest of its
// bytes; a verdict by its value; an error by its status code.
struct Answer {
  uint64_t key = 0;
  uint32_t code = 0;  // StatusCode; 0 is OK.
  uint64_t size = 0;
  uint64_t digest = 0;

  bool SameAs(const Answer& other) const {
    return code == other.code && size == other.size && digest == other.digest;
  }
};

Answer CanonicalAnswer(uint64_t key, const Result<std::string>& result);
Answer VerdictAnswer(uint64_t key, const Result<bool>& result);

// Transport errors, Unavailable sheds and DeadlineExceeded: the request
// got no answer. Every other status is an answer and is checked.
bool IsFailure(const Status& status);

// One request as its client saw it.
struct Sample {
  OpClass op = OpClass::kInvariant;
  bool failed = false;
  uint32_t items = 1;      // BATCH items count once each.
  double latency_us = 0;
  uint64_t key = 0;        // The request's (first) key, for replay.
  uint64_t request_id = 0;
};

// One client connection's request stream over a deployment.
class ClientStream {
 public:
  virtual ~ClientStream() = default;
  // Sends the next request and appends its answers. `trace` (nullable)
  // receives a child span around the client call under `parent`.
  virtual Sample Issue(TopoDbClient& client, std::vector<Answer>* answers,
                       SpanBuffer* trace, int32_t parent,
                       uint64_t request_id) = 0;
};

// A running system under test: catalogs, servers, an optional router,
// and the client streams that drive it. Members are declared so that
// streams, router, servers and catalogs are destroyed in that order.
struct Deployment {
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // The front port clients connect to (router, else the only server).
  uint16_t port() const;
  // Stops every thread and removes `dir`; idempotent.
  Status Shutdown();

  std::string dir;
  // Shared by every server and catalog of the deployment, so shard
  // series arrive merged; the router keeps its own.
  MetricsRegistry server_metrics;
  MetricsRegistry router_metrics;
  std::vector<std::unique_ptr<Catalog>> catalogs;
  std::vector<std::unique_ptr<TopoDbServer>> servers;
  std::unique_ptr<TopoDbRouter> router;
  std::vector<std::unique_ptr<ClientStream>> streams;
};

struct WorkloadShape {
  const char* name;
  int clients;
  int shards;             // 0: clients talk to one server directly.
  int workers_per_server;
  // CPUs the whole process is pinned to (see main.cc).
  int cpus;
  // Requests per client in one warm-up round, and the cache ("semcache",
  // "textcache") whose hit ratio must level off before timing starts.
  int warmup_round;
  const char* warm_cache;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const WorkloadShape& shape() const = 0;
  // Everything until the system can serve, minus the warm-up traffic:
  // catalog open and ingest, server and router start. `dir` is a fresh
  // directory this deployment owns.
  virtual Result<std::unique_ptr<Deployment>> Deploy(const std::string& dir) = 0;
  // Answers read from durable state before teardown (LOADed entries).
  virtual void CollectStoredAnswers(Deployment& d,
                                    std::vector<Answer>* answers) {
    (void)d;
    (void)answers;
  }
  // Ground truth, outside every timed window. Prepare runs once with
  // every key that needs checking; Truth may then run on many threads.
  virtual void PrepareTruth(const std::vector<uint64_t>& keys) = 0;
  virtual Answer Truth(uint64_t key) const = 0;
  // Replays the request with key `key` through the library's public
  // layer functions: a root span "request" with one child span per layer
  // call, all tagged `request_id`.
  virtual void Replay(uint64_t key, Deployment& d, SpanBuffer& trace,
                      uint64_t request_id) = 0;
  // Shared-cache state summed over the query engines this workload built
  // for ground truth and replay (QueryEngine::cache_stats).
  virtual QueryEngine::CacheStats EngineStats() const { return {}; }
  // One line on the workload's working set against the cache sizes.
  virtual std::string Describe() const = 0;
};

// Runs fn(0..n-1) on up to four threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

}  // namespace topodb::e2e

#endif  // TOPODB_E2EBENCH_WORKLOADS_H_
