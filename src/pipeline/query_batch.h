#ifndef TOPODB_PIPELINE_QUERY_BATCH_H_
#define TOPODB_PIPELINE_QUERY_BATCH_H_

#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/deadline.h"
#include "src/obs/metrics.h"
#include "src/query/eval.h"
#include "src/region/instance.h"

namespace topodb {

// The batched query pipeline: evaluates many queries against one engine,
// or one query against many instances, fanned across a thread pool — the
// query-serving counterpart of BatchComputeInvariants. Sharing one engine
// across a batch is what makes this fast: the engine's disc-check memo and
// materialized region-quantifier range are filled by whichever worker gets
// there first and reused by every other query in the batch.
struct QueryBatchOptions {
  // Worker threads; 0 means std::thread::hardware_concurrency(), and the
  // pool never exceeds the number of batch items. Negative values are
  // rejected with InvalidArgument (see ResolveWorkerCount in
  // src/base/threading.h). Note this parallelizes *across* batch items;
  // EvalOptions::num_threads parallelizes *within* one evaluation and is
  // usually left at 1 when batching.
  int num_threads = 0;
  // Per-evaluation options (budgets, intra-query threads, planning).
  EvalOptions eval;
  // Batch-wide deadline / cancellation / metrics. These are copied into
  // each item's EvalOptions when the corresponding eval field is unset, so
  // in-flight evaluations observe them at quantifier-loop checkpoints.
  // Items starting after expiry fail individually with DeadlineExceeded;
  // the batch always completes with positionally aligned results.
  Deadline deadline;
  const CancelToken* cancel = nullptr;
  MetricsRegistry* metrics = nullptr;
};

// Evaluates every query against the engine. Results are positionally
// aligned with the input; a failure (parse error, budget exhaustion,
// deadline expiry) is captured per query and never aborts the batch.
std::vector<Result<bool>> BatchEvaluateQueries(
    const QueryEngine& engine, std::span<const std::string> queries,
    const QueryBatchOptions& options = {});

// Evaluates one query against many instances (engines are built per
// instance, then discarded). A build failure surfaces as that instance's
// result.
std::vector<Result<bool>> BatchEvaluateQuery(
    const std::string& query, std::span<const SpatialInstance> instances,
    const QueryBatchOptions& options = {});

}  // namespace topodb

#endif  // TOPODB_PIPELINE_QUERY_BATCH_H_
