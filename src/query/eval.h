#ifndef TOPODB_QUERY_EVAL_H_
#define TOPODB_QUERY_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/base/status.h"
#include "src/obs/deadline.h"
#include "src/obs/metrics.h"
#include "src/query/ast.h"
#include "src/query/cellset.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/instance.h"

namespace topodb {

// The pipeline layer's semantic verdict cache (pipeline/semantic_cache.h).
// Declared here so EvalOptions can carry a pointer to it; the engine
// itself never dereferences one — cache lookup/insert lives in
// EvaluateQueryCached at the pipeline layer, keeping query free of a
// pipeline dependency.
class SemanticCache;

struct EvalOptions {
  // Budget of legitimate region values (open-disc candidates) consumed
  // across all region quantifiers of one evaluation. The Section-7
  // disc-union range is exponential in the face count (the language has
  // PSPACE query complexity); the budget turns blowups into
  // ResourceExhausted errors instead of hangs. The budget is charged per
  // *disc* value (after the disc check), so for a quantifier that must
  // exhaust its range the exhaustion point depends only on the number of
  // disc values — an invariant of the instance's topology — and not on
  // the face ordering of a particular arrangement build.
  int64_t max_region_candidates = 200000;
  // Backstop on raw connected face sets enumerated per region-quantifier
  // instantiation (disc values are typically dense among connected sets,
  // but a pathological instance could interleave exponentially many
  // non-disc candidates between discs, which max_region_candidates alone
  // would not bound). Raw candidates are counted in the order of a
  // recursive depth-first enumeration, so the error point is the same
  // for every evaluation of the same instance and limit.
  int64_t max_enumeration_steps = int64_t{1} << 22;
  // When > 1 and the query's outermost connective is a name/cell/region
  // quantifier, its bindings are fanned across this many threads; the
  // first witness (exists) or counterexample (forall) wins via an atomic
  // flag. Bindings are independent, so this is safe; each binding's
  // subtree gets its own max_region_candidates budget (the shared global
  // budget of the sequential evaluator cannot be split deterministically
  // across racing workers). Verdicts match the sequential evaluator on
  // every evaluation that does not exhaust a budget. Negative values are
  // rejected with InvalidArgument (see ResolveWorkerCount in
  // src/base/threading.h).
  int num_threads = 1;
  // Wall-clock bound for this evaluation, polled at entry, at every
  // quantifier binding, and every ~1k raw candidates inside the
  // region-quantifier enumeration; expiry returns DeadlineExceeded.
  // Default is infinite.
  Deadline deadline;
  // Optional caller-owned cancellation flag, polled at the same
  // checkpoints; cancellation also returns DeadlineExceeded.
  const CancelToken* cancel = nullptr;
  // Optional sink for evaluation metrics (atoms evaluated, quantifier
  // bindings explored, disc-check memo traffic, per-query latency).
  // nullptr disables collection at near-zero cost.
  MetricsRegistry* metrics = nullptr;
  // Run the planning pass (src/query/plan.h) before evaluation:
  // canonicalize, then reorder commutative operands and same-kind
  // quantifier runs by selectivity. Planned evaluation is
  // verdict-identical to unplanned for queries whose atom region names
  // all resolve (the differential suite pins this); to keep that true
  // under short-circuit reordering, the planned path validates every
  // atom's region-name constants up front and fails with the evaluator's
  // NotFound before running anything. Off by default so the exact-oracle
  // and differential paths exercise the written order; the server turns
  // it on (ServerOptions::plan_queries).
  bool plan = false;
  // Semantic verdict cache plumbing, read only by EvaluateQueryCached
  // (pipeline/semantic_cache.h) — QueryEngine::Evaluate itself never
  // consults the cache. `cache_entry_id` / `cache_format_version` name
  // the catalog entry this evaluation runs against, exactly the
  // EngineCache key: verdicts and engines invalidate together when a
  // re-ingest changes the entry id. cache_entry_id == 0 means "no
  // durable identity" (e.g. inline text) and disables caching.
  SemanticCache* semantic_cache = nullptr;
  uint64_t cache_entry_id = 0;
  uint32_t cache_format_version = 0;
};

// Evaluates region-based FO queries over one spatial instance, using the
// effective semantics of the paper's Section 7:
//   - terms denote cell sets of the instance's arrangement; ext(A) is the
//     set of cells interior to A;
//   - 'cell' variables range over single cells;
//   - 'region' variables range over unions of cells that are open discs
//     (completions of dual-connected face sets whose sphere complement is
//     connected);
//   - 'name' variables range over names(I);
//   - atoms are connect and the 4-intersection relationships, evaluated
//     exactly on cell sets.
//
// Evaluate is const and thread-safe: the engine's shared caches (the
// memoized disc checks and the materialized region-quantifier range)
// are internally synchronized, so one engine can serve many concurrent
// evaluations (see pipeline/query_batch.h).
class QueryEngine {
 public:
  // Builds the cell complex of the instance once; queries evaluate on it.
  static Result<QueryEngine> Build(const SpatialInstance& instance);

  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) noexcept;
  ~QueryEngine();

  Result<bool> Evaluate(const FormulaPtr& query,
                        const EvalOptions& options = {}) const;
  // Parse + evaluate.
  Result<bool> Evaluate(const std::string& query,
                        const EvalOptions& options = {}) const;

  const CellComplex& complex() const { return complex_; }

  // Number of cells in the universe (vertices + edges + faces).
  size_t num_cells() const { return static_cast<size_t>(nv_ + ne_ + nf_); }

  // True iff the completion of the face set is an open disc: the check
  // behind the region-quantifier range, exposed for tests and benches.
  // Memoized per face-set hash (full-key equality confirms hits), so
  // repeated checks of the same face set — from any thread — pay the
  // topology BFS once. On a miss it runs the face-level fast check when
  // the complex has no dart-less vertex, the exact cell-level check
  // otherwise; the differential property suite asserts agreement with the
  // byte-per-cell reference (tests/query_reference.h). On a non-disc
  // result *completed is empty.
  //
  // Completion rule, explicitly: a vertex joins the completion iff it has
  // at least one incident face and all of its incident faces are chosen.
  // The arrangement never emits dart-less vertices (every vertex is an
  // endpoint of at least one overlay edge), but a hypothetical isolated
  // vertex must be *skipped*, not vacuously included: it lies in the
  // closure of no chosen face, so completing it into every candidate
  // would silently poison connectivity.
  bool IsDiscValue(const CellSet& face_set, CellSet* completed) const;

  // Cumulative shared-cache statistics since Build (all evaluations and
  // threads): disc-check memo traffic and the size of the materialized
  // region-quantifier range. Exported to EvalOptions::metrics after each
  // evaluation; exposed here for direct inspection.
  struct CacheStats {
    uint64_t disc_memo_hits = 0;
    uint64_t disc_memo_misses = 0;
    int64_t materialized_discs = 0;   // disc values in the shared range
    int64_t raw_candidates = 0;       // raw connected face sets consumed
  };
  CacheStats cache_stats() const;

  // Selectivity inputs for the planning pass: name/cell/face counts of
  // this instance's arrangement plus the size of the materialized
  // region-quantifier range so far (0 before the first region
  // quantifier runs). Cheap; safe to call per evaluation.
  SelectivityStats planner_stats() const;

 private:
  friend class BitsetEvaluator;

  explicit QueryEngine(CellComplex complex);
  void BuildUniverse();

  // One materialized region-quantifier candidate: the completed open-disc
  // cell set, its topological closure, and the 1-based index of the raw
  // connected face set that produced it (for deterministic enumeration
  // accounting).
  struct DiscValue {
    CellSet cells;
    CellSet closure;
    int64_t raw_index = 0;
  };

  // Exact cell-level CellSet disc check (unmemoized; the general path for
  // complexes with dart-less vertices).
  bool ComputeDiscValueBits(const CellSet& face_set,
                            CellSet* completed) const;

  // Face-level disc check: equivalent to the cell-level one whenever no
  // vertex is dart-less (completion connectivity reduces to dual
  // connectivity of the chosen faces, sphere-complement connectivity to
  // connectivity of the unchosen faces over face_adj_ext_), but runs BFS
  // over nf_ faces instead of all cells and defers materializing the
  // completion until the set is known to be a disc.
  bool FaceSetIsDisc(const CellSet& face_set) const;
  // The completion of a face set (no disc checking): chosen faces, edges
  // with both sides chosen, vertices with >= 1 incident face, all chosen.
  void CompleteFaceSet(const CellSet& face_set, CellSet* completed) const;

  // Returns the k-th disc value of the shared materialized quantifier
  // range, lazily extending it (thread-safe); nullptr when the range is
  // exhausted before k. Errors with ResourceExhausted when reaching the
  // k-th disc (or exhaustion) would take more than max_steps raw
  // candidates — the iteration point at which a fresh enumeration of the
  // range would error. `stop` is polled every ~1k raw candidates while
  // extending the range.
  Result<const DiscValue*> FetchDiscValue(int64_t k, int64_t max_steps,
                                          const StopSignal& stop) const;

  // Topological closure of an arbitrary cell set (union of per-cell
  // precomputed closures).
  CellSet ClosureBits(const CellSet& cells) const;

  // Parallel fan-out of the outermost quantifier (options.num_threads > 1).
  Result<bool> EvaluateParallel(const FormulaPtr& query,
                                const EvalOptions& options) const;

  // Serial/parallel dispatch behind the validated, instrumented
  // Evaluate entry point.
  Result<bool> EvaluateDispatch(const FormulaPtr& query,
                                const EvalOptions& options) const;

  // Planning stage ahead of dispatch (options.plan): plans the query,
  // pre-validates its atom region names, exports planner.* metrics.
  Result<bool> EvaluatePlanned(const FormulaPtr& query,
                               const EvalOptions& options) const;

  // NotFound for the first atom region-name constant that does not
  // resolve; OK otherwise. NameEq positions are skipped — unknown names
  // there are legal and simply compare unequal.
  Status ValidateAtomNames(const Formula& query) const;

  CellComplex complex_;
  // Cell ids: [0, nv) vertices, [nv, nv+ne) edges, [nv+ne, nv+ne+nf) faces.
  int nv_ = 0, ne_ = 0, nf_ = 0;
  std::vector<std::vector<int>> incidence_;  // Symmetric incidence graph.
  std::vector<std::vector<int>> face_dual_;  // Faces sharing an edge
                                             // (face-local indices).
  std::vector<std::vector<int>> face_adj_ext_;  // Faces sharing an edge or
                                                // a vertex (for the
                                                // face-level complement
                                                // connectivity check).
  // Single-word neighbor masks (only when nf_ <= 64): the disc check's
  // connectivity BFS becomes a handful of OR/AND word operations.
  std::vector<uint64_t> face_dual_mask_;
  std::vector<uint64_t> face_adj_ext_mask_;
  bool has_isolated_vertex_ = false;  // Any dart-less vertex? (Forces the
                                      // exact cell-level disc check.)
  std::vector<std::vector<int>> vertex_faces_;  // Incident faces per vertex.
  std::vector<std::pair<int, int>> edge_faces_;  // EdgeFaces(e), flattened.

  // Bitset universe: per-cell closures *including* the cell itself, so the
  // closure of any set is the word-parallel OR over its members.
  std::vector<CellSet> closure_bits_;
  std::map<std::string, CellSet> region_bits_;  // ext(name) per region.
  std::map<std::string, CellSet> region_closure_bits_;

  // Internally synchronized mutable caches (disc-check memo + materialized
  // quantifier range); behind a pointer to keep the engine movable.
  struct QueryCaches;
  std::unique_ptr<QueryCaches> caches_;
};

}  // namespace topodb

#endif  // TOPODB_QUERY_EVAL_H_
