// Differential properties of the query layer: QueryEngine — serial and
// with its parallel fan-out, planned and unplanned — must produce the
// verdicts AND the error points of the byte-per-cell reference oracle
// (tests/query_reference.h) on every input, and the name-level atoms must
// agree with verdicts derived independently from the thematic mapping's
// RegionFaces table. A "strategy" below is one of these evaluation paths.
// These suites are what licenses every optimization in eval.cc: any
// divergence is a bug, never acceptable drift.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/data.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/region/fixtures.h"
#include "src/thematic/thematic.h"
#include "src/workload/generators.h"
#include "tests/query_reference.h"

namespace topodb {
namespace {

// Name-generic corpus: only quantified variables, so every instance —
// whatever its region names — can answer each query.
const char* const kGenericQueries[] = {
    "forall region r . connect(r, r)",
    "exists region r . forall name a . subset(r, a)",
    "forall name a . exists region r . subset(r, a) and connect(r, a)",
    "exists name a . exists name b . not (a = b) and overlap(a, b)",
    "forall name a . forall name b . (not (a = b)) implies "
    "(connect(a, b) iff connect(b, a))",
    "exists cell c . forall name a . subset(c, a)",
    "forall cell c . exists region r . subset(c, r)",
    // The next two hold only if the engine's per-cell closures and region
    // values are complete, which pins its universe against the one the
    // reference derives on its own. Every vertex or edge lies on the
    // boundary of some face (a cell on no boundary)...
    "forall cell c . (exists cell d . boundarypart(c, d)) implies "
    "exists cell f . boundarypart(c, f) and "
    "not exists cell g . boundarypart(f, g)",
    // ...and a vertex or edge whose cobounding cells all lie in a is
    // interior to a.
    "forall name a . forall cell c . ((exists cell f . boundarypart(c, f)) "
    "and forall cell f . (boundarypart(c, f) implies subset(f, a))) "
    "implies subset(c, a)",
};

std::vector<SpatialInstance> DiffWorkload() {
  std::vector<SpatialInstance> instances = {
      Fig1aInstance(),  Fig1bInstance(),       Fig1cInstance(),
      Fig1dInstance(),  NestedInstance(),      DisjointPairInstance(),
      *ChainInstance(3), *CombInstance(2),     *NestedRingsInstance(3),
      *FlowerInstance(3)};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(*RandomRectInstance(3 + seed % 3, 40, seed));
  }
  return instances;
}

// Evaluates the query with the reference, the engine and the engine's
// 3-thread fan-out (each engine run with `base`'s plan flag) and asserts
// the outcomes are interchangeable: same verdict on success, same status
// code and message on failure.
void ExpectStrategiesAgree(const QueryEngine& engine,
                           const QueryReference& reference,
                           const std::string& query,
                           const EvalOptions& base = {}) {
  EvalOptions threaded = base;
  threaded.num_threads = 3;

  Result<bool> a = reference.Evaluate(query, base);
  Result<bool> b = engine.Evaluate(query, base);
  ASSERT_EQ(a.ok(), b.ok()) << query << "\n reference: "
                            << a.status().ToString()
                            << "\n engine:    " << b.status().ToString();
  if (a.ok()) {
    EXPECT_EQ(*a, *b) << query;
    // The parallel fan-out splits the budget per binding, so its error
    // points legitimately differ; verdicts are only required to match on
    // evaluations that succeed sequentially.
    Result<bool> c = engine.Evaluate(query, threaded);
    ASSERT_TRUE(c.ok()) << query << "\n threaded: " << c.status().ToString();
    EXPECT_EQ(*a, *c) << query;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << query;
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << query;
  }
}

TEST(QueryDiffTest, StrategiesAgreeOnGenericCorpus) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const QueryReference reference(engine.complex());
    for (const char* query : kGenericQueries) {
      ExpectStrategiesAgree(engine, reference, query);
    }
  }
}

TEST(QueryDiffTest, StrategiesAgreeOnPaperExamples) {
  const char* queries[] = {
      "exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
      "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)",
  };
  for (SpatialInstance instance : {Fig1aInstance(), Fig1bInstance()}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const QueryReference reference(engine.complex());
    for (const char* query : queries) {
      ExpectStrategiesAgree(engine, reference, query);
    }
  }
}

// The planner (EvalOptions::plan) is a pure rewrite stage: at every
// thread count, the planned evaluation must return exactly the verdict of
// the reference, which evaluates the query as written. Run the full
// differential workload with and without planning.
TEST(QueryDiffTest, PlannedMatchesUnplannedAcrossStrategiesAndWorkload) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const QueryReference reference(engine.complex());
    for (const char* query : kGenericQueries) {
      for (const bool plan : {false, true}) {
        EvalOptions options;
        options.plan = plan;
        ExpectStrategiesAgree(engine, reference, query, options);
      }
    }
  }
}

// Budget accounting is part of the observable semantics: for EVERY budget
// value, the engine must fail at the reference's point with its message
// (the budget is charged per disc value, after the disc check, so the
// exhaustion point is a topological invariant of the instance — not an
// artifact of which evaluator enumerates).
TEST(QueryDiffTest, BudgetErrorPointsAreStrategyIndependent) {
  for (SpatialInstance instance :
       {Fig1aInstance(), NestedInstance(), *CombInstance(2)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const QueryReference reference(engine.complex());
    for (int64_t budget = 1; budget <= 12; ++budget) {
      EvalOptions options;
      options.max_region_candidates = budget;
      ExpectStrategiesAgree(engine, reference,
                            "forall region r . connect(r, r)", options);
    }
  }
}

TEST(QueryDiffTest, BudgetErrorMessageNamesTheLimit) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  EvalOptions options;
  options.max_region_candidates = 2;
  Result<bool> result =
      engine.Evaluate("forall region r . connect(r, r)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("max_region_candidates=2"),
            std::string::npos)
      << result.status().ToString();
}

TEST(QueryDiffTest, EnumerationStepsErrorPointsAreStrategyIndependent) {
  QueryEngine engine = *QueryEngine::Build(Fig1bInstance());
  const QueryReference reference(engine.complex());
  for (int64_t steps : {int64_t{1}, int64_t{7}, int64_t{50}, int64_t{400}}) {
    EvalOptions options;
    options.max_enumeration_steps = steps;
    ExpectStrategiesAgree(engine, reference, "forall region r . connect(r, r)",
                          options);
  }
  // The engine's shared range now holds the first 400 raw candidates, so
  // these error points come from cached raw indices, not from extending
  // the range. The first witness is raw candidate 13: the limit that just
  // reaches it must succeed, and every smaller one must fail.
  for (int64_t steps = 32; steps >= 1; --steps) {
    EvalOptions options;
    options.max_enumeration_steps = steps;
    ExpectStrategiesAgree(engine, reference, "exists region r . covers(r, A)",
                          options);
  }
}

TEST(QueryDiffTest, StepsErrorMessageNamesTheLimit) {
  QueryEngine engine = *QueryEngine::Build(Fig1bInstance());
  EvalOptions options;
  options.max_enumeration_steps = 7;
  Result<bool> result =
      engine.Evaluate("forall region r . connect(r, r)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("max_enumeration_steps=7"),
            std::string::npos)
      << result.status().ToString();
}

// --- IsDiscValue: reference vs the engine's memoized implementation ---

// Exhaustively sweeps every subset of faces on small instances; the
// reference (byte-per-cell) check, the engine's memoized CellSet check,
// and a repeated (memo-hit) call must agree on both the verdict and the
// completed cell set.
TEST(QueryDiffTest, DiscValueOverloadsAgreeOnAllFaceSubsets) {
  for (SpatialInstance instance :
       {Fig1aInstance(), Fig1dInstance(), NestedInstance(),
        DisjointPairInstance(), *CombInstance(2),
        *RandomRectInstance(4, 40, 11)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const QueryReference reference(engine.complex());
    const int nf = static_cast<int>(engine.complex().faces().size());
    ASSERT_LE(nf, 16) << "subset sweep would explode";
    for (uint32_t bits = 0; bits < (uint32_t{1} << nf); ++bits) {
      std::vector<char> face_set(nf, 0);
      CellSet face_bits(nf);
      for (int f = 0; f < nf; ++f) {
        if (bits >> f & 1) {
          face_set[f] = 1;
          face_bits.Set(f);
        }
      }
      std::vector<char> completed_ref;
      CellSet completed_bits;
      const bool ref = reference.IsDiscValue(face_set, &completed_ref);
      const bool fast = engine.IsDiscValue(face_bits, &completed_bits);
      ASSERT_EQ(ref, fast) << "face set " << bits;
      if (ref) {
        EXPECT_EQ(CellSet::FromCharVector(completed_ref), completed_bits)
            << "face set " << bits;
      }
      // Second call hits the memo; same answer.
      CellSet completed_again;
      ASSERT_EQ(engine.IsDiscValue(face_bits, &completed_again), fast);
      if (fast) {
        EXPECT_EQ(completed_again, completed_bits);
      }
    }
  }
}

// Regression net for the completion rule (the dart-less-vertex bugfix): a
// vertex joins a completion iff it has AT LEAST ONE incident face and all
// of its incident faces are chosen — the vacuous form ("all incident
// faces chosen", true for a dart-less vertex) would poison every
// completion with isolated cells. The arrangement never emits dart-less
// vertices, so the guard itself is unreachable through Build; what is
// testable, and what this test pins exhaustively on the engine's check, is
// the non-vacuous rule against ground truth recomputed here straight from
// the complex's darts.
TEST(QueryDiffTest, CompletedVerticesMatchIncidentFaceRule) {
  for (SpatialInstance instance :
       {Fig1aInstance(), NestedInstance(), *CombInstance(2)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const CellComplex& complex = engine.complex();
    const int nv = static_cast<int>(complex.vertices().size());
    const int ne = static_cast<int>(complex.edges().size());
    const int nf = static_cast<int>(complex.faces().size());
    // Ground truth: incident faces per vertex, via the darts around it.
    std::vector<std::set<int>> vertex_faces(nv);
    for (int v = 0; v < nv; ++v) {
      for (int d : complex.vertices()[v].darts) {
        vertex_faces[v].insert(complex.darts()[d].face);
      }
      ASSERT_FALSE(vertex_faces[v].empty())
          << "the arrangement emitted a dart-less vertex";
    }
    for (uint32_t bits = 0; bits < (uint32_t{1} << nf); ++bits) {
      CellSet face_set(nf);
      for (int f = 0; f < nf; ++f) {
        if (bits >> f & 1) face_set.Set(f);
      }
      CellSet completed;
      if (!engine.IsDiscValue(face_set, &completed)) continue;
      ASSERT_EQ(completed.size_bits(), nv + ne + nf);
      for (int v = 0; v < nv; ++v) {
        bool all_chosen = true;
        for (int f : vertex_faces[v]) all_chosen &= face_set.Test(f);
        EXPECT_EQ(completed.Test(v), all_chosen)
            << "vertex " << v << ", face set " << bits;
      }
    }
  }
}

// --- Thematic cross-check ---

// Face-level verdicts derived from the thematic mapping's RegionFaces
// table must agree with the evaluators' cell-level atoms: interiors are
// open, so ext(a) is a subset of / intersects ext(b) iff a's interior
// faces are a subset of / intersect b's (edge and vertex cells interior
// to a region are determined by its faces). Queries are built with
// QuoteQueryName, so the check also covers non-identifier names.
TEST(QueryDiffTest, AtomsAgreeWithThematicRegionFaces) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    const ThematicInstance theme = ToThematic(*ComputeInvariant(instance));
    // Interior faces per region name.
    std::map<std::string, std::set<std::string>> faces_of;
    for (const std::string& name : instance.names()) faces_of[name];
    for (const auto& row : theme.region_faces.rows()) {
      faces_of[row[0]].insert(row[1]);
    }
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const auto& [a, fa] : faces_of) {
      for (const auto& [b, fb] : faces_of) {
        const std::string qa = QuoteQueryName(a), qb = QuoteQueryName(b);
        const bool face_subset =
            std::includes(fb.begin(), fb.end(), fa.begin(), fa.end());
        Result<bool> subset =
            engine.Evaluate("subset(" + qa + ", " + qb + ")");
        ASSERT_TRUE(subset.ok()) << subset.status().ToString();
        EXPECT_EQ(*subset, face_subset) << a << " vs " << b;
        std::vector<std::string> common;
        std::set_intersection(fa.begin(), fa.end(), fb.begin(), fb.end(),
                              std::back_inserter(common));
        // Interiors intersect iff the pair is neither disjoint nor meet
        // (the only 4-intersection classes with disjoint interiors).
        Result<bool> interiors_meet = engine.Evaluate(
            "not disjoint(" + qa + ", " + qb + ") and not meet(" + qa + ", " +
            qb + ")");
        ASSERT_TRUE(interiors_meet.ok())
            << interiors_meet.status().ToString();
        EXPECT_EQ(*interiors_meet, !common.empty()) << a << " vs " << b;
      }
    }
  }
}

}  // namespace
}  // namespace topodb
