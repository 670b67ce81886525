#ifndef TOPODB_TESTS_QUERY_REFERENCE_H_
#define TOPODB_TESTS_QUERY_REFERENCE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/base/status.h"
#include "src/query/ast.h"
#include "src/query/eval.h"

namespace topodb {

// The byte-per-cell reference semantics of the Section-7 query language:
// the test oracle that QueryEngine is held against (query_diff_test,
// bench_query_eval). It re-derives everything it needs — per-cell
// closures, the incidence graph, face duals, incident faces per vertex
// and edge, and the region values — from the CellComplex alone, so a bug
// in QueryEngine's universe construction cannot hide in both. Closures
// are recomputed per atom and every region-quantifier binding runs a
// fresh, unmemoized recursive enumeration of the disc range; that
// recursion's order defines the budget error points QueryEngine's
// resumable enumerator must reproduce.
//
// Cell ids follow QueryEngine: [0, nv) vertices, [nv, nv+ne) edges,
// [nv+ne, nv+ne+nf) faces.
class QueryReference {
 public:
  // `complex` must outlive this object.
  explicit QueryReference(const CellComplex& complex);

  // True iff the completion of the face set (one byte per face) is an open
  // disc: connected, with a connected complement on the sphere. The
  // completion, written to *completed, holds the chosen faces, the edges
  // with both sides chosen, and the vertices that have at least one
  // incident face and all of them chosen (a dart-less vertex lies in the
  // closure of no chosen face, so it is skipped, not vacuously included).
  bool IsDiscValue(const std::vector<char>& face_set,
                   std::vector<char>* completed) const;

  // Evaluates the query as written. Of the options only the two budgets
  // are read, charged as EvalOptions documents: max_region_candidates per
  // disc value across the whole evaluation, max_enumeration_steps per
  // region-quantifier instantiation.
  Result<bool> Evaluate(const FormulaPtr& query,
                        const EvalOptions& options = {}) const;
  // Parse + evaluate.
  Result<bool> Evaluate(const std::string& query,
                        const EvalOptions& options = {}) const;

 private:
  class Evaluator;

  // Cells reachable from `start` over the incidence graph through cells
  // whose membership in s equals `inside`, start included.
  int Reach(const std::vector<char>& s, bool inside, int start) const;

  const CellComplex& complex_;
  int nv_ = 0, ne_ = 0, nf_ = 0;
  std::vector<std::vector<int>> closure_;    // Boundary cells per cell.
  std::vector<std::vector<int>> incidence_;  // Symmetric incidence graph.
  std::vector<std::vector<int>> face_dual_;  // Faces sharing an edge.
  std::vector<std::vector<int>> vertex_faces_;
  std::vector<std::pair<int, int>> edge_faces_;
  std::map<std::string, std::vector<char>> region_values_;
};

}  // namespace topodb

#endif  // TOPODB_TESTS_QUERY_REFERENCE_H_
