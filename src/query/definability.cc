#include "src/query/definability.h"

#include <set>
#include <string>
#include <vector>

namespace topodb {

namespace {

// Closure-contact relation between cells of the invariant: cells touch iff
// their closures share a cell; closures are cell + boundary cells
// (faces: boundary edges and their endpoints; edges: endpoints).
std::vector<std::set<int>> CellClosures(const InvariantData& data) {
  const int nv = static_cast<int>(data.vertices.size());
  const int ne = static_cast<int>(data.edges.size());
  const int nf = static_cast<int>(data.faces.size());
  auto edge_cell = [&](int e) { return nv + e; };
  auto face_cell = [&](int f) { return nv + ne + f; };
  std::vector<std::set<int>> closure(nv + ne + nf);
  for (int c = 0; c < nv + ne + nf; ++c) closure[c].insert(c);
  for (int e = 0; e < ne; ++e) {
    closure[edge_cell(e)].insert(data.edges[e].v1);
    closure[edge_cell(e)].insert(data.edges[e].v2);
  }
  for (int d = 0; d < data.num_darts(); ++d) {
    const int f = face_cell(data.face_of_dart[d]);
    closure[f].insert(edge_cell(d / 2));
    closure[f].insert(data.edges[d / 2].v1);
    closure[f].insert(data.edges[d / 2].v2);
  }
  return closure;
}

bool Touch(const std::vector<std::set<int>>& closure, int a, int b) {
  for (int c : closure[a]) {
    if (closure[b].count(c)) return true;
  }
  return false;
}

std::string CellVar(int i) {
  return std::string("c").append(std::to_string(i));
}

// The label constraint for one cell relative to one region.
FormulaPtr LabelAtom(Sign sign, const std::string& var,
                     const std::string& region) {
  switch (sign) {
    case Sign::kInterior:
      return MakeAtom(Predicate::kSubset, Var(var), NameConstant(region));
    case Sign::kBoundary:
      return MakeAtom(Predicate::kBoundaryPart, Var(var),
                      NameConstant(region));
    case Sign::kExterior:
      return MakeAnd(
          MakeNot(MakeAtom(Predicate::kSubset, Var(var),
                           NameConstant(region))),
          MakeNot(MakeAtom(Predicate::kBoundaryPart, Var(var),
                           NameConstant(region))));
  }
  return nullptr;
}

FormulaPtr AndAll(std::vector<FormulaPtr> parts) {
  if (parts.empty()) {
    auto t = std::make_shared<Formula>();
    t->kind = Formula::Kind::kTrue;
    return t;
  }
  FormulaPtr out = parts.back();
  for (size_t i = parts.size() - 1; i-- > 0;) {
    out = MakeAnd(parts[i], out);
  }
  return out;
}

}  // namespace

Result<FormulaPtr> DefiningSentence(const InvariantData& data) {
  TOPODB_RETURN_NOT_OK(data.CheckWellFormed());
  const int nv = static_cast<int>(data.vertices.size());
  const int ne = static_cast<int>(data.edges.size());
  const int nf = static_cast<int>(data.faces.size());
  const int total = nv + ne + nf;
  if (total == 0) {
    // The empty instance: no cells exist.
    return MakeQuantifier(Formula::Kind::kForall, Formula::VarKind::kCell,
                          "d", [] {
                            auto f = std::make_shared<Formula>();
                            f->kind = Formula::Kind::kFalse;
                            return FormulaPtr(f);
                          }());
  }
  // Cell labels in a single list (vertices, edges, faces).
  std::vector<const CellLabel*> labels;
  labels.reserve(total);
  for (const auto& v : data.vertices) labels.push_back(&v.label);
  for (const auto& e : data.edges) labels.push_back(&e.label);
  for (const auto& f : data.faces) labels.push_back(&f.label);
  const std::vector<std::set<int>> closure = CellClosures(data);

  // The exhaustiveness clause: every cell is one of the c_i.
  FormulaPtr any;
  for (int i = 0; i < total; ++i) {
    FormulaPtr eq = MakeAtom(Predicate::kEqual, Var("d"), Var(CellVar(i)));
    any = any ? MakeOr(any, eq) : eq;
  }
  FormulaPtr body = MakeQuantifier(Formula::Kind::kForall,
                                   Formula::VarKind::kCell, "d", any);

  // Innermost-out: wrap each cell's quantifier with its constraints.
  for (int i = total; i-- > 0;) {
    std::vector<FormulaPtr> constraints;
    // Label constraints.
    for (size_t r = 0; r < data.region_names.size(); ++r) {
      constraints.push_back(
          LabelAtom((*labels[i])[r], CellVar(i), data.region_names[r]));
    }
    // Distinctness and closure-contact relative to earlier cells.
    for (int j = 0; j < i; ++j) {
      constraints.push_back(MakeNot(
          MakeAtom(Predicate::kEqual, Var(CellVar(i)), Var(CellVar(j)))));
      FormulaPtr contact = MakeAtom(Predicate::kConnect, Var(CellVar(i)),
                                    Var(CellVar(j)));
      constraints.push_back(Touch(closure, i, j) ? contact
                                                 : MakeNot(contact));
    }
    constraints.push_back(body);
    body = MakeQuantifier(Formula::Kind::kExists, Formula::VarKind::kCell,
                          CellVar(i), AndAll(std::move(constraints)));
  }
  // The name check of Proposition 5.1: names(J) == names(I). Every name of
  // I occurs, and every name of J is one of I's.
  std::vector<FormulaPtr> name_parts;
  for (size_t r = 0; r < data.region_names.size(); ++r) {
    const std::string var = std::string("a").append(std::to_string(r));
    name_parts.push_back(MakeQuantifier(
        Formula::Kind::kExists, Formula::VarKind::kName, var,
        MakeNameEq(Var(var), NameConstant(data.region_names[r]))));
  }
  {
    FormulaPtr any_name;
    for (const auto& name : data.region_names) {
      FormulaPtr eq = MakeNameEq(Var("b"), NameConstant(name));
      any_name = any_name ? MakeOr(any_name, eq) : eq;
    }
    if (!any_name) {
      auto f = std::make_shared<Formula>();
      f->kind = Formula::Kind::kFalse;
      any_name = f;
    }
    name_parts.push_back(MakeQuantifier(
        Formula::Kind::kForall, Formula::VarKind::kName, "b", any_name));
  }
  name_parts.push_back(body);
  return AndAll(std::move(name_parts));
}

}  // namespace topodb
