#include "tests/query_reference.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>

#include "src/base/check.h"
#include "src/query/parser.h"

namespace topodb {

namespace {

bool AnyCommon(const std::vector<char>& a, const std::vector<char>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && b[i]) return true;
  }
  return false;
}

bool SubsetOf(const std::vector<char>& a, const std::vector<char>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && !b[i]) return false;
  }
  return true;
}

void SortUnique(std::vector<int>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

QueryReference::QueryReference(const CellComplex& complex)
    : complex_(complex),
      nv_(static_cast<int>(complex.vertices().size())),
      ne_(static_cast<int>(complex.edges().size())),
      nf_(static_cast<int>(complex.faces().size())) {
  const int total = nv_ + ne_ + nf_;
  closure_.assign(total, {});
  incidence_.assign(total, {});
  face_dual_.assign(nf_, {});
  vertex_faces_.assign(nv_, {});
  edge_faces_.assign(ne_, {-1, -1});
  auto link = [&](int a, int b) {
    incidence_[a].push_back(b);
    incidence_[b].push_back(a);
  };
  // Everything comes from the darts. A dart's left face contains its edge
  // and its origin (its destination is the origin of the next dart of the
  // same face walk), and the faces left of the darts leaving a vertex are
  // exactly the faces around it.
  for (const CellComplex::Dart& dart : complex.darts()) {
    const int edge = nv_ + dart.edge;
    const int face = nv_ + ne_ + dart.face;
    closure_[edge].push_back(dart.origin);
    closure_[face].push_back(edge);
    closure_[face].push_back(dart.origin);
    link(edge, dart.origin);
    link(face, edge);
    vertex_faces_[dart.origin].push_back(dart.face);
  }
  for (int e = 0; e < ne_; ++e) {
    const CellComplex::Dart& forward =
        complex.darts()[complex.edges()[e].dart0];
    const int lf = forward.face;
    const int rf = complex.darts()[forward.twin].face;
    edge_faces_[e] = {lf, rf};
    if (lf != rf) {
      face_dual_[lf].push_back(rf);
      face_dual_[rf].push_back(lf);
    }
  }
  for (auto* lists : {&closure_, &incidence_, &face_dual_, &vertex_faces_}) {
    for (std::vector<int>& list : *lists) SortUnique(&list);
  }
  // Region values: cells with interior sign.
  for (size_t r = 0; r < complex.region_names().size(); ++r) {
    std::vector<char> value(total, 0);
    for (int v = 0; v < nv_; ++v) {
      value[v] = complex.vertices()[v].label[r] == Sign::kInterior;
    }
    for (int e = 0; e < ne_; ++e) {
      value[nv_ + e] = complex.edges()[e].label[r] == Sign::kInterior;
    }
    for (int f = 0; f < nf_; ++f) {
      value[nv_ + ne_ + f] = complex.faces()[f].label[r] == Sign::kInterior;
    }
    region_values_[complex.region_names()[r]] = std::move(value);
  }
}

bool QueryReference::IsDiscValue(const std::vector<char>& face_set,
                                 std::vector<char>* completed) const {
  const int total = nv_ + ne_ + nf_;
  std::vector<char>& s = *completed;
  s.assign(total, 0);
  for (int f = 0; f < nf_; ++f) s[nv_ + ne_ + f] = face_set[f] != 0;
  // Completion: edges with both sides in, vertices with everything in.
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = edge_faces_[e];
    if (face_set[lf] && face_set[rf]) s[nv_ + e] = 1;
  }
  for (int v = 0; v < nv_; ++v) {
    if (vertex_faces_[v].empty()) continue;
    bool all = true;
    for (int f : vertex_faces_[v]) all = all && face_set[f];
    if (all) s[v] = 1;
  }
  // S must be connected over the incidence graph, and so must its
  // complement on the sphere: the complement cells plus a point at
  // infinity attached to the unbounded face. A chosen unbounded face cuts
  // that point off, so then the complement must be the point alone.
  const int count = static_cast<int>(std::count(s.begin(), s.end(), 1));
  if (count == 0) return false;  // The empty set is not a region.
  const int first = static_cast<int>(std::find(s.begin(), s.end(), 1) -
                                     s.begin());
  if (Reach(s, true, first) != count) return false;
  const int complement = total - count;
  if (complement == 0) return true;
  const int exterior = nv_ + ne_ + complex_.exterior_face();
  return !s[exterior] && Reach(s, false, exterior) == complement;
}

int QueryReference::Reach(const std::vector<char>& s, bool inside,
                          int start) const {
  std::vector<char> seen(s.size(), 0);
  std::queue<int> queue;
  seen[start] = 1;
  queue.push(start);
  int reached = 1;
  while (!queue.empty()) {
    const int c = queue.front();
    queue.pop();
    for (int d : incidence_[c]) {
      if ((s[d] != 0) == inside && !seen[d]) {
        seen[d] = 1;
        ++reached;
        queue.push(d);
      }
    }
  }
  return reached;
}

class QueryReference::Evaluator {
 public:
  struct Env {
    std::map<std::string, std::vector<char>> cells;  // Region/cell vars.
    std::map<std::string, std::string> names;        // Name variables.
  };

  Evaluator(const QueryReference& ref, const EvalOptions& options)
      : ref_(ref),
        budget_(options.max_region_candidates),
        budget_limit_(options.max_region_candidates),
        max_steps_(options.max_enumeration_steps) {}

  Result<bool> Eval(const FormulaPtr& formula, Env* env) {
    switch (formula->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kAtom: return EvalAtom(*formula, env);
      case Formula::Kind::kNameEq: {
        TOPODB_ASSIGN_OR_RETURN(std::string a, NameOf(formula->lhs, env));
        TOPODB_ASSIGN_OR_RETURN(std::string b, NameOf(formula->rhs, env));
        return a == b;
      }
      case Formula::Kind::kNot: {
        TOPODB_ASSIGN_OR_RETURN(bool v, Eval(formula->left, env));
        return !v;
      }
      case Formula::Kind::kAnd: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return false;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kOr: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kImplies: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kIff: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        TOPODB_ASSIGN_OR_RETURN(bool b, Eval(formula->right, env));
        return a == b;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall:
        return EvalQuantifier(*formula, env);
    }
    TOPODB_UNREACHABLE();
  }

 private:
  Result<std::string> NameOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kNameConstant) return term.text;
    auto it = env->names.find(term.text);
    if (it == env->names.end()) {
      return Status::InvalidArgument("'" + term.text +
                                     "' is not a name in this context");
    }
    return it->second;
  }

  Result<std::vector<char>> RegionValue(const std::string& name) const {
    auto it = ref_.region_values_.find(name);
    if (it == ref_.region_values_.end()) {
      return Status::NotFound("no region named " + name);
    }
    return it->second;
  }

  Result<std::vector<char>> ValueOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kVariable) {
      auto cell_it = env->cells.find(term.text);
      if (cell_it != env->cells.end()) return cell_it->second;
      auto name_it = env->names.find(term.text);
      if (name_it != env->names.end()) return RegionValue(name_it->second);
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    return RegionValue(term.text);
  }

  std::vector<char> Closure(const std::vector<char>& s) const {
    std::vector<char> out = s;
    for (size_t c = 0; c < s.size(); ++c) {
      if (!s[c]) continue;
      for (int b : ref_.closure_[c]) out[b] = 1;
    }
    return out;
  }

  Result<bool> EvalAtom(const Formula& atom, Env* env) {
    TOPODB_ASSIGN_OR_RETURN(std::vector<char> s, ValueOf(atom.lhs, env));
    TOPODB_ASSIGN_OR_RETURN(std::vector<char> t, ValueOf(atom.rhs, env));
    const std::vector<char> cs = Closure(s);
    const std::vector<char> ct = Closure(t);
    auto boundary = [](const std::vector<char>& closure,
                       const std::vector<char>& interior) {
      std::vector<char> b = closure;
      for (size_t i = 0; i < b.size(); ++i) {
        if (interior[i]) b[i] = 0;
      }
      return b;
    };
    switch (atom.predicate) {
      case Predicate::kConnect: return AnyCommon(cs, ct);
      case Predicate::kDisjoint: return !AnyCommon(cs, ct);
      case Predicate::kIntersects: return AnyCommon(s, t);
      case Predicate::kSubset: return SubsetOf(s, t);
      case Predicate::kBoundaryPart: return SubsetOf(s, boundary(ct, t));
      case Predicate::kEqual: return s == t;
      case Predicate::kOverlap:
        return AnyCommon(s, t) && !SubsetOf(s, t) && !SubsetOf(t, s);
      case Predicate::kMeet:
        return AnyCommon(cs, ct) && !AnyCommon(s, t);
      case Predicate::kInside:
        return s != t && SubsetOf(s, t) &&
               !AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kContains:
        return s != t && SubsetOf(t, s) &&
               !AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kCovers:
        return s != t && SubsetOf(t, s) &&
               AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kCoveredBy:
        return s != t && SubsetOf(s, t) &&
               AnyCommon(boundary(cs, s), boundary(ct, t));
    }
    TOPODB_UNREACHABLE();
  }

  Result<bool> EvalQuantifier(const Formula& formula, Env* env) {
    const bool exists = formula.kind == Formula::Kind::kExists;
    switch (formula.var_kind) {
      case Formula::VarKind::kName: {
        for (const std::string& name : ref_.complex_.region_names()) {
          env->names[formula.var] = name;
          Result<bool> v = Eval(formula.body, env);
          env->names.erase(formula.var);
          TOPODB_ASSIGN_OR_RETURN(bool value, std::move(v));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kCell: {
        const int total = ref_.nv_ + ref_.ne_ + ref_.nf_;
        for (int c = 0; c < total; ++c) {
          std::vector<char> value(total, 0);
          value[c] = 1;
          env->cells[formula.var] = std::move(value);
          Result<bool> v = Eval(formula.body, env);
          env->cells.erase(formula.var);
          TOPODB_ASSIGN_OR_RETURN(bool result, std::move(v));
          if (result == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kRegion:
        return EvalRegionQuantifier(exists, formula, env);
      case Formula::VarKind::kRect:
        return Status::Unsupported(
            "rect quantifiers are evaluated by RectQueryEngine");
    }
    TOPODB_UNREACHABLE();
  }

  // Enumerates completions of dual-connected face sets that are discs;
  // each connected set is produced exactly once (enumeration by canonical
  // root + forbidden set). The budget is charged per disc value, after the
  // disc check; the raw step guard counts every connected set.
  Result<bool> EvalRegionQuantifier(bool exists, const Formula& formula,
                                    Env* env) {
    const int nf = ref_.nf_;
    std::vector<char> chosen(nf, 0);
    std::vector<char> banned(nf, 0);
    std::optional<bool> verdict;
    Status error = Status::OK();
    int64_t raw_steps = 0;  // Per-instantiation enumeration counter.

    // Returns true to stop the whole enumeration.
    std::function<bool()> process = [&]() {
      if (++raw_steps > max_steps_) {
        error = Status::ResourceExhausted(
            "region quantifier enumeration exceeded max_enumeration_steps=" +
            std::to_string(max_steps_));
        return true;
      }
      std::vector<char> completed;
      if (!ref_.IsDiscValue(chosen, &completed)) return false;
      if (--budget_ < 0) {
        error = Status::ResourceExhausted(
            "region quantifier candidate budget exhausted "
            "(max_region_candidates=" +
            std::to_string(budget_limit_) + ")");
        return true;
      }
      env->cells[formula.var] = std::move(completed);
      Result<bool> v = Eval(formula.body, env);
      env->cells.erase(formula.var);
      if (!v.ok()) {
        error = v.status();
        return true;
      }
      if (*v == exists) {
        verdict = exists;
        return true;
      }
      return false;
    };

    std::function<bool()> spawn = [&]() -> bool {
      if (process()) return true;
      // Frontier: faces adjacent to the chosen set, not banned.
      std::vector<int> frontier;
      for (int f = 0; f < nf; ++f) {
        if (!chosen[f]) continue;
        for (int g : ref_.face_dual_[f]) {
          if (!chosen[g] && !banned[g]) frontier.push_back(g);
        }
      }
      SortUnique(&frontier);
      std::vector<int> added_bans;
      bool stop = false;
      for (int g : frontier) {
        if (banned[g]) continue;  // Banned by an earlier sibling.
        chosen[g] = 1;
        stop = spawn();
        chosen[g] = 0;
        if (stop) break;
        banned[g] = 1;
        added_bans.push_back(g);
      }
      for (int g : added_bans) banned[g] = 0;
      return stop;
    };

    for (int root = 0; root < nf; ++root) {
      std::fill(chosen.begin(), chosen.end(), 0);
      std::fill(banned.begin(), banned.end(), 0);
      for (int f = 0; f < root; ++f) banned[f] = 1;
      chosen[root] = 1;
      if (spawn()) break;
    }
    TOPODB_RETURN_NOT_OK(error);
    if (verdict.has_value()) return *verdict;
    return !exists;
  }

  const QueryReference& ref_;
  int64_t budget_;
  const int64_t budget_limit_;
  const int64_t max_steps_;
};

Result<bool> QueryReference::Evaluate(const FormulaPtr& query,
                                      const EvalOptions& options) const {
  Evaluator evaluator(*this, options);
  Evaluator::Env env;
  return evaluator.Eval(query, &env);
}

Result<bool> QueryReference::Evaluate(const std::string& query,
                                      const EvalOptions& options) const {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return Evaluate(formula, options);
}

}  // namespace topodb
