#include "src/invariant/canonical.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <vector>

#include "src/base/check.h"

namespace topodb {

namespace {

// Derived structure shared by all canonical computations on one invariant.
struct Precomp {
  std::vector<int> prev;            // Inverse of next_ccw.
  std::vector<int> cycle_of_dart;
  std::vector<int> cycle_reps;
  std::vector<bool> cycle_is_outer;  // Outer cycle of its (bounded) face.
  std::vector<int> comp_of_vertex;
  std::vector<int> comp_of_dart;
  std::vector<std::vector<int>> darts_of_comp;
  std::vector<int> container_face_of_comp;  // Face holding the component.
  std::vector<int> parent_comp;             // -1 for roots.
  std::vector<std::vector<int>> children;
};

Precomp Precompute(const InvariantData& data) {
  Precomp pre;
  const int nd = data.num_darts();
  pre.prev.assign(nd, -1);
  for (int d = 0; d < nd; ++d) pre.prev[data.next_ccw[d]] = d;
  data.ComputeCycles(&pre.cycle_of_dart, &pre.cycle_reps);
  pre.cycle_is_outer.assign(pre.cycle_reps.size(), false);
  for (const auto& face : data.faces) {
    if (face.outer_cycle_dart >= 0) {
      pre.cycle_is_outer[pre.cycle_of_dart[face.outer_cycle_dart]] = true;
    }
  }
  pre.comp_of_vertex = data.VertexComponents();
  const int num_comps = data.ComponentCount();
  pre.comp_of_dart.assign(nd, -1);
  pre.darts_of_comp.assign(num_comps, {});
  for (int d = 0; d < nd; ++d) {
    int comp = pre.comp_of_vertex[data.Origin(d)];
    pre.comp_of_dart[d] = comp;
    pre.darts_of_comp[comp].push_back(d);
  }
  // Each component has exactly one cycle that is not the outer cycle of a
  // bounded face: the cycle facing the component's container.
  pre.container_face_of_comp.assign(num_comps, -1);
  for (size_t c = 0; c < pre.cycle_reps.size(); ++c) {
    if (pre.cycle_is_outer[c]) continue;
    int comp = pre.comp_of_dart[pre.cycle_reps[c]];
    TOPODB_CHECK_MSG(pre.container_face_of_comp[comp] == -1,
                     "component with two outward cycles");
    pre.container_face_of_comp[comp] =
        data.face_of_dart[pre.cycle_reps[c]];
  }
  pre.parent_comp.assign(num_comps, -1);
  pre.children.assign(num_comps, {});
  for (int comp = 0; comp < num_comps; ++comp) {
    int face = pre.container_face_of_comp[comp];
    TOPODB_CHECK_MSG(face >= 0, "component without outward cycle");
    const auto& f = data.faces[face];
    if (f.outer_cycle_dart < 0) continue;  // Sits in the exterior: root.
    int parent = pre.comp_of_dart[f.outer_cycle_dart];
    TOPODB_CHECK_MSG(parent != comp, "component nested in itself");
    pre.parent_comp[comp] = parent;
    pre.children[parent].push_back(comp);
  }
  return pre;
}

// The face on the left of dart d under the chosen orientation: mirroring
// the plane swaps left and right.
int FaceOf(const InvariantData& data, int d, bool mirrored) {
  return data.face_of_dart[mirrored ? InvariantData::Twin(d) : d];
}

void AppendLabel(const CellLabel& label, std::string* out) {
  for (Sign s : label) out->push_back(SignChar(s));
}

// One orientation of the plane, with everything a flag code needs that
// does not depend on the start dart, plus scratch reused across starts.
struct Orientation {
  const InvariantData& data;
  const Precomp& pre;
  bool mirrored;
  const std::vector<int>& rot;  // Rotation under this orientation.
  // Label tail of each dart's token, ";vertex;edge;face[;i/x U/B]|",
  // concatenated: dart d's tail is tails[tail_start[d], tail_start[d+1]).
  std::string tails;
  std::vector<int> tail_start;
  std::vector<int> idx;    // Dart -> discovery index; -1 between starts.
  std::vector<int> order;  // Darts in discovery order.

  Orientation(const InvariantData& d, const Precomp& p, bool mirror,
              bool include_exterior)
      : data(d),
        pre(p),
        mirrored(mirror),
        rot(mirror ? p.prev : d.next_ccw),
        idx(d.num_darts(), -1) {
    const int nd = d.num_darts();
    tail_start.reserve(nd + 1);
    for (int dart = 0; dart < nd; ++dart) {
      tail_start.push_back(static_cast<int>(tails.size()));
      const int face = FaceOf(d, dart, mirror);
      tails += ';';
      AppendLabel(d.vertices[d.Origin(dart)].label, &tails);
      tails += ';';
      AppendLabel(d.edges[dart / 2].label, &tails);
      tails += ';';
      AppendLabel(d.faces[face].label, &tails);
      if (include_exterior) {
        // Mark darts on the cycle facing the component's container, and
        // whether that container is the unbounded face. Under mirroring
        // the dart's cycle is the one its twin traces in the original.
        const int cyc =
            p.cycle_of_dart[mirror ? InvariantData::Twin(dart) : dart];
        tails += ';';
        tails += p.cycle_is_outer[cyc] ? 'i' : 'x';
        tails += d.faces[face].unbounded ? 'U' : 'B';
      }
      tails += '|';
    }
    tail_start.push_back(static_cast<int>(tails.size()));
  }
};

void AppendInt(int value, std::string* out) {
  char buf[16];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

// How a start's flag code compares with the best code so far.
enum class Order { kLess, kEqual, kGreater };

// Deterministic traversal code of one component from a start dart, one
// '|'-terminated token per dart in BFS discovery order, written to *code
// as the BFS runs. Leaves o->idx (dart -> index) and o->order filled.
// Each token is compared with the same stretch of *best (when given), and
// the traversal stops as soon as the code is greater (kGreater, code
// truncated). Token-by-token comparison decides the whole strings: all
// codes of one component have the same number of tokens, and '|' appears
// only as the terminator, so two codes first differ inside a token both
// of them have (or are equal).
Order FlagCode(Orientation* o, int start, const std::string* best,
               std::string* code) {
  std::vector<int>& idx = o->idx;
  std::vector<int>& order = o->order;
  code->clear();
  order.clear();
  idx[start] = 0;
  order.push_back(start);
  Order cmp = best == nullptr ? Order::kLess : Order::kEqual;
  for (size_t i = 0; i < order.size(); ++i) {
    const int d = order[i];
    const int twin = InvariantData::Twin(d);
    for (int nb : {o->rot[d], twin}) {
      if (idx[nb] == -1) {
        idx[nb] = static_cast<int>(order.size());
        order.push_back(nb);
      }
    }
    const size_t pos = code->size();
    AppendInt(idx[o->rot[d]], code);
    *code += ',';
    AppendInt(idx[twin], code);
    code->append(o->tails, o->tail_start[d],
                 o->tail_start[d + 1] - o->tail_start[d]);
    if (cmp == Order::kEqual) {
      const int c = best->compare(pos, code->size() - pos, *code, pos);
      if (c < 0) return Order::kGreater;
      if (c > 0) cmp = Order::kLess;
    }
  }
  return cmp;
}

// Canonical code of the subtree rooted at component comp.
std::string TreeCode(Orientation* o, int comp) {
  const Precomp& pre = o->pre;
  // Children codes first (they do not depend on this component's start),
  // each with the darts of this component on the child's container face.
  struct Kid {
    std::string code;
    std::vector<int> face_darts;
  };
  std::vector<Kid> kids;
  for (int child : pre.children[comp]) {
    Kid kid{TreeCode(o, child), {}};
    for (int d : pre.darts_of_comp[comp]) {
      if (FaceOf(o->data, d, o->mirrored) ==
          pre.container_face_of_comp[child]) {
        kid.face_darts.push_back(d);
      }
    }
    TOPODB_CHECK_MSG(!kid.face_darts.empty(),
                     "child container face not on parent");
    kids.push_back(std::move(kid));
  }
  std::string best;
  std::string code;
  std::vector<std::string> tagged;
  for (int start : pre.darts_of_comp[comp]) {
    Order cmp = FlagCode(o, start, best.empty() ? nullptr : &best, &code);
    if (cmp != Order::kGreater && !kids.empty()) {
      // Tag each child with the canonical id of its container face: the
      // least dart index lying on that face (under this orientation).
      tagged.clear();
      for (const Kid& kid : kids) {
        int tag = o->idx[kid.face_darts[0]];
        for (int d : kid.face_darts) tag = std::min(tag, o->idx[d]);
        tagged.push_back(std::to_string(tag) + '@' + kid.code);
      }
      std::sort(tagged.begin(), tagged.end());
      code += "{";
      for (const std::string& t : tagged) code += t + "}{";
      code += "}";
      // Equal flag codes: the child suffix breaks the tie.
      if (cmp == Order::kEqual && code < best) cmp = Order::kLess;
    }
    if (cmp == Order::kLess) best.swap(code);
    for (int d : o->order) o->idx[d] = -1;
  }
  return best;
}

std::string ForestCode(const InvariantData& data, const Precomp& pre,
                       bool mirrored, bool include_exterior) {
  Orientation o(data, pre, mirrored, include_exterior);
  std::vector<std::string> roots;
  for (size_t comp = 0; comp < pre.children.size(); ++comp) {
    if (pre.parent_comp[comp] == -1) {
      roots.push_back(TreeCode(&o, static_cast<int>(comp)));
    }
  }
  std::sort(roots.begin(), roots.end());
  std::string out;
  for (const std::string& r : roots) out += "[" + r + "]";
  return out;
}

}  // namespace

std::string EscapeRegionName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '\\' || c == ',') out += '\\';
    out += c;
  }
  return out;
}

Result<std::string> CanonicalInvariantString(const InvariantData& data,
                                             const CanonicalOptions& options) {
  TOPODB_RETURN_NOT_OK(data.CheckWellFormed());
  if (!options.include_exterior && data.ComponentCount() > 1) {
    return Status::Unsupported(
        "exterior-free canonical form requires a connected instance");
  }
  std::string head = "names:";
  for (const auto& name : data.region_names) {
    head += EscapeRegionName(name) + ",";
  }
  head += "#";
  if (data.vertices.empty()) return head + "empty";
  Precomp pre = Precompute(data);
  std::string plain = ForestCode(data, pre, /*mirrored=*/false,
                                 options.include_exterior);
  if (!options.allow_reflection) return head + plain;
  std::string mirror = ForestCode(data, pre, /*mirrored=*/true,
                                  options.include_exterior);
  return head + std::min(plain, mirror);
}

Result<bool> Isomorphic(const InvariantData& a, const InvariantData& b) {
  TOPODB_ASSIGN_OR_RETURN(std::string ca, CanonicalInvariantString(a));
  TOPODB_ASSIGN_OR_RETURN(std::string cb, CanonicalInvariantString(b));
  return ca == cb;
}

Result<bool> IsomorphicIgnoringExterior(const InvariantData& a,
                                        const InvariantData& b) {
  CanonicalOptions options;
  options.include_exterior = false;
  TOPODB_ASSIGN_OR_RETURN(std::string ca, CanonicalInvariantString(a, options));
  TOPODB_ASSIGN_OR_RETURN(std::string cb, CanonicalInvariantString(b, options));
  return ca == cb;
}

Result<bool> IsotopyEquivalent(const InvariantData& a,
                               const InvariantData& b) {
  CanonicalOptions options;
  options.allow_reflection = false;
  TOPODB_ASSIGN_OR_RETURN(std::string ca, CanonicalInvariantString(a, options));
  TOPODB_ASSIGN_OR_RETURN(std::string cb, CanonicalInvariantString(b, options));
  return ca == cb;
}

Result<TopologicalInvariant> TopologicalInvariant::Compute(
    const SpatialInstance& instance) {
  TOPODB_ASSIGN_OR_RETURN(InvariantData data, ComputeInvariant(instance));
  return FromData(std::move(data));
}

Result<TopologicalInvariant> TopologicalInvariant::FromData(
    InvariantData data) {
  TopologicalInvariant invariant;
  TOPODB_ASSIGN_OR_RETURN(invariant.canonical_,
                          CanonicalInvariantString(data));
  invariant.data_ = std::move(data);
  return invariant;
}

TopologicalInvariant TopologicalInvariant::FromPrecomputed(
    InvariantData data, std::string canonical) {
  TopologicalInvariant invariant;
  invariant.data_ = std::move(data);
  invariant.canonical_ = std::move(canonical);
  return invariant;
}

}  // namespace topodb
