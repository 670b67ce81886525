#include "src/thematic/thematic.h"

#include <map>
#include <sstream>

#include "src/invariant/validate.h"

namespace topodb {

namespace {

constexpr char kCw[] = "cw";
constexpr char kCcw[] = "ccw";

}  // namespace

std::string VertexId(int v) {
  return std::string("v").append(std::to_string(v));
}
std::string EdgeId(int e) {
  return std::string("e").append(std::to_string(e));
}
std::string EndId(int dart) {
  return EdgeId(dart / 2) + (dart % 2 == 0 ? "+" : "-");
}
std::string FaceId(int f) {
  return std::string("f").append(std::to_string(f));
}

ThematicInstance ThematicInstance::Empty() {
  ThematicInstance theme;
  theme.regions = *Table::Make({"region"});
  theme.vertices = *Table::Make({"vertex"});
  theme.edges = *Table::Make({"edge"});
  theme.faces = *Table::Make({"face"});
  theme.exterior_face = *Table::Make({"face"});
  theme.endpoints = *Table::Make({"edge", "vertex1", "vertex2"});
  theme.face_edges = *Table::Make({"face", "edge"});
  theme.region_faces = *Table::Make({"region", "face"});
  theme.orientation = *Table::Make({"dir", "vertex", "end1", "end2"});
  theme.face_ends = *Table::Make({"face", "end"});
  theme.outer_cycle = *Table::Make({"face", "end"});
  return theme;
}

ThematicInstance ToThematic(const InvariantData& data) {
  ThematicInstance theme = ThematicInstance::Empty();
  for (const auto& name : data.region_names) {
    (void)theme.regions.Insert({name});
  }
  for (size_t v = 0; v < data.vertices.size(); ++v) {
    (void)theme.vertices.Insert({VertexId(static_cast<int>(v))});
  }
  for (size_t e = 0; e < data.edges.size(); ++e) {
    (void)theme.edges.Insert({EdgeId(static_cast<int>(e))});
    (void)theme.endpoints.Insert({EdgeId(static_cast<int>(e)),
                                  VertexId(data.edges[e].v1),
                                  VertexId(data.edges[e].v2)});
  }
  for (size_t f = 0; f < data.faces.size(); ++f) {
    (void)theme.faces.Insert({FaceId(static_cast<int>(f))});
    if (data.faces[f].unbounded) {
      (void)theme.exterior_face.Insert({FaceId(static_cast<int>(f))});
    }
    if (data.faces[f].outer_cycle_dart >= 0) {
      (void)theme.outer_cycle.Insert(
          {FaceId(static_cast<int>(f)), EndId(data.faces[f].outer_cycle_dart)});
    }
  }
  for (int d = 0; d < data.num_darts(); ++d) {
    const int face = data.face_of_dart[d];
    (void)theme.face_ends.Insert({FaceId(face), EndId(d)});
    (void)theme.face_edges.Insert({FaceId(face), EdgeId(d / 2)});
    // Rotation around the origin vertex: ccw successors, plus the inverse
    // pairs tagged cw (the paper stores both orientations).
    const std::string vertex = VertexId(data.Origin(d));
    (void)theme.orientation.Insert(
        {kCcw, vertex, EndId(d), EndId(data.next_ccw[d])});
    (void)theme.orientation.Insert(
        {kCw, vertex, EndId(data.next_ccw[d]), EndId(d)});
  }
  for (size_t f = 0; f < data.faces.size(); ++f) {
    for (size_t r = 0; r < data.region_names.size(); ++r) {
      if (data.faces[f].label[r] == Sign::kInterior) {
        (void)theme.region_faces.Insert(
            {data.region_names[r], FaceId(static_cast<int>(f))});
      }
    }
  }
  return theme;
}

namespace {

// Index mapping from declared ids to dense indices, insisting that every
// referenced id was declared.
class IdIndex {
 public:
  explicit IdIndex(const Table& table, size_t column = 0) {
    for (const auto& row : table.rows()) {
      ids_.try_emplace(row[column], static_cast<int>(ids_.size()));
    }
  }

  Result<int> Lookup(const std::string& id) const {
    auto it = ids_.find(id);
    if (it == ids_.end()) return Status::InvalidInstance("unknown id " + id);
    return it->second;
  }

  size_t size() const { return ids_.size(); }

  const std::map<std::string, int>& ids() const { return ids_; }

 private:
  std::map<std::string, int> ids_;
};

}  // namespace

Result<InvariantData> FromThematic(const ThematicInstance& theme) {
  InvariantData data;
  for (const auto& row : theme.regions.rows()) {
    data.region_names.push_back(row[0]);
  }
  const size_t num_regions = data.region_names.size();
  IdIndex vertex_ids(theme.vertices);
  IdIndex edge_ids(theme.edges);
  IdIndex face_ids(theme.faces);
  data.vertices.assign(vertex_ids.size(),
                       InvariantData::Vertex{CellLabel(num_regions,
                                                       Sign::kExterior)});
  data.edges.assign(edge_ids.size(), InvariantData::Edge{});
  data.faces.assign(face_ids.size(), InvariantData::Face{});
  for (auto& edge : data.edges) {
    edge.label.assign(num_regions, Sign::kExterior);
  }
  for (auto& face : data.faces) {
    face.label.assign(num_regions, Sign::kExterior);
  }

  // Endpoints: exactly one row per edge.
  std::vector<bool> edge_seen(edge_ids.size(), false);
  for (const auto& row : theme.endpoints.rows()) {
    TOPODB_ASSIGN_OR_RETURN(int e, edge_ids.Lookup(row[0]));
    TOPODB_ASSIGN_OR_RETURN(int v1, vertex_ids.Lookup(row[1]));
    TOPODB_ASSIGN_OR_RETURN(int v2, vertex_ids.Lookup(row[2]));
    if (edge_seen[e]) {
      return Status::InvalidInstance("duplicate Endpoints row for " + row[0]);
    }
    edge_seen[e] = true;
    data.edges[e].v1 = v1;
    data.edges[e].v2 = v2;
  }
  for (size_t e = 0; e < edge_seen.size(); ++e) {
    if (!edge_seen[e]) {
      return Status::InvalidInstance("edge without Endpoints row");
    }
  }

  auto parse_end = [&](const std::string& id) -> Result<int> {
    if (id.size() < 2) return Status::InvalidInstance("bad end id " + id);
    const char side = id.back();
    if (side != '+' && side != '-') {
      return Status::InvalidInstance("bad end id " + id);
    }
    TOPODB_ASSIGN_OR_RETURN(int e,
                            edge_ids.Lookup(id.substr(0, id.size() - 1)));
    return 2 * e + (side == '+' ? 0 : 1);
  };

  // FaceEnds: exactly one face per end.
  data.face_of_dart.assign(2 * data.edges.size(), -1);
  for (const auto& row : theme.face_ends.rows()) {
    TOPODB_ASSIGN_OR_RETURN(int f, face_ids.Lookup(row[0]));
    TOPODB_ASSIGN_OR_RETURN(int d, parse_end(row[1]));
    if (data.face_of_dart[d] != -1) {
      return Status::InvalidInstance("end on two faces: " + row[1]);
    }
    data.face_of_dart[d] = f;
  }
  for (int f : data.face_of_dart) {
    if (f == -1) return Status::InvalidInstance("end without face");
  }

  // Orientation: the ccw rows must define a function on ends; cw rows must
  // be their inverse.
  data.next_ccw.assign(2 * data.edges.size(), -1);
  for (const auto& row : theme.orientation.rows()) {
    if (row[0] != kCcw) continue;
    TOPODB_ASSIGN_OR_RETURN(int v, vertex_ids.Lookup(row[1]));
    TOPODB_ASSIGN_OR_RETURN(int d1, parse_end(row[2]));
    TOPODB_ASSIGN_OR_RETURN(int d2, parse_end(row[3]));
    if (data.Origin(d1) != v || data.Origin(d2) != v) {
      return Status::InvalidInstance("orientation row not at its vertex");
    }
    if (data.next_ccw[d1] != -1) {
      return Status::InvalidInstance("orientation not functional at " +
                                     row[2]);
    }
    data.next_ccw[d1] = d2;
  }
  for (int n : data.next_ccw) {
    if (n == -1) return Status::InvalidInstance("end without ccw successor");
  }
  for (const auto& row : theme.orientation.rows()) {
    if (row[0] == kCcw) continue;
    if (row[0] != kCw) {
      return Status::InvalidInstance("unknown orientation tag " + row[0]);
    }
    TOPODB_ASSIGN_OR_RETURN(int d1, parse_end(row[2]));
    TOPODB_ASSIGN_OR_RETURN(int d2, parse_end(row[3]));
    if (data.next_ccw[d2] != d1) {
      return Status::InvalidInstance("cw relation is not the inverse of ccw");
    }
  }

  // Exterior face and outer cycles.
  if (theme.exterior_face.size() != 1) {
    return Status::InvalidInstance("ExteriorFace must have exactly one row");
  }
  TOPODB_ASSIGN_OR_RETURN(
      data.exterior_face,
      face_ids.Lookup(theme.exterior_face.rows().begin()->at(0)));
  for (size_t f = 0; f < data.faces.size(); ++f) {
    data.faces[f].unbounded = static_cast<int>(f) == data.exterior_face;
    data.faces[f].outer_cycle_dart = -1;
  }
  for (const auto& row : theme.outer_cycle.rows()) {
    TOPODB_ASSIGN_OR_RETURN(int f, face_ids.Lookup(row[0]));
    TOPODB_ASSIGN_OR_RETURN(int d, parse_end(row[1]));
    if (data.faces[f].outer_cycle_dart != -1) {
      return Status::InvalidInstance("two outer cycles for " + row[0]);
    }
    data.faces[f].outer_cycle_dart = d;
  }

  // FaceEdges must agree with FaceEnds.
  for (const auto& row : theme.face_edges.rows()) {
    TOPODB_ASSIGN_OR_RETURN(int f, face_ids.Lookup(row[0]));
    TOPODB_ASSIGN_OR_RETURN(int e, edge_ids.Lookup(row[1]));
    if (data.face_of_dart[2 * e] != f && data.face_of_dart[2 * e + 1] != f) {
      return Status::InvalidInstance("FaceEdges row contradicts FaceEnds");
    }
  }

  // Face labels from RegionFaces; edge and vertex labels derived.
  std::map<std::string, int> region_index;
  for (size_t r = 0; r < num_regions; ++r) {
    region_index[data.region_names[r]] = static_cast<int>(r);
  }
  for (const auto& row : theme.region_faces.rows()) {
    auto it = region_index.find(row[0]);
    if (it == region_index.end()) {
      return Status::InvalidInstance("RegionFaces names unknown region " +
                                     row[0]);
    }
    TOPODB_ASSIGN_OR_RETURN(int f, face_ids.Lookup(row[1]));
    data.faces[f].label[it->second] = Sign::kInterior;
  }
  for (size_t e = 0; e < data.edges.size(); ++e) {
    const CellLabel& left = data.faces[data.face_of_dart[2 * e]].label;
    const CellLabel& right = data.faces[data.face_of_dart[2 * e + 1]].label;
    for (size_t r = 0; r < num_regions; ++r) {
      data.edges[e].label[r] =
          left[r] != right[r] ? Sign::kBoundary : left[r];
    }
  }
  {
    std::vector<std::vector<int>> edges_at(data.vertices.size());
    for (size_t e = 0; e < data.edges.size(); ++e) {
      edges_at[data.edges[e].v1].push_back(static_cast<int>(e));
      edges_at[data.edges[e].v2].push_back(static_cast<int>(e));
    }
    for (size_t v = 0; v < data.vertices.size(); ++v) {
      for (size_t r = 0; r < num_regions; ++r) {
        Sign sign = Sign::kExterior;
        bool boundary = false;
        for (int e : edges_at[v]) {
          if (data.edges[e].label[r] == Sign::kBoundary) boundary = true;
          else sign = data.edges[e].label[r];
        }
        data.vertices[v].label[r] = boundary ? Sign::kBoundary : sign;
      }
    }
  }
  TOPODB_RETURN_NOT_OK(data.CheckWellFormed());
  return data;
}

Status ValidateThematic(const ThematicInstance& theme) {
  TOPODB_ASSIGN_OR_RETURN(InvariantData data, FromThematic(theme));
  return ValidateInvariant(data);
}

std::string ThematicInstance::DebugString() const {
  std::ostringstream os;
  os << "Regions:\n" << regions.DebugString();
  os << "Vertices:\n" << vertices.DebugString();
  os << "Edges:\n" << edges.DebugString();
  os << "Faces:\n" << faces.DebugString();
  os << "Exterior-face:\n" << exterior_face.DebugString();
  os << "Endpoints:\n" << endpoints.DebugString();
  os << "Face-Edges:\n" << face_edges.DebugString();
  os << "Region-Faces:\n" << region_faces.DebugString();
  os << "Orientation:\n" << orientation.DebugString();
  return os.str();
}

}  // namespace topodb
