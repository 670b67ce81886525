#include "src/geom/polygon.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/geom/predicates.h"

namespace topodb {

Rational Polygon::SignedArea2() const {
  Rational area(0);
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    area += Cross(a, b);
  }
  return area;
}

namespace {

// Sign of the turn at the lexicographically smallest vertex (the first one,
// should it repeat). That vertex lies on the convex hull, so on a simple
// polygon the turn is nonzero — a straight corner there would put a
// neighbour lexicographically lower — and it has the sign of the polygon's
// area. One filtered Orientation replaces the rational shoelace sum.
int TurnAtLowestVertex(const std::vector<Point>& v) {
  const size_t n = v.size();
  size_t low = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < v[low]) low = i;
  }
  return Orientation(v[(low + n - 1) % n], v[low], v[(low + 1) % n]);
}

}  // namespace

void Polygon::Normalize() {
  if (vertices_.size() >= 3 && TurnAtLowestVertex(vertices_) < 0) {
    std::reverse(vertices_.begin(), vertices_.end());
  }
}

Status Polygon::Validate() const {
  const size_t n = vertices_.size();
  if (n < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  for (size_t i = 0; i < n; ++i) {
    if (vertices_[i] == vertices_[(i + 1) % n]) {
      return Status::InvalidArgument("polygon has a zero-length edge");
    }
  }
  // Pairwise edge checks. Adjacent edges may share exactly their common
  // vertex; all other contact makes the polygon non-simple.
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    for (size_t j = i + 1; j < n; ++j) {
      const Point& c = vertices_[j];
      const Point& d = vertices_[(j + 1) % n];
      const bool consecutive = (j == i + 1);
      const bool wraparound = (i == 0 && j == n - 1);
      // Adjacent edges always touch at their shared vertex, so the segment
      // test could never reject them and would build that rational point.
      // Unless the two edges are collinear, the shared vertex is all they
      // have in common: one turn sign settles the pair.
      if (consecutive && Orientation(a, b, d) != 0) continue;
      if (wraparound && Orientation(c, a, b) != 0) continue;
      SegmentIntersection isect = IntersectSegments(a, b, c, d);
      if (isect.kind == SegmentIntersection::Kind::kNone) continue;
      if (isect.kind == SegmentIntersection::Kind::kOverlap) {
        return Status::InvalidArgument("polygon edges overlap");
      }
      if (consecutive && isect.p0 == b) continue;
      if (wraparound && isect.p0 == a) continue;
      return Status::InvalidArgument("polygon boundary self-intersects");
    }
  }
  if (TurnAtLowestVertex(vertices_) == 0) {
    return Status::InvalidArgument("polygon has zero area");
  }
  return Status::OK();
}

PointLocation LocateInCycle(std::span<const Point> vertices,
                            const Point& p) {
  const size_t n = vertices.size();
  TOPODB_CHECK(n >= 3);
  // Boundary first: exact.
  for (size_t i = 0; i < n; ++i) {
    if (OnSegment(p, vertices[i], vertices[(i + 1) % n])) {
      return PointLocation::kBoundary;
    }
  }
  // Crossing number of a leftward horizontal ray, counting edges that cross
  // the horizontal line through p strictly. Standard upward-crossing rule
  // avoids double counting at vertices: an edge (a, b) is counted iff
  // exactly one endpoint is strictly above the ray line, and the edge
  // crosses to the left of p.
  int crossings = 0;
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices[i];
    const Point& b = vertices[(i + 1) % n];
    const bool a_above = a.y > p.y;
    const bool b_above = b.y > p.y;
    if (a_above == b_above) continue;  // Both on one side (or horizontal).
    // The edge crosses left of p iff p lies right of the edge directed
    // upward. p is not on the edge (boundary handled above) and the edge
    // spans p's height, so the turn is nonzero.
    const int turn = Orientation(a, b, p);
    if (b_above ? turn < 0 : turn > 0) ++crossings;
  }
  return (crossings % 2 == 1) ? PointLocation::kInterior
                              : PointLocation::kExterior;
}

PointLocation Polygon::Locate(const Point& p) const {
  return LocateInCycle(vertices_, p);
}

Box Polygon::BoundingBox() const {
  TOPODB_CHECK(!vertices_.empty());
  Box box = Box::FromPoints(vertices_[0], vertices_[0]);
  for (const Point& p : vertices_) {
    box = box.Union(Box::FromPoints(p, p));
  }
  return box;
}

Point Polygon::InteriorPoint() const {
  const size_t n = vertices_.size();
  TOPODB_CHECK(n >= 3);
  Polygon ccw = *this;
  ccw.Normalize();
  const std::vector<Point>& v = ccw.vertices();
  // Ear-style search: for each convex corner b, try the centroid of
  // (a, b, c); it is interior unless another vertex invades the ear, in
  // which case the midpoint of b and the closest invading vertex works.
  for (size_t i = 0; i < n; ++i) {
    const Point& a = v[(i + n - 1) % n];
    const Point& b = v[i];
    const Point& c = v[(i + 1) % n];
    if (Orientation(a, b, c) <= 0) continue;  // Reflex or straight corner.
    // Closest vertex strictly inside triangle (a, b, c), by distance to b.
    bool found_inside = false;
    Point best;
    Rational best_d2;
    for (size_t j = 0; j < n; ++j) {
      const Point& q = v[j];
      if (q == a || q == b || q == c) continue;
      if (Orientation(a, b, q) > 0 && Orientation(b, c, q) > 0 &&
          Orientation(c, a, q) > 0) {
        Rational d2 = Dot(q - b, q - b);
        if (!found_inside || d2 < best_d2) {
          found_inside = true;
          best = q;
          best_d2 = d2;
        }
      }
    }
    Point candidate;
    if (!found_inside) {
      candidate = Point((a.x + b.x + c.x) / Rational(3),
                        (a.y + b.y + c.y) / Rational(3));
    } else {
      candidate = Point((b.x + best.x) / Rational(2),
                        (b.y + best.y) / Rational(2));
    }
    if (Locate(candidate) == PointLocation::kInterior) return candidate;
  }
  TOPODB_UNREACHABLE();
}

}  // namespace topodb
