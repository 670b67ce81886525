#ifndef TOPODB_GEOM_POLYGON_H_
#define TOPODB_GEOM_POLYGON_H_

#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/geom/box.h"
#include "src/geom/point.h"

namespace topodb {

// Where a point lies relative to a (closed) polygonal region.
enum class PointLocation {
  kInterior,
  kBoundary,
  kExterior,
};

// A polygon given by its vertex cycle (no repeated closing vertex). The
// paper's Poly regions are *simple* polygons — non-self-intersecting
// boundary — which Validate() enforces. Vertex order may be clockwise or
// counterclockwise; Normalize() makes it counterclockwise.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices)
      : vertices_(std::move(vertices)) {}

  const std::vector<Point>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }
  const Point& vertex(size_t i) const { return vertices_[i]; }

  // Twice the signed area (exact rational shoelace sum); positive iff
  // counterclockwise. Validate, Normalize and Locate do not use it.
  Rational SignedArea2() const;

  bool IsCounterClockwise() const { return SignedArea2().sign() > 0; }

  // Reverses orientation if needed so the cycle is counterclockwise.
  // Requires a simple polygon (one that passes Validate): the orientation
  // is read from the turn at the lexicographically smallest vertex, which
  // only a simple polygon guarantees to carry the sign of the area. On any
  // other cycle the resulting order is unspecified.
  void Normalize();

  // Checks the polygon is simple: >= 3 vertices, no repeated vertices, no
  // zero-length or collinear-overlapping edges, and non-adjacent edges do
  // not touch. Returns a descriptive InvalidArgument otherwise; the checks
  // run in that order, pairs of edges in index order, and the first
  // failure names the error. Every sign is decided by the filtered
  // predicates (exact decisions, src/geom/predicates.h): adjacent edges
  // by one Orientation, other pairs by IntersectSegments.
  Status Validate() const;

  // Exact point location by crossing number (handles vertices and
  // horizontal edges exactly; no epsilons). Requires >= 3 vertices; a
  // simple polygon gives the usual inside/outside meaning.
  PointLocation Locate(const Point& p) const;

  Box BoundingBox() const;

  // A point in the interior (centroid of an ear); requires a valid simple
  // polygon.
  Point InteriorPoint() const;

 private:
  std::vector<Point> vertices_;
};

// Polygon::Locate on a bare vertex cycle (>= 3 vertices, no repeated
// closing vertex), for callers that hold the cycle in another container.
// Each crossing is decided by one filtered Orientation.
PointLocation LocateInCycle(std::span<const Point> vertices, const Point& p);

}  // namespace topodb

#endif  // TOPODB_GEOM_POLYGON_H_
