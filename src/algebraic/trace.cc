#include "src/algebraic/trace.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/base/check.h"

namespace topodb {

namespace {

// Crossing point on the segment from positive corner a to non-positive
// corner b, by linear interpolation of the exact values.
Point Interpolate(const Point& a, const Rational& va, const Point& b,
                  const Rational& vb) {
  // va > 0 >= vb, so the denominator is positive.
  const Rational t = va / (va - vb);
  return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t);
}

}  // namespace

Result<Region> TraceAlgebraicRegion(const Polynomial2& p, const Box& box,
                                    int resolution) {
  if (resolution < 2) {
    return Status::InvalidArgument("resolution must be at least 2");
  }
  const int n = resolution;
  const Rational dx = (box.max.x - box.min.x) / Rational(n);
  const Rational dy = (box.max.y - box.min.y) / Rational(n);
  if (dx.sign() <= 0 || dy.sign() <= 0) {
    return Status::InvalidArgument("degenerate trace box");
  }
  // Corner coordinates and exact values.
  std::vector<Rational> xs(n + 1), ys(n + 1);
  for (int i = 0; i <= n; ++i) {
    xs[i] = box.min.x + dx * Rational(i);
    ys[i] = box.min.y + dy * Rational(i);
  }
  std::vector<std::vector<Rational>> value(
      n + 1, std::vector<Rational>(n + 1));
  std::vector<std::vector<bool>> inside(n + 1, std::vector<bool>(n + 1));
  bool any_inside = false;
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      value[i][j] = p.Evaluate(Point(xs[i], ys[j]));
      inside[i][j] = value[i][j].sign() > 0;  // Zero counts as outside.
      any_inside = any_inside || inside[i][j];
    }
  }
  if (!any_inside) {
    return Status::InvalidArgument(
        "positive set not visible at this resolution");
  }
  // The region must be clear of the box boundary.
  for (int i = 0; i <= n; ++i) {
    if (inside[i][0] || inside[i][n] || inside[0][i] || inside[n][i]) {
      return Status::InvalidArgument("positive set touches the trace box");
    }
  }
  // Marching squares: emit boundary segments per cell.
  std::vector<std::pair<Point, Point>> segments;
  auto corner = [&](int i, int j) { return Point(xs[i], ys[j]); };
  auto cross = [&](int i1, int j1, int i2, int j2) {
    const bool a_in = inside[i1][j1];
    const int ai = a_in ? i1 : i2;
    const int aj = a_in ? j1 : j2;
    const int bi = a_in ? i2 : i1;
    const int bj = a_in ? j2 : j1;
    return Interpolate(corner(ai, aj), value[ai][aj], corner(bi, bj),
                       value[bi][bj]);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      // Corners: 1 = (i,j), 2 = (i+1,j), 4 = (i+1,j+1), 8 = (i,j+1).
      int mask = 0;
      if (inside[i][j]) mask |= 1;
      if (inside[i + 1][j]) mask |= 2;
      if (inside[i + 1][j + 1]) mask |= 4;
      if (inside[i][j + 1]) mask |= 8;
      if (mask == 0 || mask == 15) continue;
      const Point bottom = (mask & 1) != ((mask >> 1) & 1)
                               ? cross(i, j, i + 1, j)
                               : Point();
      const Point right = ((mask >> 1) & 1) != ((mask >> 2) & 1)
                              ? cross(i + 1, j, i + 1, j + 1)
                              : Point();
      const Point top = ((mask >> 2) & 1) != ((mask >> 3) & 1)
                            ? cross(i + 1, j + 1, i, j + 1)
                            : Point();
      const Point left = ((mask >> 3) & 1) != (mask & 1)
                             ? cross(i, j + 1, i, j)
                             : Point();
      switch (mask) {
        case 1: case 14: segments.emplace_back(bottom, left); break;
        case 2: case 13: segments.emplace_back(bottom, right); break;
        case 4: case 11: segments.emplace_back(right, top); break;
        case 8: case 7:  segments.emplace_back(top, left); break;
        case 3: case 12: segments.emplace_back(left, right); break;
        case 6: case 9:  segments.emplace_back(bottom, top); break;
        case 5: case 10: {
          // Saddle: resolve with the exact center sign.
          const Point center(xs[i] + dx / Rational(2),
                             ys[j] + dy / Rational(2));
          const bool center_in = p.SignAt(center) > 0;
          const bool diag_in = (mask == 5) == center_in;
          if (diag_in) {
            // Connect bottom-right and top-left corners' separations.
            segments.emplace_back(bottom, right);
            segments.emplace_back(top, left);
          } else {
            segments.emplace_back(bottom, left);
            segments.emplace_back(right, top);
          }
          break;
        }
        default: TOPODB_UNREACHABLE();
      }
    }
  }
  // Chain the segments into one closed curve.
  std::map<Point, std::vector<Point>> adjacency;
  for (const auto& [a, b] : segments) {
    if (a == b) {
      return Status::InvalidArgument("degenerate boundary at grid contact");
    }
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  for (const auto& [point, nbrs] : adjacency) {
    if (nbrs.size() != 2) {
      return Status::InvalidArgument(
          "boundary is not a disjoint union of closed curves at this "
          "resolution");
    }
  }
  std::vector<Point> polygon;
  const Point start = adjacency.begin()->first;
  Point prev = start;
  Point cur = adjacency[start][0];
  polygon.push_back(start);
  while (cur != start) {
    polygon.push_back(cur);
    const std::vector<Point>& nbrs = adjacency[cur];
    Point next = nbrs[0] == prev ? nbrs[1] : nbrs[0];
    prev = cur;
    cur = next;
    if (polygon.size() > segments.size() + 1) {
      return Status::Internal("boundary walk did not close");
    }
  }
  if (polygon.size() != segments.size()) {
    return Status::InvalidArgument(
        "positive set has multiple boundary curves (not a disc) at this "
        "resolution");
  }
  Polygon boundary(std::move(polygon));
  TOPODB_RETURN_NOT_OK(boundary.Validate());
  boundary.Normalize();
  // The polygon interior must really be the positive side.
  if (p.SignAt(boundary.InteriorPoint()) <= 0) {
    return Status::InvalidArgument(
        "traced polygon does not enclose the positive set");
  }
  return Region::Make(std::move(boundary), RegionClass::kAlg);
}

Result<Region> CircleRegion(const Point& center, const Rational& radius,
                            int segments) {
  if (radius.sign() <= 0) {
    return Status::InvalidArgument("radius must be positive");
  }
  const int m = std::max(3, segments / 4);
  std::vector<Point> points;
  // Right half via the tangent half-angle parametrization: t in [-1, 1]
  // sweeps from (0, -r) through (r, 0) to (0, r), all points exactly on
  // the circle.
  auto on_circle = [&](const Rational& t, bool mirror) {
    const Rational t2 = t * t;
    const Rational denom = Rational(1) + t2;
    Rational x = radius * (Rational(1) - t2) / denom;
    const Rational y = radius * (t + t) / denom;
    if (mirror) x = -x;
    return Point(center.x + x, center.y + y);
  };
  for (int k = -m; k <= m; ++k) {
    points.push_back(on_circle(Rational(k, m), false));
  }
  for (int k = m - 1; k >= -m + 1; --k) {
    points.push_back(on_circle(Rational(k, m), true));
  }
  return Region::Make(Polygon(std::move(points)), RegionClass::kAlg);
}

}  // namespace topodb
