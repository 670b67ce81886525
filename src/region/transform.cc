#include "src/region/transform.h"

#include <algorithm>

#include "src/base/check.h"

namespace topodb {

namespace {

// Subdivides segment [a, b] at every point where x crosses a value in xs or
// y crosses a value in ys; appends the interior subdivision points and b
// (but not a) to out, in order along the segment.
void SubdivideEdge(const Point& a, const Point& b,
                   const std::vector<Rational>& xs,
                   const std::vector<Rational>& ys,
                   std::vector<Point>* out) {
  // Parameters t in (0,1) where a + t (b - a) hits a breakpoint line.
  std::vector<Rational> ts;
  const Rational dx = b.x - a.x;
  const Rational dy = b.y - a.y;
  for (const Rational& x : xs) {
    if (dx.is_zero()) continue;
    Rational t = (x - a.x) / dx;
    if (t > Rational(0) && t < Rational(1)) ts.push_back(t);
  }
  for (const Rational& y : ys) {
    if (dy.is_zero()) continue;
    Rational t = (y - a.y) / dy;
    if (t > Rational(0) && t < Rational(1)) ts.push_back(t);
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  for (const Rational& t : ts) {
    out->push_back(Point(a.x + dx * t, a.y + dy * t));
  }
  out->push_back(b);
}

}  // namespace

Polygon Transform::ApplyToPolygon(const Polygon& poly) const {
  const std::vector<Rational> xs = XBreakpoints();
  const std::vector<Rational> ys = YBreakpoints();
  std::vector<Point> subdivided;
  const size_t n = poly.size();
  for (size_t i = 0; i < n; ++i) {
    if (subdivided.empty()) subdivided.push_back(poly.vertex(i));
    SubdivideEdge(poly.vertex(i), poly.vertex((i + 1) % n), xs, ys,
                  &subdivided);
  }
  if (!subdivided.empty()) subdivided.pop_back();  // Closing vertex repeat.
  std::vector<Point> mapped;
  mapped.reserve(subdivided.size());
  for (const Point& p : subdivided) mapped.push_back(Apply(p));
  // Drop collinear chain vertices introduced by subdivision when the map
  // turned out affine across the breakpoint.
  std::vector<Point> cleaned;
  const size_t m = mapped.size();
  for (size_t i = 0; i < m; ++i) {
    const Point& prev = mapped[(i + m - 1) % m];
    const Point& cur = mapped[i];
    const Point& next = mapped[(i + 1) % m];
    if (Cross(cur - prev, next - cur).is_zero() &&
        Dot(cur - prev, next - cur).sign() > 0) {
      continue;  // Interior point of a straight run.
    }
    cleaned.push_back(cur);
  }
  Polygon result(std::move(cleaned));
  result.Normalize();
  return result;
}

Result<Region> Transform::ApplyToRegion(const Region& region) const {
  Polygon image = ApplyToPolygon(region.boundary());
  const RegionClass cls = Region::Classify(image);
  return Region::Make(std::move(image), cls);
}

Result<SpatialInstance> Transform::ApplyToInstance(
    const SpatialInstance& in) const {
  SpatialInstance out;
  for (const auto& [name, region] : in.regions()) {
    TOPODB_ASSIGN_OR_RETURN(Region image, ApplyToRegion(region));
    TOPODB_RETURN_NOT_OK(out.AddRegion(name, std::move(image)));
  }
  return out;
}

Result<AffineTransform> AffineTransform::Make(Rational a, Rational b,
                                              Rational c, Rational d,
                                              Rational e, Rational f) {
  if ((a * e - b * d).is_zero()) {
    return Status::InvalidArgument("affine map is singular");
  }
  return AffineTransform(std::move(a), std::move(b), std::move(c),
                         std::move(d), std::move(e), std::move(f));
}

AffineTransform AffineTransform::Identity() {
  return AffineTransform(1, 0, 0, 0, 1, 0);
}

AffineTransform AffineTransform::Translation(const Rational& dx,
                                             const Rational& dy) {
  return AffineTransform(1, 0, dx, 0, 1, dy);
}

AffineTransform AffineTransform::Scale(const Rational& sx,
                                       const Rational& sy) {
  TOPODB_CHECK(!sx.is_zero() && !sy.is_zero());
  return AffineTransform(sx, 0, 0, 0, sy, 0);
}

AffineTransform AffineTransform::MirrorX() {
  return AffineTransform(-1, 0, 0, 0, 1, 0);
}

Point AffineTransform::Apply(const Point& p) const {
  return Point(a_ * p.x + b_ * p.y + c_, d_ * p.x + e_ * p.y + f_);
}

AffineTransform AffineTransform::Compose(const AffineTransform& o) const {
  return AffineTransform(a_ * o.a_ + b_ * o.d_, a_ * o.b_ + b_ * o.e_,
                         a_ * o.c_ + b_ * o.f_ + c_, d_ * o.a_ + e_ * o.d_,
                         d_ * o.b_ + e_ * o.e_, d_ * o.c_ + e_ * o.f_ + f_);
}

MonotonePl1D::MonotonePl1D() = default;

Result<MonotonePl1D> MonotonePl1D::Make(std::vector<Rational> xs,
                                        std::vector<Rational> ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("breakpoint arity mismatch");
  }
  for (size_t i = 1; i < xs.size(); ++i) {
    if (!(xs[i - 1] < xs[i])) {
      return Status::InvalidArgument("breakpoints must be increasing");
    }
  }
  bool increasing = true;
  if (ys.size() >= 2) {
    increasing = ys[0] < ys[1];
    for (size_t i = 1; i < ys.size(); ++i) {
      const bool step_up = ys[i - 1] < ys[i];
      if (ys[i - 1] == ys[i] || step_up != increasing) {
        return Status::InvalidArgument("values must be strictly monotone");
      }
    }
  }
  MonotonePl1D map;
  map.xs_ = std::move(xs);
  map.ys_ = std::move(ys);
  map.increasing_ = increasing;
  return map;
}

Rational MonotonePl1D::Apply(const Rational& x) const {
  if (xs_.empty()) return x;
  if (xs_.size() == 1) {
    // Unit slope through the single anchor point.
    return increasing_ ? ys_[0] + (x - xs_[0]) : ys_[0] - (x - xs_[0]);
  }
  // Segment index: extrapolate with the first/last slope outside the range.
  size_t hi = 1;
  while (hi + 1 < xs_.size() && x > xs_[hi]) ++hi;
  const Rational& x0 = xs_[hi - 1];
  const Rational& x1 = xs_[hi];
  const Rational& y0 = ys_[hi - 1];
  const Rational& y1 = ys_[hi];
  return y0 + (x - x0) * (y1 - y0) / (x1 - x0);
}

Point SymmetryTransform::Apply(const Point& p) const {
  const Rational& u = swap_ ? p.y : p.x;
  const Rational& v = swap_ ? p.x : p.y;
  return Point(rho1_.Apply(u), rho2_.Apply(v));
}

std::vector<Rational> SymmetryTransform::XBreakpoints() const {
  return swap_ ? rho2_.breakpoints() : rho1_.breakpoints();
}

std::vector<Rational> SymmetryTransform::YBreakpoints() const {
  return swap_ ? rho1_.breakpoints() : rho2_.breakpoints();
}

Result<TwoPieceLinearTransform> TwoPieceLinearTransform::Make(
    Rational x1, AffineTransform lambda1, AffineTransform lambda2) {
  // Continuity on the seam x == x1: check two distinct points.
  Point seam0(x1, Rational(0));
  Point seam1(x1, Rational(1));
  if (lambda1.Apply(seam0) != lambda2.Apply(seam0) ||
      lambda1.Apply(seam1) != lambda2.Apply(seam1)) {
    return Status::InvalidArgument("pieces disagree on the seam line");
  }
  if (lambda1.Determinant().sign() != lambda2.Determinant().sign()) {
    return Status::InvalidArgument("pieces have opposite orientations");
  }
  return TwoPieceLinearTransform(std::move(x1), std::move(lambda1),
                                 std::move(lambda2));
}

Point TwoPieceLinearTransform::Apply(const Point& p) const {
  return p.x <= x1_ ? lambda1_.Apply(p) : lambda2_.Apply(p);
}

}  // namespace topodb
