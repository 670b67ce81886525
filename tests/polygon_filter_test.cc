// Differential test for the polygon operations that decide every sign with
// the filtered predicates (DESIGN.md §5e): Polygon::Validate, Normalize and
// Locate are held against reference versions that keep the original
// rational formulation — IntersectSegmentsExact on every edge pair, the
// shoelace area, and the crossing test as a product of rationals. Each
// input family runs under both predicate modes, plain and under a 2^64
// affine stretch, so the code the exact mode shares with the filtered one
// is checked as well.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/base/status.h"
#include "src/geom/point.h"
#include "src/geom/polygon.h"
#include "src/geom/predicates.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// --- Reference implementations: rational arithmetic throughout -----------

Rational ReferenceArea2(const std::vector<Point>& v) {
  Rational area(0);
  for (size_t i = 0; i < v.size(); ++i) {
    area += Cross(v[i], v[(i + 1) % v.size()]);
  }
  return area;
}

Status ReferenceValidate(const std::vector<Point>& v) {
  const size_t n = v.size();
  if (n < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  for (size_t i = 0; i < n; ++i) {
    if (v[i] == v[(i + 1) % n]) {
      return Status::InvalidArgument("polygon has a zero-length edge");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % n];
    for (size_t j = i + 1; j < n; ++j) {
      const SegmentIntersection isect =
          IntersectSegmentsExact(a, b, v[j], v[(j + 1) % n]);
      if (isect.kind == SegmentIntersection::Kind::kNone) continue;
      if (isect.kind == SegmentIntersection::Kind::kOverlap) {
        return Status::InvalidArgument("polygon edges overlap");
      }
      if (j == i + 1 && isect.p0 == b) continue;
      if (i == 0 && j == n - 1 && isect.p0 == a) continue;
      return Status::InvalidArgument("polygon boundary self-intersects");
    }
  }
  if (ReferenceArea2(v).is_zero()) {
    return Status::InvalidArgument("polygon has zero area");
  }
  return Status::OK();
}

std::vector<Point> ReferenceNormalize(std::vector<Point> v) {
  if (ReferenceArea2(v).sign() < 0) std::reverse(v.begin(), v.end());
  return v;
}

PointLocation ReferenceLocate(const std::vector<Point>& v, const Point& p) {
  const size_t n = v.size();
  for (size_t i = 0; i < n; ++i) {
    if (OnSegmentExact(p, v[i], v[(i + 1) % n])) {
      return PointLocation::kBoundary;
    }
  }
  int crossings = 0;
  for (size_t i = 0; i < n; ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % n];
    if ((a.y > p.y) == (b.y > p.y)) continue;
    // x_cross < p.x, cross-multiplied by dy = b.y - a.y.
    const Rational dy = b.y - a.y;
    const Rational lhs = (p.y - a.y) * (b.x - a.x) + a.x * dy;
    const Rational rhs = p.x * dy;
    if (dy.sign() > 0 ? lhs < rhs : lhs > rhs) ++crossings;
  }
  return (crossings % 2 == 1) ? PointLocation::kInterior
                              : PointLocation::kExterior;
}

// --- Inputs ----------------------------------------------------------------

// Uniform in [lo, hi].
int64_t Range(SplitMix64& rng, int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
  return lo + static_cast<int64_t>(rng.Below(span));
}

using Ring = std::vector<Point>;

// An x-monotone polygon over 2-6 distinct columns: a lower chain left to
// right under an upper chain right to left. Always simple; equal heights
// give straight corners. Starts at a random vertex and is reversed half
// the time.
Ring MonotonePolygon(SplitMix64& rng) {
  std::vector<int64_t> xs;
  for (int64_t x = 0; x <= 12; ++x) {
    if (Range(rng, 0, 2) == 0) xs.push_back(x);
  }
  while (xs.size() < 2) xs.push_back(13 + static_cast<int64_t>(xs.size()));
  if (xs.size() > 6) xs.resize(6);
  Ring ring;
  for (int64_t x : xs) ring.push_back(Point(x, Range(rng, 0, 4)));
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    ring.push_back(Point(*it, Range(rng, 5, 9)));
  }
  if (Range(rng, 0, 1) == 0) std::reverse(ring.begin(), ring.end());
  const size_t start = static_cast<size_t>(Range(rng, 0, 99)) % ring.size();
  std::rotate(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(start),
              ring.end());
  return ring;
}

// A random affine image with small integer coefficients (translation,
// scale, axis swap and reflection), so each template appears in many
// positions and both orientations.
Ring Jiggle(const Ring& ring, SplitMix64& rng) {
  const int64_t dx = Range(rng, -5, 5), dy = Range(rng, -5, 5);
  const int64_t scale = Range(rng, 1, 3);
  const bool swap = Range(rng, 0, 1) == 1;
  const bool flip = Range(rng, 0, 1) == 1;
  Ring out;
  for (const Point& p : ring) {
    Rational x = p.x * Rational(scale), y = p.y * Rational(scale);
    if (swap) std::swap(x, y);
    if (flip) x = -x;
    out.push_back(Point(x + Rational(dx), y + Rational(dy)));
  }
  const size_t shift = static_cast<size_t>(Range(rng, 0, 7)) % out.size();
  std::rotate(out.begin(), out.begin() + shift, out.end());
  return out;
}

// The exactness ablation's 2^64 affine map: (x S/3 + 7y/S, y S/5 + 1/3).
Point Stretch(const Point& p) {
  const BigInt s = BigInt(1).ShiftLeft(64);
  return Point(p.x * Rational(s, BigInt(3)) + p.y * Rational(BigInt(7), s),
               p.y * Rational(s, BigInt(5)) + Rational(1, 3));
}

Ring StretchRing(const Ring& ring) {
  Ring out;
  for (const Point& p : ring) out.push_back(Stretch(p));
  return out;
}

std::string Describe(const Ring& ring) {
  std::string out;
  for (const Point& p : ring) out += p.ToString();
  return out;
}

// Probe points for Locate: every vertex, two points on every edge, and
// random half-integer points over the ring's bounding box grown by one.
std::vector<Point> Probes(const Ring& ring, SplitMix64& rng) {
  std::vector<Point> probes = ring;
  Rational xlo = ring[0].x, xhi = ring[0].x, ylo = ring[0].y, yhi = ring[0].y;
  for (size_t i = 0; i < ring.size(); ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1) % ring.size()];
    probes.push_back(a + (b - a) * Rational(1, 2));
    probes.push_back(a + (b - a) * Rational(1, 3));
    xlo = Rational::Min(xlo, a.x);
    xhi = Rational::Max(xhi, a.x);
    ylo = Rational::Min(ylo, a.y);
    yhi = Rational::Max(yhi, a.y);
  }
  // Integer part (toward zero) of a small coordinate.
  const auto whole = [](const Rational& r) {
    int64_t num = 0, den = 1;
    EXPECT_TRUE(r.num().ToInt64(&num) && r.den().ToInt64(&den));
    return num / den;
  };
  const int64_t x0 = whole(xlo) - 1, x1 = whole(xhi) + 1;
  const int64_t y0 = whole(ylo) - 1, y1 = whole(yhi) + 1;
  for (int k = 0; k < 24; ++k) {
    probes.push_back(Point(Rational(Range(rng, 2 * x0, 2 * x1), 2),
                           Rational(Range(rng, 2 * y0, 2 * y1), 2)));
  }
  return probes;
}

// Outcome counts for one family, so each test can assert it reached the
// cases it exists for.
struct Tally {
  std::map<std::string, int> validate;  // "ok" or the error message.
  std::map<PointLocation, int> locate;
};

template <typename Map, typename Key>
int Seen(const Map& counts, const Key& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

// Compares the library with the references on one ring and its probes.
void CheckRing(const Ring& ring, const std::vector<Point>& probes,
               Tally* tally) {
  const Polygon poly(ring);
  const Status got = poly.Validate();
  const Status want = ReferenceValidate(ring);
  EXPECT_EQ(got.code(), want.code()) << Describe(ring);
  EXPECT_EQ(got.message(), want.message()) << Describe(ring);
  ++tally->validate[want.ok() ? "ok" : want.message()];
  if (!want.ok()) return;
  Polygon normalized = poly;
  normalized.Normalize();
  EXPECT_EQ(normalized.vertices(), ReferenceNormalize(ring)) << Describe(ring);
  for (const Point& p : probes) {
    const PointLocation expected = ReferenceLocate(ring, p);
    EXPECT_EQ(poly.Locate(p), expected)
        << Describe(ring) << " at " << p.ToString();
    ++tally->locate[expected];
  }
}

// Runs a family under both predicate modes, plain and stretched; returns
// the tally of the plain filtered pass (every pass sees the same rings).
template <typename Generator>
Tally RunFamily(uint64_t seed, int count, Generator&& generate) {
  Tally result;
  for (const PredicateMode mode :
       {PredicateMode::kFiltered, PredicateMode::kExact}) {
    for (const bool stretched : {false, true}) {
      ScopedPredicateMode scoped(mode);
      SplitMix64 rng(seed);
      Tally tally;
      for (int i = 0; i < count; ++i) {
        const Ring ring = generate(rng);
        std::vector<Point> probes = Probes(ring, rng);
        if (!stretched) {
          CheckRing(ring, probes, &tally);
          continue;
        }
        for (Point& p : probes) p = Stretch(p);
        CheckRing(StretchRing(ring), probes, &tally);
      }
      // An affine map preserves validity and point location.
      if (mode == PredicateMode::kFiltered && !stretched) result = tally;
      EXPECT_EQ(tally.validate, result.validate);
      EXPECT_EQ(tally.locate, result.locate);
    }
  }
  return result;
}

const char kOk[] = "ok";
const char kZeroLength[] = "polygon has a zero-length edge";
const char kOverlap[] = "polygon edges overlap";
const char kSelfIntersects[] = "polygon boundary self-intersects";

TEST(PolygonFilterTest, MonotoneSimplePolygons) {
  const Tally tally = RunFamily(0x1001, 150, MonotonePolygon);
  EXPECT_EQ(Seen(tally.validate, kOk), 150);
  EXPECT_GT(Seen(tally.locate, PointLocation::kInterior), 0);
  EXPECT_GT(Seen(tally.locate, PointLocation::kExterior), 0);
  EXPECT_GT(Seen(tally.locate, PointLocation::kBoundary), 0);
}

TEST(PolygonFilterTest, RandomGridPolygons) {
  // 2-7 vertices on a 5x5 grid: mostly non-simple, with every error kind.
  const Tally tally = RunFamily(0x1002, 400, [](SplitMix64& rng) {
    Ring ring;
    const int64_t n = Range(rng, 2, 7);
    for (int64_t i = 0; i < n; ++i) {
      ring.push_back(Point(Range(rng, 0, 4), Range(rng, 0, 4)));
    }
    return ring;
  });
  EXPECT_GT(Seen(tally.validate, kOk), 0);
  EXPECT_GT(Seen(tally.validate, "polygon needs at least 3 vertices"), 0);
  EXPECT_GT(Seen(tally.validate, kZeroLength), 0);
  EXPECT_GT(Seen(tally.validate, kOverlap), 0);
  EXPECT_GT(Seen(tally.validate, kSelfIntersects), 0);
}

TEST(PolygonFilterTest, StraightCornersAndFoldBacks) {
  // A simple polygon with its edge (a, b) changed: a midpoint inserted (a
  // straight corner, still simple; the ring then starts there, so a
  // straight corner can be the first vertex of the lowest column), or after
  // b a spike that doubles back along the edge — to its midpoint, to a, or
  // past a — or runs on past b and returns. Every spike overlaps its
  // neighbour edge.
  const Tally tally = RunFamily(0x1003, 200, [](SplitMix64& rng) {
    Ring ring = MonotonePolygon(rng);
    const Point a = ring[0];
    const Point b = ring[1];
    const auto after_a = ring.begin() + 1;
    const auto after_b = ring.begin() + 2;
    switch (Range(rng, 0, 4)) {
      case 0:
        ring.insert(after_a, a + (b - a) * Rational(1, 2));
        std::rotate(ring.begin(), ring.begin() + 1, ring.end());
        break;
      case 1:
        ring.insert(after_b, a + (b - a) * Rational(1, 2));
        break;
      case 2:
        ring.insert(after_b, a);
        break;
      case 3:
        ring.insert(after_b, a + (a - b));
        break;
      default:
        ring.insert(after_b, {b + (b - a), b});
        break;
    }
    return ring;
  });
  EXPECT_GT(Seen(tally.validate, kOk), 0);
  EXPECT_GT(Seen(tally.validate, kOverlap), 0);
}

TEST(PolygonFilterTest, TouchingNonAdjacentEdges) {
  // Templates whose only defect is contact between non-adjacent edges: a
  // vertex on another edge's interior, two vertices pinched together, and
  // collinear non-adjacent edges meeting end to end.
  const std::vector<Ring> templates = {
      {Point(0, 0), Point(6, 0), Point(6, 4), Point(3, 0), Point(0, 4)},
      {Point(0, 0), Point(2, 0), Point(1, 1), Point(2, 2), Point(0, 2),
       Point(1, 1)},
      {Point(0, 0), Point(2, 0), Point(2, 2), Point(4, 2), Point(4, 0),
       Point(6, 0), Point(6, 4), Point(0, 4)},
      {Point(0, 0), Point(4, 0), Point(4, 4), Point(2, 4), Point(2, 2),
       Point(4, 2), Point(4, 3), Point(0, 3)},
      // A simple U whose arms share a carrier line: collinear, disjoint.
      {Point(0, 0), Point(6, 0), Point(6, 4), Point(4, 4), Point(4, 2),
       Point(2, 2), Point(2, 4), Point(0, 4)},
  };
  const Tally tally = RunFamily(0x1004, 150, [&](SplitMix64& rng) {
    return Jiggle(templates[rng.Next() % templates.size()], rng);
  });
  EXPECT_GT(Seen(tally.validate, kOk), 0);
  EXPECT_GT(Seen(tally.validate, kSelfIntersects), 0);
}

TEST(PolygonFilterTest, BowTies) {
  const Tally tally = RunFamily(0x1005, 150, [](SplitMix64& rng) {
    const int64_t w = Range(rng, 1, 6), h = Range(rng, 1, 6);
    const Ring bow = {Point(0, 0), Point(w, h), Point(w, 0), Point(0, h)};
    return Jiggle(bow, rng);
  });
  EXPECT_EQ(Seen(tally.validate, kSelfIntersects), 150);
}

TEST(PolygonFilterTest, ZeroLengthEdges) {
  const Tally tally = RunFamily(0x1006, 150, [](SplitMix64& rng) {
    Ring ring = MonotonePolygon(rng);
    const size_t i = static_cast<size_t>(Range(rng, 0, 99)) % ring.size();
    ring.insert(ring.begin() + static_cast<std::ptrdiff_t>(i), ring[i]);
    return ring;
  });
  EXPECT_EQ(Seen(tally.validate, kZeroLength), 150);
}

}  // namespace
}  // namespace topodb
