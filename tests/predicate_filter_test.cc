// Differential fuzz for the four-stage predicate filter (DESIGN.md §5e-f):
// every filtered predicate must return bit-for-bit the decision of its
// *Exact variant, on exactly the input families where a buggy filter would
// diverge — collinear triples (the zero a static filter must never
// mis-certify), one-ulp perturbations of collinear configurations (signs
// far below double noise), and coordinates that overflow or underflow
// double range entirely.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/geom/point.h"
#include "src/geom/predicates.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// One comparison of every predicate on a triple/quadruple of points.
// Returns the number of checks performed so tests can assert coverage.
void ExpectAllPredicatesAgree(const Point& a, const Point& b, const Point& c,
                              const Point& d) {
  ASSERT_EQ(CurrentPredicateMode(), PredicateMode::kFiltered);
  EXPECT_EQ(Orientation(a, b, c), OrientationExact(a, b, c))
      << a.ToString() << " " << b.ToString() << " " << c.ToString();
  EXPECT_EQ(OnSegment(c, a, b), OnSegmentExact(c, a, b));
  EXPECT_EQ(StrictlyInsideSegment(c, a, b),
            StrictlyInsideSegmentExact(c, a, b));
  if (!(a == b) && !(c == d)) {
    const Point u = b - a;
    const Point v = d - c;
    EXPECT_EQ(CcwDirectionLess(u, v), CcwDirectionLessExact(u, v));
    EXPECT_EQ(CcwDirectionLess(v, u), CcwDirectionLessExact(v, u));
    EXPECT_EQ(SameDirection(u, v), SameDirectionExact(u, v));
  }
  const SegmentIntersection filtered = IntersectSegments(a, b, c, d);
  const SegmentIntersection exact = IntersectSegmentsExact(a, b, c, d);
  EXPECT_EQ(static_cast<int>(filtered.kind), static_cast<int>(exact.kind))
      << a.ToString() << "-" << b.ToString() << " x " << c.ToString() << "-"
      << d.ToString();
  if (filtered.kind == exact.kind &&
      exact.kind != SegmentIntersection::Kind::kNone) {
    // Bit-for-bit: the same exact rational point, not merely an equal one.
    EXPECT_EQ(filtered.p0.x.num().ToString(), exact.p0.x.num().ToString());
    EXPECT_EQ(filtered.p0.x.den().ToString(), exact.p0.x.den().ToString());
    EXPECT_EQ(filtered.p0.y.num().ToString(), exact.p0.y.num().ToString());
    if (exact.kind == SegmentIntersection::Kind::kOverlap) {
      EXPECT_EQ(filtered.p1 == exact.p1, true);
    }
  }
}

TEST(PredicateFilterDifferentialTest, CollinearTriples) {
  // Exact collinearity is the adversarial case for the static stage: the
  // determinant is exactly zero, and any filter that certifies a nonzero
  // sign from rounding noise breaks the arrangement. Points are a + t*dir
  // for rational t, over directions with small and large slopes.
  std::mt19937_64 rng(1);
  const Point dirs[] = {{1, 0}, {0, 1}, {1, 1}, {3, -7}, {1000003, 999999},
                        {-5, 12}, {1, -1}};
  for (const Point& dir : dirs) {
    for (int iter = 0; iter < 40; ++iter) {
      const Point origin(static_cast<int64_t>(rng() % 2001) - 1000,
                         static_cast<int64_t>(rng() % 2001) - 1000);
      const auto t = [&rng]() {
        return Rational(static_cast<int64_t>(rng() % 41) - 20,
                        static_cast<int64_t>(rng() % 16) + 1);
      };
      const Point p = origin + dir * t();
      const Point q = origin + dir * t();
      const Point r = origin + dir * t();
      EXPECT_EQ(Orientation(p, q, r), 0) << p.ToString();
      ExpectAllPredicatesAgree(p, q, r, origin);
    }
  }
}

TEST(PredicateFilterDifferentialTest, OneUlpPerturbations) {
  // Start from a collinear triple, then push one coordinate off the line
  // by +/- 1/2^k for k up to far beyond double precision. The true sign is
  // the perturbation's sign; doubles see zero from k ~ 60 on, so a filter
  // that trusts an uncertified double result inverts or zeroes these.
  std::mt19937_64 rng(2);
  for (int iter = 0; iter < 200; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t y0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t dx = static_cast<int64_t>(rng() % 9) + 1;
    const int64_t dy = static_cast<int64_t>(rng() % 9) - 4;
    const Point a(x0, y0);
    const Point b(x0 + dx, y0 + dy);
    const Point mid = a + (b - a) * Rational(1, 2);
    const int k = 40 + static_cast<int>(rng() % 120);  // 2^-40 .. 2^-159.
    const Rational eps(BigInt((rng() % 2) ? 1 : -1),
                       BigInt(1).ShiftLeft(k));
    const Point off(mid.x, mid.y + eps);
    // The sign is decided by eps (b-a has positive x component).
    EXPECT_EQ(Orientation(a, b, off), eps.sign() > 0 ? 1 : -1)
        << "k=" << k;
    EXPECT_FALSE(OnSegment(off, a, b));
    ExpectAllPredicatesAgree(a, b, off, mid);
    ExpectAllPredicatesAgree(a, off, b, mid);
  }
}

TEST(PredicateFilterDifferentialTest, OverflowAndUnderflowCoordinates) {
  // Coordinates far outside double range: 10^400 overflows to inf, 10^-400
  // underflows to 0. The static stage must decline (bit-length caps), the
  // interval stage saturates, and decisions still match the exact path.
  Rational huge(1);
  const Rational ten(10);
  for (int i = 0; i < 400; ++i) huge = huge * ten;
  const Rational tiny = Rational(1) / huge;

  std::mt19937_64 rng(3);
  const Rational scales[] = {huge, tiny};
  for (const Rational& s : scales) {
    for (int iter = 0; iter < 8; ++iter) {
      const auto coord = [&]() {
        return Rational(static_cast<int64_t>(rng() % 2001) - 1000,
                        static_cast<int64_t>(rng() % 64) + 1) * s;
      };
      const Point a(coord(), coord());
      const Point b(coord(), coord());
      const Point c(coord(), coord());
      const Point d(coord(), coord());
      ExpectAllPredicatesAgree(a, b, c, d);
      // Mixed magnitudes: one tiny point among huge ones (and vice versa)
      // stresses the interval stage's saturation arithmetic.
      const Point m(coord() * tiny, coord());
      ExpectAllPredicatesAgree(a, b, m, d);
    }
  }
  // Doubly-extreme scales (10^800): exact intersection points at this
  // magnitude cost seconds of bigint gcd each, so stick to the sign
  // predicates, which are the filter stages under test anyway.
  for (const Rational& s : {huge * huge, tiny * tiny}) {
    for (int iter = 0; iter < 4; ++iter) {
      const auto coord = [&]() {
        return Rational(static_cast<int64_t>(rng() % 2001) - 1000,
                        static_cast<int64_t>(rng() % 64) + 1) * s;
      };
      const Point a(coord(), coord());
      const Point b(coord(), coord());
      const Point c(coord(), coord());
      EXPECT_EQ(Orientation(a, b, c), OrientationExact(a, b, c));
      EXPECT_EQ(OnSegment(c, a, b), OnSegmentExact(c, a, b));
      EXPECT_EQ(StrictlyInsideSegment(c, a, b),
                StrictlyInsideSegmentExact(c, a, b));
    }
  }
  // Degenerate-but-extreme: collinear triples at overflow scale.
  const Point p(huge, huge);
  const Point q(huge * Rational(2), huge * Rational(2));
  const Point r(huge * Rational(3), huge * Rational(3));
  EXPECT_EQ(Orientation(p, q, r), 0);
  ExpectAllPredicatesAgree(p, q, r, p);
  EXPECT_TRUE(OnSegment(q, p, r));
  EXPECT_TRUE(StrictlyInsideSegment(q, p, r));
}

TEST(PredicateFilterDifferentialTest, RandomSegmentPairsAndDegeneracies) {
  // Broad random sweep plus the classic degeneracies: shared endpoints,
  // T-junctions, containment, identical segments, zero-length segments.
  std::mt19937_64 rng(4);
  const auto coord = [&rng]() {
    return Rational(static_cast<int64_t>(rng() % 401) - 200,
                    static_cast<int64_t>(rng() % 8) + 1);
  };
  for (int iter = 0; iter < 300; ++iter) {
    const Point a(coord(), coord());
    const Point b(coord(), coord());
    const Point c(coord(), coord());
    const Point d(coord(), coord());
    ExpectAllPredicatesAgree(a, b, c, d);
    ExpectAllPredicatesAgree(a, b, b, c);  // Shared endpoint.
    ExpectAllPredicatesAgree(a, b, a, b);  // Identical segments.
    ExpectAllPredicatesAgree(a, a, c, d);  // Degenerate first segment.
    const Point mid = a + (b - a) * Rational(1, 3);
    ExpectAllPredicatesAgree(a, b, mid, c);  // T-junction at 1/3.
    ExpectAllPredicatesAgree(a, b, mid, mid);
  }
}

// --- The small-integer stage of IntersectSegments ---------------------------
//
// Pairs whose eight coordinates are integers below 2^31 in magnitude are
// decided in 128-bit integers. Every family below compares kind, p0 and p1
// with IntersectSegmentsExact, bit for bit, and checks which path decided
// the pair: the integer stage records exactly one decision, while the
// orientation path records at least two.

constexpr int64_t kMaxSmall = (int64_t{1} << 31) - 1;

uint64_t Decisions() {
  const PredicateFilterStats& s = LocalPredicateFilterStats();
  return s.static_hits + s.interval_hits + s.expansion_hits +
         s.exact_fallbacks;
}

std::string CanonicalText(const Point& p) {
  return p.x.num().ToString() + "/" + p.x.den().ToString() + "," +
         p.y.num().ToString() + "/" + p.y.den().ToString();
}

// Returns the number of filter decisions the filtered call made; *kind
// (optional) receives the exact answer's kind.
uint64_t ExpectSameIntersection(const Point& a, const Point& b, const Point& c,
                                const Point& d,
                                SegmentIntersection::Kind* kind = nullptr) {
  const uint64_t before = Decisions();
  const SegmentIntersection filtered = IntersectSegments(a, b, c, d);
  const uint64_t decisions = Decisions() - before;
  const SegmentIntersection exact = IntersectSegmentsExact(a, b, c, d);
  if (kind != nullptr) *kind = exact.kind;
  const std::string pair = a.ToString() + "-" + b.ToString() + " x " +
                           c.ToString() + "-" + d.ToString();
  EXPECT_EQ(static_cast<int>(filtered.kind), static_cast<int>(exact.kind))
      << pair;
  if (filtered.kind == exact.kind &&
      exact.kind != SegmentIntersection::Kind::kNone) {
    EXPECT_EQ(CanonicalText(filtered.p0), CanonicalText(exact.p0)) << pair;
    if (exact.kind == SegmentIntersection::Kind::kOverlap) {
      EXPECT_EQ(CanonicalText(filtered.p1), CanonicalText(exact.p1)) << pair;
    }
  }
  return decisions;
}

// Kinds of the pairs a test family produced, so each family can assert
// that it covers the outcomes it is meant to.
struct KindCounts {
  int none = 0, point = 0, overlap = 0;
  void Add(SegmentIntersection::Kind kind) {
    switch (kind) {
      case SegmentIntersection::Kind::kNone: ++none; break;
      case SegmentIntersection::Kind::kPoint: ++point; break;
      case SegmentIntersection::Kind::kOverlap: ++overlap; break;
    }
  }
};

// Asserts the pair was decided by the integer stage, in both argument
// orders and with both segments reversed.
void ExpectIntegerStage(const Point& a, const Point& b, const Point& c,
                        const Point& d, KindCounts* counts = nullptr) {
  SegmentIntersection::Kind kind;
  EXPECT_EQ(ExpectSameIntersection(a, b, c, d, &kind), 1u);
  EXPECT_EQ(ExpectSameIntersection(c, d, a, b), 1u);
  EXPECT_EQ(ExpectSameIntersection(b, a, d, c), 1u);
  if (counts != nullptr) counts->Add(kind);
}

int64_t Signed(SplitMix64& rng, int64_t bound) {
  return static_cast<int64_t>(rng.Below(2 * static_cast<uint64_t>(bound) + 1)) -
         bound;
}

TEST(IntegerIntersectionStageTest, RandomSmallIntegers) {
  SplitMix64 rng(0x5e61);
  KindCounts counts;
  for (const int64_t bound : {int64_t{3}, int64_t{1000}, kMaxSmall}) {
    for (int iter = 0; iter < 400; ++iter) {
      const Point a(Signed(rng, bound), Signed(rng, bound));
      const Point b(Signed(rng, bound), Signed(rng, bound));
      const Point c(Signed(rng, bound), Signed(rng, bound));
      const Point d(Signed(rng, bound), Signed(rng, bound));
      ExpectIntegerStage(a, b, c, d, &counts);
    }
  }
  EXPECT_GT(counts.none, 0);
  EXPECT_GT(counts.point, 0);
}

TEST(IntegerIntersectionStageTest, AxisAlignedCrossingsAndTJunctions) {
  SplitMix64 rng(0x5e62);
  KindCounts counts;
  for (int iter = 0; iter < 400; ++iter) {
    // Horizontal [x0, x1] at height y; vertical [y0, y1] at abscissa x.
    // Small ranges make crossings, T-junctions, corner touches and misses
    // all common.
    const int64_t y = Signed(rng, 4), x = Signed(rng, 4);
    const int64_t x0 = Signed(rng, 4), x1 = Signed(rng, 4);
    const int64_t y0 = Signed(rng, 4), y1 = Signed(rng, 4);
    const Point h0(x0, y), h1(x1 == x0 ? x0 + 1 : x1, y);
    const Point v0(x, y0), v1(x, y1 == y0 ? y0 + 1 : y1);
    ExpectIntegerStage(h0, h1, v0, v1, &counts);
  }
  EXPECT_GT(counts.none, 0);
  EXPECT_GT(counts.point, 0);
  // Explicit T-junctions: the stem ends on the bar's interior, at either
  // end of the stem.
  ExpectIntegerStage(Point(0, 0), Point(10, 0), Point(4, 0), Point(4, 7));
  ExpectIntegerStage(Point(0, 0), Point(10, 0), Point(4, -7), Point(4, 0));
  ExpectIntegerStage(Point(0, 0), Point(0, 10), Point(0, 3), Point(-5, 3));
}

TEST(IntegerIntersectionStageTest, SharedEndpoints) {
  SplitMix64 rng(0x5e63);
  for (int iter = 0; iter < 300; ++iter) {
    const Point a(Signed(rng, 50), Signed(rng, 50));
    const Point b(Signed(rng, 50), Signed(rng, 50));
    const Point c(Signed(rng, 50), Signed(rng, 50));
    ExpectIntegerStage(a, b, b, c);
    ExpectIntegerStage(a, b, a, c);
    ExpectIntegerStage(a, b, a, b);  // Identical segments.
    ExpectIntegerStage(a, b, b, a);  // Identical, reversed.
  }
}

TEST(IntegerIntersectionStageTest, CollinearOverlapsAndTouches) {
  SplitMix64 rng(0x5e64);
  KindCounts counts;
  const Point dirs[] = {{1, 0}, {0, 1}, {1, 1}, {3, -7}, {-5, 2}};
  for (const Point& dir : dirs) {
    for (int iter = 0; iter < 100; ++iter) {
      const Point origin(Signed(rng, 100), Signed(rng, 100));
      const auto at = [&](int64_t k) { return origin + dir * Rational(k); };
      // Parameters in a small range: overlaps, containment, end-to-end
      // touches and gaps all occur.
      const int64_t k0 = Signed(rng, 4), k1 = Signed(rng, 4);
      const int64_t k2 = Signed(rng, 4), k3 = Signed(rng, 4);
      ExpectIntegerStage(at(k0), at(k1 == k0 ? k0 + 1 : k1), at(k2),
                         at(k3 == k2 ? k2 - 1 : k3), &counts);
    }
  }
  EXPECT_GT(counts.none, 0);
  EXPECT_GT(counts.point, 0);
  EXPECT_GT(counts.overlap, 0);
  // End-to-end touch and a one-sided containment, spelled out.
  ExpectIntegerStage(Point(0, 0), Point(2, 2), Point(2, 2), Point(5, 5));
  ExpectIntegerStage(Point(0, 0), Point(6, 0), Point(2, 0), Point(6, 0));
}

TEST(IntegerIntersectionStageTest, PointSegments) {
  SplitMix64 rng(0x5e65);
  KindCounts counts;
  for (int iter = 0; iter < 300; ++iter) {
    const Point c(Signed(rng, 20), Signed(rng, 20));
    const Point dir(Signed(rng, 3), Signed(rng, 3));
    const Point d = c + dir * Rational(2);
    // On the segment (k = 0..2), on its line outside it (k = 3), or off
    // the line.
    const int64_t k = static_cast<int64_t>(rng.Below(4));
    const Point on = c + dir * Rational(k);
    const Point off(on.x + Rational(1), on.y);
    ExpectIntegerStage(on, on, c, d, &counts);
    ExpectIntegerStage(off, off, c, d, &counts);
    ExpectIntegerStage(c, c, c, c);
    ExpectIntegerStage(on, on, off, off);
  }
  EXPECT_GT(counts.none, 0);
  EXPECT_GT(counts.point, 0);
}

TEST(IntegerIntersectionStageTest, ParallelDisjointPairs) {
  SplitMix64 rng(0x5e66);
  KindCounts counts;
  for (int iter = 0; iter < 300; ++iter) {
    const Point a(Signed(rng, 100), Signed(rng, 100));
    Point dir(Signed(rng, 5), Signed(rng, 5));
    if (dir.x.is_zero() && dir.y.is_zero()) dir = Point(1, 0);
    // An offset across the carrier line: the cross product with dir is
    // nonzero, so the carriers are distinct parallels.
    const Point off =
        Point(-dir.y, dir.x) * Rational(1 + static_cast<int64_t>(rng.Below(3)));
    const Point c = a + off;
    const Point shift = dir * Rational(Signed(rng, 3));
    ExpectIntegerStage(a, a + dir, c + shift, c + shift + dir, &counts);
  }
  EXPECT_EQ(counts.none, 300);
}

TEST(IntegerIntersectionStageTest, ExtremeCoordinatesAtTheBound) {
  const int64_t m = kMaxSmall;
  // Diagonals of the largest box the stage takes: they cross at the
  // origin, with 2^64-scale cross products.
  ExpectIntegerStage(Point(-m, -m), Point(m, m), Point(-m, m), Point(m, -m));
  // Skewed near-extreme segments: a non-integer crossing whose reduced
  // numerators run to ~2^97 before reduction.
  ExpectIntegerStage(Point(-m, -m + 1), Point(m, m - 3), Point(-m + 5, m),
                     Point(m - 7, -m));
  ExpectIntegerStage(Point(-m, 0), Point(m, 1), Point(0, -m), Point(1, m));
  // Collinear overlap along the full extent of the bound.
  ExpectIntegerStage(Point(-m, -m), Point(m, m), Point(0, 0), Point(m, m));
  SplitMix64 rng(0x5e67);
  for (int iter = 0; iter < 400; ++iter) {
    // Coordinates drawn from the extremes and their neighbours.
    const auto coord = [&] {
      const int64_t near[] = {-m, -m + 1, -1, 0, 1, m - 1, m};
      return near[rng.Below(7)];
    };
    ExpectIntegerStage(Point(coord(), coord()), Point(coord(), coord()),
                       Point(coord(), coord()), Point(coord(), coord()));
  }
}

TEST(IntegerIntersectionStageTest, CoordinatesPastTheBoundFallThrough) {
  // +-2^31 is one past the stage's range: every such pair takes the
  // orientation path (at least two decisions) and still matches the
  // rational evaluation.
  const int64_t big = int64_t{1} << 31;
  const int64_t m = kMaxSmall;
  const Point cases[][4] = {
      {{-big, -m}, {m, m}, {-m, m}, {m, -m}},
      {{-m, -m}, {m, m}, {-m, big}, {m, -m}},
      {{0, 0}, {big, 0}, {5, -5}, {5, 5}},
      {{0, 0}, {big, 0}, {7, 0}, {9, 0}},
      {{-big, -big}, {big, big}, {0, 0}, {1, 1}},
  };
  for (const auto& q : cases) {
    EXPECT_GE(ExpectSameIntersection(q[0], q[1], q[2], q[3]), 2u);
    EXPECT_GE(ExpectSameIntersection(q[2], q[3], q[0], q[1]), 2u);
  }
  // Non-integer coordinates fall through too, however small.
  const Point half(Rational(1, 2), Rational(0));
  EXPECT_GE(ExpectSameIntersection(half, Point(4, 4), Point(0, 4), Point(4, 0)),
            2u);
}

TEST(IntegerIntersectionStageTest, ExactModeNeverEntersTheStage) {
  ScopedPredicateMode exact(PredicateMode::kExact);
  const uint64_t before = Decisions();
  const SegmentIntersection hit =
      IntersectSegments(Point(0, 0), Point(4, 4), Point(0, 4), Point(4, 0));
  EXPECT_EQ(hit.kind, SegmentIntersection::Kind::kPoint);
  EXPECT_EQ(Decisions(), before);
}

TEST(PredicateFilterStatsTest, StagesActuallyResolveWork) {
  // Sanity on the observability contract: easy integer inputs are resolved
  // by the static stage; adversarial perturbations reach the exact stage.
  const PredicateFilterStats before = LocalPredicateFilterStats();
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 0), Point(5, 3)), 1);
  const PredicateFilterStats after_easy = LocalPredicateFilterStats();
  EXPECT_EQ(after_easy.static_hits, before.static_hits + 1);
  EXPECT_EQ(after_easy.exact_fallbacks, before.exact_fallbacks);

  // A perturbation that survives the interval stage needs cancellation:
  // det = 10 * (1/2 + eps) - 1 * 5 = 10 * eps, but the interval for
  // 1/2 + eps is one ulp wide, so after scaling and subtracting, the
  // enclosure of the determinant straddles zero and only the rational
  // stage can decide the sign.
  const Rational eps(BigInt(1), BigInt(1).ShiftLeft(200));
  const Point off(Rational(5), Rational(1, 2) + eps);
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 1), off), 1);
  const PredicateFilterStats after_hard = LocalPredicateFilterStats();
  EXPECT_EQ(after_hard.exact_fallbacks, after_easy.exact_fallbacks + 1);
}

TEST(PredicateFilterModeTest, ExactModeBypassesFilters) {
  ScopedPredicateMode exact_mode(PredicateMode::kExact);
  ASSERT_EQ(CurrentPredicateMode(), PredicateMode::kExact);
  const PredicateFilterStats before = LocalPredicateFilterStats();
  EXPECT_EQ(Orientation(Point(0, 0), Point(10, 0), Point(5, 3)), 1);
  EXPECT_TRUE(OnSegment(Point(5, 0), Point(0, 0), Point(10, 0)));
  const PredicateFilterStats after = LocalPredicateFilterStats();
  // Exact mode runs pure rational arithmetic without touching the stats.
  EXPECT_EQ(after.static_hits, before.static_hits);
  EXPECT_EQ(after.interval_hits, before.interval_hits);
  EXPECT_EQ(after.exact_fallbacks, before.exact_fallbacks);
}

}  // namespace
}  // namespace topodb
