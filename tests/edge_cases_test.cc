// Cross-module edge cases: degenerate contacts, coincident boundaries,
// adversarial polygons, and randomized predicate laws that round out the
// per-module suites.

#include <random>

#include <gtest/gtest.h>

#include "src/arrangement/cell_complex.h"
#include "src/fourint/four_intersection.h"
#include "src/geom/predicates.h"
#include "src/invariant/canonical.h"
#include "src/invariant/validate.h"
#include "src/query/eval.h"
#include "src/region/fixtures.h"

namespace topodb {
namespace {

TEST(EdgeCaseTest, IdenticalRegionsDifferentNames) {
  // Two regions with exactly the same extent: every boundary edge is
  // shared, the relation is equal, and the complex has one interior face.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  EXPECT_EQ(complex->faces().size(), 2u);
  EXPECT_EQ(complex->edges().size(), 1u);
  EXPECT_EQ(complex->edges()[0].owners.size(), 2u);
  EXPECT_EQ(*Relate(instance, "A", "B"), FourIntRelation::kEqual);
  InvariantData data = *ComputeInvariant(instance);
  EXPECT_TRUE(ValidateInvariant(data).ok());
}

TEST(EdgeCaseTest, PartiallySharedBoundary) {
  // B sits inside A sharing part of one side (covers); the shared piece is
  // a two-owner edge, the rest of A's side splits at B's corners.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(10, 10)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(2, 0), Point(6, 4)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  int shared = 0;
  for (const auto& edge : complex->edges()) {
    if (edge.owners.size() == 2) ++shared;
  }
  EXPECT_EQ(shared, 1);
  EXPECT_EQ(*Relate(instance, "A", "B"), FourIntRelation::kCovers);
  EXPECT_TRUE(ValidateInvariant(*ComputeInvariant(instance)).ok());
}

TEST(EdgeCaseTest, ChainOfMeets) {
  // A row of rectangles touching edge-to-edge: all meets; the skeleton is
  // connected through the shared walls.
  SpatialInstance instance;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(instance
                    .AddRegion(std::string("R").append(std::to_string(i)),
                               *Region::MakeRect(Point(4 * i, 0),
                                                 Point(4 * i + 4, 4)))
                    .ok());
  }
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_EQ(*Relate(instance, "R0", "R1"), FourIntRelation::kMeet);
  EXPECT_EQ(*Relate(instance, "R0", "R2"), FourIntRelation::kDisjoint);
  EXPECT_TRUE(ValidateInvariant(*ComputeInvariant(instance)).ok());
}

TEST(EdgeCaseTest, CheckerboardCornerContacts) {
  // Four squares in a 2x2 checkerboard pattern all touching at the center
  // point: a degree-8 vertex with collinear shared sides.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("NW", *Region::MakeRect(Point(0, 4), Point(4, 8)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("NE", *Region::MakeRect(Point(4, 4), Point(8, 8)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("SW", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("SE", *Region::MakeRect(Point(4, 0), Point(8, 4)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  // Center vertex with 8 darts (4 shared walls).
  bool found_center = false;
  for (const auto& vertex : complex->vertices()) {
    if (vertex.point == Point(4, 4)) {
      found_center = true;
      EXPECT_EQ(vertex.darts.size(), 4u);  // Four shared-wall edges.
      EXPECT_EQ(LabelString(vertex.label), "bbbb");
    }
  }
  EXPECT_TRUE(found_center);
  EXPECT_EQ(*Relate(instance, "NW", "SE"), FourIntRelation::kMeet);
  EXPECT_EQ(*Relate(instance, "NW", "NE"), FourIntRelation::kMeet);
  EXPECT_TRUE(ValidateInvariant(*ComputeInvariant(instance)).ok());
}

TEST(EdgeCaseTest, ThinSliverPolygons) {
  // Extremely thin triangles exercise exactness: no robustness failure,
  // correct overlap detection.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakePoly({Point(0, 0),
                                                     Point(1000000, 1),
                                                     Point(1000000, 0)}))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakePoly({Point(0, 1),
                                                     Point(1000000, 0),
                                                     Point(0, 0)}))
                  .ok());
  EXPECT_EQ(*Relate(instance, "A", "B"), FourIntRelation::kOverlap);
  InvariantData data = *ComputeInvariant(instance);
  EXPECT_TRUE(ValidateInvariant(data).ok());
}

TEST(EdgeCaseTest, InteriorPointInvadedEar) {
  // A polygon whose first convex corner's ear contains another vertex:
  // exercises the closest-invader branch of InteriorPoint.
  Polygon poly({Point(0, 0), Point(10, 0), Point(10, 10), Point(1, 1),
                Point(0, 10)});
  ASSERT_TRUE(poly.Validate().ok());
  Point ip = poly.InteriorPoint();
  EXPECT_EQ(poly.Locate(ip), PointLocation::kInterior);
}

TEST(EdgeCaseTest, CcwDirectionTotalCyclicOrder) {
  // Randomized: CcwDirectionLess is a strict total order on distinct
  // directions (antisymmetric, transitive within the sweep).
  std::mt19937_64 rng(99);
  std::vector<Point> dirs;
  for (int i = 0; i < 40; ++i) {
    int64_t x = static_cast<int64_t>(rng() % 21) - 10;
    int64_t y = static_cast<int64_t>(rng() % 21) - 10;
    if (x == 0 && y == 0) continue;
    dirs.push_back(Point(x, y));
  }
  for (const Point& u : dirs) {
    for (const Point& v : dirs) {
      if (SameDirection(u, v)) {
        EXPECT_FALSE(CcwDirectionLess(u, v));
        EXPECT_FALSE(CcwDirectionLess(v, u));
      } else {
        EXPECT_NE(CcwDirectionLess(u, v), CcwDirectionLess(v, u));
      }
    }
  }
  // Transitivity.
  for (const Point& u : dirs) {
    for (const Point& v : dirs) {
      for (const Point& w : dirs) {
        if (CcwDirectionLess(u, v) && CcwDirectionLess(v, w)) {
          EXPECT_TRUE(CcwDirectionLess(u, w))
              << u.ToString() << v.ToString() << w.ToString();
        }
      }
    }
  }
}

TEST(EdgeCaseTest, QueryOnSingleRegionUniverse) {
  // Queries on the minimal universe (anchored loop, 2 faces).
  Result<QueryEngine> engine = QueryEngine::Build(SingleRegionInstance());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(*engine->Evaluate("exists region r . equal(r, A)"));
  EXPECT_TRUE(*engine->Evaluate("exists region r . contains(r, A)"));
  EXPECT_FALSE(*engine->Evaluate("exists region r . inside(r, A) and "
                                 "not equal(r, A)"));
  EXPECT_TRUE(*engine->Evaluate(
      "forall cell c . connect(c, A) or disjoint(c, A)"));
}

TEST(EdgeCaseTest, NestedThreeDeepInvariantChain) {
  // Three-deep nesting vs two-deep plus sibling: distinguished by the
  // containment tree even though the label multisets coincide pairwise at
  // the top level. (A contains B contains C) vs (A contains B, C inside B
  // too but side by side) — labels differ here, so exercise the real
  // tree case: D inside pocket vs D inside lens of Fig 1d.
  SpatialInstance pocket_d = Fig1dInstance();
  ASSERT_TRUE(pocket_d
                  .AddRegion("D", *Region::MakeRect(Point(6, Rational(13, 2)),
                                                    Point(8, Rational(15, 2))))
                  .ok());
  SpatialInstance between_d = Fig1dInstance();
  // Between the lenses: inside A only -> different labels, trivially
  // different; the interesting twin is D fully outside (exterior face),
  // already covered in invariant_test. Here: assert validation passes for
  // the nested variant and the tree has 2 components.
  InvariantData data = *ComputeInvariant(pocket_d);
  EXPECT_EQ(data.ComponentCount(), 2);
  EXPECT_TRUE(ValidateInvariant(data).ok());
}

TEST(EdgeCaseTest, SegmentIntersectionContainment) {
  // One segment entirely inside another (collinear): overlap is the inner
  // segment.
  auto r = IntersectSegments(Point(0, 0), Point(10, 0), Point(2, 0),
                             Point(5, 0));
  ASSERT_EQ(r.kind, SegmentIntersection::Kind::kOverlap);
  EXPECT_EQ(r.p0, Point(2, 0));
  EXPECT_EQ(r.p1, Point(5, 0));
  // Identical segments.
  auto s = IntersectSegments(Point(1, 1), Point(4, 4), Point(1, 1),
                             Point(4, 4));
  ASSERT_EQ(s.kind, SegmentIntersection::Kind::kOverlap);
  EXPECT_EQ(s.p0, Point(1, 1));
  EXPECT_EQ(s.p1, Point(4, 4));
}

}  // namespace
}  // namespace topodb
