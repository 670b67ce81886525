#include "src/arrangement/cell_complex.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/geom/predicates.h"
#include "src/region/fixtures.h"
#include "src/region/transform.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// Multiset of face label strings, e.g. {"--", "o-", "-o", "oo"}.
std::multiset<std::string> FaceLabels(const CellComplex& complex) {
  std::multiset<std::string> labels;
  for (const auto& face : complex.faces()) {
    labels.insert(LabelString(face.label));
  }
  return labels;
}

// Checks structural invariants every cell complex must satisfy.
void CheckWellFormed(const CellComplex& complex) {
  const auto& darts = complex.darts();
  ASSERT_EQ(darts.size(), 2 * complex.edges().size());
  for (size_t d = 0; d < darts.size(); ++d) {
    EXPECT_EQ(darts[darts[d].twin].twin, static_cast<int>(d));
    EXPECT_NE(darts[d].face, -1);
    EXPECT_EQ(darts[darts[d].next_ccw].prev_ccw, static_cast<int>(d));
    // Face walk is a permutation cycle.
    EXPECT_EQ(darts[darts[d].next_in_face].face, darts[d].face);
  }
  // Each vertex's rotation covers exactly its darts.
  size_t dart_count = 0;
  for (const auto& vertex : complex.vertices()) {
    dart_count += vertex.darts.size();
    for (int d : vertex.darts) {
      EXPECT_EQ(darts[d].origin,
                static_cast<int>(&vertex - complex.vertices().data()));
    }
  }
  EXPECT_EQ(dart_count, darts.size());
  // Exactly one unbounded face, and it is the exterior face.
  int unbounded = 0;
  for (const auto& face : complex.faces()) {
    if (face.unbounded) ++unbounded;
  }
  EXPECT_EQ(unbounded, 1);
  EXPECT_TRUE(complex.faces()[complex.exterior_face()].unbounded);
  // Exterior face labeled all-exterior.
  for (Sign s : complex.faces()[complex.exterior_face()].label) {
    EXPECT_EQ(s, Sign::kExterior);
  }
  // Labels of the two faces across an edge differ exactly on the owners.
  for (size_t e = 0; e < complex.edges().size(); ++e) {
    auto [lf, rf] = complex.EdgeFaces(static_cast<int>(e));
    const auto& left = complex.faces()[lf].label;
    const auto& right = complex.faces()[rf].label;
    const auto& owners = complex.edges()[e].owners;
    for (size_t r = 0; r < left.size(); ++r) {
      const bool owned =
          std::find(owners.begin(), owners.end(), static_cast<int>(r)) !=
          owners.end();
      EXPECT_EQ(left[r] != right[r], owned);
    }
  }
}

TEST(CellComplexTest, EmptyInstance) {
  Result<CellComplex> complex = CellComplex::Build(SpatialInstance());
  ASSERT_TRUE(complex.ok());
  EXPECT_EQ(complex->vertices().size(), 0u);
  EXPECT_EQ(complex->edges().size(), 0u);
  EXPECT_EQ(complex->faces().size(), 1u);
  EXPECT_EQ(complex->exterior_face(), 0);
}

TEST(CellComplexTest, SingleRegionDegenerate) {
  // The paper's degenerate case: one region. We anchor the vertex-free
  // boundary cycle with one artificial vertex, giving 1 vertex, 1 loop
  // edge, 2 faces.
  Result<CellComplex> complex = CellComplex::Build(SingleRegionInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 1u);
  EXPECT_EQ(complex->faces().size(), 2u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_TRUE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex), (std::multiset<std::string>{"-", "o"}));
  // Loop edge: both endpoints are the anchor vertex.
  auto [u, v] = complex->EdgeEndpoints(0);
  EXPECT_EQ(u, v);
  EXPECT_EQ(LabelString(complex->edges()[0].label), "b");
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "b");
}

TEST(CellComplexTest, Fig1cMatchesFig5) {
  // The paper's Fig 5: instance Fig 1c has two vertices, four edges, four
  // faces.
  Result<CellComplex> complex = CellComplex::Build(Fig1cInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 2u);
  EXPECT_EQ(complex->edges().size(), 4u);
  EXPECT_EQ(complex->faces().size(), 4u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_TRUE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o", "oo"}));
  // Vertices are the two boundary crossings, labeled boundary-boundary.
  for (const auto& vertex : complex->vertices()) {
    EXPECT_EQ(LabelString(vertex.label), "bb");
    EXPECT_EQ(vertex.darts.size(), 4u);
  }
  // Edge labels: each boundary is split into an arc inside and an arc
  // outside the other region.
  std::multiset<std::string> edge_labels;
  for (const auto& edge : complex->edges()) {
    edge_labels.insert(LabelString(edge.label));
  }
  EXPECT_EQ(edge_labels,
            (std::multiset<std::string>{"b-", "bo", "-b", "ob"}));
}

TEST(CellComplexTest, Fig1dHasPocket) {
  Result<CellComplex> complex = CellComplex::Build(Fig1dInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 4u);
  EXPECT_EQ(complex->edges().size(), 8u);
  EXPECT_EQ(complex->faces().size(), 6u);
  EXPECT_TRUE(complex->IsConnected());
  // Two faces labeled exterior-to-all: the unbounded face and the pocket.
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "--", "o-", "-o", "oo", "oo"}));
  // The exterior face is determined by unboundedness, not by its label.
  int all_minus = 0;
  for (const auto& face : complex->faces()) {
    if (LabelString(face.label) == "--") ++all_minus;
  }
  EXPECT_EQ(all_minus, 2);
}

TEST(CellComplexTest, Fig1aTripleOverlay) {
  Result<CellComplex> complex = CellComplex::Build(Fig1aInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 6u);
  EXPECT_EQ(complex->edges().size(), 12u);
  EXPECT_EQ(complex->faces().size(), 8u);
  // All eight label combinations occur: the instance realizes the full
  // Venn diagram of three regions.
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"---", "o--", "-o-", "--o", "oo-",
                                        "o-o", "-oo", "ooo"}));
}

TEST(CellComplexTest, Fig1bNoTripleFace) {
  Result<CellComplex> complex = CellComplex::Build(Fig1bInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_TRUE(complex->IsConnected());
  // Euler's formula for connected instances.
  EXPECT_EQ(complex->faces().size(),
            complex->edges().size() - complex->vertices().size() + 2);
  // No face is interior to all three regions, but every pairwise
  // combination occurs.
  std::multiset<std::string> labels = FaceLabels(*complex);
  EXPECT_EQ(labels.count("ooo"), 0u);
  EXPECT_GE(labels.count("oo-"), 1u);
  EXPECT_GE(labels.count("o-o"), 1u);
  EXPECT_GE(labels.count("-oo"), 1u);
}

TEST(CellComplexTest, NestedInstanceContainment) {
  Result<CellComplex> complex = CellComplex::Build(NestedInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 2u);  // Two anchors.
  EXPECT_EQ(complex->edges().size(), 2u);
  EXPECT_EQ(complex->faces().size(), 3u);
  EXPECT_FALSE(complex->IsConnected());
  EXPECT_EQ(complex->SkeletonComponentCount(), 2);
  EXPECT_FALSE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "oo"}));
  // The ring face (A interior, B exterior) has two boundary cycles.
  for (const auto& face : complex->faces()) {
    if (LabelString(face.label) == "o-") {
      EXPECT_EQ(face.cycle_darts.size(), 2u);
    } else {
      EXPECT_EQ(face.cycle_darts.size(), 1u);
    }
  }
}

TEST(CellComplexTest, DisjointPair) {
  Result<CellComplex> complex = CellComplex::Build(DisjointPairInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->SkeletonComponentCount(), 2);
  EXPECT_EQ(complex->faces().size(), 3u);
  // The unbounded face has both hole cycles.
  EXPECT_EQ(complex->faces()[complex->exterior_face()].cycle_darts.size(),
            2u);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
}

TEST(CellComplexTest, Fig7bTangentDiamonds) {
  Result<CellComplex> complex = CellComplex::Build(Fig7bInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 4u);
  EXPECT_EQ(complex->faces().size(), 5u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_FALSE(complex->IsSimple());  // Exterior boundary pinches 4 times.
  EXPECT_EQ(complex->vertices()[0].darts.size(), 8u);
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "bbbb");
  // All four edges are loops at the origin vertex.
  for (size_t e = 0; e < 4; ++e) {
    auto [u, v] = complex->EdgeEndpoints(static_cast<int>(e));
    EXPECT_EQ(u, 0);
    EXPECT_EQ(v, 0);
  }
}

TEST(CellComplexTest, Fig7aTwoComponents) {
  Result<CellComplex> i = CellComplex::Build(Fig7aInstance());
  Result<CellComplex> ip = CellComplex::Build(Fig7aPrimeInstance());
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(ip.ok());
  CheckWellFormed(*i);
  CheckWellFormed(*ip);
  EXPECT_EQ(i->SkeletonComponentCount(), 2);
  EXPECT_EQ(ip->SkeletonComponentCount(), 2);
  // Mirroring preserves all counts and labels.
  EXPECT_EQ(i->vertices().size(), ip->vertices().size());
  EXPECT_EQ(i->edges().size(), ip->edges().size());
  EXPECT_EQ(i->faces().size(), ip->faces().size());
  EXPECT_EQ(FaceLabels(*i), FaceLabels(*ip));
}

TEST(CellComplexTest, SharedBoundaryArc) {
  // Two rectangles sharing a boundary segment: the shared arc is one edge
  // owned by both regions (meet relation).
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(4, 1), Point(8, 3)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  // One edge owned by both regions.
  int shared = 0;
  for (const auto& edge : complex->edges()) {
    if (edge.owners.size() == 2) {
      ++shared;
      EXPECT_EQ(LabelString(edge.label), "bb");
    }
  }
  EXPECT_EQ(shared, 1);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
  EXPECT_TRUE(complex->IsConnected());
}

TEST(CellComplexTest, CornerTouch) {
  // Two squares meeting at exactly one corner point.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(2, 2)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(2, 2), Point(4, 4)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 2u);  // Two loops at the touch point.
  EXPECT_EQ(complex->faces().size(), 3u);
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "bb");
}

TEST(CellComplexTest, TJunction) {
  // B's corner lies in the interior of A's edge: a degree-4 vertex whose
  // incident arcs have mixed owners, no crossing into A.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance.AddRegion(
      "B", *Region::MakePoly({Point(4, 2), Point(7, 0), Point(7, 5)})).ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  // Vertex at (4,2).
  bool found = false;
  for (const auto& vertex : complex->vertices()) {
    if (vertex.point == Point(4, 2)) {
      found = true;
      EXPECT_EQ(vertex.darts.size(), 4u);
      EXPECT_EQ(LabelString(vertex.label), "bb");
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
}

TEST(CellComplexTest, DebugStringMentionsCounts) {
  Result<CellComplex> complex = CellComplex::Build(Fig1cInstance());
  ASSERT_TRUE(complex.ok());
  std::string dump = complex->DebugString();
  EXPECT_NE(dump.find("2 vertices"), std::string::npos);
  EXPECT_NE(dump.find("4 edges"), std::string::npos);
  EXPECT_NE(dump.find("4 faces"), std::string::npos);
}

TEST(CellComplexTest, RegionIndexLookup) {
  Result<CellComplex> complex = CellComplex::Build(Fig1aInstance());
  ASSERT_TRUE(complex.ok());
  EXPECT_EQ(complex->region_index("A"), 0);
  EXPECT_EQ(complex->region_index("B"), 1);
  EXPECT_EQ(complex->region_index("C"), 2);
  EXPECT_EQ(complex->region_index("Z"), -1);
}

TEST(CellComplexTest, ArenaBuildsAreBitIdentical) {
  // The limb arena changes where temporary limb buffers live, never what
  // any of them contain: builds with the arena on, off, and through the
  // pure exact-predicate path must produce the same complex down to every
  // rational coordinate (DebugString prints them exactly). The crossing
  // diagonals make intersection points with non-trivial denominators — the
  // values DetachComplex must copy out of the arena before it dies.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(7, 5)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakePoly({Point(-2, -1), Point(9, 4),
                                                     Point(3, 8)}))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("C", *Region::MakePoly({Point(1, 6), Point(6, -2),
                                                     Point(8, 7)}))
                  .ok());
  const auto build = [&](bool arena, bool exact) {
    ArrangementOptions options;
    options.limb_arena = arena;
    options.exact_predicates = exact;
    Result<CellComplex> complex = CellComplex::Build(instance, options);
    EXPECT_TRUE(complex.ok());
    return complex->DebugString();
  };
  const std::string with_arena = build(true, false);
  const std::string without_arena = build(false, false);
  const std::string exact = build(false, true);
  const std::string exact_arena_requested = build(true, true);  // Forced off.
  EXPECT_EQ(with_arena, without_arena);
  EXPECT_EQ(with_arena, exact);
  EXPECT_EQ(with_arena, exact_arena_requested);
  EXPECT_NE(with_arena.find("vertices"), std::string::npos);
}

// --- Cut order along each segment -------------------------------------------
//
// The builder orders the cut points of a segment lexicographically, which
// is the order along the segment only because every cut point lies exactly
// on it. This oracle orders them the direct way instead: by the exact
// rational parameter Dot(p - a, b - a) along each boundary segment [a, b],
// with the cut points recomputed here from IntersectSegmentsExact. The
// consecutive cut points of every segment are the pieces of the overlay,
// and the complex's edge chains must consist of exactly those pieces, so a
// wrong cut order on any segment shows up as a missing or extra piece.

using Piece = std::pair<Point, Point>;

Piece MakePiece(const Point& p, const Point& q) {
  return p < q ? Piece(p, q) : Piece(q, p);
}

std::set<Piece> OraclePieces(const SpatialInstance& instance) {
  std::vector<std::pair<Point, Point>> segments;
  for (const auto& [name, region] : instance.regions()) {
    const Polygon& poly = region.boundary();
    for (size_t i = 0; i < poly.size(); ++i) {
      segments.emplace_back(poly.vertex(i), poly.vertex((i + 1) % poly.size()));
    }
  }
  std::set<Piece> pieces;
  for (const auto& [a, b] : segments) {
    std::vector<Point> cuts = {a, b};
    for (const auto& [c, d] : segments) {
      const SegmentIntersection isect = IntersectSegmentsExact(a, b, c, d);
      if (isect.kind == SegmentIntersection::Kind::kNone) continue;
      cuts.push_back(isect.p0);
      if (isect.kind == SegmentIntersection::Kind::kOverlap) {
        cuts.push_back(isect.p1);
      }
    }
    const Point dir = b - a;
    std::sort(cuts.begin(), cuts.end(), [&](const Point& p, const Point& q) {
      return Dot(p - a, dir) < Dot(q - a, dir);
    });
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      pieces.insert(MakePiece(cuts[k], cuts[k + 1]));
    }
  }
  return pieces;
}

std::set<Piece> ChainPieces(const CellComplex& complex) {
  std::set<Piece> pieces;
  for (const auto& edge : complex.edges()) {
    for (size_t k = 0; k + 1 < edge.chain.size(); ++k) {
      pieces.insert(MakePiece(edge.chain[k], edge.chain[k + 1]));
    }
  }
  return pieces;
}

void ExpectCutOrderMatchesOracle(const SpatialInstance& instance) {
  const std::set<Piece> expected = OraclePieces(instance);
  for (const bool exact : {false, true}) {
    ArrangementOptions options;
    options.exact_predicates = exact;
    Result<CellComplex> complex = CellComplex::Build(instance, options);
    ASSERT_TRUE(complex.ok()) << complex.status().ToString();
    EXPECT_EQ(ChainPieces(*complex), expected)
        << (exact ? "exact" : "filtered") << " build of\n"
        << complex->DebugString();
  }
}

// Random triangles over a small grid: vertical edges (dir.x == 0),
// leftward and diagonal edges in every orientation, and crossings with
// non-integer coordinates.
SpatialInstance RandomTriangles(SplitMix64& rng, int count) {
  SpatialInstance instance;
  int made = 0;
  while (made < count) {
    const auto coord = [&] { return static_cast<int64_t>(rng.Below(13)); };
    Point a(coord(), coord()), b(coord(), coord()), c(coord(), coord());
    if (rng.Below(3) == 0) b = Point(a.x, b.y);  // Force a vertical edge.
    if (OrientationExact(a, b, c) == 0) continue;
    Result<Region> region = Region::MakePoly({a, b, c});
    if (!region.ok()) continue;
    std::string name = "T";
    name += std::to_string(made);
    const Status added = instance.AddRegion(name, *region);
    EXPECT_TRUE(added.ok()) << added.ToString();
    ++made;
  }
  return instance;
}

TEST(CellComplexCutOrderTest, RandomTrianglesMatchExactParameterOrder) {
  SplitMix64 rng(0xc07);
  int vertical = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const SpatialInstance instance =
        RandomTriangles(rng, 2 + static_cast<int>(rng.Below(4)));
    for (const auto& [name, region] : instance.regions()) {
      const Polygon& poly = region.boundary();
      for (size_t i = 0; i < poly.size(); ++i) {
        if (poly.vertex(i).x == poly.vertex((i + 1) % poly.size()).x) {
          ++vertical;
        }
      }
    }
    ExpectCutOrderMatchesOracle(instance);
  }
  EXPECT_GT(vertical, 0);
}

TEST(CellComplexCutOrderTest, SharedCarrierLinesMatchExactParameterOrder) {
  // Rectangles whose sides run along common carrier lines: collinear
  // overlaps put several cut points of different segments on one line.
  // The stretched images carry non-integer coordinates, which the
  // small-integer intersection stage does not take.
  BigInt factor = BigInt(1).ShiftLeft(64);
  const AffineTransform stretch = *AffineTransform::Make(
      Rational(factor, BigInt(3)), 0, Rational(BigInt(7), factor), 0,
      Rational(factor, BigInt(5)), Rational(1, 3));
  const SpatialInstance instances[] = {
      *RectGridInstance(2, 3), *NestedRingsInstance(3), *ChainInstance(4),
      *RandomRectInstance(6, 8, 5), *RandomRectInstance(8, 12, 6)};
  for (const SpatialInstance& instance : instances) {
    ExpectCutOrderMatchesOracle(instance);
    ExpectCutOrderMatchesOracle(*stretch.ApplyToInstance(instance));
  }
}

TEST(CellComplexCutOrderTest, NearCoincidentCutPointsStayDistinct) {
  // Cut points on one carrier line that differ by 2^-60 in the other
  // coordinate: a vertex at the integer point (0, 1) and a crossing at
  // (0, 1 + 2^-60). The integer's enclosure is a point, the crossing's is
  // not, and they overlap, so only the rationals can order the two. The
  // transposed instance puts the pair on a horizontal line.
  const Rational e(BigInt(1), BigInt(1).ShiftLeft(60));
  for (const bool transpose : {false, true}) {
    const auto at = [&](const Rational& x, const Rational& y) {
      return transpose ? Point(y, x) : Point(x, y);
    };
    SpatialInstance instance;
    // A's left side runs along x = 0; B touches it at (0, 1); C's lower
    // edge crosses it at (0, 1 + e) and its upper edge at (0, 2 + e).
    const std::vector<Point> a = {at(0, 0), at(4, 0), at(4, 4), at(0, 4)};
    const std::vector<Point> b = {at(-2, 0), at(0, 1), at(-2, 2)};
    const std::vector<Point> c = {at(-1, 1), at(1, Rational(1) + e + e),
                                  at(-1, 3)};
    ASSERT_TRUE(instance.AddRegion("A", *Region::MakePoly(a)).ok());
    ASSERT_TRUE(instance.AddRegion("B", *Region::MakePoly(b)).ok());
    ASSERT_TRUE(instance.AddRegion("C", *Region::MakePoly(c)).ok());
    ExpectCutOrderMatchesOracle(instance);
    ArrangementOptions exact;
    exact.exact_predicates = true;
    EXPECT_EQ(CellComplex::Build(instance)->DebugString(),
              CellComplex::Build(instance, exact)->DebugString());
  }
}

}  // namespace
}  // namespace topodb
