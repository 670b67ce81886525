// Reproduces Fig 13 (edge / corner / oneedge predicates) and Theorem 6.4
// (FO(Rect, .) has polynomial data complexity): a fixed rect-quantifier
// query evaluated over growing instances, plus the Theorem 5.8 S-genericity
// agreement between the language answers and monotone reparametrizations.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/topodb.h"

namespace topodb {
namespace {

using bench::Unwrap;

void ReportFig13() {
  bench::Header("Fig 13: edge / corner / oneedge on rectangle contacts");
  SpatialInstance instance;
  bench::Check(instance.AddRegion(
      "A", Unwrap(Region::MakeRect(Point(0, 0), Point(4, 4)))));
  bench::Check(instance.AddRegion(
      "B", Unwrap(Region::MakeRect(Point(4, 0), Point(8, 4)))));  // Side.
  bench::Check(instance.AddRegion(
      "C", Unwrap(Region::MakeRect(Point(4, 4), Point(8, 8)))));  // Corner.
  bench::Check(instance.AddRegion(
      "D", Unwrap(Region::MakeRect(Point(4, 1), Point(8, 3)))));  // Part.
  RectQueryEngine engine = Unwrap(RectQueryEngine::Build(instance));
  std::printf("%-8s | %-6s | %-6s | %-7s\n", "pair", "edge", "corner",
              "oneedge");
  for (auto [a, b] : {std::pair{"A", "B"}, {"A", "C"}, {"A", "D"},
                      {"B", "C"}}) {
    std::printf("%-2s vs %-2s | %-6s | %-6s | %-7s\n", a, b,
                Unwrap(engine.Edge(a, b)) ? "yes" : "no",
                Unwrap(engine.Corner(a, b)) ? "yes" : "no",
                Unwrap(engine.OneEdge(a, b)) ? "yes" : "no");
  }
  std::printf("candidate rectangles per quantifier: %zu\n",
              engine.num_candidates());

  bench::Header("Thm 5.8: S-genericity of FO(Rect, Rect) answers");
  SpatialInstance base;
  bench::Check(base.AddRegion(
      "A", Unwrap(Region::MakeRect(Point(0, 0), Point(4, 4)))));
  bench::Check(base.AddRegion(
      "B", Unwrap(Region::MakeRect(Point(3, 1), Point(9, 3)))));
  MonotonePl1D kink = Unwrap(MonotonePl1D::Make(
      {Rational(0), Rational(4), Rational(9)},
      {Rational(0), Rational(40), Rational(41)}));
  SymmetryTransform stretch(kink, MonotonePl1D(), false);
  SpatialInstance image = Unwrap(stretch.ApplyToInstance(base));
  RectQueryEngine eb = Unwrap(RectQueryEngine::Build(base));
  RectQueryEngine ei = Unwrap(RectQueryEngine::Build(image));
  const char* queries[] = {
      "overlap(A, B)",
      "exists rect r . inside(r, A) and inside(r, B)",
      "exists rect r . meet(r, A) and meet(r, B) and disjoint(r, r) or "
      "connect(r, r)",
  };
  int agree = 0, total = 0;
  for (const char* q : queries) {
    ++total;
    agree += Unwrap(eb.Evaluate(q)) == Unwrap(ei.Evaluate(q));
  }
  std::printf("answers preserved under monotone stretch: %d / %d\n", agree,
              total);
}

// Theorem 6.4: fixed query, growing data.
void BM_DataComplexity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SpatialInstance instance;
  for (int i = 0; i < n; ++i) {
    bench::Check(instance.AddRegion(
        std::string("R").append(std::to_string(100 + i)),
        Unwrap(Region::MakeRect(Point(6 * i, 0), Point(6 * i + 9, 4)))));
  }
  RectQueryEngine engine = Unwrap(RectQueryEngine::Build(instance));
  FormulaPtr query = Unwrap(ParseQuery(
      "exists rect r . overlap(r, R100) and (exists name a . not (a = R100) "
      "and overlap(r, a))"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query)));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DataComplexity)->DenseRange(2, 10, 2)->Complexity();

void BM_EdgePredicate(benchmark::State& state) {
  SpatialInstance instance;
  bench::Check(instance.AddRegion(
      "A", Unwrap(Region::MakeRect(Point(0, 0), Point(4, 4)))));
  bench::Check(instance.AddRegion(
      "B", Unwrap(Region::MakeRect(Point(4, 0), Point(8, 4)))));
  RectQueryEngine engine = Unwrap(RectQueryEngine::Build(instance));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(engine.Edge("A", "B")));
  }
}
BENCHMARK(BM_EdgePredicate);

void BM_EdgePredicateInLanguage(benchmark::State& state) {
  SpatialInstance instance;
  bench::Check(instance.AddRegion(
      "A", Unwrap(Region::MakeRect(Point(0, 0), Point(4, 4)))));
  bench::Check(instance.AddRegion(
      "B", Unwrap(Region::MakeRect(Point(4, 0), Point(8, 4)))));
  RectQueryEngine engine = Unwrap(RectQueryEngine::Build(instance));
  FormulaPtr query = Unwrap(ParseQuery(
      "meet(A, B) and exists rect x . overlap(x, A) and overlap(x, B) and "
      "(forall rect q . connect(x, q) implies (connect(A, q) or "
      "connect(B, q)))"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(engine.Evaluate(query)));
  }
}
BENCHMARK(BM_EdgePredicateInLanguage);

}  // namespace
}  // namespace topodb

int main(int argc, char** argv) {
  topodb::ReportFig13();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
