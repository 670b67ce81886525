// Exactness oracle for the floating-point-expansion predicate stage
// (src/base/expansion.h, DESIGN.md §5f). The stage's contract is absolute:
// it may decline an input ("envelope does not apply"), but whenever it
// answers, the sign must be bit-for-bit the sign the arbitrary-precision
// rational evaluation produces — including exact zeros. The tests check
// every error-free building block against BigInt/Rational arithmetic, then
// run the public predicate kernels against their exact counterparts over
// the same adversarial families as the filter differential suite:
// collinear triples, perturbations of 2^-k far below double noise, and
// small-denominator rational coordinates.

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/expansion.h"
#include "src/base/rational.h"
#include "src/geom/point.h"
#include "src/geom/predicates.h"

namespace topodb {
namespace {

using expansion_internal::DecomposeInteger;
using expansion_internal::ExpansionProduct;
using expansion_internal::ExpansionSum;
using expansion_internal::ScaleExpansionZeroElim;
using expansion_internal::SignOfExpansion;
using expansion_internal::TwoDiff;
using expansion_internal::TwoProduct;
using expansion_internal::TwoSum;
using expansion_internal::ZeroElim;

// Exact Rational value of a finite double: mantissa times a power of two.
Rational RationalFromDouble(double d) {
  int exp = 0;
  const double m = std::frexp(d, &exp);       // d == m * 2^exp, |m| in [0.5, 1)
  const int64_t mant = static_cast<int64_t>(std::ldexp(m, 53));  // exact
  const int e = exp - 53;
  if (e >= 0) return Rational(BigInt(mant).ShiftLeft(e), BigInt(1));
  return Rational(BigInt(mant), BigInt(1).ShiftLeft(-e));
}

// Exact rational value of an expansion, the reference for every kernel.
Rational ExpansionValue(int len, const double* e) {
  Rational sum(0);
  for (int i = 0; i < len; ++i) sum += RationalFromDouble(e[i]);
  return sum;
}

// A random double whose value is an integer times 2^exp_shift, so products
// and sums stay representable while still exercising many bit patterns.
double RandomComponent(std::mt19937_64& rng, int bits, int exp_shift) {
  const uint64_t mask = (bits >= 64) ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  const int64_t mag = static_cast<int64_t>(rng() & mask);
  const double v = static_cast<double>((rng() & 1) ? mag : -mag);
  return std::ldexp(v, exp_shift);
}

TEST(ExpansionKernelTest, TwoSumAndTwoDiffAreErrorFree) {
  std::mt19937_64 rng(11);
  for (int iter = 0; iter < 2000; ++iter) {
    const double a = RandomComponent(rng, 50, static_cast<int>(rng() % 60) - 30);
    const double b = RandomComponent(rng, 50, static_cast<int>(rng() % 60) - 30);
    double x, y;
    TwoSum(a, b, &x, &y);
    EXPECT_EQ(RationalFromDouble(x) + RationalFromDouble(y),
              RationalFromDouble(a) + RationalFromDouble(b));
    TwoDiff(a, b, &x, &y);
    EXPECT_EQ(RationalFromDouble(x) + RationalFromDouble(y),
              RationalFromDouble(a) - RationalFromDouble(b));
  }
}

TEST(ExpansionKernelTest, TwoProductIsErrorFree) {
  std::mt19937_64 rng(12);
  for (int iter = 0; iter < 2000; ++iter) {
    const double a = RandomComponent(rng, 52, static_cast<int>(rng() % 40) - 20);
    const double b = RandomComponent(rng, 52, static_cast<int>(rng() % 40) - 20);
    double x, y;
    TwoProduct(a, b, &x, &y);
    EXPECT_EQ(RationalFromDouble(x) + RationalFromDouble(y),
              RationalFromDouble(a) * RationalFromDouble(b))
        << a << " * " << b;
  }
}

TEST(ExpansionKernelTest, DecomposeIntegerRoundTrips) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 2000; ++iter) {
    // Up to 4 limbs, with runs of zero limbs to exercise zero elimination.
    const int limbs = 1 + static_cast<int>(rng() % 4);
    BigInt mag(0);
    for (int i = 0; i < limbs; ++i) {
      mag = mag.ShiftLeft(32);
      if (rng() % 3 != 0) mag = mag + BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
    }
    const BigInt v = (rng() & 1) ? BigInt(0) - mag : mag;
    double comps[4];
    const int n = DecomposeInteger(v, comps);
    ASSERT_LE(n, 4);
    EXPECT_EQ(ExpansionValue(n, comps), Rational(v, BigInt(1)))
        << v.ToString();
    // Components must be nonoverlapping and increasing in magnitude.
    for (int i = 1; i < n; ++i) {
      EXPECT_LT(std::abs(comps[i - 1]), std::abs(comps[i]));
    }
  }
}

// Builds a random nonoverlapping expansion via DecomposeInteger.
int RandomExpansion(std::mt19937_64& rng, int max_limbs, double* out) {
  const int limbs = 1 + static_cast<int>(rng() % max_limbs);
  BigInt mag(0);
  for (int i = 0; i < limbs; ++i) {
    mag = mag.ShiftLeft(32) + BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
  }
  const BigInt v = (rng() & 1) ? BigInt(0) - mag : mag;
  return DecomposeInteger(v, out);
}

TEST(ExpansionKernelTest, ExpansionSumIsExact) {
  std::mt19937_64 rng(14);
  for (int iter = 0; iter < 2000; ++iter) {
    double e[4], f[4], h[8];
    const int elen = RandomExpansion(rng, 4, e);
    const int flen = RandomExpansion(rng, 4, f);
    const Rational want = ExpansionValue(elen, e) + ExpansionValue(flen, f);
    const int hlen = ExpansionSum(elen, e, flen, f, h);
    ASSERT_LE(hlen, elen + flen);
    EXPECT_EQ(ExpansionValue(hlen, h), want);
    EXPECT_EQ(SignOfExpansion(hlen, h), want.sign());

    // In-place accumulate (h == e) must give the same value.
    double acc[8];
    for (int i = 0; i < elen; ++i) acc[i] = e[i];
    const int alen = ExpansionSum(elen, acc, flen, f, acc);
    EXPECT_EQ(ExpansionValue(alen, acc), want);
  }
}

TEST(ExpansionKernelTest, ScaleExpansionIsExact) {
  std::mt19937_64 rng(15);
  for (int iter = 0; iter < 2000; ++iter) {
    double e[4], h[8];
    const int elen = RandomExpansion(rng, 4, e);
    // Scale factors shaped like the lcm ratios the predicates use: exact
    // small integers, including 1.
    const double b = static_cast<double>(1 + (rng() % (uint64_t{1} << 40)));
    const Rational want = ExpansionValue(elen, e) * RationalFromDouble(b);
    const int hlen = ScaleExpansionZeroElim(elen, e, b, h);
    ASSERT_LE(hlen, 2 * elen);
    EXPECT_EQ(ExpansionValue(hlen, h), want);
  }
}

TEST(ExpansionKernelTest, ExpansionProductIsExact) {
  std::mt19937_64 rng(16);
  for (int iter = 0; iter < 1000; ++iter) {
    double e[4], f[4], h[32], scratch[8];
    const int elen = RandomExpansion(rng, 4, e);
    const int flen = RandomExpansion(rng, 4, f);
    const Rational want = ExpansionValue(elen, e) * ExpansionValue(flen, f);
    const int hlen = ExpansionProduct(elen, e, flen, f, h, scratch);
    ASSERT_LE(hlen, 2 * elen * flen);
    EXPECT_EQ(ExpansionValue(hlen, h), want);
    EXPECT_EQ(SignOfExpansion(hlen, h), want.sign());
  }
}

TEST(ExpansionKernelTest, ZeroElimDropsZerosOnly) {
  double h[6] = {0.0, 1.0, 0.0, 256.0, 0.0, 65536.0};
  const int n = ZeroElim(6, h);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(h[0], 1.0);
  EXPECT_EQ(h[1], 256.0);
  EXPECT_EQ(h[2], 65536.0);
  double all_zero[3] = {0.0, 0.0, 0.0};
  EXPECT_EQ(ZeroElim(3, all_zero), 0);
  EXPECT_EQ(SignOfExpansion(0, all_zero), 0);
}

// --- Public predicate kernels vs the exact rational oracle ----------------

// Small-denominator rational: numerator up to ~2^62, denominator from a
// fixed small set so lcm stays far under 2^53 — squarely inside the
// envelope the expansion stage advertises.
Rational EnvelopeCoord(std::mt19937_64& rng) {
  static const int64_t dens[] = {1, 2, 3, 4, 5, 6, 7, 15, 16, 255};
  const int64_t num =
      static_cast<int64_t>(rng() % (uint64_t{1} << 62)) - (int64_t{1} << 61);
  return Rational(num, dens[rng() % (sizeof(dens) / sizeof(dens[0]))]);
}

TEST(ExpansionPredicateTest, OrientationMatchesExactOnEnvelopeInputs) {
  std::mt19937_64 rng(21);
  int applied = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const Point a(EnvelopeCoord(rng), EnvelopeCoord(rng));
    const Point b(EnvelopeCoord(rng), EnvelopeCoord(rng));
    const Point c(EnvelopeCoord(rng), EnvelopeCoord(rng));
    int sign = 99;
    if (ExpansionOrientation(a.x, a.y, b.x, b.y, c.x, c.y, &sign)) {
      ++applied;
      EXPECT_EQ(sign, OrientationExact(a, b, c))
          << a.ToString() << " " << b.ToString() << " " << c.ToString();
    }
    // Exact collinear triple from the same base points: the zero case.
    const Point m = a + (b - a) * Rational(1, 2);
    if (ExpansionOrientation(a.x, a.y, b.x, b.y, m.x, m.y, &sign)) {
      EXPECT_EQ(sign, 0);
    }
  }
  // The envelope must actually cover this family, or the stage is dead code.
  EXPECT_GT(applied, 400);
}

TEST(ExpansionPredicateTest, TinyPerturbationsKeepExactSigns) {
  // Collinear triple pushed off the line by ±1/2^k, k up to 50: the
  // perturbation is invisible to a plain double evaluation from k ≈ 30 on
  // (magnitudes ~2^30 times larger), but the expansion stage must recover
  // the exact sign because nothing in it rounds.
  std::mt19937_64 rng(22);
  for (int iter = 0; iter < 500; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 2001) - 1000;
    const int64_t y0 = static_cast<int64_t>(rng() % 2001) - 1000;
    const int64_t dx = 1 + static_cast<int64_t>(rng() % 1000000);
    const int64_t dy = static_cast<int64_t>(rng() % 2000001) - 1000000;
    const Point a(x0, y0);
    const Point b(x0 + dx, y0 + dy);
    const Point mid = a + (b - a) * Rational(1, 2);
    const int k = 1 + static_cast<int>(rng() % 50);
    const int eps_sign = (rng() & 1) ? 1 : -1;
    const Rational eps(BigInt(eps_sign), BigInt(1).ShiftLeft(k));
    const Point off(mid.x, mid.y + eps);
    int sign = 99;
    if (ExpansionOrientation(a.x, a.y, b.x, b.y, off.x, off.y, &sign)) {
      // dx > 0, so the orientation sign equals the perturbation sign.
      EXPECT_EQ(sign, eps_sign) << "k=" << k;
      EXPECT_EQ(sign, OrientationExact(a, b, off));
    }
  }
}

TEST(ExpansionPredicateTest, CrossDotCompareMatchExact) {
  std::mt19937_64 rng(23);
  for (int iter = 0; iter < 500; ++iter) {
    const Rational ux = EnvelopeCoord(rng), uy = EnvelopeCoord(rng);
    const Rational vx = EnvelopeCoord(rng), vy = EnvelopeCoord(rng);
    int sign = 99;
    if (ExpansionCrossSign(ux, uy, vx, vy, &sign)) {
      EXPECT_EQ(sign, (ux * vy - uy * vx).sign());
    }
    if (ExpansionDotSign(ux, uy, vx, vy, &sign)) {
      EXPECT_EQ(sign, (ux * vx + uy * vy).sign());
    }
    const Rational px = EnvelopeCoord(rng), py = EnvelopeCoord(rng);
    if (ExpansionCompareSign(px, ux, &sign)) {
      EXPECT_EQ(sign, (px - ux).sign());
    }
    // Equal values must compare zero, not merely small.
    if (ExpansionCompareSign(px, px, &sign)) {
      EXPECT_EQ(sign, 0);
    }
  }
}

TEST(ExpansionPredicateTest, DeclinesOutsideEnvelope) {
  // Denominator 2^200: lcm folding must bail, never answer.
  const Rational big_den(BigInt(1), BigInt(1).ShiftLeft(200));
  // Numerator 2^200: decomposition exceeds 4 limbs.
  const Rational big_num(BigInt(1).ShiftLeft(200), BigInt(1));
  const Rational one(1);
  int sign = 99;
  EXPECT_FALSE(ExpansionCompareSign(big_den, one, &sign));
  EXPECT_FALSE(ExpansionCompareSign(big_num, one, &sign));
  EXPECT_FALSE(ExpansionOrientation(big_num, one, one, one, one, big_den, &sign));
  EXPECT_FALSE(ExpansionDotSign(big_den, big_den, one, one, &sign));
  // Declining must not have written a sign.
  EXPECT_EQ(sign, 99);
}

TEST(ExpansionPredicateTest, FilteredPipelineRoutesThroughExpansionStage) {
  // A stretch-scaled coordinate family modeled on the bench's stretch-*
  // workloads: integers times 2^64/3 etc. The static stage cannot certify
  // (values far exceed its bit caps), intervals cannot separate the
  // near-collinear cases, but the lcm envelope applies — so the expansion
  // stage must absorb work that previously fell through to rationals.
  const PredicateFilterStats before = LocalPredicateFilterStats();
  const Rational stretch(BigInt(1).ShiftLeft(64), BigInt(3));
  std::mt19937_64 rng(24);
  int decided = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const int64_t x0 = static_cast<int64_t>(rng() % 201) - 100;
    const int64_t dx = 1 + static_cast<int64_t>(rng() % 9);
    const int64_t dy = static_cast<int64_t>(rng() % 9) - 4;
    const Point a(Rational(x0) * stretch, Rational(x0 + 1) * stretch);
    const Point b(Rational(x0 + dx) * stretch, Rational(x0 + 1 + dy) * stretch);
    const Point mid = a + (b - a) * Rational(1, 2);
    decided += Orientation(a, b, mid) == 0 ? 1 : 0;
    EXPECT_EQ(Orientation(a, b, mid), OrientationExact(a, b, mid));
  }
  EXPECT_EQ(decided, 50);
  const PredicateFilterStats after = LocalPredicateFilterStats();
  EXPECT_GT(after.expansion_hits, before.expansion_hits);
}

}  // namespace
}  // namespace topodb
