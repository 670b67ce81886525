// Differential fuzz for BigInt's 64/128-bit small-value fast paths and the
// in-place compound assignments. The general limb algorithms are the
// oracle: SetBigIntFastPathEnabled(false) re-runs the exact same operation
// through them, and every result must match bit for bit (via ToString,
// which renders the canonical sign/magnitude form). Inputs concentrate on
// the limb-transition boundaries — 2^32, 2^64, 2^96, 2^128 plus/minus a few
// — where a fast path that mis-detects overflow would first diverge.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"

namespace topodb {
namespace {

// Restores the (default-on) fast path even if a test fails mid-way.
class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool enabled) { SetBigIntFastPathEnabled(enabled); }
  ~ScopedFastPath() { SetBigIntFastPathEnabled(true); }
};

// All values straddling the representation boundaries the fast paths
// branch on, both signs.
std::vector<BigInt> BoundaryValues() {
  std::vector<BigInt> out;
  out.push_back(BigInt(0));
  for (int k : {1, 5, 31, 32, 33, 52, 53, 63, 64, 65, 95, 96, 97, 127, 128,
                129, 160, 200}) {
    const BigInt p = BigInt(1).ShiftLeft(k);
    for (int64_t d : {-2, -1, 0, 1, 2}) {
      const BigInt v = p + BigInt(d);
      out.push_back(v);
      out.push_back(BigInt(0) - v);
    }
  }
  return out;
}

BigInt RandomValue(std::mt19937_64& rng) {
  // 1..5 limbs: spans strictly-inside-fast-path through just-beyond.
  const int limbs = 1 + static_cast<int>(rng() % 5);
  BigInt v(0);
  for (int i = 0; i < limbs; ++i) {
    v = v.ShiftLeft(32) + BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
  }
  return (rng() & 1) ? BigInt(0) - v : v;
}

// Shift-and-subtract long division on magnitudes, one quotient bit per
// step and nothing estimated, built only from public BigInt operations:
// the oracle Algorithm D (BigInt::DivMod) is fuzzed against. Truncated
// semantics, like DivMod; b must be nonzero.
void DivModReference(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder) {
  const BigInt divisor = b.Abs();
  BigInt q, r;
  for (int bit = a.BitLength() - 1; bit >= 0; --bit) {
    const int next = (a.Limb(bit / 32) >> (bit % 32)) & 1u;
    r = r.ShiftLeft(1) + BigInt(next);
    q = q.ShiftLeft(1);
    if (r.Compare(divisor) >= 0) {
      r = r - divisor;
      q = q + BigInt(1);
    }
  }
  *quotient = a.sign() * b.sign() < 0 ? -q : q;
  *remainder = a.is_negative() ? -r : r;
}

struct OpResults {
  std::string sum, diff, prod, quot, rem, gcd, shifted;
  int cmp = 0;
};

OpResults RunAll(const BigInt& a, const BigInt& b, int shift_bits) {
  OpResults r;
  r.sum = (a + b).ToString();
  r.diff = (a - b).ToString();
  r.prod = (a * b).ToString();
  if (!b.is_zero()) {
    BigInt q, m;
    BigInt::DivMod(a, b, &q, &m);
    r.quot = q.ToString();
    r.rem = m.ToString();
    // Division identity and C remainder semantics, independent of path.
    EXPECT_EQ((q * b + m).ToString(), a.ToString());
    EXPECT_LT(m.Abs().Compare(b.Abs()), 0);
    if (!m.is_zero()) {
      EXPECT_EQ(m.sign(), a.sign());
    }
    // Algorithm D against the shift-and-subtract oracle.
    BigInt qr, mr;
    DivModReference(a, b, &qr, &mr);
    EXPECT_EQ(q.ToString(), qr.ToString()) << a << " / " << b;
    EXPECT_EQ(m.ToString(), mr.ToString()) << a << " % " << b;
  }
  r.gcd = BigInt::Gcd(a, b).ToString();
  r.shifted = a.ShiftLeft(shift_bits).ToString();
  r.cmp = a.Compare(b);
  return r;
}

void ExpectSameOnBothPaths(const BigInt& a, const BigInt& b,
                           std::mt19937_64& rng) {
  const int shift_bits = static_cast<int>(rng() % 140);
  ASSERT_TRUE(BigIntFastPathEnabled());
  const OpResults fast = RunAll(a, b, shift_bits);
  OpResults slow;
  {
    ScopedFastPath off(false);
    slow = RunAll(a, b, shift_bits);
  }
  EXPECT_EQ(fast.sum, slow.sum) << a << " + " << b;
  EXPECT_EQ(fast.diff, slow.diff) << a << " - " << b;
  EXPECT_EQ(fast.prod, slow.prod) << a << " * " << b;
  EXPECT_EQ(fast.quot, slow.quot) << a << " / " << b;
  EXPECT_EQ(fast.rem, slow.rem) << a << " % " << b;
  EXPECT_EQ(fast.gcd, slow.gcd) << "gcd(" << a << ", " << b << ")";
  EXPECT_EQ(fast.shifted, slow.shifted) << a << " << " << shift_bits;
  EXPECT_EQ(fast.cmp, slow.cmp) << a << " <=> " << b;
}

TEST(BigIntFastPathTest, BoundaryPairsMatchGeneralPath) {
  std::mt19937_64 rng(31);
  const std::vector<BigInt> values = BoundaryValues();
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      ExpectSameOnBothPaths(a, b, rng);
    }
  }
}

TEST(BigIntFastPathTest, RandomPairsMatchGeneralPath) {
  std::mt19937_64 rng(32);
  for (int iter = 0; iter < 3000; ++iter) {
    ExpectSameOnBothPaths(RandomValue(rng), RandomValue(rng), rng);
  }
}

TEST(BigIntFastPathTest, PromotionAcrossLimbBoundaries) {
  // Repeated += 1 walks a value across 2^32 and 2^64; repeated doubling
  // walks the inline buffer to its spill point and beyond. Every step is
  // checked against a fresh binary-op evaluation on the general path.
  BigInt v = BigInt(1).ShiftLeft(32) - BigInt(3);
  for (int i = 0; i < 8; ++i) {
    BigInt expect;
    {
      ScopedFastPath off(false);
      expect = v + BigInt(1);
    }
    v += BigInt(1);
    EXPECT_EQ(v.ToString(), expect.ToString());
  }
  BigInt w = BigInt(1).ShiftLeft(64) - BigInt(3);
  for (int i = 0; i < 8; ++i) {
    w += BigInt(1);
  }
  EXPECT_EQ(w.ToString(), (BigInt(1).ShiftLeft(64) + BigInt(5)).ToString());
  BigInt d(3);
  for (int i = 0; i < 300; ++i) d *= BigInt(2);  // Far past inline capacity.
  EXPECT_EQ(d.ToString(), (BigInt(3).ShiftLeft(300)).ToString());
}

TEST(BigIntInPlaceTest, CompoundAssignmentsMatchBinaryOperators) {
  std::mt19937_64 rng(33);
  const std::vector<BigInt> boundary = BoundaryValues();
  for (int iter = 0; iter < 2000; ++iter) {
    const BigInt a = (iter % 3 == 0) ? boundary[rng() % boundary.size()]
                                     : RandomValue(rng);
    const BigInt b = (iter % 5 == 0) ? boundary[rng() % boundary.size()]
                                     : RandomValue(rng);
    BigInt s = a;
    s += b;
    EXPECT_EQ(s.ToString(), (a + b).ToString()) << a << " += " << b;
    BigInt d = a;
    d -= b;
    EXPECT_EQ(d.ToString(), (a - b).ToString()) << a << " -= " << b;
    BigInt p = a;
    p *= b;
    EXPECT_EQ(p.ToString(), (a * b).ToString()) << a << " *= " << b;
  }
}

TEST(BigIntInPlaceTest, SelfAliasingCompoundAssignments) {
  const std::vector<BigInt> values = BoundaryValues();
  for (const BigInt& v : values) {
    BigInt s = v;
    s += s;
    EXPECT_EQ(s.ToString(), (v + v).ToString()) << v;
    BigInt d = v;
    d -= d;
    EXPECT_TRUE(d.is_zero()) << v;
    BigInt p = v;
    p *= p;
    EXPECT_EQ(p.ToString(), (v * v).ToString()) << v;
  }
}

TEST(BigIntFastPathTest, LimbAccessorsMatchCanonicalForm) {
  // LimbCount/Limb (the expansion stage's view) must agree with the value:
  // reassembling sum(Limb(i) * 2^(32 i)) reproduces the magnitude, and
  // there is never a leading zero limb.
  std::mt19937_64 rng(34);
  for (int iter = 0; iter < 500; ++iter) {
    const BigInt v = RandomValue(rng);
    if (v.is_zero()) {
      EXPECT_EQ(v.LimbCount(), 0u);
      continue;
    }
    BigInt rebuilt(0);
    for (size_t i = v.LimbCount(); i-- > 0;) {
      rebuilt = rebuilt.ShiftLeft(32) + BigInt(static_cast<int64_t>(v.Limb(i)));
    }
    EXPECT_NE(v.Limb(v.LimbCount() - 1), 0u);
    EXPECT_EQ(rebuilt.ToString(), v.Abs().ToString());
  }
}

TEST(RationalInPlaceTest, CompoundAssignmentsMatchBinaryOperators) {
  std::mt19937_64 rng(35);
  const auto random_rational = [&rng]() {
    BigInt num(static_cast<int64_t>(rng() % 2000001) - 1000000);
    BigInt den(static_cast<int64_t>(rng() % 999) + 1);
    // A third of the time, push numerator or denominator past 64 bits.
    if (rng() % 3 == 0) num = num * BigInt(1).ShiftLeft(40 + static_cast<int>(rng() % 60));
    if (rng() % 3 == 0) den = den * (BigInt(1).ShiftLeft(40 + static_cast<int>(rng() % 60)) + BigInt(1));
    return Rational(num, den);
  };
  for (int iter = 0; iter < 1500; ++iter) {
    const Rational a = random_rational();
    const Rational b = random_rational();
    Rational s = a;
    s += b;
    EXPECT_EQ(s.ToString(), (a + b).ToString());
    Rational d = a;
    d -= b;
    EXPECT_EQ(d.ToString(), (a - b).ToString());
    Rational p = a;
    p *= b;
    EXPECT_EQ(p.ToString(), (a * b).ToString());
    if (b.sign() != 0) {
      Rational q = a;
      q /= b;
      EXPECT_EQ(q.ToString(), (a / b).ToString());
    }
    // Equal-denominator shortcut: force a shared denominator.
    const Rational c(BigInt(static_cast<int64_t>(rng() % 1000)), b.den());
    Rational e(a.num(), b.den());
    const Rational e0 = e;
    e += c;
    EXPECT_EQ(e.ToString(), (e0 + c).ToString());
  }
}

TEST(RationalInPlaceTest, SelfAliasingCompoundAssignments) {
  const Rational values[] = {Rational(0), Rational(7, 3), Rational(-22, 8),
                             Rational(BigInt(1).ShiftLeft(100), BigInt(9)),
                             Rational(BigInt(-13), BigInt(1).ShiftLeft(90))};
  for (const Rational& v : values) {
    Rational s = v;
    s += s;
    EXPECT_EQ(s.ToString(), (v + v).ToString()) << v.ToString();
    Rational d = v;
    d -= d;
    EXPECT_EQ(d.sign(), 0) << v.ToString();
    Rational p = v;
    p *= p;
    EXPECT_EQ(p.ToString(), (v * v).ToString()) << v.ToString();
    if (v.sign() != 0) {
      Rational q = v;
      q /= q;
      EXPECT_EQ(q.ToString(), Rational(1).ToString()) << v.ToString();
    }
  }
}

}  // namespace
}  // namespace topodb
