#include "src/base/expansion.h"

#include <cstdint>

#include "src/base/check.h"

// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt): the error-free transforms below are exact only under
// plain IEEE-754 double rounding; contracting a*b-c into an FMA would
// silently change the residuals and break the exactness proofs.

namespace topodb {
namespace expansion_internal {

void TwoSum(double a, double b, double* x, double* y) {
  const double s = a + b;
  const double bv = s - a;
  const double av = s - bv;
  const double br = b - bv;
  const double ar = a - av;
  *x = s;
  *y = ar + br;
}

void TwoDiff(double a, double b, double* x, double* y) {
  const double s = a - b;
  const double bv = a - s;
  const double av = s + bv;
  const double br = bv - b;
  const double ar = a - av;
  *x = s;
  *y = ar + br;
}

namespace {

// Requires |a| >= |b| (or a == 0).
inline void FastTwoSum(double a, double b, double* x, double* y) {
  const double s = a + b;
  const double bv = s - a;
  *x = s;
  *y = b - bv;
}

// Dekker's splitter: 2^27 + 1.
inline void Split(double a, double* hi, double* lo) {
  const double c = 134217729.0 * a;
  const double abig = c - a;
  *hi = c - abig;
  *lo = a - *hi;
}

inline void TwoProductPresplit(double a, double b, double bhi, double blo,
                               double* x, double* y) {
  *x = a * b;
  double ahi, alo;
  Split(a, &ahi, &alo);
  const double err1 = *x - ahi * bhi;
  const double err2 = err1 - alo * bhi;
  const double err3 = err2 - ahi * blo;
  *y = alo * blo - err3;
}

}  // namespace

void TwoProduct(double a, double b, double* x, double* y) {
  double bhi, blo;
  Split(b, &bhi, &blo);
  TwoProductPresplit(a, b, bhi, blo, x, y);
}

// Shewchuk's EXPANSION-SUM: grows h by the components of f one at a time.
// Output is nonoverlapping and in increasing magnitude order whenever both
// inputs are (Shewchuk 1997, Theorem 7); zeros are kept, so the length is
// exactly elen + flen. The first pass reads e[i] before writing h[i], which
// is what makes h == e (in-place accumulation) legal.
int ExpansionSum(int elen, const double* e, int flen, const double* f,
                 double* h) {
  if (flen == 0) {
    if (h != e) {
      for (int i = 0; i < elen; ++i) h[i] = e[i];
    }
    return elen;
  }
  double q = f[0];
  for (int i = 0; i < elen; ++i) {
    TwoSum(q, e[i], &q, &h[i]);
  }
  h[elen] = q;
  int hlast = elen;
  for (int j = 1; j < flen; ++j) {
    q = f[j];
    for (int i = j; i <= hlast; ++i) {
      TwoSum(q, h[i], &q, &h[i]);
    }
    h[++hlast] = q;
  }
  return hlast + 1;
}

// Shewchuk's SCALE-EXPANSION with zero elimination (Theorem 13): output is
// nonoverlapping and increasing whenever e is.
int ScaleExpansionZeroElim(int elen, const double* e, double b, double* h) {
  if (elen == 0 || b == 0.0) return 0;
  double bhi, blo;
  Split(b, &bhi, &blo);
  double q, hh;
  TwoProductPresplit(e[0], b, bhi, blo, &q, &hh);
  int hindex = 0;
  if (hh != 0.0) h[hindex++] = hh;
  for (int i = 1; i < elen; ++i) {
    double p1, p0, sum;
    TwoProductPresplit(e[i], b, bhi, blo, &p1, &p0);
    TwoSum(q, p0, &sum, &hh);
    if (hh != 0.0) h[hindex++] = hh;
    FastTwoSum(p1, sum, &q, &hh);
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (q != 0.0 || hindex == 0) h[hindex++] = q;
  return hindex;
}

int ZeroElim(int len, double* h) {
  int out = 0;
  for (int i = 0; i < len; ++i) {
    if (h[i] != 0.0) h[out++] = h[i];
  }
  return out;
}

int SignOfExpansion(int len, const double* h) {
  // Nonoverlapping + increasing order: the last nonzero component has
  // larger magnitude than the sum of all the others, so it carries the
  // sign of the whole value.
  for (int i = len; i-- > 0;) {
    if (h[i] != 0.0) return h[i] > 0.0 ? 1 : -1;
  }
  return 0;
}

int ExpansionProduct(int elen, const double* e, int flen, const double* f,
                     double* h, double* scratch) {
  int hlen = 0;
  for (int j = 0; j < flen; ++j) {
    const int tlen = ScaleExpansionZeroElim(elen, e, f[j], scratch);
    hlen = ExpansionSum(hlen, h, tlen, scratch, h);
    hlen = ZeroElim(hlen, h);
  }
  return hlen;
}

int DecomposeInteger(const BigInt& v, double* out) {
  TOPODB_CHECK(v.LimbCount() <= 4);
  // 2^(32i) for i < 4; each component limb * 2^(32i) is an exact double
  // (<= 32 significant bits times a power of two).
  static constexpr double kPow32[4] = {0x1p0, 0x1p32, 0x1p64, 0x1p96};
  const double sign = v.sign() < 0 ? -1.0 : 1.0;
  int n = 0;
  for (size_t i = 0; i < v.LimbCount(); ++i) {
    const uint32_t limb = v.Limb(i);
    if (limb != 0) {
      out[n++] = sign * static_cast<double>(limb) * kPow32[i];
    }
  }
  return n;
}

}  // namespace expansion_internal

namespace {

using expansion_internal::DecomposeInteger;
using expansion_internal::ExpansionProduct;
using expansion_internal::ExpansionSum;
using expansion_internal::ScaleExpansionZeroElim;
using expansion_internal::SignOfExpansion;
using expansion_internal::ZeroElim;

// Applicability envelope. Numerators up to 4 limbs decompose into <= 4
// chunks; denominators must divide a common L <= 2^53 so the scale factors
// L/den are exact doubles. Scaled inputs then fit in <= 8 components
// (scale of a 4-chunk expansion), magnitudes <= 2^(128+53): far from
// double overflow even after the cross products (<= 2^364).
constexpr int kMaxNumLimbs = 4;
constexpr uint64_t kMaxLcm = uint64_t{1} << 53;

constexpr int kCoordCap = 8;    // scaled coordinate
constexpr int kDiffCap = 16;    // sum of two coordinates
constexpr int kProdCap = 512;   // product of two 16-expansions
constexpr int kDetCap = 1024;   // sum of two products

// Folds r's denominator into the running lcm. Returns false when the
// denominator exceeds 64 bits or the lcm would exceed 2^53.
bool FoldLcm(const Rational& r, uint64_t* lcm) {
  const BigInt& den = r.den();
  const size_t limbs = den.LimbCount();
  if (limbs > 2) return false;
  uint64_t d = den.Limb(0);
  if (limbs == 2) d |= uint64_t{den.Limb(1)} << 32;
  if (d == 1) return true;
  uint64_t a = *lcm, b = d;
  while (b != 0) {
    const uint64_t t = a % b;
    a = b;
    b = t;
  }
  const unsigned __int128 l =
      static_cast<unsigned __int128>(*lcm / a) * static_cast<unsigned __int128>(d);
  if (l > kMaxLcm) return false;
  *lcm = static_cast<uint64_t>(l);
  return true;
}

// Decomposes r * lcm (an exact integer by construction) into at most
// kCoordCap exact double components. Returns the length, or -1 when r's
// numerator is too wide for the stage.
int DecomposeScaled(const Rational& r, uint64_t lcm, double* out) {
  if (r.num().LimbCount() > kMaxNumLimbs) return -1;
  double chunks[kMaxNumLimbs];
  const int clen = DecomposeInteger(r.num(), chunks);
  // den divides lcm (it was folded into it), so the scale is an integer
  // <= 2^53: exactly representable.
  uint64_t d = r.den().Limb(0);
  if (r.den().LimbCount() == 2) d |= uint64_t{r.den().Limb(1)} << 32;
  const double scale = static_cast<double>(lcm / d);
  return ScaleExpansionZeroElim(clen, chunks, scale, out);
}

// Shared preparation: computes the common scale for the input set and the
// scaled decomposition of every input. Scaling all inputs by one L > 0
// multiplies each predicate kernel below by a positive power of L, leaving
// its sign unchanged.
bool DecomposeAll(const Rational* const* rs, int n, int lens[],
                  double comps[][kCoordCap]) {
  uint64_t lcm = 1;
  for (int i = 0; i < n; ++i) {
    if (!FoldLcm(*rs[i], &lcm)) return false;
  }
  for (int i = 0; i < n; ++i) {
    lens[i] = DecomposeScaled(*rs[i], lcm, comps[i]);
    if (lens[i] < 0) return false;
  }
  return true;
}

// sign of e0*e1 - e2*e3 over difference expansions (<= kDiffCap each).
int ProductDifferenceSign(int l0, const double* e0, int l1, const double* e1,
                          int l2, const double* e2, int l3, const double* e3) {
  double scratch[2 * kDiffCap];
  double t1[kProdCap], t2[kProdCap];
  const int t1len = ExpansionProduct(l0, e0, l1, e1, t1, scratch);
  int t2len = ExpansionProduct(l2, e2, l3, e3, t2, scratch);
  for (int i = 0; i < t2len; ++i) t2[i] = -t2[i];
  double det[kDetCap];
  const int dlen = ExpansionSum(t1len, t1, t2len, t2, det);
  return SignOfExpansion(dlen, det);
}

// sign of e0*e1 + e2*e3.
int ProductSumSign(int l0, const double* e0, int l1, const double* e1,
                   int l2, const double* e2, int l3, const double* e3) {
  double scratch[2 * kDiffCap];
  double t1[kProdCap], t2[kProdCap];
  const int t1len = ExpansionProduct(l0, e0, l1, e1, t1, scratch);
  const int t2len = ExpansionProduct(l2, e2, l3, e3, t2, scratch);
  double det[kDetCap];
  const int dlen = ExpansionSum(t1len, t1, t2len, t2, det);
  return SignOfExpansion(dlen, det);
}

// Difference of two scaled coordinates: d = a + (-b).
int DiffExpansion(int alen, const double* a, int blen, const double* b,
                  double* d) {
  double nb[kCoordCap];
  for (int i = 0; i < blen; ++i) nb[i] = -b[i];
  const int len = ExpansionSum(alen, a, blen, nb, d);
  return ZeroElim(len, d);
}

}  // namespace

bool ExpansionOrientation(const Rational& ax, const Rational& ay,
                          const Rational& bx, const Rational& by,
                          const Rational& cx, const Rational& cy, int* sign) {
  const Rational* rs[6] = {&ax, &ay, &bx, &by, &cx, &cy};
  int lens[6];
  double comps[6][kCoordCap];
  if (!DecomposeAll(rs, 6, lens, comps)) return false;
  double ux[kDiffCap], uy[kDiffCap], vx[kDiffCap], vy[kDiffCap];
  const int uxl = DiffExpansion(lens[2], comps[2], lens[0], comps[0], ux);
  const int uyl = DiffExpansion(lens[3], comps[3], lens[1], comps[1], uy);
  const int vxl = DiffExpansion(lens[4], comps[4], lens[0], comps[0], vx);
  const int vyl = DiffExpansion(lens[5], comps[5], lens[1], comps[1], vy);
  *sign = ProductDifferenceSign(uxl, ux, vyl, vy, uyl, uy, vxl, vx);
  return true;
}

bool ExpansionCrossSign(const Rational& ux, const Rational& uy,
                        const Rational& vx, const Rational& vy, int* sign) {
  const Rational* rs[4] = {&ux, &uy, &vx, &vy};
  int lens[4];
  double comps[4][kCoordCap];
  if (!DecomposeAll(rs, 4, lens, comps)) return false;
  *sign = ProductDifferenceSign(lens[0], comps[0], lens[3], comps[3],
                                lens[1], comps[1], lens[2], comps[2]);
  return true;
}

bool ExpansionDotSign(const Rational& ux, const Rational& uy,
                      const Rational& vx, const Rational& vy, int* sign) {
  const Rational* rs[4] = {&ux, &uy, &vx, &vy};
  int lens[4];
  double comps[4][kCoordCap];
  if (!DecomposeAll(rs, 4, lens, comps)) return false;
  *sign = ProductSumSign(lens[0], comps[0], lens[2], comps[2],
                         lens[1], comps[1], lens[3], comps[3]);
  return true;
}

bool ExpansionCompareSign(const Rational& a, const Rational& b, int* sign) {
  const Rational* rs[2] = {&a, &b};
  int lens[2];
  double comps[2][kCoordCap];
  if (!DecomposeAll(rs, 2, lens, comps)) return false;
  double d[kDiffCap];
  const int dlen = DiffExpansion(lens[0], comps[0], lens[1], comps[1], d);
  *sign = SignOfExpansion(dlen, d);
  return true;
}

}  // namespace topodb
