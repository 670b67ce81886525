#ifndef TOPODB_BASE_EXPANSION_H_
#define TOPODB_BASE_EXPANSION_H_

#include "src/base/rational.h"

namespace topodb {

// Fixed-precision floating-point-expansion predicate stage (Shewchuk-style).
//
// An *expansion* is a sum of doubles x_n + ... + x_1 whose components are
// nonoverlapping (the bit ranges of any two components are disjoint) and
// ordered by increasing magnitude. Error-free transforms — TwoSum, TwoDiff
// and Dekker's TwoProduct — let sums and products of expansions be computed
// *exactly* as longer expansions using only double arithmetic, and the sign
// of a nonoverlapping expansion is simply the sign of its largest-magnitude
// (last nonzero) component. This gives exact integer signs at a fraction of
// the cost of arbitrary-precision rationals, with no allocation: every
// buffer is a fixed-size stack array.
//
// The functions below evaluate the sign of the geometric predicate kernels
// over Rational inputs. They apply when all denominators are small (their
// lcm L fits in 53 bits) and all numerators fit in 128 bits: scaling every
// input by the common factor L > 0 turns the inputs into integers without
// changing any of these signs, and each scaled input decomposes into at
// most 8 exact double components. Inputs outside that envelope return
// false ("stage does not apply") and the caller falls back to rationals —
// the stage can be wrong about applicability, never about a sign
// (DESIGN.md §5f).
//
// Results are bit-exact: either the function returns false, or *sign is
// exactly the sign the rational evaluation would produce.

// sign of det(b - a, c - a): the orientation kernel.
bool ExpansionOrientation(const Rational& ax, const Rational& ay,
                          const Rational& bx, const Rational& by,
                          const Rational& cx, const Rational& cy, int* sign);

// sign of ux*vy - uy*vx.
bool ExpansionCrossSign(const Rational& ux, const Rational& uy,
                        const Rational& vx, const Rational& vy, int* sign);

// sign of ux*vx + uy*vy.
bool ExpansionDotSign(const Rational& ux, const Rational& uy,
                      const Rational& vx, const Rational& vy, int* sign);

// sign of a - b.
bool ExpansionCompareSign(const Rational& a, const Rational& b, int* sign);

// Error-free building blocks, exposed for the exactness oracle tests
// (tests/expansion_test.cc verifies each against BigInt/Rational
// arithmetic). All expansion arguments must be nonoverlapping and in
// increasing magnitude order; all results are, too. Output buffers must
// not alias inputs unless stated.
namespace expansion_internal {

// x + y == a + b exactly, |y| <= ulp(x)/2.
void TwoSum(double a, double b, double* x, double* y);
void TwoDiff(double a, double b, double* x, double* y);
// x + y == a * b exactly.
void TwoProduct(double a, double b, double* x, double* y);

// h = e + f; h must have room for elen + flen components (zeros included).
// h == e is allowed (in-place accumulate); f must be distinct from h.
int ExpansionSum(int elen, const double* e, int flen, const double* f,
                 double* h);

// h = e * b with zero components dropped; h needs room for 2 * elen.
int ScaleExpansionZeroElim(int elen, const double* e, double b, double* h);

// h = e * f with zero components dropped; h needs room for 2 * elen * flen
// and must not alias e or f. scratch needs room for 2 * elen.
int ExpansionProduct(int elen, const double* e, int flen, const double* f,
                     double* h, double* scratch);

// Drops zero components in place; preserves order and nonoverlap.
int ZeroElim(int len, double* h);

// Sign of the expansion value: the sign of the last nonzero component.
int SignOfExpansion(int len, const double* h);

// Decomposes v into exact double components limb_i * 2^(32*i) (signed by
// v's sign), increasing magnitude order. Requires v.LimbCount() <= 4
// (checked); returns the component count (<= 4).
int DecomposeInteger(const BigInt& v, double* out);

}  // namespace expansion_internal

}  // namespace topodb

#endif  // TOPODB_BASE_EXPANSION_H_
