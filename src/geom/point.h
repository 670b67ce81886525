#ifndef TOPODB_GEOM_POINT_H_
#define TOPODB_GEOM_POINT_H_

#include <iosfwd>
#include <string>

#include "src/base/rational.h"

namespace topodb {

// A point in the rational plane Q^2. Also used as a 2-vector (differences of
// points). Coordinates are exact, so equality is exact coincidence.
struct Point {
  Rational x;
  Rational y;

  Point() = default;
  Point(Rational x_coord, Rational y_coord)
      : x(std::move(x_coord)), y(std::move(y_coord)) {}
  Point(int64_t x_coord, int64_t y_coord) : x(x_coord), y(y_coord) {}

  Point operator+(const Point& o) const { return Point(x + o.x, y + o.y); }
  Point operator-(const Point& o) const { return Point(x - o.x, y - o.y); }
  Point operator*(const Rational& s) const { return Point(x * s, y * s); }

  std::string ToString() const {
    std::string out = "(";
    out += x.ToString();
    out += ", ";
    out += y.ToString();
    out += ")";
    return out;
  }

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }
  // Lexicographic (x, then y); used for deterministic orderings and maps.
  friend bool operator<(const Point& a, const Point& b) {
    int cx = a.x.Compare(b.x);
    if (cx != 0) return cx < 0;
    return a.y.Compare(b.y) < 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const Point& p);

  size_t Hash() const { return x.Hash() * 1000003u + y.Hash(); }
};

struct PointHash {
  size_t operator()(const Point& p) const { return p.Hash(); }
};

// Cross product of vectors a and b: a.x*b.y - a.y*b.x.
inline Rational Cross(const Point& a, const Point& b) {
  return a.x * b.y - a.y * b.x;
}

// Dot product.
inline Rational Dot(const Point& a, const Point& b) {
  return a.x * b.x + a.y * b.y;
}

}  // namespace topodb

#endif  // TOPODB_GEOM_POINT_H_
