// 2-D geometry for the deployment field: points, circles, the two-disk lens
// area behind the paper's analytical model, and the minimum enclosing circle
// used by the safety auditor to measure d-safety empirically.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace snd::util {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Vec2 operator*(Vec2 a, double s) { return {a.x * s, a.y * s}; }
  friend Vec2 operator*(double s, Vec2 a) { return a * s; }
  friend bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }

  [[nodiscard]] double norm() const { return std::sqrt(norm_squared()); }
  [[nodiscard]] double norm_squared() const { return x * x + y * y; }
};

// Header-inline: receiver resolution and the link models call these once
// per candidate.
inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }
inline double distance_squared(Vec2 a, Vec2 b) { return (a - b).norm_squared(); }
/// z-component of the 3-D cross product; sign gives orientation.
double cross(Vec2 a, Vec2 b);

struct Circle {
  Vec2 center;
  double radius = 0.0;

  /// Containment with a small tolerance for floating-point robustness.
  [[nodiscard]] bool contains(Vec2 p, double eps = 1e-9) const;
};

/// Axis-aligned rectangle [0,w] x [0,h]-style field.
struct Rect {
  Vec2 lo;
  Vec2 hi;

  [[nodiscard]] double width() const { return hi.x - lo.x; }
  [[nodiscard]] double height() const { return hi.y - lo.y; }
  [[nodiscard]] double area() const { return width() * height(); }
  [[nodiscard]] bool contains(Vec2 p) const;
  [[nodiscard]] Vec2 center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }
};

/// Area of the intersection (lens) of two radius-r disks whose centers are
/// d apart. Zero when d >= 2r; the full disk when d == 0.
double lens_area(double r, double d);

/// The paper's expected common-neighbor count N(c): the number of other
/// nodes expected to fall inside both radio disks of two nodes at distance
/// c*R, with deployment density `density` (nodes per unit area).
///   N(c) = density * R^2 * (2*acos(c/2) - c*sqrt(1 - (c/2)^2)) - 2
/// The -2 excludes the two endpoint nodes themselves.
double expected_common_neighbors(double density, double radio_range, double c);

/// Smallest circle enclosing all points (Welzl's algorithm, expected O(n)).
/// Returns a zero-radius circle at the origin for an empty input.
Circle minimum_enclosing_circle(std::span<const Vec2> points);

/// Area of circle ∩ rectangle, exact via the standard signed-quadrant
/// decomposition. Used by the border-effect model: a node near the field
/// edge has only disk∩field neighbors, which the paper's infinite-plane
/// formulas ignore (hence its center-node measurements).
double circle_rect_intersection_area(const Circle& circle, const Rect& rect);

}  // namespace snd::util
