#include "util/geometry.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace snd::util {

double cross(Vec2 a, Vec2 b) { return a.x * b.y - a.y * b.x; }

bool Circle::contains(Vec2 p, double eps) const {
  return distance(center, p) <= radius + eps;
}

bool Rect::contains(Vec2 p) const {
  return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
}

double lens_area(double r, double d) {
  if (d >= 2.0 * r) return 0.0;
  if (d <= 0.0) return std::numbers::pi * r * r;
  const double half = d / (2.0 * r);
  return 2.0 * r * r * std::acos(half) - (d / 2.0) * std::sqrt(4.0 * r * r - d * d);
}

double expected_common_neighbors(double density, double radio_range, double c) {
  if (c >= 2.0) return 0.0;
  const double half = c / 2.0;
  const double shape = 2.0 * std::acos(half) - c * std::sqrt(1.0 - half * half);
  return density * radio_range * radio_range * shape - 2.0;
}

namespace {

Circle circle_from(Vec2 a, Vec2 b) {
  const Vec2 center = {(a.x + b.x) / 2, (a.y + b.y) / 2};
  return {center, distance(a, b) / 2};
}

Circle circle_from(Vec2 a, Vec2 b, Vec2 c) {
  // Circumcircle via perpendicular bisector intersection.
  const double bx = b.x - a.x, by = b.y - a.y;
  const double cx = c.x - a.x, cy = c.y - a.y;
  const double d = 2.0 * (bx * cy - by * cx);
  if (std::abs(d) < 1e-12) {
    // Collinear: fall back to the widest pair.
    Circle best = circle_from(a, b);
    for (const Circle& candidate : {circle_from(a, c), circle_from(b, c)}) {
      if (candidate.radius > best.radius) best = candidate;
    }
    return best;
  }
  const double ux = (cy * (bx * bx + by * by) - by * (cx * cx + cy * cy)) / d;
  const double uy = (bx * (cx * cx + cy * cy) - cx * (bx * bx + by * by)) / d;
  const Vec2 center = {a.x + ux, a.y + uy};
  return {center, distance(center, a)};
}

Circle trivial(std::span<const Vec2> boundary) {
  switch (boundary.size()) {
    case 0:
      return {{0, 0}, 0};
    case 1:
      return {boundary[0], 0};
    case 2:
      return circle_from(boundary[0], boundary[1]);
    default:
      return circle_from(boundary[0], boundary[1], boundary[2]);
  }
}

// Welzl's algorithm, iterative move-to-front variant.
Circle welzl(std::vector<Vec2>& pts, std::vector<Vec2>& boundary, std::size_t n) {
  if (n == 0 || boundary.size() == 3) return trivial(boundary);
  Circle c = welzl(pts, boundary, n - 1);
  if (c.contains(pts[n - 1])) return c;
  boundary.push_back(pts[n - 1]);
  c = welzl(pts, boundary, n - 1);
  boundary.pop_back();
  return c;
}

}  // namespace

namespace {

// Area of circle (origin, r) ∩ [0,x] x [0,y] for x, y >= 0.
double quadrant_area(double x, double y, double r) {
  x = std::min(x, r);
  y = std::min(y, r);
  if (x <= 0.0 || y <= 0.0) return 0.0;
  // G(t) = integral of sqrt(r^2 - t^2) dt.
  const auto g = [r](double t) {
    return (t * std::sqrt(std::max(0.0, r * r - t * t)) + r * r * std::asin(t / r)) / 2.0;
  };
  // For t <= t0 the chord sqrt(r^2 - t^2) exceeds y (height capped at y).
  const double t0 = std::min(x, std::sqrt(std::max(0.0, r * r - y * y)));
  return y * t0 + g(x) - g(t0);
}

// Signed quadrant area: g(x, y) with the usual inclusion-exclusion signs.
double signed_quadrant_area(double x, double y, double r) {
  const double sign = (x < 0.0 ? -1.0 : 1.0) * (y < 0.0 ? -1.0 : 1.0);
  return sign * quadrant_area(std::abs(x), std::abs(y), r);
}

}  // namespace

double circle_rect_intersection_area(const Circle& circle, const Rect& rect) {
  const double r = circle.radius;
  if (r <= 0.0) return 0.0;
  const double x1 = rect.lo.x - circle.center.x;
  const double x2 = rect.hi.x - circle.center.x;
  const double y1 = rect.lo.y - circle.center.y;
  const double y2 = rect.hi.y - circle.center.y;
  return signed_quadrant_area(x2, y2, r) - signed_quadrant_area(x1, y2, r) -
         signed_quadrant_area(x2, y1, r) + signed_quadrant_area(x1, y1, r);
}

Circle minimum_enclosing_circle(std::span<const Vec2> points) {
  std::vector<Vec2> pts(points.begin(), points.end());
  // A deterministic shuffle keeps expected O(n) behaviour without pulling in
  // a seeded RNG dependency; inputs here are small (neighbor sets).
  for (std::size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[(i * 2654435761u) % i]);
  }
  std::vector<Vec2> boundary;
  return welzl(pts, boundary, pts.size());
}

}  // namespace snd::util
