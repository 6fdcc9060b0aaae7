#include "geom/stripe.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace proxdet {

Stripe::Stripe(std::span<const Vec2> anchors, double radius)
    : anchors_(2 * anchors.size()), radius_(radius) {
  const size_t n = anchors.size();
  for (size_t i = 0; i < n; ++i) {
    anchors_[i] = anchors[i].x;
    anchors_[n + i] = anchors[i].y;
  }
  if (n > 0) {
    reject_box_.lo = reject_box_.hi = anchors[0];
    for (const Vec2& p : anchors) reject_box_.Extend(p);
    // Inflate by the radius plus 1e-6: three orders of magnitude above the
    // 1e-9 containment tolerance, so rounding in the inflation can never
    // turn a contained point into a reject.
    const double margin = radius_ + 1e-6;
    reject_box_.lo -= Vec2{margin, margin};
    reject_box_.hi += Vec2{margin, margin};
  }
}

Polyline Stripe::path() const {
  std::vector<Vec2> points(anchor_count());
  for (size_t i = 0; i < points.size(); ++i) {
    points[i] = {anchor_xs()[i], anchor_ys()[i]};
  }
  return Polyline(std::move(points));
}

bool Stripe::Contains(const Vec2& p) const {
  // AABB early-reject: every path point is inside reject_box_ deflated by
  // radius_ + 1e-6, so any p outside the box is strictly farther than the
  // containment threshold from every segment.
  if (!has_bounds() || !reject_box_.Contains(p)) {
    return false;
  }
  return std::sqrt(simd::PolylineSquaredDistanceToPoint(segments_soa(), p.x,
                                                        p.y)) <=
         radius_ + 1e-9;
}

double Stripe::DistanceToPoint(const Vec2& p) const {
  return std::max(
      0.0, std::sqrt(simd::PolylineSquaredDistanceToPoint(segments_soa(), p.x,
                                                          p.y)) -
               radius_);
}

double Stripe::DistanceToStripe(const Stripe& other) const {
  // Polyline::DistanceToPolyline's branch structure, with the scans routed
  // through the batched kernels (single-point paths take the point-distance
  // branches exactly as the scalar code does — the degenerate-segment SoA
  // encoding is only bit-safe for point kernels).
  double d;
  if (anchor_count() == 0 || other.anchor_count() == 0) {
    d = std::numeric_limits<double>::infinity();
  } else if (anchor_count() == 1) {
    d = std::sqrt(simd::PolylineSquaredDistanceToPoint(
        other.segments_soa(), anchor_xs()[0], anchor_ys()[0]));
  } else if (other.anchor_count() == 1) {
    d = std::sqrt(simd::PolylineSquaredDistanceToPoint(
        segments_soa(), other.anchor_xs()[0], other.anchor_ys()[0]));
  } else {
    const simd::SegmentSoA mine = segments_soa();
    const simd::SegmentSoA theirs = other.segments_soa();
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < mine.n; ++i) {
      const double row = simd::SegmentToPolylineSquaredDistance(
          mine.ax[i], mine.ay[i], mine.bx[i], mine.by[i], theirs);
      best = std::min(best, row);
      if (best == 0.0) break;  // Crossing found: the scalar early exit.
    }
    d = std::sqrt(best);
  }
  return std::max(0.0, d - radius_ - other.radius_);
}

double Stripe::ApproxDistanceToStripeEq8(const Stripe& other) const {
  // Eq. (8): min{ min_i d(a_i, S_w) - s^u, min_j d(b_j, S_u) - s^w } where
  // a_i are this stripe's anchors and b_j the other's. Each anchor set is
  // scanned as one batched polyline-distance call (chunked through a stack
  // buffer); the min fold keeps the scalar's sequential order.
  constexpr size_t kChunk = 64;
  double sq[kChunk];
  double best = std::numeric_limits<double>::infinity();
  const simd::SegmentSoA mine = segments_soa();
  const simd::SegmentSoA theirs = other.segments_soa();
  for (size_t i0 = 0; i0 < anchor_count(); i0 += kChunk) {
    const size_t c = std::min(kChunk, anchor_count() - i0);
    simd::PolylineSquaredDistanceToPoints(theirs, anchor_xs() + i0,
                                          anchor_ys() + i0, c, sq);
    for (size_t k = 0; k < c; ++k) {
      const double dp = std::max(0.0, std::sqrt(sq[k]) - other.radius_);
      best = std::min(best, dp - radius_);
    }
  }
  for (size_t i0 = 0; i0 < other.anchor_count(); i0 += kChunk) {
    const size_t c = std::min(kChunk, other.anchor_count() - i0);
    simd::PolylineSquaredDistanceToPoints(mine, other.anchor_xs() + i0,
                                          other.anchor_ys() + i0, c, sq);
    for (size_t k = 0; k < c; ++k) {
      const double dp = std::max(0.0, std::sqrt(sq[k]) - radius_);
      best = std::min(best, dp - other.radius_);
    }
  }
  return std::max(0.0, best);
}

double Stripe::DistanceToCircle(const Circle& c) const {
  return std::max(
      0.0, std::sqrt(simd::PolylineSquaredDistanceToPoint(
               segments_soa(), c.center.x, c.center.y)) -
               radius_ - c.radius);
}

double Stripe::CapsuleAreaUpperBound() const {
  const double pi = 3.14159265358979323846;
  if (anchor_count() == 0) return 0.0;
  double area = pi * radius_ * radius_;  // End caps, counted once total.
  const double* xs = anchor_xs();
  const double* ys = anchor_ys();
  for (size_t i = 0; i + 1 < anchor_count(); ++i) {
    area += 2.0 * radius_ * Distance({xs[i], ys[i]}, {xs[i + 1], ys[i + 1]});
  }
  return area;
}

}  // namespace proxdet
