#ifndef PROXDET_GEOM_STRIPE_H_
#define PROXDET_GEOM_STRIPE_H_

#include <span>
#include <vector>

#include "geom/bbox.h"
#include "geom/circle.h"
#include "geom/polyline.h"
#include "geom/simd/simd.h"
#include "geom/vec2.h"

namespace proxdet {

/// Fixed-radius stripe (Def. 4): the set of points within `radius` of a
/// polyline of predicted locations. This is the paper's predictive safe
/// region. Containment is *time-independent* — a user anywhere along the
/// buffered path is safe regardless of speed (Sec. V-A).
class Stripe {
 public:
  Stripe() = default;
  /// The stripe of `radius` around the polyline through `anchors`.
  Stripe(std::span<const Vec2> anchors, double radius);
  Stripe(const Polyline& path, double radius)
      : Stripe(std::span<const Vec2>(path.points()), radius) {}

  /// The anchor polyline, rebuilt from the anchor arrays (an allocation per
  /// call: hot paths read anchor_xs()/anchor_ys() instead).
  Polyline path() const;
  double radius() const { return radius_; }

  /// Cached axis-aligned bounds: the path box inflated by radius_ plus the
  /// reject margin. Contains the whole stripe, so box distances derived
  /// from it are sound lower bounds. Only meaningful when has_bounds().
  const BBox& bounds() const { return reject_box_; }
  bool has_bounds() const { return !anchors_.empty(); }

  /// The path's anchors as coordinate arrays (the only copy of them).
  size_t anchor_count() const { return anchors_.size() / 2; }
  const double* anchor_xs() const { return anchors_.data(); }
  const double* anchor_ys() const { return anchors_.data() + anchor_count(); }

  /// SoA view of the path's segments over the anchor arrays: segment i runs
  /// from anchor i to anchor i + 1 (b = a + 1). A single-point path is one
  /// degenerate segment (b = a), which the point-distance kernels resolve
  /// bitwise like the scalar special case; callers doing segment-segment
  /// work must branch on anchor_count() == 1 exactly like
  /// Polyline::DistanceToPolyline does.
  simd::SegmentSoA segments_soa() const {
    const size_t n = anchor_count();
    const double* xs = anchor_xs();
    const double* ys = anchor_ys();
    if (n <= 1) return simd::SegmentSoA{xs, ys, xs, ys, n};
    return simd::SegmentSoA{xs, ys, xs + 1, ys + 1, n - 1};
  }

  /// Closed containment: boundary points are inside the safe region.
  bool Contains(const Vec2& p) const;

  /// Minimum distance from p to the stripe (0 when inside).
  double DistanceToPoint(const Vec2& p) const;

  /// Exact minimum distance between two stripes: the polyline-polyline
  /// distance minus both radii, clamped at 0. Used for the sound
  /// region-pair safety check.
  double DistanceToStripe(const Stripe& other) const;

  /// The paper's Eq. (8) approximation of stripe-stripe distance: the
  /// minimum over each stripe's *anchor points* of the point-to-other-stripe
  /// distance. Never smaller than the exact distance minus 0 (it is an upper
  /// bound on the exact distance); the cost model uses it, the safety check
  /// does not.
  double ApproxDistanceToStripeEq8(const Stripe& other) const;

  /// Minimum distance from a disk to the stripe (0 when intersecting).
  double DistanceToCircle(const Circle& c) const;

  /// Area of the buffered polyline, counting overlaps once is NOT attempted:
  /// this is the simple per-capsule sum used only for diagnostics.
  double CapsuleAreaUpperBound() const;

  /// Exact (bitwise) structural equality on anchors and radius (the reject
  /// box is derived from them); the wire codec's round-trip guarantee is
  /// stated in terms of it.
  friend bool operator==(const Stripe& a, const Stripe& b) {
    return a.radius_ == b.radius_ && a.anchors_ == b.anchors_;
  }

 private:
  // Anchor coordinates: xs[0..n) then ys[0..n), one allocation.
  std::vector<double> anchors_;
  double radius_ = 0.0;
  // Bounding box of the path inflated by radius_ plus a margin that safely
  // dominates the containment tolerance; Contains() rejects points outside
  // it without scanning a single segment. Invalid when the path is empty.
  BBox reject_box_;
};

}  // namespace proxdet

#endif  // PROXDET_GEOM_STRIPE_H_
