#include "geom/stripe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"

namespace proxdet {
namespace {

Stripe MakeLStripe(double radius) {
  return Stripe(Polyline({{0, 0}, {10, 0}, {10, 10}}), radius);
}

TEST(StripeTest, ContainsWithinRadiusOfAnySegment) {
  const Stripe s = MakeLStripe(2.0);
  EXPECT_TRUE(s.Contains({5, 1.5}));
  EXPECT_TRUE(s.Contains({11.5, 5}));
  EXPECT_TRUE(s.Contains({5, 2}));   // Exactly on the boundary.
  EXPECT_FALSE(s.Contains({5, 2.1}));
  EXPECT_FALSE(s.Contains({-3, 0}));
}

TEST(StripeTest, DefinitionEquivalence) {
  // Def. 4: contained iff min segment distance <= radius.
  const Stripe s = MakeLStripe(1.5);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.Uniform(-5, 15), rng.Uniform(-5, 15)};
    const bool by_def = s.path().DistanceToPoint(p) <= s.radius() + 1e-9;
    EXPECT_EQ(s.Contains(p), by_def);
  }
}

TEST(StripeTest, DistanceToPoint) {
  const Stripe s = MakeLStripe(2.0);
  // Nearest segment is the vertical one (distance 5), minus radius 2.
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({5, 6}), 3.0);
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({5, 1}), 0.0);  // Inside.
}

TEST(StripeTest, StripeStripeDistance) {
  const Stripe a(Polyline({{0, 0}, {10, 0}}), 1.0);
  const Stripe b(Polyline({{0, 10}, {10, 10}}), 2.0);
  EXPECT_DOUBLE_EQ(a.DistanceToStripe(b), 7.0);
  const Stripe overlapping(Polyline({{0, 2}, {10, 2}}), 1.5);
  EXPECT_DOUBLE_EQ(a.DistanceToStripe(overlapping), 0.0);
}

TEST(StripeTest, Eq8IsUpperBoundOnExact) {
  // Eq. (8) anchors only at predicted points, so it can only overestimate
  // the true clearance (never report "safe" when the exact test says not).
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    auto random_stripe = [&rng]() {
      std::vector<Vec2> pts;
      Vec2 p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      for (int i = 0; i < 5; ++i) {
        pts.push_back(p);
        p += Vec2{rng.Uniform(-4, 4), rng.Uniform(-4, 4)};
      }
      return Stripe(Polyline(pts), rng.Uniform(0.5, 3.0));
    };
    const Stripe a = random_stripe();
    const Stripe b = random_stripe();
    EXPECT_GE(a.ApproxDistanceToStripeEq8(b) + 1e-9, a.DistanceToStripe(b));
  }
}

TEST(StripeTest, DistanceToCircle) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 1.0);
  const Circle c{{5, 6}, 2.0};
  EXPECT_DOUBLE_EQ(s.DistanceToCircle(c), 3.0);
  const Circle touching{{5, 2.5}, 1.5};
  EXPECT_DOUBLE_EQ(s.DistanceToCircle(touching), 0.0);
}

TEST(StripeTest, SinglePointStripeActsAsDisk) {
  const Stripe s(Polyline({{3, 3}}), 2.0);
  EXPECT_TRUE(s.Contains({4, 3}));
  EXPECT_FALSE(s.Contains({6, 3}));
  EXPECT_DOUBLE_EQ(s.DistanceToPoint({3, 8}), 3.0);
}

TEST(StripeTest, ZeroRadiusStripeContainsOnlyPath) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 0.0);
  EXPECT_TRUE(s.Contains({5, 0}));
  EXPECT_FALSE(s.Contains({5, 0.1}));
}

TEST(StripeTest, CapsuleAreaUpperBound) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 1.0);
  // pi * r^2 + 2 r L = pi + 20.
  EXPECT_NEAR(s.CapsuleAreaUpperBound(), 3.14159265 + 20.0, 1e-6);
}

// Property: the AABB early-reject in Contains never changes the answer.
// Points are drawn from a range much wider than the stripe so most fall
// outside the reject box, and every verdict must still match Def. 4.
TEST(StripeTest, AnchorsRoundTripToThePath) {
  // One anchor buffer, xs then ys: anchor_xs()/anchor_ys() and path()
  // reproduce the input polyline exactly, for every path length.
  Rng rng(17);
  for (const size_t n : {0, 1, 2, 3, 15}) {
    std::vector<Vec2> pts;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back({rng.Uniform(-1e4, 1e4), rng.Uniform(-1e4, 1e4)});
    }
    if (n == 3) pts[1] = {-0.0, 0.1};  // Signed zero survives.
    const Stripe s(Polyline(pts), 12.5);
    ASSERT_EQ(s.anchor_count(), n);
    EXPECT_EQ(s.has_bounds(), n > 0);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.anchor_xs()[i], pts[i].x);
      EXPECT_EQ(s.anchor_ys()[i], pts[i].y);
      EXPECT_EQ(std::signbit(s.anchor_xs()[i]), std::signbit(pts[i].x));
    }
    EXPECT_TRUE(s.path() == Polyline(pts)) << "n=" << n;
    EXPECT_TRUE(Stripe(s.path(), s.radius()) == s);
    EXPECT_TRUE(Stripe(std::span<const Vec2>(pts), 12.5) == s);
    EXPECT_FALSE(Stripe(Polyline(pts), 12.0) == s);
    if (n > 0) {
      std::vector<Vec2> moved = pts;
      moved.back().y += 1.0;
      EXPECT_FALSE(Stripe(Polyline(moved), 12.5) == s);
    }
  }
}

TEST(StripeTest, PropertyContainsMatchesDefinitionFarField) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    Vec2 p{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    for (int i = 0; i < 5; ++i) {
      pts.push_back(p);
      p += Vec2{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    }
    const Stripe s(Polyline(pts), rng.Uniform(0.5, 5.0));
    for (int i = 0; i < 100; ++i) {
      const Vec2 q{rng.Uniform(-2000, 2000), rng.Uniform(-2000, 2000)};
      const bool by_def = s.path().DistanceToPoint(q) <= s.radius() + 1e-9;
      EXPECT_EQ(s.Contains(q), by_def);
    }
  }
}

// Boundary points sit exactly at the containment threshold; the inflated
// reject box must never clip them.
TEST(StripeTest, BoundaryPointsSurviveEarlyReject) {
  const Stripe s(Polyline({{0, 0}, {10, 0}}), 2.0);
  EXPECT_TRUE(s.Contains({5, 2}));     // On the boundary.
  EXPECT_TRUE(s.Contains({-2, 0}));    // End-cap extreme, outside the
  EXPECT_TRUE(s.Contains({12, 0}));    // path's own bbox.
  EXPECT_TRUE(s.Contains({0, -2}));
  EXPECT_FALSE(s.Contains({5, 2.001}));
  EXPECT_FALSE(s.Contains({1e6, 1e6}));  // Far-field reject.
}

// Property: the squared-distance segment scan with one final sqrt is
// bit-identical to the historical per-segment sqrt minimization (IEEE sqrt
// is monotone), so detector output cannot shift.
TEST(StripeTest, PropertySquaredScanMatchesPerSegmentSqrt) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Vec2> pts;
    Vec2 p{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const int n = 2 + static_cast<int>(rng.NextIndex(6));
    for (int i = 0; i < n; ++i) {
      pts.push_back(p);
      p += Vec2{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    }
    const Polyline poly(pts);
    const Vec2 q{rng.Uniform(-500, 500), rng.Uniform(-500, 500)};
    double per_segment = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < poly.segment_count(); ++i) {
      per_segment =
          std::min(per_segment, DistancePointToSegment(q, poly.segment(i)));
    }
    EXPECT_EQ(poly.DistanceToPoint(q), per_segment);  // Bit-exact.
    EXPECT_EQ(std::sqrt(poly.SquaredDistanceToPoint(q)), per_segment);
  }
}

// Property: symmetry and the triangle-ish consistency of stripe distance
// with containment (distance 0 iff some sampled path point of one is inside
// the other's buffer expanded by its radius).
TEST(StripeTest, PropertyStripeDistanceSymmetric) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    auto random_stripe = [&rng]() {
      std::vector<Vec2> pts;
      Vec2 p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      for (int i = 0; i < 4; ++i) {
        pts.push_back(p);
        p += Vec2{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
      }
      return Stripe(Polyline(pts), rng.Uniform(0.1, 2.0));
    };
    const Stripe a = random_stripe();
    const Stripe b = random_stripe();
    EXPECT_DOUBLE_EQ(a.DistanceToStripe(b), b.DistanceToStripe(a));
    EXPECT_GE(a.DistanceToStripe(b), 0.0);
  }
}

}  // namespace
}  // namespace proxdet
