#include "core/policies.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "geom/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {

namespace {

/// Cost-model internals per rebuild, all deterministic: the chosen
/// prediction horizon m, the unit stripe half-width s^u (via the chosen
/// radius), and the expected message costs E_m / E_p the optimizer settled
/// on (Sec. V-B). Distributions, not totals — the report surfaces p50/p90.
struct StripeMetrics {
  obs::Counter& builds;
  obs::HistogramMetric& m;
  obs::QuantileMetric& radius;
  obs::QuantileMetric& e_m;
  obs::QuantileMetric& e_p;
  /// SoA lane counts the builder staged per rebuild (point-like constraints
  /// vs concatenated stripe segments) — deterministic functions of the
  /// workload, like every other stripe.* metric. Power-of-two-ish buckets:
  /// what matters is how many lanes land in full vector blocks vs the
  /// scalar tail.
  obs::HistogramMetric& batch_points;
  obs::HistogramMetric& batch_segments;
  /// Batched-kernel dispatches, keyed by the runtime-selected backend
  /// (simd.dispatch.scalar|w4|w8). The split is host- and build-dependent
  /// (CPUID, compiler flags), so it is wall-clock-kinded and stays out of
  /// the deterministic digest.
  obs::Counter& dispatches;

  static const StripeMetrics& Get() {
    static const StripeMetrics metrics{
        obs::Metrics().GetCounter("stripe.builds"),
        obs::Metrics().GetHistogram(
            "stripe.m",
            {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.radius",
                                   obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.e_m", obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.e_p", obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram(
            "simd.batch.stripe_points",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
             1024.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram(
            "simd.batch.stripe_segments",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
             1024.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetCounter(
            std::string("simd.dispatch.") +
                simd::BackendName(simd::ActiveBackend()),
            obs::Kind::kWallClock),
    };
    return metrics;
  }
};

/// A representative interior point of a shape, used only to orient
/// half-plane boundaries; soundness never depends on it (the verify-and-
/// shrink loop checks exact distances).
Vec2 RepresentativePoint(const SafeRegionShape& shape, int epoch) {
  return std::visit(
      [epoch](const auto& s) -> Vec2 {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Circle>) {
          return s.center;
        } else if constexpr (std::is_same_v<T, MovingCircle>) {
          return s.CenterAt(epoch);
        } else if constexpr (std::is_same_v<T, ConvexPolygon>) {
          Vec2 acc{0.0, 0.0};
          if (s.vertices().empty()) return acc;
          for (const Vec2& v : s.vertices()) acc += v;
          return acc / static_cast<double>(s.vertices().size());
        } else {
          const size_t n = s.anchor_count();
          if (n == 0) return Vec2{0.0, 0.0};
          return Vec2{s.anchor_xs()[n / 2], s.anchor_ys()[n / 2]};
        }
      },
      shape);
}

}  // namespace

SafeRegionShape StaticPolygonPolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  (void)u;
  (void)recent_window;
  (void)speed;
  // One boundary offset per friend; start at the full measured slack and
  // shrink on verification failure.
  std::vector<double> offsets(friends.size());
  std::vector<Vec2> directions(friends.size());
  for (size_t i = 0; i < friends.size(); ++i) {
    const double d = ShapeDistanceToPoint(friends[i].region(), location, epoch);
    offsets[i] = std::max(0.0, d - friends[i].alert_radius);
    Vec2 dir = RepresentativePoint(friends[i].region(), epoch) - location;
    if (dir.SquaredNorm() < 1e-12) dir = Vec2{1.0, 0.0};
    directions[i] = dir.Normalized();
  }

  for (int iter = 0;; ++iter) {
    ConvexPolygon poly = ConvexPolygon::Square(location, options_.extent_cap);
    for (size_t i = 0; i < friends.size(); ++i) {
      poly = poly.ClippedBy(
          {location + directions[i] * offsets[i], directions[i]});
      if (poly.empty()) break;
    }
    if (poly.empty()) break;  // Degenerate: fall through to the point region.
    bool violated = false;
    for (size_t i = 0; i < friends.size(); ++i) {
      const double d = ShapeMinDistance(SafeRegionShape(poly),
                                        friends[i].region(), epoch);
      if (d < friends[i].alert_radius - 1e-9) {
        offsets[i] *= 0.5;
        violated = true;
      }
    }
    if (!violated) return poly;
    if (iter >= options_.max_shrink_iterations) break;
  }
  // Friends leave no polygonal room: a point region (the user reports again
  // next epoch, which is the correct behavior when squeezed).
  return Circle{location, 0.0};
}

SafeRegionShape MobileCirclePolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  Vec2 velocity{0.0, 0.0};
  if (recent_window.size() >= 2) {
    velocity = (recent_window.back() - recent_window.front()) /
               static_cast<double>(recent_window.size() - 1);
  }
  (void)speed;
  double multiplier = 1.0;
  if (options_.self_tuning) {
    const auto it = multiplier_.find(u);
    if (it != multiplier_.end()) multiplier = it->second;
  }
  double radius = options_.base_radius * multiplier;
  for (const FriendView& f : friends) {
    const double d = ShapeDistanceToPoint(f.region(), location, epoch);
    radius = std::min(radius, std::max(0.0, d - f.alert_radius));
  }
  MovingCircle circle;
  circle.center_at_build = location;
  circle.velocity_per_epoch = velocity;
  circle.radius = radius;
  circle.built_epoch = epoch;
  return circle;
}

void MobileCirclePolicy::OnExit(UserId u) {
  if (!options_.self_tuning) return;
  double& m = multiplier_.try_emplace(u, 1.0).first->second;
  m = std::min(m * options_.increase, options_.max_multiplier);
}

void MobileCirclePolicy::OnProbe(UserId u) {
  if (!options_.self_tuning) return;
  double& m = multiplier_.try_emplace(u, 1.0).first->second;
  m = std::max(m * options_.decrease, options_.min_multiplier);
}

StripePolicy::StripePolicy(std::unique_ptr<Predictor> predictor)
    : StripePolicy(std::move(predictor), Options()) {}

StripePolicy::StripePolicy(std::unique_ptr<Predictor> predictor,
                           Options options)
    : predictor_(std::move(predictor)), options_(options) {}

SafeRegionShape StripePolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  (void)u;
  std::vector<Vec2> predicted;
  {
    obs::TraceScope span("predict", "engine");
    predicted = predictor_->Predict(
        recent_window, static_cast<size_t>(options_.build.max_horizon));
  }
  // Constraints borrow the FriendView regions (alive for the whole build).
  // Per-thread scratch: builds run concurrently on pool threads, and
  // steady-state rebuilds stay allocation-free.
  thread_local std::vector<StripeFriendConstraint> constraints;
  constraints.clear();
  for (const FriendView& f : friends) {
    constraints.push_back({&f.region(), f.alert_radius, f.speed});
  }
  obs::TraceScope span("stripe_build", "engine");
  const StripeBuildResult result = BuildPredictiveStripe(
      location, predicted, constraints, speed, options_.build, epoch);
  const StripeMetrics& sm = StripeMetrics::Get();
  sm.builds.Inc();
  sm.m.Record(static_cast<double>(result.m));
  sm.radius.Record(result.solution.radius);
  sm.e_m.Record(result.solution.e_m);
  sm.e_p.Record(result.solution.e_p);
  sm.batch_points.Record(static_cast<double>(result.staged_point_lanes));
  sm.batch_segments.Record(static_cast<double>(result.staged_segment_lanes));
  sm.dispatches.Inc(result.kernel_dispatches);
  return result.stripe;
}

}  // namespace proxdet
