// Scalar reference kernels. Every function here replicates the scalar
// geometry in src/geom operation for operation (see the per-function notes
// naming the replicated source); the vector backends treat these as ground
// truth — their tails call straight into this file and the startup
// self-check compares against it bitwise. This TU is compiled with
// -ffp-contract=off like the vector units, so no backend ever sees a fused
// multiply-add the scalar library would not perform.

#include <cmath>
#include <limits>

#include "geom/simd/kernel_table.h"
#include "geom/simd/simd.h"

namespace proxdet {
namespace simd {
namespace scalar {

namespace {

/// SquaredDistancePointToSegment(p, (a, b)). Mirrors geom/segment.cc:
/// ClosestPointOnSegment (d = b - a, len2 = d.SquaredNorm(), degenerate
/// guard, clamp(dot/len2)) followed by SquaredDistance(p, closest).
inline double SqDistPointSeg(double px, double py, double ax, double ay,
                             double bx, double by) {
  const double dx = bx - ax;
  const double dy = by - ay;
  const double len2 = dx * dx + dy * dy;
  double cx, cy;
  if (len2 <= 0.0) {  // Degenerate segment: closest point is a.
    cx = ax;
    cy = ay;
  } else {
    const double rx = px - ax;
    const double ry = py - ay;
    const double dot = rx * dx + ry * dy;  // (p - a).Dot(d)
    double t = dot / len2;
    t = t < 0.0 ? 0.0 : (1.0 < t ? 1.0 : t);  // std::clamp(t, 0, 1)
    cx = ax + dx * t;  // a + d * t
    cy = ay + dy * t;
  }
  const double ex = px - cx;  // SquaredDistance(p, closest)
  const double ey = py - cy;
  return ex * ex + ey * ey;
}

/// Orientation(a, b, c) with b - a passed precomputed: the sign of
/// (b - a).Cross(c - a) under the library's 1e-12 tolerance.
inline int OrientSign(double abx, double aby, double acx, double acy) {
  const double cross = abx * acy - aby * acx;
  const double eps = 1e-12;
  if (cross > eps) return 1;
  if (cross < -eps) return -1;
  return 0;
}

/// OnSegment(p, s) — the 1e-12-padded bounding-box test of segment.cc.
inline bool OnSeg(double px, double py, double sax, double say, double sbx,
                  double sby) {
  const double minx = sax < sbx ? sax : sbx;  // std::min(a.x, b.x)
  const double maxx = sbx < sax ? sax : sbx;  // std::max(a.x, b.x)
  const double miny = say < sby ? say : sby;
  const double maxy = sby < say ? say : sby;
  return minx - 1e-12 <= px && px <= maxx + 1e-12 && miny - 1e-12 <= py &&
         py <= maxy + 1e-12;
}

/// SquaredDistanceSegmentToSegment(q, s); replicates SegmentsIntersect +
/// the four endpoint distances.
inline double SqDistSegSeg(double qax, double qay, double qbx, double qby,
                           double sax, double say, double sbx, double sby) {
  const double qdx = qbx - qax;
  const double qdy = qby - qay;
  const double sdx = sbx - sax;
  const double sdy = sby - say;
  const int o1 = OrientSign(qdx, qdy, sax - qax, say - qay);
  const int o2 = OrientSign(qdx, qdy, sbx - qax, sby - qay);
  const int o3 = OrientSign(sdx, sdy, qax - sax, qay - say);
  const int o4 = OrientSign(sdx, sdy, qbx - sax, qby - say);
  bool intersect = (o1 != o2 && o3 != o4);
  if (!intersect && o1 == 0 && OnSeg(sax, say, qax, qay, qbx, qby)) {
    intersect = true;
  }
  if (!intersect && o2 == 0 && OnSeg(sbx, sby, qax, qay, qbx, qby)) {
    intersect = true;
  }
  if (!intersect && o3 == 0 && OnSeg(qax, qay, sax, say, sbx, sby)) {
    intersect = true;
  }
  if (!intersect && o4 == 0 && OnSeg(qbx, qby, sax, say, sbx, sby)) {
    intersect = true;
  }
  if (intersect) return 0.0;
  const double d1 = SqDistPointSeg(qax, qay, sax, say, sbx, sby);
  const double d2 = SqDistPointSeg(qbx, qby, sax, say, sbx, sby);
  const double d3 = SqDistPointSeg(sax, say, qax, qay, qbx, qby);
  const double d4 = SqDistPointSeg(sbx, sby, qax, qay, qbx, qby);
  const double m12 = d2 < d1 ? d2 : d1;  // std::min(d1, d2)
  const double m34 = d4 < d3 ? d4 : d3;
  return m34 < m12 ? m34 : m12;
}

/// Matrix::operator* on fixed 4x4 row-major arrays, including the
/// v == 0.0 accumulation skip (observable in signed zeros).
inline void Mul4(const double* a, const double* b, double* out) {
  for (int i = 0; i < 16; ++i) out[i] = 0.0;
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 4; ++k) {
      const double v = a[r * 4 + k];
      if (v == 0.0) continue;
      for (int c = 0; c < 4; ++c) {
        out[r * 4 + c] += v * b[k * 4 + c];
      }
    }
  }
}

}  // namespace

void PointsInBoxes(const double* px, const double* py, const double* lox,
                   const double* loy, const double* hix, const double* hiy,
                   size_t n, uint8_t* inside) {
  for (size_t i = 0; i < n; ++i) {
    // BBox::Contains' comparison order: x bounds, then y bounds.
    inside[i] = px[i] >= lox[i] && px[i] <= hix[i] && py[i] >= loy[i] &&
                py[i] <= hiy[i];
  }
}

void SegmentSquaredDistanceToPoints(double ax, double ay, double bx,
                                    double by, const double* px,
                                    const double* py, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SqDistPointSeg(px[i], py[i], ax, ay, bx, by);
  }
}

void PolylineSquaredDistanceToPoints(const SegmentSoA& segs, const double* px,
                                     const double* py, size_t n, double* out) {
  // Lane = point; per point the segment loop runs in index order exactly
  // like Polyline::SquaredDistanceToPoint.
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < segs.n; ++j) {
      const double d = SqDistPointSeg(px[i], py[i], segs.ax[j], segs.ay[j],
                                      segs.bx[j], segs.by[j]);
      best = d < best ? d : best;  // std::min(best, d)
    }
    out[i] = best;
  }
}

double PolylineSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                      double py) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < segs.n; ++j) {
    const double d = SqDistPointSeg(px, py, segs.ax[j], segs.ay[j],
                                    segs.bx[j], segs.by[j]);
    best = d < best ? d : best;
  }
  return best;
}

void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                    double py, double* out) {
  // Lane = segment: the loop body of PolylineSquaredDistanceToPoint with a
  // store in place of the min fold.
  for (size_t j = 0; j < segs.n; ++j) {
    out[j] = SqDistPointSeg(px, py, segs.ax[j], segs.ay[j], segs.bx[j],
                            segs.by[j]);
  }
}

double SegmentToPolylineSquaredDistance(double qax, double qay, double qbx,
                                        double qby, const SegmentSoA& segs) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < segs.n; ++j) {
    const double d = SqDistSegSeg(qax, qay, qbx, qby, segs.ax[j], segs.ay[j],
                                  segs.bx[j], segs.by[j]);
    best = d < best ? d : best;
  }
  return best;
}

void SegmentToSegmentsSquaredDistances(double qax, double qay, double qbx,
                                       double qby, const SegmentSoA& segs,
                                       double* out) {
  // Lane = target segment: SegmentToPolylineSquaredDistance's loop body
  // with a store in place of the min fold.
  for (size_t j = 0; j < segs.n; ++j) {
    out[j] = SqDistSegSeg(qax, qay, qbx, qby, segs.ax[j], segs.ay[j],
                          segs.bx[j], segs.by[j]);
  }
}

void PairsWithinRadii(const double* ax, const double* ay, const double* bx,
                      const double* by, const double* r, size_t n,
                      uint8_t* within) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = ax[i] - bx[i];  // Distance(a, b): (a - b).Norm()
    const double dy = ay[i] - by[i];
    within[i] = std::sqrt(dx * dx + dy * dy) < r[i];
  }
}

void CirclesContainPoints(const double* cx, const double* cy,
                          const double* cr, const double* px,
                          const double* py, size_t n, bool strict,
                          uint8_t* inside) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = cx[i] - px[i];  // SquaredDistance(center, p)
    const double dy = cy[i] - py[i];
    const double d2 = dx * dx + dy * dy;
    const double r2 = cr[i] * cr[i];
    inside[i] = strict ? d2 < r2 : d2 <= r2;
  }
}

void CircleDistanceToPoints(double cx, double cy, double cr, const double* px,
                            const double* py, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = px[i] - cx;  // Distance(p, c.center): (p - center)
    const double dy = py[i] - cy;
    const double v = std::sqrt(dx * dx + dy * dy) - cr;
    out[i] = 0.0 < v ? v : 0.0;  // std::max(0.0, v)
  }
}

void CirclePairsGapBelow(const double* ax, const double* ay, const double* ar,
                         const double* bx, const double* by, const double* br,
                         const double* thr, size_t n, uint8_t* below) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = ax[i] - bx[i];
    const double dy = ay[i] - by[i];
    const double v = std::sqrt(dx * dx + dy * dy) - ar[i] - br[i];
    const double gap = 0.0 < v ? v : 0.0;  // DistanceCircleToCircle
    below[i] = gap < thr[i];
  }
}

void KalmanPredict4(const double f[16], const double q[16], double state[4],
                    double cov[16]) {
  // state <- F state: Matrix::Apply (plain accumulation, no zero skip).
  double s[4];
  for (int r = 0; r < 4; ++r) {
    double acc = 0.0;
    for (int c = 0; c < 4; ++c) acc += f[r * 4 + c] * state[c];
    s[r] = acc;
  }
  for (int r = 0; r < 4; ++r) state[r] = s[r];
  // cov <- (F cov) F^T + Q, each product with operator*'s zero skip.
  double ft[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) ft[c * 4 + r] = f[r * 4 + c];
  }
  double t1[16], t2[16];
  Mul4(f, cov, t1);
  Mul4(t1, ft, t2);
  for (int i = 0; i < 16; ++i) cov[i] = t2[i] + q[i];  // operator+
}

}  // namespace scalar

namespace internal {

const KernelTable& ScalarTable() {
  static const KernelTable table{
      &scalar::PointsInBoxes,
      &scalar::SegmentSquaredDistanceToPoints,
      &scalar::PolylineSquaredDistanceToPoints,
      &scalar::PolylineSquaredDistanceToPoint,
      &scalar::SegmentsSquaredDistanceToPoint,
      &scalar::SegmentToPolylineSquaredDistance,
      &scalar::SegmentToSegmentsSquaredDistances,
      &scalar::PairsWithinRadii,
      &scalar::CirclesContainPoints,
      &scalar::CircleDistanceToPoints,
      &scalar::CirclePairsGapBelow,
      &scalar::KalmanPredict4,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace proxdet
