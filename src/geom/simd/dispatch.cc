// Backend selection for the batched geometry kernels.
//
// At first use the widest compiled backend the CPU supports is picked, but
// only after a bitwise self-check: every kernel runs on deterministic
// pseudo-random batches (degenerate lanes included) and its output buffers
// are compared byte-for-byte against the scalar reference. A backend that
// deviates in a single bit is rejected and the next-narrower one is tried,
// down to scalar — so a miscompiled or misbehaving vector unit can slow the
// run down but can never change detector output. PROXDET_SIMD_FORCE
// (scalar|w4|w8) pins the choice for A/B runs; the forced backend is still
// self-checked.

#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "geom/simd/kernel_table.h"
#include "geom/simd/simd.h"

namespace proxdet {
namespace simd {
namespace {

using internal::KernelTable;

/// SplitMix64 — tiny, seedable, and stable across platforms; the self-check
/// must test the same batches every run.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform double in [-500, 500] — the detector's coordinate scale.
  double Coord() {
    return (double)(Next() >> 11) * (1.0 / 9007199254740992.0) * 1000.0 -
           500.0;
  }
  /// Uniform double in [0, 50] for radii/thresholds.
  double Radius() {
    return (double)(Next() >> 11) * (1.0 / 9007199254740992.0) * 50.0;
  }
};

// Batch size for the check: not a multiple of 4 or 8, so both vector widths
// exercise their main loop AND their scalar tail.
constexpr size_t kN = 37;

bool BitEq(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}
bool BitEq8(const uint8_t* a, const uint8_t* b, size_t n) {
  return std::memcmp(a, b, n) == 0;
}

/// Fill a SegmentSoA backing store; every 5th segment degenerate (a == b)
/// to exercise the len2 <= 0 lanes.
struct SegBatch {
  double ax[kN], ay[kN], bx[kN], by[kN];
  SegmentSoA View(size_t n) const { return SegmentSoA{ax, ay, bx, by, n}; }
  void Fill(Rng& rng) {
    for (size_t i = 0; i < kN; ++i) {
      ax[i] = rng.Coord();
      ay[i] = rng.Coord();
      if (i % 5 == 4) {
        bx[i] = ax[i];
        by[i] = ay[i];
      } else {
        bx[i] = rng.Coord();
        by[i] = rng.Coord();
      }
    }
  }
};

bool VerifyTable(const KernelTable& t) {
  const KernelTable& ref = internal::ScalarTable();
  Rng rng{0x70726f7864657421ull};  // Fixed seed: same batches every run.
  SegBatch segs;
  segs.Fill(rng);
  double px[kN], py[kN], qx[kN], qy[kN], r1[kN], r2[kN], thr[kN];
  double lox[kN], loy[kN], hix[kN], hiy[kN];
  for (size_t i = 0; i < kN; ++i) {
    px[i] = rng.Coord();
    py[i] = rng.Coord();
    qx[i] = rng.Coord();
    qy[i] = rng.Coord();
    r1[i] = rng.Radius();
    r2[i] = rng.Radius();
    thr[i] = rng.Radius();
    const double cx = rng.Coord(), cy = rng.Coord();
    lox[i] = cx - rng.Radius();
    hix[i] = cx + rng.Radius();
    loy[i] = cy - rng.Radius();
    hiy[i] = cy + rng.Radius();
  }
  // Nudge some points onto box edges / degenerate boxes so the closed
  // comparisons are exercised on exact boundaries.
  px[3] = lox[3];
  py[7] = hiy[7];
  lox[11] = hix[11] = px[11];

  double got_d[kN], want_d[kN];
  uint8_t got_m[kN], want_m[kN];

  // Every batch kernel runs at a tail-heavy size (kN) and a sub-width size
  // (3) so the pure-tail path of both vector backends is also verified.
  for (size_t n : {kN, size_t{3}}) {
    t.points_in_boxes(px, py, lox, loy, hix, hiy, n, got_m);
    ref.points_in_boxes(px, py, lox, loy, hix, hiy, n, want_m);
    if (!BitEq8(got_m, want_m, n)) return false;

    for (size_t s : {size_t{0}, size_t{4}}) {  // Regular + degenerate segment.
      t.segment_sqdist_to_points(segs.ax[s], segs.ay[s], segs.bx[s],
                                 segs.by[s], px, py, n, got_d);
      ref.segment_sqdist_to_points(segs.ax[s], segs.ay[s], segs.bx[s],
                                   segs.by[s], px, py, n, want_d);
      if (!BitEq(got_d, want_d, n)) return false;
    }

    const SegmentSoA view = segs.View(n);
    t.polyline_sqdist_to_points(view, px, py, kN, got_d);
    ref.polyline_sqdist_to_points(view, px, py, kN, want_d);
    if (!BitEq(got_d, want_d, kN)) return false;

    for (size_t i = 0; i < kN; ++i) {
      const double got = t.polyline_sqdist_to_point(view, px[i], py[i]);
      const double want = ref.polyline_sqdist_to_point(view, px[i], py[i]);
      if (std::memcmp(&got, &want, sizeof(double)) != 0) return false;
      const double got_s = t.segment_to_polyline_sqdist(
          px[i], py[i], qx[i], qy[i], view);
      const double want_s = ref.segment_to_polyline_sqdist(
          px[i], py[i], qx[i], qy[i], view);
      if (std::memcmp(&got_s, &want_s, sizeof(double)) != 0) return false;
    }

    // Store variants: per-lane outputs over the same SoA (degenerate lanes
    // included for the point form; the seg-seg form is only ever fed
    // non-degenerate targets by contract but is checked on them all the
    // same — the lane math is total either way).
    t.segments_sqdist_to_point(view, px[0], py[0], got_d);
    ref.segments_sqdist_to_point(view, px[0], py[0], want_d);
    if (!BitEq(got_d, want_d, n)) return false;
    t.segment_to_segments_sqdists(px[1], py[1], qx[1], qy[1], view, got_d);
    ref.segment_to_segments_sqdists(px[1], py[1], qx[1], qy[1], view, want_d);
    if (!BitEq(got_d, want_d, n)) return false;

    t.pairs_within_radii(px, py, qx, qy, r1, n, got_m);
    ref.pairs_within_radii(px, py, qx, qy, r1, n, want_m);
    if (!BitEq8(got_m, want_m, n)) return false;

    for (bool strict : {false, true}) {
      t.circles_contain_points(qx, qy, r1, px, py, n, strict, got_m);
      ref.circles_contain_points(qx, qy, r1, px, py, n, strict, want_m);
      if (!BitEq8(got_m, want_m, n)) return false;
    }

    t.circle_dist_to_points(qx[0], qy[0], r1[0], px, py, n, got_d);
    ref.circle_dist_to_points(qx[0], qy[0], r1[0], px, py, n, want_d);
    if (!BitEq(got_d, want_d, n)) return false;

    t.circle_pairs_gap_below(px, py, r1, qx, qy, r2, thr, n, got_m);
    ref.circle_pairs_gap_below(px, py, r1, qx, qy, r2, thr, n, want_m);
    if (!BitEq8(got_m, want_m, n)) return false;
  }

  // Kalman predict: the constant-velocity F (zeros exercise operator*'s
  // skip) on a random state/covariance, iterated a few steps so covariance
  // terms mix.
  const double dt = 1.0;
  double f[16] = {1, 0, dt, 0, 0, 1, 0, dt, 0, 0, 1, 0, 0, 0, 0, 1};
  double q[16], st_got[4], st_want[4], cov_got[16], cov_want[16];
  for (int i = 0; i < 16; ++i) q[i] = rng.Radius() * 1e-3;
  for (int i = 0; i < 4; ++i) st_got[i] = st_want[i] = rng.Coord();
  for (int i = 0; i < 16; ++i) cov_got[i] = cov_want[i] = rng.Radius();
  for (int step = 0; step < 3; ++step) {
    t.kalman_predict4(f, q, st_got, cov_got);
    ref.kalman_predict4(f, q, st_want, cov_want);
  }
  if (std::memcmp(st_got, st_want, sizeof(st_got)) != 0) return false;
  if (std::memcmp(cov_got, cov_want, sizeof(cov_got)) != 0) return false;
  return true;
}

struct Dispatch {
  const KernelTable* table;
  Backend backend;
  bool self_check_passed;
};

bool BackendAvailable(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kW4:
#if defined(PROXDET_SIMD_HAS_W4)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kW8:
#if defined(PROXDET_SIMD_HAS_W8)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

const KernelTable& TableFor(Backend b) {
  switch (b) {
#if defined(PROXDET_SIMD_HAS_W4)
    case Backend::kW4:
      return internal::W4Table();
#endif
#if defined(PROXDET_SIMD_HAS_W8)
    case Backend::kW8:
      return internal::W8Table();
#endif
    default:
      return internal::ScalarTable();
  }
}

Dispatch MakeDispatch() {
  Dispatch d{&internal::ScalarTable(), Backend::kScalar, true};
  Backend order[2] = {Backend::kW8, Backend::kW4};
  int num_candidates = 2;
  if (const char* force = std::getenv("PROXDET_SIMD_FORCE")) {
    Backend want = Backend::kScalar;
    if (std::strcmp(force, "w8") == 0) {
      want = Backend::kW8;
    } else if (std::strcmp(force, "w4") == 0) {
      want = Backend::kW4;
    }
    // A forced backend is the only candidate (and still self-checked);
    // forcing scalar, or an unavailable backend, leaves scalar installed.
    order[0] = want;
    num_candidates = want == Backend::kScalar ? 0 : 1;
  }
  for (int i = 0; i < num_candidates; ++i) {
    const Backend b = order[i];
    if (!BackendAvailable(b)) continue;
    const KernelTable& t = TableFor(b);
    if (VerifyTable(t)) {
      d.table = &t;
      d.backend = b;
      return d;
    }
    d.self_check_passed = false;  // Compiled + supported, yet wrong: reject.
  }
  return d;
}

Dispatch& GetDispatch() {
  static Dispatch d = MakeDispatch();
  return d;
}

}  // namespace

Backend ActiveBackend() { return GetDispatch().backend; }

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kW4:
      return "w4";
    case Backend::kW8:
      return "w8";
  }
  return "?";
}

bool SelfCheckPassed() { return GetDispatch().self_check_passed; }

bool SetActiveBackendForTest(Backend b) {
  if (!BackendAvailable(b)) return false;
  Dispatch& d = GetDispatch();
  d.table = &TableFor(b);
  d.backend = b;
  return true;
}

void PointsInBoxes(const double* px, const double* py, const double* lox,
                   const double* loy, const double* hix, const double* hiy,
                   size_t n, uint8_t* inside) {
  GetDispatch().table->points_in_boxes(px, py, lox, loy, hix, hiy, n, inside);
}

void SegmentSquaredDistanceToPoints(double ax, double ay, double bx,
                                    double by, const double* px,
                                    const double* py, size_t n, double* out) {
  GetDispatch().table->segment_sqdist_to_points(ax, ay, bx, by, px, py, n,
                                                out);
}

void PolylineSquaredDistanceToPoints(const SegmentSoA& segs, const double* px,
                                     const double* py, size_t n, double* out) {
  GetDispatch().table->polyline_sqdist_to_points(segs, px, py, n, out);
}

double PolylineSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                      double py) {
  return GetDispatch().table->polyline_sqdist_to_point(segs, px, py);
}

double SegmentToPolylineSquaredDistance(double qax, double qay, double qbx,
                                        double qby, const SegmentSoA& segs) {
  return GetDispatch().table->segment_to_polyline_sqdist(qax, qay, qbx, qby,
                                                         segs);
}

void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                    double py, double* out) {
  GetDispatch().table->segments_sqdist_to_point(segs, px, py, out);
}

void SegmentToSegmentsSquaredDistances(double qax, double qay, double qbx,
                                       double qby, const SegmentSoA& segs,
                                       double* out) {
  GetDispatch().table->segment_to_segments_sqdists(qax, qay, qbx, qby, segs,
                                                   out);
}

void PairsWithinRadii(const double* ax, const double* ay, const double* bx,
                      const double* by, const double* r, size_t n,
                      uint8_t* within) {
  GetDispatch().table->pairs_within_radii(ax, ay, bx, by, r, n, within);
}

void CirclesContainPoints(const double* cx, const double* cy,
                          const double* cr, const double* px,
                          const double* py, size_t n, bool strict,
                          uint8_t* inside) {
  GetDispatch().table->circles_contain_points(cx, cy, cr, px, py, n, strict,
                                              inside);
}

void CircleDistanceToPoints(double cx, double cy, double cr, const double* px,
                            const double* py, size_t n, double* out) {
  GetDispatch().table->circle_dist_to_points(cx, cy, cr, px, py, n, out);
}

void CirclePairsGapBelow(const double* ax, const double* ay, const double* ar,
                         const double* bx, const double* by, const double* br,
                         const double* thr, size_t n, uint8_t* below) {
  GetDispatch().table->circle_pairs_gap_below(ax, ay, ar, bx, by, br, thr, n,
                                              below);
}

void KalmanPredict4(const double f[16], const double q[16], double state[4],
                    double cov[16]) {
  GetDispatch().table->kalman_predict4(f, q, state, cov);
}

}  // namespace simd
}  // namespace proxdet
