#ifndef PROXDET_GEOM_SIMD_KERNEL_TABLE_H_
#define PROXDET_GEOM_SIMD_KERNEL_TABLE_H_

#include "geom/simd/simd.h"

namespace proxdet {
namespace simd {
namespace internal {

/// Function-pointer table one backend exports; dispatch.cc selects one at
/// startup and the public entry points forward through it. Keeping the
/// indirection in one pointer (instead of per-kernel ifunc tricks) makes
/// the runtime-verified fallback trivial: verification failure just leaves
/// the scalar table installed.
struct KernelTable {
  void (*points_in_boxes)(const double*, const double*, const double*,
                          const double*, const double*, const double*, size_t,
                          uint8_t*);
  void (*segment_sqdist_to_points)(double, double, double, double,
                                   const double*, const double*, size_t,
                                   double*);
  void (*polyline_sqdist_to_points)(const SegmentSoA&, const double*,
                                    const double*, size_t, double*);
  double (*polyline_sqdist_to_point)(const SegmentSoA&, double, double);
  void (*segments_sqdist_to_point)(const SegmentSoA&, double, double,
                                   double*);
  double (*segment_to_polyline_sqdist)(double, double, double, double,
                                       const SegmentSoA&);
  void (*segment_to_segments_sqdists)(double, double, double, double,
                                      const SegmentSoA&, double*);
  void (*pairs_within_radii)(const double*, const double*, const double*,
                             const double*, const double*, size_t, uint8_t*);
  void (*circles_contain_points)(const double*, const double*, const double*,
                                 const double*, const double*, size_t, bool,
                                 uint8_t*);
  void (*circle_dist_to_points)(double, double, double, const double*,
                                const double*, size_t, double*);
  void (*circle_pairs_gap_below)(const double*, const double*, const double*,
                                 const double*, const double*, const double*,
                                 const double*, size_t, uint8_t*);
  void (*kalman_predict4)(const double*, const double*, double*, double*);
};

const KernelTable& ScalarTable();
#if defined(PROXDET_SIMD_HAS_W4)
const KernelTable& W4Table();
#endif
#if defined(PROXDET_SIMD_HAS_W8)
const KernelTable& W8Table();
#endif

}  // namespace internal
}  // namespace simd
}  // namespace proxdet

#endif  // PROXDET_GEOM_SIMD_KERNEL_TABLE_H_
