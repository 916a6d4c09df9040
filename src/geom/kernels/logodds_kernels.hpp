// Branchless log-odds saturation (paper Sec. III-A, Eq. 3).
//
// The octree's per-voxel update is add-then-clamp; done naively the clamp
// and the saturation early-abort test are data-dependent branches right in
// the hottest loop of the whole system. Both are expressed here as
// straight-line min/max and comparison-mask arithmetic (the saturating
// updater idiom of scrollgrid's occupancy updaters), which compile to
// minss/maxss + setcc with no branches.
#pragma once

#include <algorithm>

namespace omu::geom::kernels {

/// value + delta clamped into [lo, hi], branch-free. Identical result to
/// std::clamp(value + delta, lo, hi) for lo <= hi and non-NaN inputs.
constexpr float saturating_add(float value, float delta, float lo, float hi) {
  return std::max(lo, std::min(hi, value + delta));
}

/// True when adding `delta` cannot change a value already clamped in the
/// update direction (OctoMap's early-abort condition). Branch-free: both
/// sides evaluate and combine as masks.
constexpr bool update_saturates(float value, float delta, float lo, float hi) {
  const int up = static_cast<int>(delta >= 0.0f) & static_cast<int>(value >= hi);
  const int down = static_cast<int>(delta <= 0.0f) & static_cast<int>(value <= lo);
  return (up | down) != 0;
}

}  // namespace omu::geom::kernels
