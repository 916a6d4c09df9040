// The scalar/SIMD bit-identity contract of the hot-path batch kernels
// (src/geom/kernels/): for every kernel, the dispatching variant must
// produce bitwise-identical outputs to the `_scalar` reference on every
// input — including the edge rays (zero-length, axis-aligned, max_range-
// truncated, negative coordinates) — and the scalar reference must match
// the legacy per-ray pipeline's arithmetic. In an OMU_SIMD=OFF build the
// dispatchers alias the scalar path and these tests pass trivially; the
// CI matrix runs both configurations.
#include "geom/kernels/key_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "geom/kernels/logodds_kernels.hpp"
#include "geom/kernels/ray_kernels.hpp"
#include "geom/kernels/simd.hpp"
#include "geom/rng.hpp"
#include "map/ockey.hpp"
#include "map/ray_generator.hpp"

namespace omu::geom::kernels {
namespace {

// Bitwise equality for floating-point outputs: NaN payloads and signed
// zeros must agree too, not just numeric values.
void expect_bits_eq(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << "[" << i << "]: " << a << " vs " << b;
}

void expect_bits_eq(float a, float b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b))
      << what << "[" << i << "]: " << a << " vs " << b;
}

// ---- Morton / packed bit kernels -------------------------------------------

static_assert(part1by2_16(0) == 0);
static_assert(part1by2_16(1) == 1);
static_assert(part1by2_16(0x8000) == (1ull << 45));
static_assert(part1by2_16(0xFFFF) == 0x0000'2492'4924'9249ull);
static_assert(morton48(0xFFFF, 0xFFFF, 0xFFFF) == 0x0000'FFFF'FFFF'FFFFull);
static_assert(packed48(1, 2, 3) == (1ull | (2ull << 16) | (3ull << 32)));

TEST(KeyKernels, MortonChildBitsMatchChildIndex) {
  // The whole point of the interleave: (morton >> 3*(15-d)) & 7 must be the
  // per-depth child octant the octree descent would derive from three
  // per-axis bit extracts.
  SplitMix64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const map::OcKey key{static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000))};
    const uint64_t morton = morton48(key[0], key[1], key[2]);
    for (int depth = 0; depth < map::kTreeDepth; ++depth) {
      EXPECT_EQ(static_cast<int>((morton >> (3 * (map::kTreeDepth - 1 - depth))) & 7),
                map::child_index(key, depth))
          << "depth " << depth;
    }
  }
}

TEST(KeyKernels, Packed48MatchesOcKeyPacked) {
  SplitMix64 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const map::OcKey key{static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000)),
                         static_cast<uint16_t>(rng.next_below(0x10000))};
    EXPECT_EQ(packed48(key[0], key[1], key[2]), key.packed());
  }
}

TEST(KeyKernels, PackedBatchMatchesElementwise) {
  SplitMix64 rng(13);
  for (std::size_t n = 0; n <= 37; ++n) {
    std::vector<uint16_t> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<uint16_t>(rng.next_below(0x10000));
      y[i] = static_cast<uint16_t>(rng.next_below(0x10000));
      z[i] = static_cast<uint16_t>(rng.next_below(0x10000));
    }
    std::vector<uint64_t> packed(n);
    packed48_batch(x.data(), y.data(), z.data(), n, packed.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(packed[i], packed48(x[i], y[i], z[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---- Coordinate quantization -----------------------------------------------

TEST(KeyKernels, QuantizeAxisMatchesKeyCoder) {
  const double res = 0.2;
  const map::KeyCoder coder(res);
  SplitMix64 rng(14);

  std::vector<double> coords;
  // In-range randoms, exact voxel boundaries, negative coordinates, and
  // values just inside / outside the representable key space.
  for (int i = 0; i < 200; ++i) coords.push_back(rng.uniform(-50.0, 50.0));
  for (int i = -10; i <= 10; ++i) coords.push_back(static_cast<double>(i) * res);
  coords.insert(coords.end(),
                {0.0, -0.0, res * 0.5, -res * 0.5, -32768.0 * res, -32768.0 * res - 1e-9,
                 32767.0 * res, 32768.0 * res, 1e9, -1e9});

  const std::size_t n = coords.size();
  std::vector<uint16_t> key_d(n), key_s(n);
  std::vector<uint8_t> valid_d(n), valid_s(n);
  quantize_axis(coords.data(), n, 1.0 / res, map::kKeyOrigin, key_d.data(), valid_d.data());
  quantize_axis_scalar(coords.data(), n, 1.0 / res, map::kKeyOrigin, key_s.data(),
                       valid_s.data());

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(key_d[i], key_s[i]) << "coord " << coords[i];
    EXPECT_EQ(valid_d[i], valid_s[i]) << "coord " << coords[i];
    const auto expected = coder.axis_key(coords[i]);
    EXPECT_EQ(valid_s[i] != 0, expected.has_value()) << "coord " << coords[i];
    if (expected) EXPECT_EQ(key_s[i], *expected) << "coord " << coords[i];
  }
}

// ---- Ray preparation -------------------------------------------------------

struct RaySoA {
  std::vector<double> end_x, end_y, end_z;
  std::vector<double> dir_x, dir_y, dir_z, length;
  std::vector<uint8_t> truncated;

  explicit RaySoA(std::size_t n)
      : end_x(n), end_y(n), end_z(n), dir_x(n), dir_y(n), dir_z(n), length(n), truncated(n) {}
};

// A batch covering every edge-ray class: random, zero-length, axis-aligned
// (both senses), beyond-max_range, and deep-negative coordinates.
std::vector<Vec3d> edge_ray_endpoints(SplitMix64& rng, const Vec3d& origin) {
  std::vector<Vec3d> ends;
  for (int i = 0; i < 40; ++i) {
    ends.push_back({rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0)});
  }
  ends.push_back(origin);                                   // zero-length
  ends.push_back({origin.x + 3.0, origin.y, origin.z});     // +x axis-aligned
  ends.push_back({origin.x, origin.y - 4.0, origin.z});     // -y axis-aligned
  ends.push_back({origin.x, origin.y, origin.z + 100.0});   // truncated (max_range 6)
  ends.push_back({-9.5, -8.25, -7.125});                    // negative coords
  ends.push_back({origin.x + 40.0, origin.y - 40.0, origin.z + 40.0});  // truncated diagonal
  return ends;
}

TEST(RayKernels, PrepareRaysSimdMatchesScalarBitwise) {
  SplitMix64 rng(15);
  const Vec3d origin{0.31, -0.47, 0.11};
  for (const double max_range : {-1.0, 6.0}) {
    const auto ends = edge_ray_endpoints(rng, origin);
    const std::size_t n = ends.size();
    RaySoA a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.end_x[i] = b.end_x[i] = ends[i].x;
      a.end_y[i] = b.end_y[i] = ends[i].y;
      a.end_z[i] = b.end_z[i] = ends[i].z;
    }
    prepare_rays(a.end_x.data(), a.end_y.data(), a.end_z.data(), n, origin.x, origin.y, origin.z,
                 max_range, a.dir_x.data(), a.dir_y.data(), a.dir_z.data(), a.length.data(),
                 a.truncated.data());
    prepare_rays_scalar(b.end_x.data(), b.end_y.data(), b.end_z.data(), n, origin.x, origin.y,
                        origin.z, max_range, b.dir_x.data(), b.dir_y.data(), b.dir_z.data(),
                        b.length.data(), b.truncated.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_eq(a.end_x[i], b.end_x[i], "end_x", i);
      expect_bits_eq(a.end_y[i], b.end_y[i], "end_y", i);
      expect_bits_eq(a.end_z[i], b.end_z[i], "end_z", i);
      expect_bits_eq(a.dir_x[i], b.dir_x[i], "dir_x", i);
      expect_bits_eq(a.dir_y[i], b.dir_y[i], "dir_y", i);
      expect_bits_eq(a.dir_z[i], b.dir_z[i], "dir_z", i);
      expect_bits_eq(a.length[i], b.length[i], "length", i);
      EXPECT_EQ(a.truncated[i], b.truncated[i]) << i;
    }
  }
}

TEST(RayKernels, PrepareRaysMatchesLegacyPerRayClip) {
  SplitMix64 rng(16);
  const Vec3d origin{-1.2, 0.8, 0.4};
  for (const double max_range : {-1.0, 0.0, 6.0}) {
    const auto ends = edge_ray_endpoints(rng, origin);
    const std::size_t n = ends.size();
    RaySoA s(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.end_x[i] = ends[i].x;
      s.end_y[i] = ends[i].y;
      s.end_z[i] = ends[i].z;
    }
    prepare_rays_scalar(s.end_x.data(), s.end_y.data(), s.end_z.data(), n, origin.x, origin.y,
                        origin.z, max_range, s.dir_x.data(), s.dir_y.data(), s.dir_z.data(),
                        s.length.data(), s.truncated.data());
    for (std::size_t i = 0; i < n; ++i) {
      // The legacy pipeline: clip the endpoint, then recompute d / length /
      // dir from the clipped endpoint exactly as compute_ray_keys does.
      Vec3d end = ends[i];
      const bool truncated = map::clip_ray_to_max_range(origin, end, max_range);
      const Vec3d d = end - origin;
      const double length = d.norm();
      const Vec3d dir = d / length;
      EXPECT_EQ(s.truncated[i] != 0, truncated) << i;
      expect_bits_eq(s.end_x[i], end.x, "end_x", i);
      expect_bits_eq(s.end_y[i], end.y, "end_y", i);
      expect_bits_eq(s.end_z[i], end.z, "end_z", i);
      expect_bits_eq(s.length[i], length, "length", i);
      expect_bits_eq(s.dir_x[i], dir.x, "dir_x", i);
      expect_bits_eq(s.dir_y[i], dir.y, "dir_y", i);
      expect_bits_eq(s.dir_z[i], dir.z, "dir_z", i);
    }
  }
}

TEST(RayKernels, DdaSetupAxisMatchesPerRayReference) {
  SplitMix64 rng(17);
  const double res = 0.2;
  const double origin = 0.37;
  // The origin cell's boundary coordinates, precomputed the way the batch
  // planner does (center +- res/2).
  const double center = 0.5 * res + std::floor(origin / res) * res;
  const double border_pos = center + 0.5 * res;
  const double border_neg = center - 0.5 * res;

  std::vector<double> dir;
  for (int i = 0; i < 60; ++i) dir.push_back(rng.uniform(-1.0, 1.0));
  dir.insert(dir.end(), {0.0, -0.0, 1.0, -1.0,
                         std::numeric_limits<double>::quiet_NaN()});  // zero-length ray dir
  const std::size_t n = dir.size();

  std::vector<int8_t> step_d(n), step_s(n);
  std::vector<double> t_max_d(n), t_max_s(n), t_delta_d(n), t_delta_s(n);
  dda_setup_axis(dir.data(), n, origin, border_pos, border_neg, res, step_d.data(),
                 t_max_d.data(), t_delta_d.data());
  dda_setup_axis_scalar(dir.data(), n, origin, border_pos, border_neg, res, step_s.data(),
                        t_max_s.data(), t_delta_s.data());

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(step_d[i], step_s[i]) << "dir " << dir[i];
    expect_bits_eq(t_max_d[i], t_max_s[i], "t_max", i);
    expect_bits_eq(t_delta_d[i], t_delta_s[i], "t_delta", i);

    // Legacy per-ray setup (compute_ray_keys): sign, boundary distance over
    // dir, res over |dir|; infinities on the zero-step axes.
    const int step = dir[i] > 0.0 ? 1 : (dir[i] < 0.0 ? -1 : 0);
    EXPECT_EQ(step_s[i], step) << "dir " << dir[i];
    if (step != 0) {
      const double border = step > 0 ? border_pos : border_neg;
      expect_bits_eq(t_max_s[i], (border - origin) / dir[i], "t_max_ref", i);
      expect_bits_eq(t_delta_s[i], res / std::abs(dir[i]), "t_delta_ref", i);
    } else {
      EXPECT_EQ(t_max_s[i], std::numeric_limits<double>::infinity()) << i;
      EXPECT_EQ(t_delta_s[i], std::numeric_limits<double>::infinity()) << i;
    }
  }
}

// ---- Log-odds saturation ---------------------------------------------------

TEST(LogOddsKernels, SaturatingAddMatchesClamp) {
  SplitMix64 rng(18);
  const float lo = -2.0f, hi = 3.5f;
  for (int trial = 0; trial < 500; ++trial) {
    const float value = static_cast<float>(rng.uniform(-3.0, 4.5));
    const float delta = static_cast<float>(rng.uniform(-1.0, 1.0));
    expect_bits_eq(saturating_add(value, delta, lo, hi), std::clamp(value + delta, lo, hi),
                   "saturating_add", static_cast<std::size_t>(trial));
  }
  // Exactly-at-clamp results keep the clamp bound's bits.
  expect_bits_eq(saturating_add(hi, 1.0f, lo, hi), hi, "at_hi", 0);
  expect_bits_eq(saturating_add(lo, -1.0f, lo, hi), lo, "at_lo", 0);
}

TEST(LogOddsKernels, UpdateSaturatesMatchesEarlyAbortCondition) {
  const float lo = -2.0f, hi = 3.5f;
  // Saturated in the update direction: abort.
  EXPECT_TRUE(update_saturates(hi, 0.85f, lo, hi));
  EXPECT_TRUE(update_saturates(lo, -0.4f, lo, hi));
  // Saturated against the update direction: must not abort.
  EXPECT_FALSE(update_saturates(hi, -0.4f, lo, hi));
  EXPECT_FALSE(update_saturates(lo, 0.85f, lo, hi));
  // Interior values never abort.
  EXPECT_FALSE(update_saturates(0.0f, 0.85f, lo, hi));
  EXPECT_FALSE(update_saturates(0.0f, -0.4f, lo, hi));
  // A zero delta is saturated in both directions.
  EXPECT_TRUE(update_saturates(hi, 0.0f, lo, hi));
  EXPECT_TRUE(update_saturates(lo, 0.0f, lo, hi));
}

TEST(LogOddsKernels, BatchSaturatingAddMatchesScalar) {
  SplitMix64 rng(19);
  const float lo = -2.0f, hi = 3.5f;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, std::size_t{33}}) {
    std::vector<float> values_a(n), values_b(n), deltas(n);
    for (std::size_t i = 0; i < n; ++i) {
      values_a[i] = values_b[i] = static_cast<float>(rng.uniform(-3.0, 4.5));
      deltas[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    saturating_add_batch(values_a.data(), deltas.data(), n, lo, hi);
    saturating_add_batch_scalar(values_b.data(), deltas.data(), n, lo, hi);
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_eq(values_a[i], values_b[i], "batch", i);
    }
  }
}

TEST(SimdToggle, ReportsConsistentConfiguration) {
  if (simd_active()) {
    EXPECT_STREQ(simd_isa(), "sse2");
  } else {
    EXPECT_STREQ(simd_isa(), "scalar");
  }
#if !OMU_SIMD_ENABLED
  // An OMU_SIMD=OFF build must never dispatch to vector code.
  EXPECT_FALSE(simd_active());
#endif
}

}  // namespace
}  // namespace omu::geom::kernels
