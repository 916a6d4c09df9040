// Hot-path microbenchmarks: scalar-vs-SIMD throughput of each insert-path
// batch kernel, per-ray-vs-batch DDA front ends, and the end-to-end insert
// rate the data-oriented hot path delivers.
//
// Unlike the paper-table families these are host-performance numbers (the
// perf-gate lane tracks them via baseline.json). The `impl` axis pairs
// every SIMD case with its scalar reference on the same inputs; the SIMD
// case re-runs the scalar kernel under paused timing and *checks* bitwise
// equality, so a perf run doubles as a bit-identity audit. SIMD cases
// skip (never fail) in an OMU_SIMD=OFF build.
#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "benchkit/benchmark.hpp"
#include "geom/kernels/key_kernels.hpp"
#include "geom/kernels/ray_kernels.hpp"
#include "geom/kernels/simd.hpp"
#include "geom/rng.hpp"
#include "map/occupancy_octree.hpp"
#include "map/ray_batch.hpp"
#include "map/ray_generator.hpp"
#include "map/ray_keys.hpp"
#include "map/scan_inserter.hpp"

namespace {

using namespace omu;
namespace kernels = geom::kernels;

/// True when the case should run the SIMD dispatchers; marks the case
/// skipped (and returns false) when the build has no SIMD kernels.
bool want_simd(benchkit::State& state) {
  if (state.param("impl") != "simd") return false;
  if (!kernels::simd_active()) state.skip("SIMD kernels not compiled in (OMU_SIMD=OFF)");
  return true;
}

void hotpath_ray_prepare(benchkit::State& state) {
  const bool simd = want_simd(state);
  if (state.skipped()) return;

  state.pause_timing();
  constexpr std::size_t kRays = 20000;
  constexpr int kRounds = 20;
  geom::SplitMix64 rng(71);
  const geom::Vec3d origin{0.2, -0.3, 0.4};
  std::vector<double> pristine_x(kRays), pristine_y(kRays), pristine_z(kRays);
  for (std::size_t i = 0; i < kRays; ++i) {
    pristine_x[i] = rng.uniform(-12.0, 12.0);
    pristine_y[i] = rng.uniform(-12.0, 12.0);
    pristine_z[i] = rng.uniform(-12.0, 12.0);
  }
  std::vector<double> ex(kRays), ey(kRays), ez(kRays), dx(kRays), dy(kRays), dz(kRays),
      len(kRays);
  std::vector<uint8_t> trunc(kRays);
  const auto fn = simd ? &kernels::prepare_rays : &kernels::prepare_rays_scalar;
  state.resume_timing();

  for (int round = 0; round < kRounds; ++round) {
    // The kernel clips endpoints in place, so each round restarts from the
    // pristine copies; the memcpy streams 3 doubles/ray and is part of the
    // realistic cost of staging a scan.
    std::memcpy(ex.data(), pristine_x.data(), kRays * sizeof(double));
    std::memcpy(ey.data(), pristine_y.data(), kRays * sizeof(double));
    std::memcpy(ez.data(), pristine_z.data(), kRays * sizeof(double));
    fn(ex.data(), ey.data(), ez.data(), kRays, origin.x, origin.y, origin.z, 8.0, dx.data(),
       dy.data(), dz.data(), len.data(), trunc.data());
  }
  state.set_items_processed(static_cast<uint64_t>(kRays) * kRounds);

  if (simd) {
    state.pause_timing();
    std::vector<double> sx = pristine_x, sy = pristine_y, sz = pristine_z, sdx(kRays), sdy(kRays),
                        sdz(kRays), slen(kRays);
    std::vector<uint8_t> strunc(kRays);
    kernels::prepare_rays_scalar(sx.data(), sy.data(), sz.data(), kRays, origin.x, origin.y,
                                 origin.z, 8.0, sdx.data(), sdy.data(), sdz.data(), slen.data(),
                                 strunc.data());
    bool identical = std::memcmp(strunc.data(), trunc.data(), kRays) == 0;
    for (std::size_t i = 0; identical && i < kRays; ++i) {
      identical = std::bit_cast<uint64_t>(sx[i]) == std::bit_cast<uint64_t>(ex[i]) &&
                  std::bit_cast<uint64_t>(sdx[i]) == std::bit_cast<uint64_t>(dx[i]) &&
                  std::bit_cast<uint64_t>(sdy[i]) == std::bit_cast<uint64_t>(dy[i]) &&
                  std::bit_cast<uint64_t>(sdz[i]) == std::bit_cast<uint64_t>(dz[i]) &&
                  std::bit_cast<uint64_t>(slen[i]) == std::bit_cast<uint64_t>(len[i]);
    }
    state.check("bitwise_matches_scalar", identical);
    state.resume_timing();
  }
}

void hotpath_quantize(benchkit::State& state) {
  const bool simd = want_simd(state);
  if (state.skipped()) return;

  state.pause_timing();
  constexpr std::size_t kCoords = 200000;
  constexpr int kRounds = 20;
  geom::SplitMix64 rng(72);
  std::vector<double> coords(kCoords);
  for (double& c : coords) c = rng.uniform(-50.0, 50.0);
  std::vector<uint16_t> keys(kCoords);
  std::vector<uint8_t> valid(kCoords);
  const auto fn = simd ? &kernels::quantize_axis : &kernels::quantize_axis_scalar;
  state.resume_timing();

  for (int round = 0; round < kRounds; ++round) {
    fn(coords.data(), kCoords, 5.0, map::kKeyOrigin, keys.data(), valid.data());
  }
  state.set_items_processed(static_cast<uint64_t>(kCoords) * kRounds);

  if (simd) {
    state.pause_timing();
    std::vector<uint16_t> ref_keys(kCoords);
    std::vector<uint8_t> ref_valid(kCoords);
    kernels::quantize_axis_scalar(coords.data(), kCoords, 5.0, map::kKeyOrigin, ref_keys.data(),
                                  ref_valid.data());
    state.check("bitwise_matches_scalar", ref_keys == keys && ref_valid == valid);
    state.resume_timing();
  }
}

void hotpath_dda(benchkit::State& state) {
  const bool batch = state.param("impl") == "batch";
  state.pause_timing();
  constexpr std::size_t kRays = 20000;
  geom::SplitMix64 rng(75);
  const geom::Vec3d origin{0.1, 0.05, -0.1};
  geom::PointCloud cloud;
  for (std::size_t i = 0; i < kRays; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-8.0, 8.0)),
                                static_cast<float>(rng.uniform(-8.0, 8.0)),
                                static_cast<float>(rng.uniform(-2.0, 2.0))});
  }
  const map::KeyCoder coder(0.2);
  uint64_t keys = 0;
  state.resume_timing();

  if (batch) {
    // The SoA front end: one prepare() for the whole scan, then the shared
    // serial walk per ray.
    map::RayUpdateGenerator generator(coder);
    generator.generate(cloud, origin, -1.0, nullptr, [&](const map::RaySegment& segment) {
      keys += segment.free_keys.size();
    });
  } else {
    // The legacy per-ray pipeline: clip/setup/walk one point at a time.
    std::vector<map::OcKey> buffer;
    for (std::size_t i = 0; i < kRays; ++i) {
      buffer.clear();
      map::compute_ray_keys(coder, origin, cloud[i].cast<double>(), buffer);
      keys += buffer.size();
    }
  }
  state.set_items_processed(kRays);
  state.set_counter("keys_per_ray", static_cast<double>(keys) / static_cast<double>(kRays));
}

void hotpath_insert_e2e(benchkit::State& state) {
  const bool dedup = state.param("mode") == "discretized";
  state.pause_timing();
  geom::SplitMix64 rng(76);
  constexpr int kScans = 10;
  constexpr int kPoints = 2000;
  // One cloud per scan from a slowly advancing origin: realistic revisit
  // structure (saturation, early aborts, warm descent cache) instead of
  // fresh space every scan.
  std::vector<geom::PointCloud> clouds(kScans);
  std::vector<geom::Vec3d> origins(kScans);
  for (int s = 0; s < kScans; ++s) {
    origins[s] = {0.3 * s, 0.1 * s, 0.0};
    for (int i = 0; i < kPoints; ++i) {
      clouds[s].push_back(
          geom::Vec3f{static_cast<float>(origins[s].x + rng.uniform(-6.0, 6.0)),
                      static_cast<float>(origins[s].y + rng.uniform(-6.0, 6.0)),
                      static_cast<float>(rng.uniform(-1.5, 1.5))});
    }
  }
  state.resume_timing();

  map::OccupancyOctree tree(0.2);
  map::InsertPolicy policy;
  policy.mode = dedup ? map::InsertMode::kDiscretized : map::InsertMode::kRayByRay;
  map::ScanInserter inserter(tree, policy);
  for (int s = 0; s < kScans; ++s) {
    inserter.insert_scan(clouds[s], origins[s]);
  }

  state.set_items_processed(static_cast<uint64_t>(kScans) * kPoints);  // points
  state.set_counter("voxel_updates", static_cast<double>(tree.stats().voxel_updates));
  state.set_counter("leaves", static_cast<double>(tree.leaf_count()));
  state.check("map_nonempty", tree.leaf_count() > 0);
}

OMU_BENCHMARK(hotpath_ray_prepare).axis("impl", std::vector<std::string>{"scalar", "simd"});
OMU_BENCHMARK(hotpath_quantize).axis("impl", std::vector<std::string>{"scalar", "simd"});
OMU_BENCHMARK(hotpath_dda).axis("impl", std::vector<std::string>{"per_ray", "batch"});
OMU_BENCHMARK(hotpath_insert_e2e)
    .axis("mode", std::vector<std::string>{"ray_by_ray", "discretized"});

}  // namespace
