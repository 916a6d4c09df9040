// Hot-path microbenchmarks: scalar-vs-SIMD throughput of each insert-path
// batch kernel, per-ray-vs-batch DDA front ends, and the end-to-end insert
// rate the data-oriented hot path delivers.
//
// Unlike the paper-table families these are host-performance numbers (the
// perf-gate lane tracks them via baseline.json). The `impl` axis pairs
// every SIMD case with its scalar reference on the same inputs; the SIMD
// case re-runs the scalar kernel under paused timing and *checks* bitwise
// equality and a 1.2x speedup over it, so a perf run doubles as a
// bit-identity audit and an audit that each SIMD variant still pays.
// SIMD cases skip (never fail) in an OMU_SIMD=OFF build.
#include <algorithm>
#include <cstring>
#include <vector>

#include "benchkit/benchmark.hpp"
#include "benchkit/clock.hpp"
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

/// Checks the 1.2x bar a SIMD variant must clear to be kept: alternates
/// `rounds` rounds of the SIMD kernel and of its scalar reference and
/// compares their fastest rounds. Alternating rounds see the same host
/// load, and the fastest of many short rounds is the one load disturbs
/// least, so the bar compares the kernels, not the host. Call under
/// paused timing.
template <typename Simd, typename Scalar>
void check_simd_speedup(benchkit::State& state, int rounds, Simd&& simd, Scalar&& scalar) {
  const auto time_ns = [](auto&& round) {
    const double t0 = benchkit::wall_now_ns();
    round();
    return benchkit::wall_now_ns() - t0;
  };
  double fastest_simd = 0.0;
  double fastest_scalar = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const double simd_ns = time_ns(simd);
    const double scalar_ns = time_ns(scalar);
    fastest_simd = r == 0 ? simd_ns : std::min(fastest_simd, simd_ns);
    fastest_scalar = r == 0 ? scalar_ns : std::min(fastest_scalar, scalar_ns);
  }
  state.set_counter("vs_scalar", fastest_scalar / fastest_simd);
  state.check("simd_1_2x_faster_than_scalar", fastest_scalar >= 1.2 * fastest_simd);
}

/// One staged scan for the ray-prepare kernel: the kernel clips endpoints
/// in place, so each round restarts from the pristine copies; the memcpy
/// streams 3 doubles/ray and is part of the realistic cost of staging a
/// scan.
struct PreparedRays {
  explicit PreparedRays(std::size_t n)
      : x(n), y(n), z(n), dx(n), dy(n), dz(n), len(n), trunc(n) {}

  void run(decltype(&kernels::prepare_rays_scalar) kernel, const std::vector<double>& px,
           const std::vector<double>& py, const std::vector<double>& pz,
           const geom::Vec3d& origin) {
    std::memcpy(x.data(), px.data(), x.size() * sizeof(double));
    std::memcpy(y.data(), py.data(), y.size() * sizeof(double));
    std::memcpy(z.data(), pz.data(), z.size() * sizeof(double));
    kernel(x.data(), y.data(), z.data(), x.size(), origin.x, origin.y, origin.z, 8.0, dx.data(),
           dy.data(), dz.data(), len.data(), trunc.data());
  }

  bool bitwise_equal(const PreparedRays& o) const {
    const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    return trunc == o.trunc && same(x, o.x) && same(y, o.y) && same(z, o.z) &&
           same(dx, o.dx) && same(dy, o.dy) && same(dz, o.dz) && same(len, o.len);
  }

  std::vector<double> x, y, z, dx, dy, dz, len;
  std::vector<uint8_t> trunc;
};

void hotpath_ray_prepare(benchkit::State& state) {
  const bool simd = want_simd(state);
  if (state.skipped()) return;

  state.pause_timing();
  constexpr std::size_t kRays = 20000;
  constexpr int kRounds = 20;
  geom::SplitMix64 rng(71);
  const geom::Vec3d origin{0.2, -0.3, 0.4};
  std::vector<double> px(kRays), py(kRays), pz(kRays);
  for (std::size_t i = 0; i < kRays; ++i) {
    px[i] = rng.uniform(-12.0, 12.0);
    py[i] = rng.uniform(-12.0, 12.0);
    pz[i] = rng.uniform(-12.0, 12.0);
  }
  PreparedRays out(kRays);
  PreparedRays ref(kRays);
  const auto fn = simd ? &kernels::prepare_rays : &kernels::prepare_rays_scalar;
  state.resume_timing();

  for (int round = 0; round < kRounds; ++round) out.run(fn, px, py, pz, origin);
  state.set_items_processed(static_cast<uint64_t>(kRays) * kRounds);

  if (simd) {
    state.pause_timing();
    check_simd_speedup(
        state, kRounds, [&] { out.run(fn, px, py, pz, origin); },
        [&] { ref.run(&kernels::prepare_rays_scalar, px, py, pz, origin); });
    state.check("bitwise_matches_scalar", out.bitwise_equal(ref));
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
  std::vector<uint16_t> keys(kCoords), ref_keys(kCoords);
  std::vector<uint8_t> valid(kCoords), ref_valid(kCoords);
  const auto fn = simd ? &kernels::quantize_axis : &kernels::quantize_axis_scalar;
  state.resume_timing();

  const auto quantize = [&] {
    fn(coords.data(), kCoords, 5.0, map::kKeyOrigin, keys.data(), valid.data());
  };
  for (int round = 0; round < kRounds; ++round) quantize();
  state.set_items_processed(static_cast<uint64_t>(kCoords) * kRounds);

  if (simd) {
    state.pause_timing();
    check_simd_speedup(state, kRounds, quantize, [&] {
      kernels::quantize_axis_scalar(coords.data(), kCoords, 5.0, map::kKeyOrigin,
                                    ref_keys.data(), ref_valid.data());
    });
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
