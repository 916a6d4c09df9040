// Facade/hand-wired bit-identity: an omu::Mapper session must produce a
// map bit-identical to the hand-wired setup of the same backend — across
// octree, accelerator, tiled-world and hybrid modes — and its published
// MapViews must answer exactly like the internal snapshot/view types the
// consumers used to wire themselves.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include <omu/omu.hpp>

#include "accel/accel_backend.hpp"
#include "accel/omu_accelerator.hpp"
#include "facade_test_util.hpp"
#include "map/occupancy_octree.hpp"
#include "map/scan_inserter.hpp"
#include "query/map_snapshot.hpp"
#include "world/tiled_world_map.hpp"

namespace omu {
namespace {

using facade_testing::TempDir;
using facade_testing::insert_cloud;
using facade_testing::stream_into;
using facade_testing::test_scans;

/// Metric probe positions covering every leaf of the reference tree plus
/// a band of unmapped space.
std::vector<Vec3> probe_positions(const map::OccupancyOctree& reference) {
  std::vector<Vec3> probes;
  for (const auto& leaf : reference.leaves_sorted()) {
    const geom::Vec3d c = reference.coder().coord_for(leaf.key, leaf.depth);
    probes.push_back(Vec3{c.x, c.y, c.z});
  }
  for (double x = -30.0; x <= 30.0; x += 7.5) {
    probes.push_back(Vec3{x, 55.0, 3.0});  // far outside the sweep
  }
  return probes;
}

/// Reference octree built hand-wired from the shared stream.
const map::OccupancyOctree& reference_tree() {
  static map::OccupancyOctree* tree = [] {
    auto* t = new map::OccupancyOctree(0.2);
    map::OctreeBackend backend(*t);
    stream_into(backend, test_scans());
    return t;
  }();
  return *tree;
}

TEST(FacadeEquivalence, OctreeSessionMatchesHandWired) {
  Mapper mapper = Mapper::create(MapperConfig().resolution(0.2)).value();
  stream_into(mapper, test_scans());

  const map::OccupancyOctree& reference = reference_tree();
  EXPECT_EQ(mapper.content_hash().value(), reference.content_hash());

  // Live classify through the facade agrees with the hand-wired tree.
  for (const Vec3& p : probe_positions(reference)) {
    const map::Occupancy expect = reference.classify(geom::Vec3d{p.x, p.y, p.z});
    EXPECT_EQ(static_cast<int>(mapper.classify(p).value()), static_cast<int>(expect));
  }
}

TEST(FacadeEquivalence, SnapshotMatchesHandWiredMapSnapshot) {
  Mapper mapper = Mapper::create(MapperConfig().resolution(0.2)).value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());
  const MapView view = mapper.snapshot().value();

  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  stream_into(backend, test_scans());
  const auto snapshot = query::MapSnapshot::capture(backend);

  EXPECT_EQ(view.leaf_count(), snapshot->leaf_count());
  for (const Vec3& p : probe_positions(reference_tree())) {
    const map::Occupancy expect = snapshot->classify(geom::Vec3d{p.x, p.y, p.z});
    EXPECT_EQ(static_cast<int>(view.classify(p)), static_cast<int>(expect));
  }
}

TEST(FacadeEquivalence, AcceleratorSessionMatchesHandWired) {
  AcceleratorOptions opts;
  opts.rows_per_bank = std::size_t{1} << 16;  // sweep outgrows the 32 KiB default
  Mapper mapper = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kAccelerator)
                                     .accelerator(opts))
                      .value();
  stream_into(mapper, test_scans());

  accel::OmuConfig cfg;
  cfg.rows_per_bank = std::size_t{1} << 16;
  cfg.resolution = 0.2;
  accel::OmuAccelerator omu(cfg);
  accel::AcceleratorBackend backend(omu);
  stream_into(backend, test_scans());
  backend.flush();

  EXPECT_EQ(mapper.content_hash().value(), backend.content_hash());
  // And both match the software reference (the library-wide invariant).
  EXPECT_EQ(mapper.content_hash().value(), reference_tree().content_hash());
}

TEST(FacadeEquivalence, TiledWorldSessionMatchesHandWired) {
  TempDir dir("facade_world_eq");
  TempDir hand_dir("facade_world_eq_hand");

  // Size the budget at half the unbounded footprint so both sessions must
  // evict (the regime where bit-identity is hardest to keep).
  std::size_t budget = 0;
  {
    world::TiledWorldConfig unbounded;
    unbounded.resolution = 0.2;
    unbounded.tile_shift = 5;
    world::TiledWorldMap sizing(unbounded);
    stream_into(sizing, test_scans());
    budget = sizing.pager_stats().resident_bytes / 2;
  }

  Mapper mapper = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kTiledWorld)
                                     .world({.directory = dir.path(),
                                             .resident_byte_budget = budget,
                                             .tile_shift = 5}))
                      .value();
  stream_into(mapper, test_scans());
  ASSERT_TRUE(mapper.flush().ok());

  world::TiledWorldConfig cfg;
  cfg.resolution = 0.2;
  cfg.tile_shift = 5;
  cfg.directory = hand_dir.path();
  cfg.resident_byte_budget = budget;
  world::TiledWorldMap hand(cfg);
  stream_into(hand, test_scans());
  hand.flush();

  // Bit-identical tiles, and both must have actually paged.
  EXPECT_EQ(mapper.internal_world()->leaves_sorted(), hand.leaves_sorted());
  EXPECT_EQ(mapper.content_hash().value(), hand.content_hash());
  EXPECT_GT(mapper.paging_stats().value().evictions, 0u);

  // Value-level equality against the monolithic reference, through the
  // facade view (the out-of-core zero-loss contract).
  const MapView view = mapper.snapshot().value();
  for (const Vec3& p : probe_positions(reference_tree())) {
    const map::Occupancy expect = reference_tree().classify(geom::Vec3d{p.x, p.y, p.z});
    EXPECT_EQ(static_cast<int>(view.classify(p)), static_cast<int>(expect));
  }
}

// ---- Hybrid write-absorber sessions -----------------------------------------
// The hybrid backend's whole contract is that absorbing writes in the
// dense window costs zero bits: after a flush boundary the session is
// indistinguishable from one that inserted directly into the back.

TEST(FacadeEquivalence, HybridOverOctreeMatchesDirectSession) {
  Mapper direct = Mapper::create(MapperConfig().resolution(0.2)).value();
  Mapper hybrid = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 32}))
                      .value();
  stream_into(direct, test_scans());
  stream_into(hybrid, test_scans());
  ASSERT_TRUE(hybrid.flush().ok());

  EXPECT_EQ(hybrid.content_hash().value(), direct.content_hash().value());
  EXPECT_EQ(hybrid.content_hash().value(), reference_tree().content_hash());
  EXPECT_EQ(hybrid.backend_name(), "hybrid[octree]");

  // The window actually absorbed work (the sweep stays near each origin).
  const MapperStats stats = hybrid.stats().value();
  EXPECT_GT(stats.absorber.updates_absorbed, 0u);
  EXPECT_GT(stats.absorber.window_flushes, 0u);
  EXPECT_NE(hybrid.internal_hybrid(), nullptr);
  EXPECT_EQ(direct.internal_hybrid(), nullptr);

  // Facade snapshot published at the flush answers like the direct tree.
  const MapView view = hybrid.snapshot().value();
  for (const Vec3& p : probe_positions(reference_tree())) {
    const map::Occupancy expect = reference_tree().classify(geom::Vec3d{p.x, p.y, p.z});
    EXPECT_EQ(static_cast<int>(view.classify(p)), static_cast<int>(expect));
  }
}

TEST(FacadeEquivalence, HybridOverTiledWorldMatchesDirectSession) {
  TempDir dir("facade_hybrid_world");
  Mapper hybrid = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 32,
                                              .back_backend = BackendKind::kTiledWorld})
                                     .world({.directory = dir.path(), .tile_shift = 5}))
                      .value();
  stream_into(hybrid, test_scans());
  ASSERT_TRUE(hybrid.flush().ok());

  world::TiledWorldConfig cfg;
  cfg.resolution = 0.2;
  cfg.tile_shift = 5;
  world::TiledWorldMap hand(cfg);
  stream_into(hand, test_scans());
  hand.flush();

  EXPECT_EQ(hybrid.content_hash().value(), hand.content_hash());
  EXPECT_GT(hybrid.stats()->absorber.updates_absorbed, 0u);
}

// A tiny window under a wide sweep forces constant scrolling: most
// updates either pass through or get evicted mid-stream. Bit-identity
// must survive that churn too.
TEST(FacadeEquivalence, HybridScrollChurnCostsNoBits) {
  Mapper hybrid = Mapper::create(MapperConfig()
                                     .resolution(0.2)
                                     .backend(BackendKind::kHybrid)
                                     .hybrid({.window_voxels = 8, .flush_high_water = 96}))
                      .value();
  stream_into(hybrid, test_scans());
  ASSERT_TRUE(hybrid.flush().ok());

  EXPECT_EQ(hybrid.content_hash().value(), reference_tree().content_hash());
  const MapperStats::Absorber a = hybrid.stats()->absorber;
  EXPECT_GT(a.updates_passed_through, 0u);  // the 1.6 m window cannot hold a scan
  EXPECT_GT(a.scrolls, 0u);                 // the sweep moves the origin every scan
}

// ---- insert(ScanView) unification -------------------------------------------

TEST(FacadeEquivalence, InsertScanViewMatchesInsertScan) {
  Mapper by_scan = Mapper::create(MapperConfig().resolution(0.2)).value();
  Mapper by_view = Mapper::create(MapperConfig().resolution(0.2)).value();

  for (const auto& scan : test_scans()) {
    ASSERT_TRUE(insert_cloud(by_scan, scan.points, scan.origin).ok());
    std::vector<Point> points;
    points.reserve(scan.points.size());
    for (const geom::Vec3f& p : scan.points) points.push_back(Point{p.x, p.y, p.z});
    ScanView view;
    view.points = points.data();
    view.point_count = points.size();
    view.origin = Vec3{scan.origin.x, scan.origin.y, scan.origin.z};
    ASSERT_TRUE(by_view.insert(view).ok());
  }
  EXPECT_EQ(by_scan.content_hash().value(), by_view.content_hash().value());
  EXPECT_EQ(by_view.stats()->ingest.scans_inserted, test_scans().size());
}

TEST(FacadeEquivalence, InsertScanViewWithRayOriginsMatchesInsertRays) {
  Mapper by_rays = Mapper::create(MapperConfig().resolution(0.2)).value();
  Mapper by_view = Mapper::create(MapperConfig().resolution(0.2)).value();

  for (const auto& scan : test_scans()) {
    std::vector<Ray> rays;
    std::vector<Point> points;
    std::vector<Vec3> origins;
    for (const geom::Vec3f& p : scan.points) {
      const Vec3 origin{scan.origin.x, scan.origin.y, scan.origin.z};
      rays.push_back(Ray{origin, Point{p.x, p.y, p.z}});
      points.push_back(Point{p.x, p.y, p.z});
      origins.push_back(origin);
    }
    ASSERT_TRUE(by_rays.insert(rays).ok());
    ScanView view;
    view.points = points.data();
    view.point_count = points.size();
    view.ray_origins = origins.data();
    ASSERT_TRUE(by_view.insert(view).ok());
  }
  EXPECT_EQ(by_rays.content_hash().value(), by_view.content_hash().value());
}

TEST(FacadeEquivalence, InsertRaysMatchesInsertScan) {
  Mapper by_scan = Mapper::create(MapperConfig().resolution(0.2)).value();
  Mapper by_rays = Mapper::create(MapperConfig().resolution(0.2)).value();

  for (const auto& scan : test_scans()) {
    ASSERT_TRUE(insert_cloud(by_scan, scan.points, scan.origin).ok());
    std::vector<Ray> rays;
    rays.reserve(scan.points.size());
    for (const geom::Vec3f& p : scan.points) {
      rays.push_back(Ray{Vec3{scan.origin.x, scan.origin.y, scan.origin.z}, Point{p.x, p.y, p.z}});
    }
    ASSERT_TRUE(by_rays.insert(rays).ok());
  }
  EXPECT_EQ(by_scan.content_hash().value(), by_rays.content_hash().value());
  EXPECT_EQ(by_rays.stats()->ingest.rays_inserted, by_rays.stats()->ingest.points_inserted);
}

TEST(FacadeEquivalence, SensorModelPropagatesToEveryBackend) {
  SensorModel sm;
  sm.log_hit = 1.2f;
  sm.log_miss = -0.6f;
  sm.clamp_max = 2.5f;
  sm.max_range = 4.0;

  Mapper octree = Mapper::create(MapperConfig().resolution(0.2).sensor_model(sm)).value();
  stream_into(octree, test_scans());
  for (const BackendKind kind : {BackendKind::kAccelerator, BackendKind::kHybrid}) {
    Mapper other =
        Mapper::create(MapperConfig().resolution(0.2).sensor_model(sm).backend(kind)).value();
    stream_into(other, test_scans());
    EXPECT_EQ(octree.content_hash().value(), other.content_hash().value()) << to_string(kind);
  }
  // A max_range this short truncates rays, so the map genuinely differs
  // from the default-model reference.
  EXPECT_NE(octree.content_hash().value(), reference_tree().content_hash());
}

}  // namespace
}  // namespace omu
