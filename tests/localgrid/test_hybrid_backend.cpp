// HybridMapBackend bit-identity suite: after flush(), a map built through
// the dense-front absorber — window scrolls, high-water drains,
// pass-through traffic and all — must be bit-identical to feeding the
// same update stream directly into the back backend, for every back
// (octree, tiled world). Plus the absorber-local
// semantics: unknown-window reads, pass-through immediacy, high-water
// trips, snapshot-export draining, and serialized-map identity.
#include "localgrid/hybrid_backend.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <sstream>
#include <vector>

#include "geom/pointcloud.hpp"
#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/occupancy_octree.hpp"
#include "map/octree_io.hpp"
#include "map/scan_inserter.hpp"
#include "query/query_service.hpp"
#include "world/tiled_world_map.hpp"

namespace omu::localgrid {
namespace {

using map::OcKey;
using map::OccupancyOctree;
using map::OccupancyParams;
using map::ScanInserter;
using map::UpdateBatch;

/// A randomized churn stream: scans from a wandering origin (keeping the
/// action inside / around the absorber window) plus occasional far-field
/// scans that exercise the pass-through path.
std::vector<std::pair<geom::PointCloud, geom::Vec3d>> churn_scans(uint64_t seed, int scans,
                                                                  int points_per_scan) {
  geom::SplitMix64 rng(seed);
  std::vector<std::pair<geom::PointCloud, geom::Vec3d>> out;
  geom::Vec3d center{0.0, 0.0, 0.0};
  for (int s = 0; s < scans; ++s) {
    center.x += rng.uniform(-0.8, 0.8);
    center.y += rng.uniform(-0.8, 0.8);
    center.z += rng.uniform(-0.2, 0.2);
    const bool far_field = rng.next_below(5) == 0;
    const double spread = far_field ? 30.0 : 4.0;
    geom::PointCloud cloud;
    for (int i = 0; i < points_per_scan; ++i) {
      cloud.push_back(geom::Vec3f{static_cast<float>(center.x + rng.uniform(-spread, spread)),
                                  static_cast<float>(center.y + rng.uniform(-spread, spread)),
                                  static_cast<float>(center.z + rng.uniform(-1.5, 1.5))});
    }
    out.emplace_back(std::move(cloud), center);
  }
  return out;
}

void expect_leaves_equal(const std::vector<map::LeafRecord>& expected,
                         const std::vector<map::LeafRecord>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].key, expected[i].key) << i;
    ASSERT_EQ(actual[i].depth, expected[i].depth) << i;
    ASSERT_EQ(actual[i].log_odds, expected[i].log_odds) << i;  // exact float equality
  }
}

/// Drives the same scan stream into `direct` and into a hybrid absorber
/// over `back`, following the sensor origin (the scroll trigger), and
/// asserts the flushed maps are bit-identical.
void expect_hybrid_equivalent(map::MapBackend& direct, map::MapBackend& back,
                              const HybridConfig& cfg, uint64_t seed,
                              const map::InsertPolicy& policy = map::InsertPolicy{}) {
  const auto scans = churn_scans(seed, 24, 200);

  ScanInserter direct_inserter(direct, policy);
  for (const auto& [cloud, origin] : scans) direct_inserter.insert_scan(cloud, origin);
  direct.flush();

  HybridMapBackend hybrid(back, cfg);
  ScanInserter hybrid_inserter(hybrid, policy);
  for (const auto& [cloud, origin] : scans) {
    hybrid.follow(origin);
    hybrid_inserter.insert_scan(cloud, origin);
  }
  hybrid.flush();

  expect_leaves_equal(direct.leaves_sorted(), hybrid.leaves_sorted());
  EXPECT_EQ(hybrid.content_hash(), direct.content_hash());
  // The absorber actually absorbed (the test would vacuously pass if every
  // update passed through).
  EXPECT_GT(hybrid.absorber_stats().updates_absorbed, 0u);
  EXPECT_GT(hybrid.absorber_stats().voxels_flushed, 0u);
}

// ---- Octree back ------------------------------------------------------------

TEST(HybridBackend, OctreeBackBitIdentityRayByRay) {
  OccupancyOctree direct_tree(0.2);
  map::OctreeBackend direct(direct_tree);
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  expect_hybrid_equivalent(direct, back, HybridConfig{64, 0}, 11);

  // Prune-state identity, not just leaf values.
  EXPECT_EQ(back_tree.leaf_count(), direct_tree.leaf_count());
  EXPECT_EQ(back_tree.inner_count(), direct_tree.inner_count());

  // Serialized-map identity: the v2 streams agree byte for byte.
  std::ostringstream direct_bytes, hybrid_bytes;
  map::OctreeIo::write(direct_tree, direct_bytes);
  map::OctreeIo::write(back_tree, hybrid_bytes);
  EXPECT_EQ(direct_bytes.str(), hybrid_bytes.str());
}

TEST(HybridBackend, OctreeBackBitIdentityDiscretized) {
  map::InsertPolicy policy;
  policy.mode = map::InsertMode::kDiscretized;
  OccupancyOctree direct_tree(0.2);
  map::OctreeBackend direct(direct_tree);
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  expect_hybrid_equivalent(direct, back, HybridConfig{64, 0}, 12, policy);
}

TEST(HybridBackend, OctreeBackSmallWindowManyScrolls) {
  // A tiny window forces eviction churn on nearly every follow(); the
  // re-absorb/re-flush cycle must still replay exactly.
  OccupancyOctree direct_tree(0.2);
  map::OctreeBackend direct(direct_tree);
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  expect_hybrid_equivalent(direct, back, HybridConfig{16, 0}, 13);
  EXPECT_GT(back_tree.leaf_count(), 0u);
}

TEST(HybridBackend, OctreeBackHighWaterDrains) {
  // A low high-water mark forces mid-stream drains; identity must hold
  // and the drains must actually trip.
  OccupancyOctree direct_tree(0.2);
  map::OctreeBackend direct(direct_tree);
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);

  const auto scans = churn_scans(21, 12, 300);
  ScanInserter direct_inserter(direct);
  for (const auto& [cloud, origin] : scans) direct_inserter.insert_scan(cloud, origin);

  HybridMapBackend hybrid(back, HybridConfig{64, 512});
  ScanInserter hybrid_inserter(hybrid);
  for (const auto& [cloud, origin] : scans) {
    hybrid.follow(origin);
    hybrid_inserter.insert_scan(cloud, origin);
  }
  hybrid.flush();

  EXPECT_GT(hybrid.absorber_stats().high_water_flushes, 0u);
  expect_leaves_equal(direct.leaves_sorted(), hybrid.leaves_sorted());
}

// ---- Tiled-world back -------------------------------------------------------

TEST(HybridBackend, WorldBackBitIdentity) {
  world::TiledWorldConfig wcfg;
  wcfg.tile_shift = 10;
  world::TiledWorldMap direct(wcfg);
  world::TiledWorldMap back(wcfg);
  expect_hybrid_equivalent(direct, back, HybridConfig{32, 0}, 41);
}

TEST(HybridBackend, WorldBackBitIdentityUnderEviction) {
  // A paging world under a byte budget: aggregated flushes page tiles in
  // and out like any other write and the result still replays exactly.
  const auto dir = std::filesystem::temp_directory_path() / "omu_hybrid_world_direct";
  const auto dir2 = std::filesystem::temp_directory_path() / "omu_hybrid_world_back";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);

  world::TiledWorldConfig wcfg;
  wcfg.tile_shift = 9;
  wcfg.resident_byte_budget = 256 * 1024;
  wcfg.directory = dir.string();
  world::TiledWorldMap direct(wcfg);
  wcfg.directory = dir2.string();
  world::TiledWorldMap back(wcfg);
  expect_hybrid_equivalent(direct, back, HybridConfig{32, 1024}, 42);
  EXPECT_GT(direct.pager_stats().evictions, 0u);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

// ---- Absorber-local semantics ----------------------------------------------

TEST(HybridBackend, PassThroughIsImmediateUnknownWindowIsDeferred) {
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  HybridMapBackend hybrid(back, HybridConfig{16, 0});

  const auto base = hybrid.grid().base();
  const OcKey inside{static_cast<uint16_t>(base[0] + 4), static_cast<uint16_t>(base[1] + 4),
                     static_cast<uint16_t>(base[2] + 4)};
  const OcKey outside{static_cast<uint16_t>(base[0] + 1000), base[1], base[2]};

  UpdateBatch batch;
  batch.push(inside, true);
  batch.push(outside, true);
  hybrid.apply(batch);

  // Unknown-window semantics: the absorbed voxel is invisible until the
  // flush boundary; the pass-through voxel landed synchronously.
  EXPECT_EQ(hybrid.classify(inside), map::Occupancy::kUnknown);
  EXPECT_EQ(hybrid.classify(outside), map::Occupancy::kOccupied);
  EXPECT_EQ(hybrid.absorber_stats().updates_absorbed, 1u);
  EXPECT_EQ(hybrid.absorber_stats().updates_passed_through, 1u);

  hybrid.flush();
  EXPECT_EQ(hybrid.classify(inside), map::Occupancy::kOccupied);
}

TEST(HybridBackend, SnapshotExportDrainsTheWindow) {
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  HybridMapBackend hybrid(back, HybridConfig{16, 0});

  const auto base = hybrid.grid().base();
  UpdateBatch batch;
  batch.push(OcKey{static_cast<uint16_t>(base[0] + 2), static_cast<uint16_t>(base[1] + 2),
                   static_cast<uint16_t>(base[2] + 2)},
             true);
  hybrid.apply(batch);
  ASSERT_GT(hybrid.grid().dirty_count(), 0u);

  // refresh_from drives export_snapshot_delta — a flush boundary: the
  // published snapshot must include the absorbed voxel.
  query::QueryService service;
  service.refresh_from(hybrid);
  EXPECT_EQ(hybrid.grid().dirty_count(), 0u);
  EXPECT_EQ(service.snapshot()->content_hash(), back_tree.content_hash());
  EXPECT_EQ(service.snapshot()->leaf_count(), back_tree.leaf_count());
}

TEST(HybridBackend, FollowRecentersAndFlushesDepartures) {
  OccupancyOctree back_tree(0.2);
  map::OctreeBackend back(back_tree);
  HybridMapBackend hybrid(back, HybridConfig{16, 0});

  const auto base = hybrid.grid().base();
  const OcKey corner{base[0], base[1], base[2]};
  UpdateBatch batch;
  batch.push(corner, true);  // lower corner: departs on any +move
  hybrid.apply(batch);
  ASSERT_EQ(hybrid.classify(corner), map::Occupancy::kUnknown);

  hybrid.follow(geom::Vec3d{100.0, 100.0, 100.0});
  EXPECT_GT(hybrid.absorber_stats().scrolls, 0u);
  EXPECT_EQ(hybrid.absorber_stats().scroll_evictions, 1u);
  // The departed voxel reached the back without an explicit flush().
  EXPECT_EQ(hybrid.classify(corner), map::Occupancy::kOccupied);
}

TEST(HybridBackend, RejectsInvalidConfig) {
  OccupancyOctree tree(0.2);
  map::OctreeBackend back(tree);
  EXPECT_THROW(HybridMapBackend(back, HybridConfig{48, 0}), std::invalid_argument);
  EXPECT_THROW(HybridMapBackend(back, HybridConfig{16, 5000}), std::invalid_argument);

  OccupancyParams raw;
  raw.quantized = false;
  OccupancyOctree raw_tree(0.2, raw);
  map::OctreeBackend raw_back(raw_tree);
  EXPECT_THROW(HybridMapBackend(raw_back, HybridConfig{16, 0}), std::invalid_argument);
}

TEST(HybridBackend, AggregatedDeltasRejectedByDefaultBackends) {
  // The guard behind config-time rejection of hybrid-over-accelerator:
  // a backend without an apply_aggregated override refuses loudly.
  class MinimalBackend final : public map::MapBackend {
   public:
    std::string name() const override { return "minimal"; }
    const map::KeyCoder& coder() const override { return coder_; }
    OccupancyParams occupancy_params() const override { return OccupancyParams{}; }
    void apply(const UpdateBatch&) override {}
    map::Occupancy classify(const OcKey&) override { return map::Occupancy::kUnknown; }
    std::vector<map::LeafRecord> leaves_sorted() const override { return {}; }

   private:
    map::KeyCoder coder_{0.2};
  };
  MinimalBackend minimal;
  EXPECT_THROW(minimal.apply_aggregated({}), std::logic_error);
}

}  // namespace
}  // namespace omu::localgrid
