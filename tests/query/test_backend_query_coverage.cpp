// Query coverage across every MapBackend: metric out-of-range positions
// classify unknown (never crash, never alias into the key space), and
// coarse-depth (max_depth < 16) answers agree between accel::QueryUnit and
// the software octree on maps built by each backend.
#include <gtest/gtest.h>

#include "accel/accel_backend.hpp"
#include "accel/omu_accelerator.hpp"
#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "map/scan_inserter.hpp"
#include "query/map_snapshot.hpp"

namespace omu {
namespace {

using map::OcKey;
using map::Occupancy;

/// Positions guaranteed outside the representable key space at 0.2 m
/// resolution (the map spans about +-6553.6 m per axis).
const geom::Vec3d kOutOfRange[] = {
    {1e9, 0, 0},         {0, 1e9, 0},          {0, 0, 1e9},
    {-1e9, 0, 0},        {7000.0, 0, 0},       {0, -7000.0, 0},
    {0, 0, 6600.0},      {-6600.0, 6600.0, 0}, {1e30, 1e30, 1e30},
};

TEST(BackendQueryCoverage, OutOfRangeClassifiesUnknownOnEveryBackend) {
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend tree_backend(tree);
  accel::OmuAccelerator omu;
  accel::AcceleratorBackend omu_backend(omu);

  // Seed both with one occupied voxel so "unknown" is a real verdict, not
  // an empty-map default.
  map::UpdateBatch batch;
  batch.push(OcKey{map::kKeyOrigin, map::kKeyOrigin, map::kKeyOrigin}, true);
  map::MapBackend* backends[] = {&tree_backend, &omu_backend};
  for (map::MapBackend* backend : backends) {
    backend->apply(batch);
    backend->flush();
    EXPECT_EQ(backend->classify(geom::Vec3d{0.1, 0.1, 0.1}), Occupancy::kOccupied)
        << backend->name();
    for (const geom::Vec3d& p : kOutOfRange) {
      EXPECT_EQ(backend->classify(p), Occupancy::kUnknown)
          << backend->name() << " at " << p.x << "," << p.y << "," << p.z;
    }
    // The snapshot path gives the same verdicts.
    const auto snapshot = query::MapSnapshot::capture(*backend);
    for (const geom::Vec3d& p : kOutOfRange) {
      EXPECT_EQ(snapshot->classify(p), Occupancy::kUnknown) << backend->name();
    }
  }
}

TEST(BackendQueryCoverage, BoundaryOfKeySpaceStillInRange) {
  // The outermost representable voxel is queryable; one voxel beyond is
  // unknown. At 0.2 m: keys span [-32768, 32767] cells per axis.
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend backend(tree);
  const double res = 0.2;
  const double inside_hi = (32767 + 0.5) * res;   // center of the last voxel
  const double outside_hi = (32768 + 0.5) * res;  // one past it
  const double inside_lo = (-32768 + 0.5) * res;
  const double outside_lo = (-32769 + 0.5) * res;
  EXPECT_TRUE(tree.coder().key_for({inside_hi, 0, 0}).has_value());
  EXPECT_TRUE(tree.coder().key_for({inside_lo, 0, 0}).has_value());
  EXPECT_FALSE(tree.coder().key_for({outside_hi, 0, 0}).has_value());
  EXPECT_FALSE(tree.coder().key_for({outside_lo, 0, 0}).has_value());
  EXPECT_EQ(backend.classify(geom::Vec3d{outside_hi, 0, 0}), Occupancy::kUnknown);
  EXPECT_EQ(backend.classify(geom::Vec3d{outside_lo, 0, 0}), Occupancy::kUnknown);
}

TEST(BackendQueryCoverage, CoarseDepthAgreesAcrossBackendsAndQueryUnit) {
  // Build the identical map on both backends, then sweep coarse depths:
  // the accelerator's QueryUnit, the serial octree and the snapshot layer
  // over the accelerator's export must give one answer.
  map::OccupancyOctree tree(0.2);
  map::OctreeBackend tree_backend(tree);
  accel::OmuAccelerator omu;
  accel::AcceleratorBackend omu_backend(omu);
  map::MapBackend* backends[] = {&tree_backend, &omu_backend};

  map::ScanInserter inserter(tree_backend);
  geom::SplitMix64 rng(61);
  map::UpdateBatch updates;
  for (int s = 0; s < 3; ++s) {
    geom::PointCloud cloud;
    for (int i = 0; i < 250; ++i) {
      cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-5, 5)),
                                  static_cast<float>(rng.uniform(-5, 5)),
                                  static_cast<float>(rng.uniform(-1, 1))});
    }
    updates.clear();
    inserter.collect_updates(cloud, {0, 0, 0}, updates);
    for (map::MapBackend* backend : backends) backend->apply(updates);
  }
  for (map::MapBackend* backend : backends) backend->flush();
  ASSERT_EQ(omu.content_hash(), tree.content_hash());

  const auto snapshot = query::MapSnapshot::capture(omu_backend);
  for (const int depth : {2, 4, 6, 8, 10, 12, 14, 15}) {
    for (int i = 0; i < 300; ++i) {
      const OcKey key{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(96) - 48),
                      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(96) - 48),
                      static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(96) - 48)};
      const auto sw_view = tree.search(key, depth);
      const Occupancy expected =
          sw_view ? tree.params().classify(sw_view->log_odds) : Occupancy::kUnknown;

      const accel::PeQueryResult hw = omu.query(key, depth);
      EXPECT_EQ(hw.occupancy, expected) << "depth " << depth;
      if (sw_view) EXPECT_EQ(hw.log_odds, sw_view->log_odds) << "depth " << depth;

      EXPECT_EQ(snapshot->classify(key, depth), expected) << "depth " << depth;
    }
  }
}

}  // namespace
}  // namespace omu
