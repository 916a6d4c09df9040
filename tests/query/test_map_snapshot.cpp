// Structural unit tests of the flattened MapSnapshot: empty and collapsed
// maps, canonical ordering, first-level routing, and capture semantics.
// The cross-backend bit-identity checks live in
// test_snapshot_equivalence.cpp.
#include "query/map_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "accel/accel_backend.hpp"
#include "accel/omu_accelerator.hpp"
#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"

namespace omu::query {
namespace {

using map::LeafRecord;
using map::OcKey;
using map::Occupancy;

OcKey center_key(uint16_t dx = 0, uint16_t dy = 0, uint16_t dz = 0) {
  return OcKey{static_cast<uint16_t>(map::kKeyOrigin + dx),
               static_cast<uint16_t>(map::kKeyOrigin + dy),
               static_cast<uint16_t>(map::kKeyOrigin + dz)};
}

TEST(MapSnapshot, EmptySnapshotAnswersUnknownEverywhere) {
  const auto snapshot = MapSnapshot::build(map::MapSnapshotData{});
  EXPECT_TRUE(snapshot->empty());
  EXPECT_EQ(snapshot->leaf_count(), 0u);
  EXPECT_EQ(snapshot->classify(center_key()), Occupancy::kUnknown);
  EXPECT_EQ(snapshot->classify(geom::Vec3d{0, 0, 0}), Occupancy::kUnknown);
  EXPECT_FALSE(snapshot->search(center_key()).has_value());
  EXPECT_FALSE(snapshot->any_occupied_in_box(
      geom::Aabb::from_center_size({0, 0, 0}, {10, 10, 10}), false));
  // Conservative mode: everything is unknown, so any in-bounds box blocks.
  EXPECT_TRUE(snapshot->any_occupied_in_box(
      geom::Aabb::from_center_size({0, 0, 0}, {10, 10, 10}), true));
}

TEST(MapSnapshot, OutOfRangePositionIsUnknown) {
  map::OccupancyOctree tree(0.2);
  tree.update_node(center_key(), true);
  map::OctreeBackend backend(tree);
  const auto snapshot = MapSnapshot::capture(backend);
  EXPECT_EQ(snapshot->classify(geom::Vec3d{1e9, 0, 0}), Occupancy::kUnknown);
  EXPECT_EQ(snapshot->classify(geom::Vec3d{0, -1e7, 0}), Occupancy::kUnknown);
}

TEST(MapSnapshot, SingleVoxelRoutesAndClassifies) {
  map::OccupancyOctree tree(0.2);
  for (int i = 0; i < 4; ++i) tree.update_node(center_key(), true);
  map::OctreeBackend backend(tree);
  const auto snapshot = MapSnapshot::capture(backend);
  EXPECT_EQ(snapshot->classify(center_key()), Occupancy::kOccupied);
  EXPECT_EQ(snapshot->classify(center_key(1, 0, 0)), Occupancy::kUnknown);
  // Coarse ancestors answer occupied through the reconstructed inner max.
  for (int depth = 1; depth < map::kTreeDepth; ++depth) {
    EXPECT_EQ(snapshot->classify(center_key(), depth), Occupancy::kOccupied) << depth;
  }
}

TEST(MapSnapshot, CollapsedDepthZeroMapCoversEverything) {
  // A single depth-0 record is a fully collapsed map (every voxel carries
  // the root value) — the one shape normalize_to_depth1 exists for.
  map::MapSnapshotData data;
  data.leaves = {LeafRecord{OcKey{}, 0, 1.5f}};
  const auto snapshot = MapSnapshot::build(std::move(data));
  geom::SplitMix64 rng(3);
  for (int i = 0; i < 100; ++i) {
    const OcKey key{static_cast<uint16_t>(rng.next_below(65536)),
                    static_cast<uint16_t>(rng.next_below(65536)),
                    static_cast<uint16_t>(rng.next_below(65536))};
    const auto view = snapshot->search(key);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->depth, 0);
    EXPECT_TRUE(view->is_leaf);
    EXPECT_EQ(snapshot->classify(key), Occupancy::kOccupied);
  }
  EXPECT_TRUE(snapshot->any_occupied_in_box(
      geom::Aabb::from_center_size({100, -200, 3}, {1, 1, 1}), false));
}

TEST(MapSnapshot, BuildAcceptsUnsortedLeafList) {
  map::OccupancyOctree tree(0.2);
  geom::SplitMix64 rng(9);
  for (int i = 0; i < 1500; ++i) {
    tree.update_node(center_key(static_cast<uint16_t>(rng.next_below(24)),
                                static_cast<uint16_t>(rng.next_below(24)),
                                static_cast<uint16_t>(rng.next_below(24))),
                     rng.next_below(2) == 0);
  }
  map::MapSnapshotData sorted{tree.leaves_sorted(), 0.2, tree.params()};
  map::MapSnapshotData shuffled = sorted;
  // Deterministic shuffle.
  for (std::size_t i = shuffled.leaves.size(); i > 1; --i) {
    std::swap(shuffled.leaves[i - 1], shuffled.leaves[rng.next_below(i)]);
  }
  const auto a = MapSnapshot::build(std::move(sorted));
  const auto b = MapSnapshot::build(std::move(shuffled));
  EXPECT_EQ(a->content_hash(), b->content_hash());
  EXPECT_EQ(a->leaves(), b->leaves());
  EXPECT_TRUE(std::is_sorted(b->leaves().begin(), b->leaves().end(),
                             [](const LeafRecord& x, const LeafRecord& y) {
                               return x.key.packed() < y.key.packed();
                             }));
}

TEST(MapSnapshot, CaptureFlushesAsynchronousBackends) {
  // capture() must see every streamed update, even without an explicit
  // flush() by the caller: the accelerator model pipelines scans and only
  // retires them at flush().
  accel::OmuAccelerator omu;
  accel::AcceleratorBackend omu_backend(omu);
  map::OccupancyOctree serial(0.2);
  map::ScanInserter serial_inserter(serial);
  map::ScanInserter omu_inserter(omu_backend);
  geom::PointCloud cloud;
  geom::SplitMix64 rng(21);
  for (int i = 0; i < 400; ++i) {
    cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-5, 5)),
                                static_cast<float>(rng.uniform(-1, 1))});
  }
  serial_inserter.insert_scan(cloud, {0, 0, 0});
  omu_inserter.insert_scan(cloud, {0, 0, 0});
  const auto snapshot = MapSnapshot::capture(omu_backend);  // no explicit flush
  EXPECT_EQ(snapshot->content_hash(), serial.content_hash());
}

TEST(MapSnapshot, ExposesEpochResolutionAndMemory) {
  map::OccupancyOctree tree(0.1);
  tree.update_node(center_key(), true);
  map::OctreeBackend backend(tree);
  const auto snapshot = MapSnapshot::build(backend.export_snapshot_data(), 42);
  EXPECT_EQ(snapshot->epoch(), 42u);
  EXPECT_EQ(snapshot->resolution(), 0.1);
  EXPECT_EQ(snapshot->leaf_count(), tree.leaf_count());
  EXPECT_GT(snapshot->memory_bytes(), 0u);
  EXPECT_EQ(snapshot->params().occ_threshold, tree.params().occ_threshold);
}

}  // namespace
}  // namespace omu::query
