// The hard requirement of the snapshot query layer: a MapSnapshot
// captured from any backend answers point, batch, multi-resolution and
// AABB queries bit-identically to a flushed serial classify()/search()
// over the same map — on both backends (software octree, OMU accelerator
// model).
#include "query/map_snapshot.hpp"

#include <gtest/gtest.h>

#include "accel/accel_backend.hpp"
#include "accel/omu_accelerator.hpp"
#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"

namespace omu::query {
namespace {

using map::OcKey;
using map::Occupancy;
using map::OccupancyOctree;

/// The serial reference plus the backends, all fed the identical
/// update stream (ray-cast once, applied everywhere).
struct BackendFleet {
  explicit BackendFleet(uint64_t seed, int scans = 4, int points = 250)
      : omu_backend(omu), tree_backend(tree) {
    map::ScanInserter inserter(tree_backend);
    geom::SplitMix64 rng(seed);
    map::UpdateBatch updates;
    for (int s = 0; s < scans; ++s) {
      geom::PointCloud cloud;
      for (int i = 0; i < points; ++i) {
        cloud.push_back(geom::Vec3f{static_cast<float>(rng.uniform(-6, 6)),
                                    static_cast<float>(rng.uniform(-6, 6)),
                                    static_cast<float>(rng.uniform(-1.5, 1.5))});
      }
      const geom::Vec3d origin{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0};
      updates.clear();
      inserter.collect_updates(cloud, origin, updates);
      for (map::MapBackend* backend : all()) backend->apply(updates);
    }
    for (map::MapBackend* backend : all()) backend->flush();
  }

  std::array<map::MapBackend*, 2> all() {
    return {&tree_backend, &omu_backend};
  }

  OccupancyOctree tree{0.2};
  accel::OmuAccelerator omu;
  accel::AcceleratorBackend omu_backend;
  map::OctreeBackend tree_backend;
};

OcKey random_key_near(geom::SplitMix64& rng, int span) {
  return OcKey{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                                     static_cast<uint64_t>(span) / 2),
               static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                                     static_cast<uint64_t>(span) / 2),
               static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(static_cast<uint64_t>(span)) -
                                     static_cast<uint64_t>(span) / 2)};
}

TEST(SnapshotEquivalence, ContentHashMatchesEveryBackend) {
  BackendFleet fleet(1);
  for (map::MapBackend* backend : fleet.all()) {
    const auto snapshot = MapSnapshot::capture(*backend);
    EXPECT_EQ(snapshot->content_hash(), fleet.tree.content_hash()) << backend->name();
    EXPECT_EQ(snapshot->leaves(), map::normalize_to_depth1(fleet.tree.leaves_sorted()))
        << backend->name();
  }
}

TEST(SnapshotEquivalence, PointQueriesBitIdenticalToSerialClassify) {
  BackendFleet fleet(2);
  for (map::MapBackend* backend : fleet.all()) {
    const auto snapshot = MapSnapshot::capture(*backend);
    geom::SplitMix64 rng(42);
    for (int i = 0; i < 4000; ++i) {
      // Mix of in-map keys and far-away unknown space.
      const OcKey key = random_key_near(rng, i % 4 == 0 ? 4096 : 80);
      EXPECT_EQ(snapshot->classify(key), fleet.tree.classify(key))
          << backend->name() << " key " << key.packed();
    }
  }
}

TEST(SnapshotEquivalence, SearchReturnsExactSerialLogOdds) {
  BackendFleet fleet(3);
  const auto snapshot = MapSnapshot::capture(fleet.tree_backend);
  geom::SplitMix64 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const OcKey key = random_key_near(rng, 96);
    const auto expected = fleet.tree.search(key);
    const auto actual = snapshot->search(key);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << i;
    if (expected) {
      EXPECT_EQ(actual->log_odds, expected->log_odds) << i;  // exact float equality
      EXPECT_EQ(actual->depth, expected->depth) << i;
      EXPECT_EQ(actual->is_leaf, expected->is_leaf) << i;
    }
  }
}

TEST(SnapshotEquivalence, CoarseDepthMatchesSerialSearchOnAllBackends) {
  BackendFleet fleet(4);
  for (map::MapBackend* backend : fleet.all()) {
    const auto snapshot = MapSnapshot::capture(*backend);
    geom::SplitMix64 rng(17);
    for (const int depth : {1, 2, 4, 8, 12, 14, 15, 16}) {
      for (int i = 0; i < 400; ++i) {
        const OcKey key = random_key_near(rng, 96);
        const auto view = fleet.tree.search(key, depth);
        const Occupancy expected =
            view ? fleet.tree.params().classify(view->log_odds) : Occupancy::kUnknown;
        EXPECT_EQ(snapshot->classify(key, depth), expected)
            << backend->name() << " depth " << depth;
        if (view) {
          EXPECT_EQ(snapshot->search(key, depth)->log_odds, view->log_odds)
              << backend->name() << " depth " << depth;
        }
      }
    }
  }
}

TEST(SnapshotEquivalence, BatchMatchesPointwiseAndSerial) {
  BackendFleet fleet(5);
  const auto snapshot = MapSnapshot::capture(fleet.omu_backend);
  geom::SplitMix64 rng(23);
  std::vector<OcKey> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(random_key_near(rng, 120));

  std::vector<Occupancy> batch;
  snapshot->classify_batch(keys, batch);
  ASSERT_EQ(batch.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(batch[i], snapshot->classify(keys[i])) << i;
    EXPECT_EQ(batch[i], fleet.tree.classify(keys[i])) << i;
  }

  // Coarse-depth batches agree with the serial tree too.
  snapshot->classify_batch(keys, batch, 10);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto view = fleet.tree.search(keys[i], 10);
    EXPECT_EQ(batch[i], view ? fleet.tree.params().classify(view->log_odds) : Occupancy::kUnknown)
        << i;
  }
}

TEST(SnapshotEquivalence, AabbQueriesMatchSerialInBothUnknownModes) {
  BackendFleet fleet(6);
  for (map::MapBackend* backend : fleet.all()) {
    const auto snapshot = MapSnapshot::capture(*backend);
    geom::SplitMix64 rng(31);
    for (int i = 0; i < 300; ++i) {
      const geom::Vec3d center{rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-3, 3)};
      const geom::Vec3d size{rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0)};
      const geom::Aabb box = geom::Aabb::from_center_size(center, size);
      EXPECT_EQ(snapshot->any_occupied_in_box(box, false),
                fleet.tree.any_occupied_in_box(box, false))
          << backend->name() << " box " << i;
      EXPECT_EQ(snapshot->any_occupied_in_box(box, true),
                fleet.tree.any_occupied_in_box(box, true))
          << backend->name() << " box " << i;
    }
  }
}

TEST(SnapshotEquivalence, AcceleratorReadbackServesIdenticalSnapshot) {
  // The accelerator's export rides on its TreeMem readback; its snapshot
  // must equal both the software snapshot and the DMA to_octree readback.
  BackendFleet fleet(7);
  const auto from_accel = MapSnapshot::capture(fleet.omu_backend);
  const auto from_tree = MapSnapshot::capture(fleet.tree_backend);
  EXPECT_EQ(from_accel->content_hash(), from_tree->content_hash());
  EXPECT_EQ(from_accel->leaves(), from_tree->leaves());
  const OccupancyOctree readback = fleet.omu.to_octree();
  EXPECT_EQ(from_accel->content_hash(), readback.content_hash());
}

TEST(SnapshotEquivalence, SnapshotIsImmutableAcrossFurtherWrites) {
  BackendFleet fleet(8);
  const auto snapshot = MapSnapshot::capture(fleet.tree_backend);
  const uint64_t hash_before = snapshot->content_hash();
  const auto leaves_before = snapshot->leaves();

  // Keep writing to the live map; the captured snapshot must not move.
  geom::SplitMix64 rng(77);
  for (int i = 0; i < 2000; ++i) {
    fleet.tree.update_node(random_key_near(rng, 64), rng.next_below(2) == 0);
  }
  EXPECT_EQ(snapshot->content_hash(), hash_before);
  EXPECT_EQ(snapshot->leaves(), leaves_before);
  EXPECT_NE(fleet.tree.content_hash(), hash_before);  // the live map did move
}

}  // namespace
}  // namespace omu::query
