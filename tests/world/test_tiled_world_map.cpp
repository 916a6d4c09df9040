// The tiled world map's equivalence contract: a multi-tile scan stream
// through TiledWorldMap — with and without forced eviction — yields
// queries and exports bit-identical to the same stream into one
// monolithic octree, and resident tile bytes respect the pager budget.
#include "world/tiled_world_map.hpp"

#include <gtest/gtest.h>

#include "geom/rng.hpp"
#include "map/scan_inserter.hpp"
#include "world_test_util.hpp"

namespace omu::world {
namespace {

using map::OcKey;
using map::Occupancy;
using testing::SweepScan;
using testing::TempDir;
using testing::make_sweep_scans;

/// Streams the scans into both maps through identical ScanInserters.
void build_both(TiledWorldMap& world, map::OccupancyOctree& mono,
                const std::vector<SweepScan>& scans) {
  map::ScanInserter world_inserter(world);
  map::ScanInserter mono_inserter(mono);
  for (const SweepScan& scan : scans) {
    world_inserter.insert_scan(scan.points, scan.origin);
    mono_inserter.insert_scan(scan.points, scan.origin);
  }
  world.flush();
}

/// Random key inside the mapped slab (plus occasional far-out keys).
OcKey random_key(geom::SplitMix64& rng) {
  if (rng.next_below(16) == 0) {
    return OcKey{static_cast<uint16_t>(rng.next_below(1u << 16)),
                 static_cast<uint16_t>(rng.next_below(1u << 16)),
                 static_cast<uint16_t>(rng.next_below(1u << 16))};
  }
  return OcKey{static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(200) - 100),
               static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(80) - 40),
               static_cast<uint16_t>(map::kKeyOrigin + rng.next_below(40) - 20)};
}

void expect_queries_match(TiledWorldMap& world, const map::OccupancyOctree& mono,
                          uint64_t seed) {
  geom::SplitMix64 rng(seed);
  for (int i = 0; i < 3000; ++i) {
    const OcKey key = random_key(rng);
    ASSERT_EQ(world.classify(key), mono.classify(key)) << "key " << key.packed();
  }
  for (int i = 0; i < 300; ++i) {
    const geom::Vec3d p{rng.uniform(-20, 20), rng.uniform(-8, 8), rng.uniform(-4, 4)};
    ASSERT_EQ(world.classify(p), mono.classify(p));
  }
}

TEST(TiledWorldMap, EquivalentToMonolithicWithoutEviction) {
  TiledWorldConfig cfg;
  cfg.tile_shift = 5;  // 6.4 m tiles: the sweep crosses several
  TiledWorldMap world(cfg);
  map::OccupancyOctree mono(cfg.resolution, cfg.params);
  build_both(world, mono, make_sweep_scans(21, 24, 300));

  EXPECT_GT(world.tile_count(), 3u);
  EXPECT_EQ(world.leaves_sorted(),
            map::normalize_to_min_depth(mono.leaves_sorted(), world.grid().tile_depth()));
  expect_queries_match(world, mono, 77);

  const TilePagerStats stats = world.pager_stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_tiles, stats.known_tiles);
}

TEST(TiledWorldMap, SingleTileWorldMatchesMonolithicExactly) {
  TiledWorldConfig cfg;
  cfg.tile_shift = 16;  // one tile spanning the whole key space
  TiledWorldMap world(cfg);
  map::OccupancyOctree mono(cfg.resolution, cfg.params);
  build_both(world, mono, make_sweep_scans(5, 6, 200));

  EXPECT_EQ(world.tile_count(), 1u);
  EXPECT_EQ(world.leaves_sorted(), mono.leaves_sorted());
  EXPECT_EQ(world.content_hash(), mono.content_hash());
}

// The acceptance test: forced eviction must not perturb a single bit.
TEST(TiledWorldMap, EquivalenceSurvivesEvictionUnderAByteBudget) {
  const std::vector<SweepScan> scans = make_sweep_scans(42, 32, 300);

  // Pass 1 (unbounded, in-memory) sizes the budget: two thirds of the
  // total resident bytes, so the second pass must evict but no single tile
  // can exceed the budget alone (the sweep spreads content across tiles).
  TiledWorldConfig unbounded;
  unbounded.tile_shift = 5;
  TiledWorldMap reference_world(unbounded);
  map::OccupancyOctree mono(unbounded.resolution, unbounded.params);
  build_both(reference_world, mono, scans);
  const std::size_t total_bytes = reference_world.pager_stats().resident_bytes;
  ASSERT_GT(reference_world.tile_count(), 4u);

  TempDir dir("world_evict");
  TiledWorldConfig cfg;
  cfg.tile_shift = 5;
  cfg.directory = dir.path();
  cfg.resident_byte_budget = (total_bytes * 2) / 3;
  TiledWorldMap world(cfg);
  {
    map::ScanInserter inserter(world);
    for (const SweepScan& scan : scans) inserter.insert_scan(scan.points, scan.origin);
  }
  world.flush();

  TilePagerStats stats = world.pager_stats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction; test is vacuous";
  // The pager's bounded-memory guarantee: under budget at operation
  // boundaries; the continuous high-water may transiently exceed it by at
  // most one residency step (one paged-in tile / one sub-batch of growth).
  EXPECT_LE(stats.resident_bytes, cfg.resident_byte_budget);
  EXPECT_LE(stats.peak_resident_bytes,
            cfg.resident_byte_budget + stats.max_residency_step_bytes);

  // Bit-identical exports and queries, eviction or not. The query sweep
  // itself pages evicted tiles back in synchronously.
  EXPECT_EQ(world.leaves_sorted(),
            map::normalize_to_min_depth(mono.leaves_sorted(), world.grid().tile_depth()));
  expect_queries_match(world, mono, 123);

  stats = world.pager_stats();
  EXPECT_GT(stats.reloads, 0u) << "queries into evicted tiles must reload them";
  EXPECT_LE(stats.resident_bytes, cfg.resident_byte_budget);
  EXPECT_LE(stats.peak_resident_bytes,
            cfg.resident_byte_budget + stats.max_residency_step_bytes);
}

TEST(TiledWorldMap, MatchesSerialOctreeContent) {
  TiledWorldConfig cfg;
  cfg.tile_shift = 6;
  TiledWorldMap world(cfg);
  map::OccupancyOctree serial(cfg.resolution, cfg.params);
  const std::vector<SweepScan> scans = make_sweep_scans(9, 10, 250);
  map::ScanInserter world_inserter(world);
  map::ScanInserter serial_inserter(serial);
  for (const SweepScan& scan : scans) {
    world_inserter.insert_scan(scan.points, scan.origin);
    serial_inserter.insert_scan(scan.points, scan.origin);
  }
  world.flush();
  // The serial tree may prune above the tile-root depth, so compare in
  // the world's normalized form.
  EXPECT_EQ(world.leaves_sorted(),
            map::normalize_to_min_depth(serial.leaves_sorted(), world.grid().tile_depth()));
}

TEST(TiledWorldMap, EmptyWorldAnswersUnknown) {
  TiledWorldMap world(TiledWorldConfig{});
  EXPECT_EQ(world.tile_count(), 0u);
  EXPECT_EQ(world.classify(OcKey{100, 200, 300}), Occupancy::kUnknown);
  EXPECT_TRUE(world.leaves_sorted().empty());
  const auto view = world.capture_view();
  EXPECT_TRUE(view->empty());
  EXPECT_EQ(view->classify(OcKey{100, 200, 300}), Occupancy::kUnknown);
  EXPECT_FALSE(view->any_occupied_in_box({{-1, -1, -1}, {1, 1, 1}}, false));
  EXPECT_TRUE(view->any_occupied_in_box({{-1, -1, -1}, {1, 1, 1}}, true));
}

TEST(TiledWorldMap, BudgetWithoutDirectoryIsRejected) {
  TiledWorldConfig cfg;
  cfg.resident_byte_budget = 1 << 20;
  EXPECT_THROW(TiledWorldMap{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace omu::world
