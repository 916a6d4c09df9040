// Tile pager victim policy and in-session reload integrity.
//
// Pinning: an apply batch pins the tiles it has not applied yet, so making
// room for one of them evicts tiles outside the batch first; the budget
// bounds still hold when the batch itself outgrows the budget, and pins
// never outlive their batch, even one that throws.
//
// Integrity: a tile written in this session is verified on reload (and on
// a transient read by view capture) against the frame checksum recorded
// when it was written, so a stale or swapped valid file fails naming the
// tile.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "geom/rng.hpp"
#include "map/map_backend.hpp"
#include "world/budget_arbiter.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_manifest.hpp"
#include "world_test_util.hpp"

namespace omu::world {
namespace {

using map::OcKey;
using testing::TempDir;

constexpr int kTileShift = 5;  // 32-voxel tiles
constexpr int kSeedVoxels = 1;
constexpr int kGrowVoxels = 8;

TiledWorldConfig world_config(const std::string& dir, std::size_t budget) {
  TiledWorldConfig cfg;
  cfg.tile_shift = kTileShift;
  cfg.directory = dir;
  cfg.resident_byte_budget = budget;
  return cfg;
}

/// Key of voxel (x, y, z) inside tile `tx` of the row of tiles along +x
/// from the key origin.
OcKey tile_key(uint32_t tx, uint32_t x, uint32_t y, uint32_t z) {
  constexpr uint32_t kSpan = 1u << kTileShift;
  return OcKey{static_cast<uint16_t>(map::kKeyOrigin + tx * kSpan + x),
               static_cast<uint16_t>(map::kKeyOrigin + y),
               static_cast<uint16_t>(map::kKeyOrigin + z)};
}

/// `count` occupied updates at seeded positions inside tile `tx`. The same
/// seed gives every tile the same layout, hence the same resident bytes.
map::UpdateBatch tile_updates(uint32_t tx, int count, uint64_t seed) {
  geom::SplitMix64 rng(seed);
  constexpr uint32_t kSpan = 1u << kTileShift;
  map::UpdateBatch batch;
  for (int n = 0; n < count; ++n) {
    batch.push(tile_key(tx, static_cast<uint32_t>(rng.next_below(kSpan)),
                        static_cast<uint32_t>(rng.next_below(kSpan)),
                        static_cast<uint32_t>(rng.next_below(kSpan))),
               true);
  }
  return batch;
}

/// Resident bytes of one tile after its seed updates, and after its seed
/// plus growth updates.
std::pair<std::size_t, std::size_t> one_tile_bytes() {
  TiledWorldMap probe(world_config("", 0));
  probe.apply(tile_updates(0, kSeedVoxels, 1));
  const std::size_t seeded = probe.pager_stats().resident_bytes;
  probe.apply(tile_updates(0, kGrowVoxels, 2));
  return {seeded, probe.pager_stats().resident_bytes};
}

/// Evicts every resident tile through the shared-budget shed path.
void shed_all(BudgetArbiter& arbiter) {
  arbiter.request_shed(0, std::numeric_limits<std::size_t>::max());
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_error_naming(const std::function<void()>& op, const std::string& tile,
                         const char* what) {
  try {
    op();
    ADD_FAILURE() << what << " accepted a stale or swapped tile file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(tile), std::string::npos)
        << what << ": error does not name " << tile << ": " << e.what();
  }
}

// ---- Pinning ----------------------------------------------------------------

TEST(TiledWorldPaging, BatchThatFitsTheBudgetNeverReloadsItsOwnTiles) {
  constexpr uint32_t kTiles = 6;
  const auto [seeded, grown] = one_tile_bytes();
  // Growing one tile must push the world over budget, and the two grown
  // tiles of the batch must fit it together.
  ASSERT_GT(grown, seeded);
  ASSERT_LE(2 * grown, kTiles * seeded);

  TempDir dir("paging_fit");
  TiledWorldMap world(world_config(dir.path(), kTiles * seeded));
  for (uint32_t tx = 0; tx < kTiles; ++tx) world.apply(tile_updates(tx, kSeedVoxels, 1));
  ASSERT_EQ(world.pager_stats().evictions, 0u);
  ASSERT_EQ(world.pager_stats().resident_tiles, kTiles);

  // One batch growing the two least recently used tiles: plain LRU would
  // evict tile 1 to make room for tile 0's growth, then reload it.
  map::UpdateBatch batch = tile_updates(0, kGrowVoxels, 2);
  batch.append(tile_updates(1, kGrowVoxels, 2));
  world.apply(batch);

  const TilePagerStats stats = world.pager_stats();
  EXPECT_GT(stats.evictions, 0u) << "the batch never forced an eviction; test is vacuous";
  EXPECT_EQ(stats.reloads, 0u) << "a pending tile of the batch was evicted and reloaded";
  EXPECT_LE(stats.resident_bytes, kTiles * seeded);
}

TEST(TiledWorldPaging, BatchLargerThanTheBudgetStaysBoundedAndBitIdentical) {
  constexpr uint32_t kTiles = 12;
  const std::size_t budget = 4 * one_tile_bytes().second;
  TempDir dir("paging_overflow");
  TiledWorldMap world(world_config(dir.path(), budget));
  map::OccupancyOctree mono(world.config().resolution, world.config().params);
  map::OctreeBackend mono_backend(mono);

  // Two batches over all tiles, each far larger than the budget: the first
  // creates them, the second pages the evicted ones back in.
  for (uint64_t pass = 0; pass < 2; ++pass) {
    map::UpdateBatch batch;
    for (uint32_t tx = 0; tx < kTiles; ++tx) {
      batch.append(tile_updates(tx, 2 * kGrowVoxels, 3 + pass));
    }
    world.apply(batch);
    mono_backend.apply(batch);
    const TilePagerStats stats = world.pager_stats();
    EXPECT_LE(stats.resident_bytes, budget);
    EXPECT_LE(stats.peak_resident_bytes, budget + stats.max_residency_step_bytes);
  }
  const TilePagerStats stats = world.pager_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.reloads, 0u);
  EXPECT_EQ(world.leaves_sorted(),
            map::normalize_to_min_depth(mono.leaves_sorted(), world.grid().tile_depth()));
}

TEST(TiledWorldPaging, BatchThatThrowsLeavesNoTilePinned) {
  constexpr uint32_t kTiles = 6;
  const std::size_t seeded = one_tile_bytes().first;
  TempDir dir("paging_throw");
  BudgetArbiter arbiter(0);  // accounting only: the shed path, no global budget
  TiledWorldMap world(world_config(dir.path(), 3 * seeded));
  world.attach_budget_arbiter(&arbiter, "world");
  for (uint32_t tx = 0; tx < kTiles; ++tx) world.apply(tile_updates(tx, kSeedVoxels, 1));
  // The budget holds three tiles: 0..2, the least recently used, are out.
  ASSERT_EQ(world.pager_stats().resident_tiles, 3u);

  // Corrupt evicted tile 0, then fail a batch on it before its resident
  // tiles 3..5 are applied.
  const TileCoord victim = world.grid().tile_of(tile_key(0, 0, 0, 0));
  const std::string path = WorldManifest::tile_path(dir.path(), world.grid(), victim);
  std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_bytes(path, bytes);
  map::UpdateBatch batch = tile_updates(0, kSeedVoxels, 4);
  for (uint32_t tx = 3; tx < kTiles; ++tx) batch.append(tile_updates(tx, kSeedVoxels, 4));
  EXPECT_THROW(world.apply(batch), std::runtime_error);

  // shed() never evicts a pinned tile, so a pin left behind would keep
  // tiles resident here.
  ASSERT_GT(world.pager_stats().resident_tiles, 0u);
  shed_all(arbiter);
  EXPECT_EQ(world.pager_stats().resident_tiles, 0u);
  EXPECT_EQ(world.pager_stats().resident_bytes, 0u);
}

// ---- In-session reload integrity ----------------------------------------------

/// A two-tile world whose tiles were written and evicted in this session.
struct EvictedWorld {
  TempDir dir{"paging_integrity"};
  BudgetArbiter arbiter{0};
  TiledWorldMap world{world_config(dir.path(), 0)};

  EvictedWorld() {
    world.attach_budget_arbiter(&arbiter, "world");
    world.apply(tile_updates(0, kGrowVoxels, 5));
    world.apply(tile_updates(1, kGrowVoxels, 6));
    shed_all(arbiter);
  }
  TileCoord coord(uint32_t tx) const { return world.grid().tile_of(tile_key(tx, 0, 0, 0)); }
  std::string path(uint32_t tx) const {
    return WorldManifest::tile_path(dir.path(), world.grid(), coord(tx));
  }
  std::string name(uint32_t tx) const { return world.grid().tile_name(coord(tx)); }

  /// A reload and a view capture's transient read must both reject tile tx.
  void expect_rejected(uint32_t tx) {
    ASSERT_EQ(world.pager_stats().resident_tiles, 0u);
    expect_error_naming([this] { world.capture_view(); }, name(tx), "capture_view");
    expect_error_naming([this, tx] { world.classify(tile_key(tx, 0, 0, 0)); }, name(tx),
                        "reload");
  }
};

TEST(TiledWorldPaging, StaleTileFileWrittenThisSessionIsRejected) {
  EvictedWorld w;
  const std::string earlier = read_bytes(w.path(0));
  // Reload tile 0, change it and write it back on eviction; then put its
  // earlier (valid) file back in place.
  w.world.apply(tile_updates(0, kGrowVoxels, 7));
  shed_all(w.arbiter);
  ASSERT_NE(read_bytes(w.path(0)), earlier);
  write_bytes(w.path(0), earlier);
  w.expect_rejected(0);
}

TEST(TiledWorldPaging, SwappedTileFileWrittenThisSessionIsRejected) {
  EvictedWorld w;
  write_bytes(w.path(1), read_bytes(w.path(0)));
  w.expect_rejected(1);
}

}  // namespace
}  // namespace omu::world
