// A tile file's one identity: its frame checksum.
//
// Tile files are plain OctreeIo v2 files, so an external reader loads each
// one to exactly the tile's content; the manifest records each file's
// frame checksum and leaf count. A manifest written before the checksum
// became the identity holds a canonical content hash in that field: the
// world still opens, and the first touch of such a tile fails naming it
// instead of yielding a different map; so does an entry whose leaf count
// disagrees with the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "io/framing.hpp"
#include "map/octree_io.hpp"
#include "map/scan_inserter.hpp"
#include "world/tiled_world_map.hpp"
#include "world/world_manifest.hpp"
#include "world_test_util.hpp"

namespace omu::world {
namespace {

namespace fs = std::filesystem;
using testing::SweepScan;
using testing::TempDir;
using testing::make_sweep_scans;

constexpr int kTileShift = 5;

TiledWorldConfig world_config(const std::string& dir, std::size_t budget) {
  TiledWorldConfig cfg;
  cfg.tile_shift = kTileShift;
  cfg.directory = dir;
  cfg.resident_byte_budget = budget;
  return cfg;
}

void map_sweep(TiledWorldMap& world) {
  map::ScanInserter inserter(world);
  for (const SweepScan& scan : make_sweep_scans(21, 12, 200)) {
    inserter.insert_scan(scan.points, scan.origin);
  }
}

/// The world's leaves grouped by tile file name, each group in canonical
/// order (the order of a tile's own leaves_sorted()).
std::map<std::string, std::vector<map::LeafRecord>> leaves_by_tile(const TiledWorldMap& world) {
  std::map<std::string, std::vector<map::LeafRecord>> out;
  for (const map::LeafRecord& rec : world.leaves_sorted()) {
    out[world.grid().tile_name(world.grid().tile_of(rec.key)) + ".omap"].push_back(rec);
  }
  return out;
}

std::vector<fs::path> tile_files(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / WorldManifest::kTilesDir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(TileFileIdentity, PagedTileFilesReadBackThroughOctreeIoToEachTilesContent) {
  TiledWorldMap unbounded(world_config("", 0));
  map_sweep(unbounded);
  const std::size_t unbounded_bytes = unbounded.pager_stats().resident_bytes;

  TempDir dir("tile_files_paged");
  TiledWorldMap paged(world_config(dir.path(), unbounded_bytes / 2));
  map_sweep(paged);
  ASSERT_GT(paged.pager_stats().evictions, 0u) << "no eviction; test is vacuous";
  paged.save();
  ASSERT_EQ(paged.content_hash(), unbounded.content_hash());

  const auto expected = leaves_by_tile(unbounded);
  const std::vector<fs::path> files = tile_files(dir.path());
  ASSERT_EQ(files.size(), expected.size());
  for (const fs::path& file : files) {
    const auto it = expected.find(file.filename().string());
    ASSERT_NE(it, expected.end()) << "no tile of the map for " << file;
    const std::optional<map::OccupancyOctree> tree = map::OctreeIo::read_file(file.string());
    ASSERT_TRUE(tree.has_value()) << file << " does not read through OctreeIo::read_file";
    EXPECT_EQ(tree->content_hash(), map::hash_leaf_records(it->second)) << file;
    EXPECT_EQ(tree->leaves_sorted(), it->second) << file;
  }
}

TEST(TileFileIdentity, ManifestRecordsEachTileFilesFrameChecksumAndLeafCount) {
  TempDir dir("tile_files_manifest");
  {
    TiledWorldMap world(world_config(dir.path(), 0));
    map_sweep(world);
    world.save();
  }
  const WorldManifest manifest = WorldManifest::read_file(dir.path());
  const TileGrid grid(manifest.resolution, manifest.tile_shift);
  ASSERT_FALSE(manifest.tiles.empty());
  for (const WorldManifest::TileEntry& entry : manifest.tiles) {
    const std::string path = WorldManifest::tile_path(dir.path(), grid, entry.coord);
    std::string bytes;
    ASSERT_TRUE(io::read_whole_file(path, bytes)) << path;
    EXPECT_EQ(entry.checksum, io::frame_checksum(bytes).value()) << path;
    const map::OctreeIo::Decoded decoded = map::OctreeIo::decode(bytes);
    EXPECT_EQ(entry.leaf_count, decoded.info.leaf_count) << path;
    EXPECT_EQ(entry.leaf_count, decoded.tree.leaf_count()) << path;
  }
}

/// Saves a world, rewrites its first manifest entry through `edit` (given
/// the tile as OctreeIo reads it), reopens the world and expects every
/// touch of that tile to fail naming it, while another tile still loads.
void expect_edited_entry_fails_on_touch(
    const std::function<void(WorldManifest::TileEntry&, const map::OccupancyOctree&)>& edit) {
  TempDir dir("tile_files_edited_manifest");
  std::map<std::string, std::vector<map::LeafRecord>> leaves;
  {
    TiledWorldMap world(world_config(dir.path(), 0));
    map_sweep(world);
    world.save();
    leaves = leaves_by_tile(world);
  }
  WorldManifest manifest = WorldManifest::read_file(dir.path());
  const TileGrid grid(manifest.resolution, manifest.tile_shift);
  ASSERT_GE(manifest.tiles.size(), 2u);
  WorldManifest::TileEntry& edited = manifest.tiles.front();
  const std::string edited_name = grid.tile_name(edited.coord);
  const std::optional<map::OccupancyOctree> tile =
      map::OctreeIo::read_file(WorldManifest::tile_path(dir.path(), grid, edited.coord));
  ASSERT_TRUE(tile.has_value());
  edit(edited, *tile);
  manifest.write_file(dir.path());

  const auto world = TiledWorldMap::open(dir.path());
  const map::LeafRecord& other_leaf =
      leaves.at(grid.tile_name(manifest.tiles.back().coord) + ".omap").front();
  EXPECT_NE(world->classify(other_leaf.key), map::Occupancy::kUnknown);

  const map::LeafRecord& edited_leaf = leaves.at(edited_name + ".omap").front();
  for (int touch = 0; touch < 2; ++touch) {
    try {
      world->classify(edited_leaf.key);
      ADD_FAILURE() << "a tile whose manifest entry does not describe its file was read";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(edited_name), std::string::npos)
          << "error does not name the tile: " << e.what();
    }
  }
  EXPECT_THROW(world->leaves_sorted(), std::runtime_error);
}

TEST(TileFileIdentity, ManifestHoldingAContentHashOpensButItsTileFailsNamingIt) {
  // As older builds wrote the entry: the tile's canonical content hash
  // where the frame checksum now goes.
  expect_edited_entry_fails_on_touch(
      [](WorldManifest::TileEntry& entry, const map::OccupancyOctree& tile) {
        entry.checksum = tile.content_hash();
      });
}

TEST(TileFileIdentity, ManifestLeafCountIsCrossCheckedOnFirstTouch) {
  expect_edited_entry_fails_on_touch(
      [](WorldManifest::TileEntry& entry, const map::OccupancyOctree&) { entry.leaf_count++; });
}

}  // namespace
}  // namespace omu::world
