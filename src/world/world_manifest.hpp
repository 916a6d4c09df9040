// The world directory manifest: the index of a persisted tiled world.
//
// A world directory holds one MANIFEST.omw plus one octree_io v2 tile
// file per non-empty tile under tiles/. The manifest records the world's
// metric/sensor parameters, the tile partition, and for each tile its
// coordinates and the identity of its file: the frame checksum and the
// leaf count of the node stream. That is enough to reopen the world
// without touching any tile file, and to verify every read of a tile file
// the same way a reload in the writing session is verified (a swapped or
// stale file fails with a clean error naming the tile, not a silently
// wrong map).
//
// Layout on disk: the shared file frame of io/framing.hpp with magic
// "OMUWRLD1" (length, payload, trailing FNV-1a), so truncation and bit
// corruption are rejected with std::runtime_error. write_file commits
// through io::commit_file (temp file + rename), so an interrupted write
// never destroys the previous valid manifest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "map/occupancy_params.hpp"
#include "world/tile_grid.hpp"

namespace omu::world {

/// In-memory form of MANIFEST.omw.
struct WorldManifest {
  /// File name of the manifest inside a world directory.
  static constexpr const char* kFileName = "MANIFEST.omw";
  /// Subdirectory of a world directory holding the tile files.
  static constexpr const char* kTilesDir = "tiles";

  double resolution = 0.2;
  map::OccupancyParams params{};
  int tile_shift = 12;

  /// One tile file's identity (22 bytes on disk: three u16 coordinates,
  /// two u64). An entry that does not describe its file — a stale one, or
  /// one holding the tile's canonical content hash, as manifests did
  /// before this field held the frame checksum — opens, and every read of
  /// its tile fails naming the tile.
  struct TileEntry {
    TileCoord coord;
    uint64_t checksum = 0;    ///< FNV-1a field of the tile file's frame
    uint64_t leaf_count = 0;  ///< leaf nodes in the tile file's node stream
  };
  std::vector<TileEntry> tiles;

  /// Serializes to the framed + checksummed on-disk form. Throws
  /// std::runtime_error on stream failure.
  void write(std::ostream& os) const;

  /// Parses a manifest stream. Throws std::runtime_error on bad magic,
  /// truncation, checksum mismatch or implausible field values.
  static WorldManifest read(std::istream& is);

  /// File wrappers over the world directory. write_file throws
  /// std::runtime_error on I/O failure; read_file throws on a missing or
  /// malformed manifest (the message names the path).
  void write_file(const std::string& world_dir) const;
  static WorldManifest read_file(const std::string& world_dir);

  /// Path helpers for a world directory.
  static std::string manifest_path(const std::string& world_dir);
  static std::string tile_path(const std::string& world_dir, const TileGrid& grid,
                               const TileCoord& coord);
};

}  // namespace omu::world
