// Binary serialization of occupancy octrees.
//
// A compact pre-order stream (state byte + log-odds per known node),
// analogous to OctoMap's .ot format. Round-tripping preserves map content
// exactly, including pruned-leaf structure and inner-node values.
//
// Format v2 is the shared file frame of io/framing.hpp (magic "OMUTREE2",
// length, payload, trailing FNV-1a), so truncated or bit-flipped streams
// are rejected with a clean std::runtime_error — never a crash, never a
// silently different map (tests/map/test_octree_io.cpp fuzzes both
// corruption classes; tests/io pins the exact bytes). Files written by the
// v1 format are still readable (structural checks only; no checksum
// existed to verify).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "map/occupancy_octree.hpp"

namespace omu::map {

/// Serializer/deserializer for OccupancyOctree.
class OctreeIo {
 public:
  /// Writes `tree` to `os`. Throws std::runtime_error on stream failure.
  static void write(const OccupancyOctree& tree, std::ostream& os);

  /// Reads a tree previously produced by write(). Throws
  /// std::runtime_error on malformed input.
  static OccupancyOctree read(std::istream& is);

  /// File convenience wrappers. write_file commits atomically (temp file +
  /// rename, io::commit_file) and returns false on I/O failure, leaving any
  /// previous file at `path` intact; read_file returns std::nullopt on
  /// failure or malformed content.
  static bool write_file(const OccupancyOctree& tree, const std::string& path);
  static std::optional<OccupancyOctree> read_file(const std::string& path);

 private:
  static void write_recurs(const OccupancyOctree& tree, int32_t node_idx, std::ostream& os);
  static OccupancyOctree read_payload(std::istream& is);
  static void read_recurs(std::istream& is, OccupancyOctree& tree, int32_t node_idx, int depth);
};

}  // namespace omu::map
