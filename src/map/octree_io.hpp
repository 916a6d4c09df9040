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
//
// The codec works on one in-memory buffer: encode() appends the pre-order
// stream straight into the reserved frame and hashes it once; decode()
// walks a bounds-checked cursor over the bytes. The stream entry points
// (write/read and the file wrappers) are thin layers over the pair, so
// every reader of a file shares one parser.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "map/occupancy_octree.hpp"

namespace omu::map {

/// Serializer/deserializer for OccupancyOctree.
class OctreeIo {
 public:
  /// What identifies one encoded tree, read off the frame without a
  /// second pass: equal frames have equal info.
  struct FrameInfo {
    uint64_t checksum = 0;    ///< the frame's FNV-1a field (over the payload)
    uint64_t leaf_count = 0;  ///< leaf nodes in the pre-order stream
  };

  /// A tree decoded from a frame, and the frame's info.
  struct Decoded {
    OccupancyOctree tree;
    FrameInfo info;
  };

  /// Encodes `tree` over `frame` (reusing its capacity) as one v2 frame,
  /// byte-identical to write(), and returns the frame's info.
  static FrameInfo encode(const OccupancyOctree& tree, std::string& frame);

  /// Decodes exactly one v2 frame (or a legacy v1 stream). Throws
  /// std::runtime_error on malformed input, including bytes past the end
  /// of a v2 frame. A v1 stream carries no checksum; its info reports the
  /// FNV-1a of its payload, the checksum a v2 frame of it would carry.
  static Decoded decode(std::string_view bytes);

  /// Writes `tree` to `os`. Throws std::runtime_error on stream failure.
  static void write(const OccupancyOctree& tree, std::ostream& os);

  /// Reads a tree previously produced by write(), consuming one frame of
  /// the stream. Throws std::runtime_error on malformed input.
  static OccupancyOctree read(std::istream& is);

  /// File convenience wrappers. write_file commits atomically (temp file +
  /// rename, io::commit_file) and returns false on I/O failure, leaving any
  /// previous file at `path` intact; read_file decodes the whole file and
  /// returns std::nullopt on failure or malformed content.
  static bool write_file(const OccupancyOctree& tree, const std::string& path);
  static std::optional<OccupancyOctree> read_file(const std::string& path);

 private:
  struct Cursor;
  /// Pre-order over `count` sibling slots starting at `first` (the root:
  /// slot 0, count 1; a child block: its base, count 8).
  static char* encode_nodes(const OccupancyOctree& tree, int32_t first, int count, char* out,
                            uint64_t& leaves);
  static OccupancyOctree decode_payload(std::string_view payload, uint64_t& leaves);
  static void decode_nodes(Cursor& in, OccupancyOctree& tree, int32_t first, int count,
                           int depth, uint64_t& leaves);
};

}  // namespace omu::map
