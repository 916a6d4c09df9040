#include "world/world_manifest.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/framing.hpp"

namespace omu::world {

namespace {

constexpr std::string_view kMagic = "OMUWRLD1";
constexpr std::string_view kLabel = "WorldManifest";

/// Upper bound on a plausible manifest payload; a corrupt length field
/// must not be handed to the allocator.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 28;

}  // namespace

void WorldManifest::write(std::ostream& os) const {
  std::ostringstream payload(std::ios::binary);
  io::write_pod(payload, resolution);
  io::write_pod(payload, params.log_hit);
  io::write_pod(payload, params.log_miss);
  io::write_pod(payload, params.clamp_min);
  io::write_pod(payload, params.clamp_max);
  io::write_pod(payload, params.occ_threshold);
  io::write_pod(payload, static_cast<uint8_t>(params.quantized ? 1 : 0));
  io::write_pod(payload, static_cast<int32_t>(tile_shift));
  io::write_pod(payload, static_cast<uint64_t>(tiles.size()));
  for (const TileEntry& tile : tiles) {
    io::write_pod(payload, tile.coord.tx);
    io::write_pod(payload, tile.coord.ty);
    io::write_pod(payload, tile.coord.tz);
    io::write_pod(payload, tile.checksum);
    io::write_pod(payload, tile.leaf_count);
  }

  io::write_frame(os, kMagic, std::move(payload).str(), kLabel);
}

WorldManifest WorldManifest::read(std::istream& is) {
  std::string bytes = io::read_frame(is, kMagic, kMaxPayloadBytes, kLabel);
  // 5 pods = 22 bytes per entry; a count the payload cannot hold is corrupt.
  const uint64_t max_tiles = bytes.size() / 22;
  std::istringstream payload(std::move(bytes), std::ios::binary);
  WorldManifest m;
  m.resolution = io::read_pod<double>(payload, kLabel);
  if (!(m.resolution > 0.0)) throw std::runtime_error("WorldManifest: invalid resolution");
  m.params.log_hit = io::read_pod<float>(payload, kLabel);
  m.params.log_miss = io::read_pod<float>(payload, kLabel);
  m.params.clamp_min = io::read_pod<float>(payload, kLabel);
  m.params.clamp_max = io::read_pod<float>(payload, kLabel);
  m.params.occ_threshold = io::read_pod<float>(payload, kLabel);
  m.params.quantized = io::read_pod<uint8_t>(payload, kLabel) != 0;
  m.tile_shift = static_cast<int>(io::read_pod<int32_t>(payload, kLabel));
  if (m.tile_shift < 1 || m.tile_shift > map::kTreeDepth) {
    throw std::runtime_error("WorldManifest: invalid tile_shift");
  }
  const auto tile_count = io::read_pod<uint64_t>(payload, kLabel);
  if (tile_count > max_tiles) {
    throw std::runtime_error("WorldManifest: implausible tile count (corrupt stream)");
  }
  const uint32_t tiles_per_axis = 1u << (map::kTreeDepth - m.tile_shift);
  m.tiles.reserve(static_cast<std::size_t>(tile_count));
  for (uint64_t i = 0; i < tile_count; ++i) {
    TileEntry tile;
    tile.coord.tx = io::read_pod<uint16_t>(payload, kLabel);
    tile.coord.ty = io::read_pod<uint16_t>(payload, kLabel);
    tile.coord.tz = io::read_pod<uint16_t>(payload, kLabel);
    if (tile.coord.tx >= tiles_per_axis || tile.coord.ty >= tiles_per_axis ||
        tile.coord.tz >= tiles_per_axis) {
      throw std::runtime_error("WorldManifest: tile coordinate out of range");
    }
    tile.checksum = io::read_pod<uint64_t>(payload, kLabel);
    tile.leaf_count = io::read_pod<uint64_t>(payload, kLabel);
    m.tiles.push_back(tile);
  }
  return m;
}

std::string WorldManifest::manifest_path(const std::string& world_dir) {
  return world_dir + "/" + kFileName;
}

std::string WorldManifest::tile_path(const std::string& world_dir, const TileGrid& grid,
                                     const TileCoord& coord) {
  return world_dir + "/" + kTilesDir + "/" + grid.tile_name(coord) + ".omap";
}

void WorldManifest::write_file(const std::string& world_dir) const {
  io::commit_file(manifest_path(world_dir), [this](std::ostream& os) { write(os); }, kLabel);
}

WorldManifest WorldManifest::read_file(const std::string& world_dir) {
  const std::string path = manifest_path(world_dir);
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("WorldManifest: cannot open " + path);
  try {
    return read(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace omu::world
