#include "map/octree_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/framing.hpp"

namespace omu::map {

namespace {

// Format v2 is the shared io::write_frame layout (see io/framing.hpp). v1
// files (unframed, no checksum) are still readable.
constexpr std::string_view kMagic = "OMUTREE2";
constexpr std::string_view kMagicV1 = "OMUTREE1";
constexpr std::string_view kLabel = "OctreeIo";

/// Upper bound on a plausible serialized tree (the 5-byte/node payload of
/// a fully expanded pool would be far below this); anything larger is a
/// corrupt size field and must not be handed to the allocator.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 32;

}  // namespace

void OctreeIo::write(const OccupancyOctree& tree, std::ostream& os) {
  std::ostringstream payload(std::ios::binary);
  io::write_pod(payload, tree.resolution());
  const OccupancyParams& p = tree.params();
  io::write_pod(payload, p.log_hit);
  io::write_pod(payload, p.log_miss);
  io::write_pod(payload, p.clamp_min);
  io::write_pod(payload, p.clamp_max);
  io::write_pod(payload, p.occ_threshold);
  io::write_pod(payload, static_cast<uint8_t>(p.quantized ? 1 : 0));
  write_recurs(tree, 0, payload);
  io::write_frame(os, kMagic, std::move(payload).str(), kLabel);
}

void OctreeIo::write_recurs(const OccupancyOctree& tree, int32_t node_idx, std::ostream& os) {
  const auto& node = tree.pool_[static_cast<std::size_t>(node_idx)];
  // state() maps the arena's children-field sentinels back to the v1/v2
  // state byte (0 unknown, 1 leaf, 2 inner) — the on-disk format is
  // unchanged by the arena node layout.
  io::write_pod(os, static_cast<uint8_t>(node.state()));
  if (node.is_unknown()) return;
  io::write_pod(os, node.value);
  if (node.is_inner()) {
    for (int i = 0; i < 8; ++i) write_recurs(tree, node.children + i, os);
  }
}

OccupancyOctree OctreeIo::read(std::istream& is) {
  char magic[io::kMagicBytes];
  is.read(magic, sizeof(magic));
  if (is && std::string_view(magic, sizeof(magic)) == kMagicV1) {
    // Legacy v1: the node stream follows the header directly, unframed and
    // without a checksum — corruption detection is structural only.
    return read_payload(is);
  }
  if (!is || std::string_view(magic, sizeof(magic)) != kMagic) {
    throw std::runtime_error("OctreeIo: bad magic");
  }
  std::istringstream payload(io::read_frame_body(is, kMaxPayloadBytes, kLabel), std::ios::binary);
  return read_payload(payload);
}

OccupancyOctree OctreeIo::read_payload(std::istream& is) {
  const double resolution = io::read_pod<double>(is, kLabel);
  if (!(resolution > 0.0)) throw std::runtime_error("OctreeIo: invalid resolution");
  OccupancyParams p;
  p.log_hit = io::read_pod<float>(is, kLabel);
  p.log_miss = io::read_pod<float>(is, kLabel);
  p.clamp_min = io::read_pod<float>(is, kLabel);
  p.clamp_max = io::read_pod<float>(is, kLabel);
  p.occ_threshold = io::read_pod<float>(is, kLabel);
  p.quantized = io::read_pod<uint8_t>(is, kLabel) != 0;

  OccupancyOctree tree(resolution, p);
  read_recurs(is, tree, 0, 0);
  return tree;
}

void OctreeIo::read_recurs(std::istream& is, OccupancyOctree& tree, int32_t node_idx, int depth) {
  const auto state = static_cast<NodeState>(io::read_pod<uint8_t>(is, kLabel));
  switch (state) {
    case NodeState::kUnknown:
      tree.pool_[static_cast<std::size_t>(node_idx)].make_unknown();
      return;
    case NodeState::kLeaf:
      tree.pool_[static_cast<std::size_t>(node_idx)].make_leaf(io::read_pod<float>(is, kLabel));
      return;
    case NodeState::kInner: {
      if (depth >= kTreeDepth) throw std::runtime_error("OctreeIo: inner node below max depth");
      const float value = io::read_pod<float>(is, kLabel);
      const int32_t base = tree.alloc_block();
      auto& node = tree.pool_[static_cast<std::size_t>(node_idx)];
      node.value = value;
      node.children = base;
      for (int i = 0; i < 8; ++i) read_recurs(is, tree, base + i, depth + 1);
      return;
    }
  }
  throw std::runtime_error("OctreeIo: invalid node state byte");
}

bool OctreeIo::write_file(const OccupancyOctree& tree, const std::string& path) {
  try {
    io::commit_file(path, [&tree](std::ostream& os) { write(tree, os); }, kLabel);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

std::optional<OccupancyOctree> OctreeIo::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  try {
    return read(is);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace omu::map
