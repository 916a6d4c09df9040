#include "map/octree_io.hpp"

#include <cassert>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "io/framing.hpp"

namespace omu::map {

namespace {

// Format v2 is the shared io file frame (see io/framing.hpp). v1 files
// (unframed, no checksum) are still readable.
constexpr std::string_view kMagic = "OMUTREE2";
constexpr std::string_view kMagicV1 = "OMUTREE1";
constexpr std::string_view kLabel = "OctreeIo";

/// Upper bound on a plausible serialized tree (the 5-byte/node payload of
/// a fully expanded pool would be far below this); anything larger is a
/// corrupt size field and must not be handed to the allocator.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 32;

/// Payload header: resolution, five log-odds parameters, quantized flag.
constexpr std::size_t kHeaderBytes = sizeof(double) + 5 * sizeof(float) + sizeof(uint8_t);
/// The largest node record: state byte plus log-odds value.
constexpr std::size_t kMaxNodeBytes = sizeof(uint8_t) + sizeof(float);

template <typename T>
char* put(char* out, const T& v) {
  std::memcpy(out, &v, sizeof(T));
  return out + sizeof(T);
}

}  // namespace

/// Bounds-checked reader over a payload: every short read fails as
/// "OctreeIo: truncated stream", like the stream reader it replaces.
struct OctreeIo::Cursor {
  const char* pos;
  const char* end;

  template <typename T>
  T take() {
    if (static_cast<std::size_t>(end - pos) < sizeof(T)) io::throw_truncated(kLabel);
    T v;
    std::memcpy(&v, pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
};

OctreeIo::FrameInfo OctreeIo::encode(const OccupancyOctree& tree, std::string& frame) {
  // The stream holds the root plus the eight children of every live block
  // (leaf_reserve_hint() nodes), each at most kMaxNodeBytes: one
  // allocation holds the whole frame.
  const std::size_t bound =
      io::kFrameHeaderBytes + kHeaderBytes + kMaxNodeBytes * tree.leaf_reserve_hint();
  FrameInfo info;
  frame.reserve(bound + io::kFrameTrailerBytes);
  frame.resize(bound);
  char* out = frame.data() + io::kFrameHeaderBytes;
  const OccupancyParams& p = tree.params();
  out = put(out, tree.resolution());
  out = put(out, p.log_hit);
  out = put(out, p.log_miss);
  out = put(out, p.clamp_min);
  out = put(out, p.clamp_max);
  out = put(out, p.occ_threshold);
  out = put(out, static_cast<uint8_t>(p.quantized ? 1 : 0));
  out = encode_nodes(tree, 0, 1, out, info.leaf_count);
  assert(out <= frame.data() + bound);
  frame.resize(static_cast<std::size_t>(out - frame.data()));
  info.checksum = io::seal_frame(frame, kMagic);
  return info;
}

char* OctreeIo::encode_nodes(const OccupancyOctree& tree, int32_t first, int count, char* out,
                             uint64_t& leaves) {
  const OctreeNode* nodes = &tree.pool_[static_cast<std::size_t>(first)];
  for (int i = 0; i < count; ++i) {
    const OctreeNode& node = nodes[i];
    // state() maps the arena's children-field sentinels back to the v1/v2
    // state byte (0 unknown, 1 leaf, 2 inner) — the on-disk format is
    // unchanged by the arena node layout.
    out = put(out, static_cast<uint8_t>(node.state()));
    if (node.is_unknown()) continue;
    out = put(out, node.value);
    if (node.is_inner()) {
      out = encode_nodes(tree, node.children, 8, out, leaves);
    } else {
      leaves++;
    }
  }
  return out;
}

OctreeIo::Decoded OctreeIo::decode(std::string_view bytes) {
  uint64_t leaves = 0;
  if (bytes.substr(0, io::kMagicBytes) == kMagicV1) {
    // Legacy v1: the node stream follows the header directly, unframed and
    // without a checksum — corruption detection is structural only.
    const std::string_view payload = bytes.substr(io::kMagicBytes);
    OccupancyOctree tree = decode_payload(payload, leaves);
    return Decoded{std::move(tree), FrameInfo{io::fnv1a(payload.data(), payload.size()), leaves}};
  }
  const std::string_view payload = io::frame_payload(bytes, kMagic, kMaxPayloadBytes, kLabel);
  OccupancyOctree tree = decode_payload(payload, leaves);
  return Decoded{std::move(tree), FrameInfo{io::frame_checksum(bytes).value(), leaves}};
}

OccupancyOctree OctreeIo::decode_payload(std::string_view payload, uint64_t& leaves) {
  Cursor in{payload.data(), payload.data() + payload.size()};
  const auto resolution = in.take<double>();
  if (!(resolution > 0.0)) throw std::runtime_error("OctreeIo: invalid resolution");
  OccupancyParams p;
  p.log_hit = in.take<float>();
  p.log_miss = in.take<float>();
  p.clamp_min = in.take<float>();
  p.clamp_max = in.take<float>();
  p.occ_threshold = in.take<float>();
  p.quantized = in.take<uint8_t>() != 0;

  OccupancyOctree tree(resolution, p);
  decode_nodes(in, tree, 0, 1, 0, leaves);
  return tree;
}

void OctreeIo::decode_nodes(Cursor& in, OccupancyOctree& tree, int32_t first, int count,
                            int depth, uint64_t& leaves) {
  for (int32_t idx = first; idx < first + count; ++idx) {
    const auto state = static_cast<NodeState>(in.take<uint8_t>());
    if (state == NodeState::kUnknown) {
      tree.pool_[static_cast<std::size_t>(idx)].make_unknown();
    } else if (state == NodeState::kLeaf) {
      tree.pool_[static_cast<std::size_t>(idx)].make_leaf(in.take<float>());
      leaves++;
    } else if (state == NodeState::kInner) {
      if (depth >= kTreeDepth) throw std::runtime_error("OctreeIo: inner node below max depth");
      const auto value = in.take<float>();
      const int32_t base = tree.alloc_block();
      // After alloc_block: growing the arena may move its nodes.
      auto& node = tree.pool_[static_cast<std::size_t>(idx)];
      node.value = value;
      node.children = base;
      decode_nodes(in, tree, base, 8, depth + 1, leaves);
    } else {
      throw std::runtime_error("OctreeIo: invalid node state byte");
    }
  }
}

void OctreeIo::write(const OccupancyOctree& tree, std::ostream& os) {
  std::string frame;
  encode(tree, frame);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!os) throw std::runtime_error("OctreeIo: write failure");
}

OccupancyOctree OctreeIo::read(std::istream& is) {
  char magic[io::kMagicBytes];
  is.read(magic, sizeof(magic));
  uint64_t leaves = 0;
  if (is && std::string_view(magic, sizeof(magic)) == kMagicV1) {
    // v1 is unframed: the rest of the stream is the payload.
    const std::string payload{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    return decode_payload(payload, leaves);
  }
  if (!is || std::string_view(magic, sizeof(magic)) != kMagic) {
    throw std::runtime_error("OctreeIo: bad magic");
  }
  return decode_payload(io::read_frame_body(is, kMaxPayloadBytes, kLabel), leaves);
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
  std::string bytes;
  if (!io::read_whole_file(path, bytes)) return std::nullopt;
  try {
    return decode(bytes).tree;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace omu::map
