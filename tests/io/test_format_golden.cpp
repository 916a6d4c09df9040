// Golden-format pins: the exact bytes of every persisted and wire layout,
// and the value of the canonical content hash, for small fixed inputs.
//
// Octree files, world manifests and service frames are read back by other
// processes and by older/newer builds, and manifests store tile content
// hashes — so none of these may drift, not even by a byte, when the code
// that produces them is refactored. Each expectation below is a literal
// captured from the reference implementation; a change here is a format
// break, not a test update.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "map/occupancy_octree.hpp"
#include "map/octree_io.hpp"
#include "service/messages.hpp"
#include "service/wire.hpp"
#include "world/world_manifest.hpp"

namespace omu {
namespace {

std::string to_hex(const void* data, std::size_t size) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto* p = static_cast<const uint8_t*>(data);
  std::string out;
  out.reserve(2 * size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xF]);
  }
  return out;
}

std::string to_hex(const std::string& bytes) { return to_hex(bytes.data(), bytes.size()); }

/// Two sibling leaves one voxel apart: a full-depth path of inner nodes
/// ending in one occupied and one free leaf.
map::OccupancyOctree golden_tree() {
  map::OccupancyOctree tree(0.2);
  tree.update_node(map::OcKey{map::kKeyOrigin, map::kKeyOrigin, map::kKeyOrigin}, true);
  tree.update_node(map::OcKey{map::kKeyOrigin + 1, map::kKeyOrigin, map::kKeyOrigin}, false);
  return tree;
}

TEST(FormatGolden, OctreeStreamBytes) {
  std::ostringstream os(std::ios::binary);
  map::OctreeIo::write(golden_tree(), os);
  EXPECT_EQ(to_hex(os.str()),
            "4f4d555452454532e6000000000000009a9999999999c93f0080593f0000cdbe"
            "000000c0000060400000000001020080593f00000000000000020080593f0200"
            "80593f020080593f020080593f020080593f020080593f020080593f02008059"
            "3f020080593f020080593f020080593f020080593f020080593f020080593f02"
            "0080593f010080593f010000cdbe000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000633afa547d02608f");
}

TEST(FormatGolden, WorldManifestBytes) {
  world::WorldManifest manifest;
  manifest.resolution = 0.1;
  manifest.params.log_hit = 0.9f;
  manifest.tile_shift = 7;
  manifest.tiles.push_back({world::TileCoord{1, 2, 3}, 0x0123456789ABCDEFull, 42});
  manifest.tiles.push_back({world::TileCoord{511, 0, 7}, 0xFEDCBA9876543210ull, 7});
  std::ostringstream os(std::ios::binary);
  manifest.write(os);
  EXPECT_EQ(to_hex(os.str()),
            "4f4d5557524c443155000000000000009a9999999999b93f6666663fcdccccbe"
            "000000c0000060400000000001070000000200000000000000010002000300ef"
            "cdab89674523012a00000000000000ff01000007001032547698badcfe070000"
            "000000000000e610d98412cc67");
}

TEST(FormatGolden, InsertFrameBytes) {
  service::InsertRequest request;
  request.session_id = 7;
  request.origin[0] = 1.0;
  request.origin[1] = -2.5;
  request.origin[2] = 0.125;
  request.xyz = {0.5f, -1.0f, 2.0f, 3.25f, 4.0f, -5.5f};
  service::WireWriter writer;
  request.encode(writer);
  service::Frame frame;
  frame.type = static_cast<uint16_t>(service::MsgType::kInsert);
  frame.request_id = 0x1122334455667788ull;
  frame.payload = writer.take();
  const std::vector<uint8_t> bytes = service::encode_frame(frame);
  EXPECT_EQ(to_hex(bytes.data(), bytes.size()),
            "57554d4f0400040088776655443322113c000000070000000000000000000000"
            "0000f03f00000000000004c0000000000000c03f060000000000003f000080bf"
            "0000004000005040000080400000b0c0c616f3dcc6b844f8");
}

TEST(FormatGolden, CreateRequestBytes) {
  // Every SessionSpec field off its default, and the backend byte names
  // kTiledWorld, so the pin covers the BackendKind numbering.
  service::CreateRequest request;
  service::SessionSpec& spec = request.spec;
  spec.tenant = "t1";
  spec.backend = static_cast<uint8_t>(BackendKind::kTiledWorld);
  spec.resolution = 0.1;
  spec.log_hit = 0.9f;
  spec.log_miss = -0.3f;
  spec.clamp_min = -1.5f;
  spec.clamp_max = 2.5f;
  spec.occ_threshold = 0.25f;
  spec.quantized = 0;
  spec.max_range = 30.0;
  spec.deduplicate = 1;
  spec.world_directory = "w";
  spec.world_resident_byte_budget = 4096;
  spec.tile_shift = 7;
  spec.telemetry_metrics = 0;
  spec.telemetry_journal = 1;
  spec.quota = service::TenantQuota{1 << 20, 5000, 2048};
  service::WireWriter writer;
  request.encode(writer);
  service::Frame frame;
  frame.type = static_cast<uint16_t>(service::MsgType::kCreate);
  frame.request_id = 0x0102030405060708ull;
  frame.payload = writer.take();
  const std::vector<uint8_t> bytes = service::encode_frame(frame);
  EXPECT_EQ(to_hex(bytes.data(), bytes.size()),
            "57554d4f04000200080706050403020158000000020000007431039a99999999"
            "99b93f6666663f9a9999be0000c0bf000020400000803e000000000000003e40"
            "0101000000770010000000000000070000000001000010000000000088130000"
            "0000000000080000000000003e3eba669d197dbf");
}

TEST(FormatGolden, LeafRecordHash) {
  const std::vector<map::LeafRecord> records = {
      {map::OcKey{1, 2, 3}, 16, 0.85f},
      {map::OcKey{32768, 32768, 32768}, 12, -0.4f},
      {map::OcKey{65535, 0, 4096}, 1, 3.5f},
  };
  EXPECT_EQ(map::hash_leaf_records(records), 15733725855464318227ull);
  EXPECT_EQ(map::hash_leaf_records({}), 0xCBF29CE484222325ull);  // FNV-1a offset basis
}

TEST(FormatGolden, ShardDigest) {
  // The subscription convergence digest of a fixed two-shard state: a
  // branch-sized key over a three-leaf run and a TileId-sized key over one
  // leaf. Publisher and mirror must agree on this value across builds.
  const std::vector<map::LeafRecord> first = {
      {map::OcKey{1, 2, 3}, 16, 0.85f},
      {map::OcKey{32768, 32768, 32768}, 12, -0.4f},
      {map::OcKey{65535, 0, 4096}, 1, 3.5f},
  };
  const std::vector<map::LeafRecord> second = {{map::OcKey{7, 8, 9}, 14, -1.25f}};
  const std::vector<service::ShardHash> shards = {
      {3, service::shard_hash(first)},
      {0x0000000100000002ull, service::shard_hash(second)},
  };
  EXPECT_EQ(service::shard_digest(shards), 17940106719928461880ull);
  EXPECT_EQ(service::shard_digest({}), 0xCBF29CE484222325ull);  // FNV-1a offset basis
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

TEST(FormatGolden, HandBuiltV1OctreeStreamReads) {
  // The pre-framing v1 layout: magic, then the payload directly — no
  // length field, no checksum.
  std::string v1 = "OMUTREE1";
  append_pod(v1, 0.5);  // resolution
  for (const float f : {0.7f, -0.3f, -1.5f, 2.5f, 0.1f}) append_pod(v1, f);  // sensor params
  append_pod(v1, uint8_t{0});  // quantized = false
  append_pod(v1, uint8_t{2});  // root: inner node
  append_pod(v1, 1.25f);       //   its value
  append_pod(v1, uint8_t{1});  //   child 0: leaf
  append_pod(v1, 1.25f);       //     its value
  for (int i = 1; i < 7; ++i) append_pod(v1, uint8_t{0});  //   children 1..6: unknown
  append_pod(v1, uint8_t{1});  //   child 7: leaf
  append_pod(v1, -0.75f);      //     its value

  std::istringstream is(v1, std::ios::binary);
  const map::OccupancyOctree tree = map::OctreeIo::read(is);
  EXPECT_EQ(tree.resolution(), 0.5);
  EXPECT_EQ(tree.params().log_hit, 0.7f);
  EXPECT_EQ(tree.params().log_miss, -0.3f);
  EXPECT_EQ(tree.params().clamp_min, -1.5f);
  EXPECT_EQ(tree.params().clamp_max, 2.5f);
  EXPECT_EQ(tree.params().occ_threshold, 0.1f);
  EXPECT_FALSE(tree.params().quantized);
  const std::vector<map::LeafRecord> leaves = tree.leaves_sorted();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0], (map::LeafRecord{map::OcKey{0, 0, 0}, 1, 1.25f}));
  EXPECT_EQ(leaves[1], (map::LeafRecord{map::OcKey{32768, 32768, 32768}, 1, -0.75f}));
}

}  // namespace
}  // namespace omu
