// The in-memory octree codec: OctreeIo::encode produces exactly the bytes
// OctreeIo::write streams, and reports the checksum and leaf count a tile
// pager records; OctreeIo::decode reads one whole frame back, reports the
// same pair, and fails every corruption with the stream reader's texts.
// Encoding over a used buffer gives the same frame as encoding afresh.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "geom/rng.hpp"
#include "io/framing.hpp"
#include "map/octree_io.hpp"

namespace omu::map {
namespace {

OccupancyOctree random_tree(uint64_t seed, int updates) {
  OccupancyOctree tree(0.2);
  geom::SplitMix64 rng(seed);
  for (int i = 0; i < updates; ++i) {
    tree.update_node(OcKey{static_cast<uint16_t>(kKeyOrigin + rng.next_below(24) - 12),
                           static_cast<uint16_t>(kKeyOrigin + rng.next_below(24) - 12),
                           static_cast<uint16_t>(kKeyOrigin + rng.next_below(24) - 12)},
                     rng.next_below(100) < 45);
  }
  return tree;
}

std::string encoded(const OccupancyOctree& tree) {
  std::string frame;
  OctreeIo::encode(tree, frame);
  return frame;
}

std::string streamed(const OccupancyOctree& tree) {
  std::ostringstream os(std::ios::binary);
  OctreeIo::write(tree, os);
  return std::move(os).str();
}

/// The text of the error `op` throws ("" when it does not throw).
template <typename Op>
std::string error_of(Op op) {
  try {
    op();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

class OctreeCodec : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctreeCodec, EncodeIsTheStreamedFrameAndReportsItsIdentity) {
  const OccupancyOctree tree = random_tree(GetParam(), 1500);
  std::string frame = "bytes of a larger, earlier frame that encode must overwrite entirely";
  frame.append(100000, '\x77');
  const OctreeIo::FrameInfo info = OctreeIo::encode(tree, frame);
  EXPECT_EQ(frame, streamed(tree));
  EXPECT_EQ(encoded(tree), frame);
  EXPECT_EQ(info.checksum, io::frame_checksum(frame).value());
  EXPECT_EQ(info.leaf_count, tree.leaf_count());
}

TEST_P(OctreeCodec, DecodeRoundTripsAndReportsTheEncodedIdentity) {
  const OccupancyOctree tree = random_tree(GetParam(), 1500);
  std::string frame;
  const OctreeIo::FrameInfo info = OctreeIo::encode(tree, frame);
  const OctreeIo::Decoded dec = OctreeIo::decode(frame);
  EXPECT_EQ(dec.info.checksum, info.checksum);
  EXPECT_EQ(dec.info.leaf_count, info.leaf_count);
  EXPECT_EQ(dec.tree.leaves_sorted(), tree.leaves_sorted());
  EXPECT_EQ(dec.tree.inner_count(), tree.inner_count());
  // Decoding allocates blocks like the stream reader, so paging accounts
  // the same resident bytes either way.
  std::istringstream is(frame);
  EXPECT_EQ(dec.tree.memory_bytes(), OctreeIo::read(is).memory_bytes());
  EXPECT_EQ(encoded(dec.tree), frame);
}

TEST_P(OctreeCodec, CorruptionFailsWithTheStreamReadersText) {
  const std::string frame = encoded(random_tree(GetParam(), 300));
  geom::SplitMix64 rng(GetParam() ^ 0xC0DE);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = frame;
    if (trial % 2 == 0) {
      bytes.resize(rng.next_below(bytes.size()));
    } else {
      // Flips past the length field: a shrunk length would leave trailing
      // bytes, which only the whole-buffer decoder can see.
      const std::size_t byte =
          io::kFrameHeaderBytes + rng.next_below(bytes.size() - io::kFrameHeaderBytes);
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1u << rng.next_below(8)));
    }
    const std::string decoded = error_of([&bytes] { OctreeIo::decode(bytes); });
    std::istringstream is(bytes);
    EXPECT_FALSE(decoded.empty()) << "trial " << trial << " accepted corrupt bytes";
    EXPECT_EQ(decoded, error_of([&is] { OctreeIo::read(is); })) << "trial " << trial;
  }
}

TEST(OctreeCodec, DecodeRejectsBytesPastTheFrame) {
  const std::string frame = encoded(random_tree(5, 200));
  EXPECT_EQ(error_of([&frame] { OctreeIo::decode(frame + '\0'); }),
            "OctreeIo: trailing bytes after frame (corrupt stream)");
}

TEST(OctreeCodec, LegacyV1ReportsThePayloadChecksum) {
  const OccupancyOctree tree = random_tree(6, 400);
  std::string frame;
  const OctreeIo::FrameInfo info = OctreeIo::encode(tree, frame);
  const std::string payload = frame.substr(
      io::kFrameHeaderBytes, frame.size() - io::kFrameHeaderBytes - io::kFrameTrailerBytes);
  const OctreeIo::Decoded dec = OctreeIo::decode("OMUTREE1" + payload);
  EXPECT_EQ(dec.info.checksum, info.checksum);
  EXPECT_EQ(dec.info.leaf_count, info.leaf_count);
  EXPECT_EQ(dec.tree.leaves_sorted(), tree.leaves_sorted());
}

TEST(OctreeCodec, EmptyTreeRoundTrips) {
  const OccupancyOctree tree(0.1);
  std::string frame;
  EXPECT_EQ(OctreeIo::encode(tree, frame).leaf_count, 0u);
  EXPECT_EQ(frame, streamed(tree));
  EXPECT_TRUE(OctreeIo::decode(frame).tree.leaves_sorted().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctreeCodec, ::testing::Values(3, 17, 41, 101));

}  // namespace
}  // namespace omu::map
