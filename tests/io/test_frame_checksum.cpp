// io::frame_checksum: the checksum field of one whole in-memory frame,
// which the tile pager records at write and compares on every reload.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/framing.hpp"

namespace omu::io {
namespace {

std::string frame_of(const std::string& payload) {
  std::ostringstream os(std::ios::binary);
  write_frame(os, "TESTMAG1", payload, "test");
  return std::move(os).str();
}

TEST(FrameChecksum, ReturnsThePayloadChecksumOfAWholeFrame) {
  const std::string payload = "tile payload bytes";
  const std::string frame = frame_of(payload);
  ASSERT_TRUE(frame_checksum(frame).has_value());
  EXPECT_EQ(*frame_checksum(frame), fnv1a(payload.data(), payload.size()));
  EXPECT_EQ(*frame_checksum(frame_of("")), fnv1a(nullptr, 0));
  EXPECT_NE(*frame_checksum(frame_of("other payload")), *frame_checksum(frame));
}

TEST(FrameChecksum, RejectsBytesThatAreNotExactlyOneFrame) {
  const std::string frame = frame_of("tile payload bytes");
  EXPECT_FALSE(frame_checksum(frame.substr(0, frame.size() - 1)).has_value());
  EXPECT_FALSE(frame_checksum(frame + "x").has_value());
  EXPECT_FALSE(frame_checksum(frame.substr(0, 10)).has_value());
  EXPECT_FALSE(frame_checksum("").has_value());
}

}  // namespace
}  // namespace omu::io
