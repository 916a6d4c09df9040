// In-memory frames: io::seal_frame builds the same bytes io::write_frame
// streams, and io::frame_payload rejects what io::read_frame rejects, with
// the same texts — plus bytes running on past the checksum.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/framing.hpp"

namespace omu::io {
namespace {

constexpr std::string_view kMagic = "TESTMAG1";
constexpr uint64_t kMaxPayload = 1 << 20;

std::string streamed_frame(const std::string& payload) {
  std::ostringstream os(std::ios::binary);
  write_frame(os, kMagic, payload, "test");
  return std::move(os).str();
}

std::string sealed_frame(const std::string& payload, uint64_t* checksum = nullptr) {
  std::string frame(kFrameHeaderBytes, '\0');
  frame += payload;
  const uint64_t sum = seal_frame(frame, kMagic);
  if (checksum != nullptr) *checksum = sum;
  return frame;
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

TEST(MemoryFrame, SealedFrameEqualsTheStreamedOne) {
  for (const std::string payload : {std::string(), std::string("tile payload bytes"),
                                    std::string(70000, '\x5A')}) {
    uint64_t checksum = 0;
    const std::string frame = sealed_frame(payload, &checksum);
    EXPECT_EQ(frame, streamed_frame(payload));
    EXPECT_EQ(checksum, fnv1a(payload.data(), payload.size()));
    EXPECT_EQ(frame_payload(frame, kMagic, kMaxPayload, "test"), payload);
  }
}

TEST(MemoryFrame, EveryTruncationAndFlipFailsLikeTheStreamReader) {
  const std::string frame = sealed_frame("a payload the checksum covers");
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const std::string cut = frame.substr(0, n);
    const std::string in_memory =
        error_of([&cut] { frame_payload(cut, kMagic, kMaxPayload, "test"); });
    std::istringstream is(cut);
    EXPECT_FALSE(in_memory.empty()) << "prefix " << n << " accepted";
    EXPECT_EQ(in_memory, error_of([&is] { read_frame(is, kMagic, kMaxPayload, "test"); }))
        << "prefix " << n;
  }
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    std::string flipped = frame;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x04);
    const std::string in_memory =
        error_of([&flipped] { frame_payload(flipped, kMagic, kMaxPayload, "test"); });
    EXPECT_FALSE(in_memory.empty()) << "flip in byte " << byte << " accepted";
    // A shrunk length field leaves bytes past the frame in memory, where
    // the stream reader reads a payload byte as the checksum instead.
    const bool length_field = byte >= kMagicBytes && byte < kFrameHeaderBytes;
    if (length_field) continue;
    std::istringstream is(flipped);
    EXPECT_EQ(in_memory, error_of([&is] { read_frame(is, kMagic, kMaxPayload, "test"); }))
        << "flip in byte " << byte;
  }
}

TEST(MemoryFrame, BytesPastTheChecksumAreRejected) {
  const std::string frame = sealed_frame("payload");
  EXPECT_EQ(error_of([&frame] { frame_payload(frame + "x", kMagic, kMaxPayload, "test"); }),
            "test: trailing bytes after frame (corrupt stream)");
  EXPECT_EQ(error_of([&frame] { frame_payload(frame, kMagic, 3, "test"); }),
            "test: implausible payload size (corrupt stream)");
}

}  // namespace
}  // namespace omu::io
