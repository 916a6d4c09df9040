// The map service's length-framed binary wire protocol.
//
// Every message on a service connection is one frame:
//
//   u32  magic      'OMUW' (0x4F4D5557)
//   u16  version    kWireVersion
//   u16  type       MsgType (requests; replies set kReplyBit; events stand alone)
//   u64  request_id correlates a reply with its request (0 for events)
//   u32  payload_len
//   ...  payload    little-endian fields, message-specific (messages.hpp)
//   u64  checksum   io::fnv1a over header (sans checksum) and payload,
//                   from the protocol's own seed (wire.cpp)
//
// The file-frame discipline of io/framing.hpp applied to a socket, with
// its own little-endian header: explicit length, version gate, and the
// trailing FNV-1a checksum io/framing.hpp owns, so a truncated, corrupted
// or mis-framed stream fails with a clean WireError naming what went
// wrong — never a silently wrong map. Integers are little-endian;
// floats cross the wire as their IEEE-754 bit patterns, so a map replayed
// through the service is bit-identical to one built in-process (the
// equivalence suites assert the content hashes match).
//
// WireWriter/WireReader are the only (de)serialization primitives: append
// and bounds-checked read of fixed-width scalars, strings and byte runs.
// A reader running past its payload throws WireError — a malformed
// payload can never read out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace omu::service {

class Transport;

/// Any framing/decoding violation: bad magic or version, checksum
/// mismatch, truncated stream, payload overrun, oversized frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr uint32_t kWireMagic = 0x4F4D5557;  // "OMUW" little-endian
/// Bumped on every payload layout or meaning change (2: SessionSpec
/// without the shard-pipeline fields; 3: a delta event's u64 is the shard
/// digest, not the canonical content hash), so a mismatched peer fails the
/// version gate instead of misparsing.
inline constexpr uint16_t kWireVersion = 3;
/// magic + version + type + request_id + payload_len.
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Hard payload bound; a header announcing more is corruption, not a
/// request to allocate gigabytes.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Replies echo the request's type with this bit set.
inline constexpr uint16_t kReplyBit = 0x8000;

/// One decoded frame.
struct Frame {
  uint16_t type = 0;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Little-endian append-only payload builder.
class WireWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { append_le(v); }
  void u32(uint32_t v) { append_le(v); }
  void u64(uint64_t v) { append_le(v); }
  void i64(int64_t v) { append_le(static_cast<uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  /// u32 byte length + raw bytes.
  void str(const std::string& s);
  void raw(const void* data, std::size_t size);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; throws WireError on any
/// read past the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  uint8_t u8() { return take(1)[0]; }
  uint16_t u16() { return read_le<uint16_t>(); }
  uint32_t u32() { return read_le<uint32_t>(); }
  uint64_t u64() { return read_le<uint64_t>(); }
  int64_t i64() { return static_cast<int64_t>(read_le<uint64_t>()); }
  float f32();
  double f64();
  std::string str();

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  const uint8_t* take(std::size_t n);

 private:
  template <typename T>
  T read_le() {
    const uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
    return v;
  }

  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Serializes a frame (header + payload + checksum) into one byte run.
std::vector<uint8_t> encode_frame(const Frame& frame);

/// Writes one frame to the transport (one write_all call, so concurrent
/// senders serialized by a per-connection mutex never interleave frames).
void write_frame(Transport& transport, const Frame& frame);

/// Reads one frame. Returns nullopt on a clean end-of-stream (the peer
/// closed between frames); throws WireError on mid-frame truncation, bad
/// magic/version, an oversized payload, or a checksum mismatch.
std::optional<Frame> read_frame(Transport& transport);

}  // namespace omu::service
