#include "service/wire.hpp"

#include <cstring>

#include "io/framing.hpp"
#include "service/transport.hpp"

namespace omu::service {

void WireWriter::f32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void WireWriter::f64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void WireWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

const uint8_t* WireReader::take(std::size_t n) {
  if (n > size_ - pos_) {
    throw WireError("wire payload overrun: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(size_ - pos_));
  }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

float WireReader::f32() {
  const uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double WireReader::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const uint32_t n = u32();
  const uint8_t* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

namespace {

/// Seed of the frame checksum. Wire version 1 shipped with the FNV-1a
/// offset basis missing its last digit (14695981039346656037 -> ...603);
/// every peer uses this value, so it is part of the protocol.
constexpr uint64_t kChecksumSeed = 1469598103934665603ull;

template <typename T>
void put_le(std::vector<uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
T get_le(const uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
  }
  return v;
}

}  // namespace

std::vector<uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    throw WireError("frame payload exceeds the wire bound: " +
                    std::to_string(frame.payload.size()) + " bytes");
  }
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + sizeof(uint64_t));
  put_le(out, kWireMagic);
  put_le(out, kWireVersion);
  put_le(out, frame.type);
  put_le(out, frame.request_id);
  put_le(out, static_cast<uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  const uint64_t checksum = io::fnv1a(out.data(), out.size(), kChecksumSeed);
  put_le(out, checksum);
  return out;
}

void write_frame(Transport& transport, const Frame& frame) {
  const std::vector<uint8_t> bytes = encode_frame(frame);
  transport.write_all(bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(Transport& transport) {
  uint8_t header[kFrameHeaderBytes];
  if (!read_exact(transport, header, sizeof(header))) {
    return std::nullopt;  // clean end-of-stream between frames
  }
  const uint32_t magic = get_le<uint32_t>(header);
  if (magic != kWireMagic) {
    throw WireError("bad frame magic 0x" + std::to_string(magic));
  }
  const uint16_t version = get_le<uint16_t>(header + 4);
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version) + " (expected " +
                    std::to_string(kWireVersion) + ")");
  }
  Frame frame;
  frame.type = get_le<uint16_t>(header + 6);
  frame.request_id = get_le<uint64_t>(header + 8);
  const uint32_t payload_len = get_le<uint32_t>(header + 16);
  if (payload_len > kMaxPayloadBytes) {
    throw WireError("frame payload length " + std::to_string(payload_len) +
                    " exceeds the wire bound");
  }
  frame.payload.resize(payload_len);
  if (payload_len > 0 && !read_exact(transport, frame.payload.data(), payload_len)) {
    throw WireError("stream truncated inside a frame payload");
  }
  uint8_t trailer[sizeof(uint64_t)];
  if (!read_exact(transport, trailer, sizeof(trailer))) {
    throw WireError("stream truncated before the frame checksum");
  }
  uint64_t expected = io::fnv1a(header, sizeof(header), kChecksumSeed);
  expected = io::fnv1a(frame.payload.data(), frame.payload.size(), expected);
  const uint64_t actual = get_le<uint64_t>(trailer);
  if (actual != expected) {
    throw WireError("frame checksum mismatch (corrupt stream)");
  }
  return frame;
}

}  // namespace omu::service
