#include "io/framing.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace omu::io {

namespace {

[[noreturn]] void fail(std::string_view label, const std::string& what) {
  throw std::runtime_error(std::string(label) + ": " + what);
}

}  // namespace

void throw_truncated(std::string_view label) { fail(label, "truncated stream"); }

void write_frame(std::ostream& os, std::string_view magic, std::string_view payload,
                 std::string_view label) {
  assert(magic.size() == kMagicBytes);
  os.write(magic.data(), static_cast<std::streamsize>(magic.size()));
  write_pod(os, static_cast<uint64_t>(payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_pod(os, fnv1a(payload.data(), payload.size()));
  if (!os) fail(label, "write failure");
}

std::string read_frame_body(std::istream& is, uint64_t max_payload_bytes, std::string_view label) {
  const auto payload_size = read_pod<uint64_t>(is, label);
  if (payload_size > max_payload_bytes) fail(label, "implausible payload size (corrupt stream)");
  // Grow by bounded chunks, so an inflated length field fails on the
  // actual stream length before the allocation outgrows the real data.
  constexpr std::size_t kChunkBytes = 64 * 1024;
  std::string bytes;
  while (bytes.size() < payload_size) {
    const std::size_t offset = bytes.size();
    const auto n = static_cast<std::size_t>(std::min<uint64_t>(payload_size - offset, kChunkBytes));
    bytes.resize(offset + n);
    is.read(bytes.data() + offset, static_cast<std::streamsize>(n));
    if (!is) throw_truncated(label);
  }
  if (read_pod<uint64_t>(is, label) != fnv1a(bytes.data(), bytes.size())) {
    fail(label, "checksum mismatch (corrupt stream)");
  }
  return bytes;
}

std::string read_frame(std::istream& is, std::string_view magic, uint64_t max_payload_bytes,
                       std::string_view label) {
  char found[kMagicBytes];
  is.read(found, sizeof(found));
  if (!is || magic != std::string_view(found, sizeof(found))) fail(label, "bad magic");
  return read_frame_body(is, max_payload_bytes, label);
}

uint64_t seal_frame(std::string& frame, std::string_view magic) {
  assert(magic.size() == kMagicBytes && frame.size() >= kFrameHeaderBytes);
  const uint64_t payload_size = frame.size() - kFrameHeaderBytes;
  const uint64_t checksum = fnv1a(frame.data() + kFrameHeaderBytes, payload_size);
  std::memcpy(frame.data(), magic.data(), kMagicBytes);
  std::memcpy(frame.data() + kMagicBytes, &payload_size, sizeof(payload_size));
  frame.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return checksum;
}

std::string_view frame_payload(std::string_view frame, std::string_view magic,
                               uint64_t max_payload_bytes, std::string_view label) {
  if (frame.size() < kMagicBytes || frame.substr(0, kMagicBytes) != magic) fail(label, "bad magic");
  if (frame.size() < kFrameHeaderBytes) throw_truncated(label);
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, frame.data() + kMagicBytes, sizeof(payload_size));
  if (payload_size > max_payload_bytes) fail(label, "implausible payload size (corrupt stream)");
  const std::size_t body_bytes = frame.size() - kFrameHeaderBytes;
  if (body_bytes < payload_size + kFrameTrailerBytes) throw_truncated(label);
  if (body_bytes > payload_size + kFrameTrailerBytes) {
    fail(label, "trailing bytes after frame (corrupt stream)");
  }
  const std::string_view payload = frame.substr(kFrameHeaderBytes, payload_size);
  uint64_t checksum = 0;
  std::memcpy(&checksum, frame.data() + kFrameHeaderBytes + payload_size, sizeof(checksum));
  if (checksum != fnv1a(payload.data(), payload.size())) {
    fail(label, "checksum mismatch (corrupt stream)");
  }
  return payload;
}

std::optional<uint64_t> frame_checksum(std::string_view frame) {
  constexpr std::size_t kOverhead = kFrameHeaderBytes + kFrameTrailerBytes;
  if (frame.size() < kOverhead) return std::nullopt;
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, frame.data() + kMagicBytes, sizeof(payload_size));
  if (payload_size != frame.size() - kOverhead) return std::nullopt;
  uint64_t checksum = 0;
  std::memcpy(&checksum, frame.data() + frame.size() - sizeof(checksum), sizeof(checksum));
  return checksum;
}

bool read_whole_file(const std::string& path, std::string& bytes) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.tellg();
  if (!is || size < 0) return false;
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(is);
}

void commit_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                 std::string_view label) {
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) fail(label, "cannot open " + tmp + " for writing");
  std::string error;
  try {
    write(os);
    os.close();
    if (!os) error = "write failure on " + tmp;
  } catch (const std::runtime_error& e) {
    error = "failed writing " + tmp + ": " + e.what();
  }
  std::error_code ec;
  if (error.empty()) {
    std::filesystem::rename(tmp, path, ec);
    if (!ec) return;
    error = "failed committing " + path + ": " + ec.message();
  }
  std::filesystem::remove(tmp, ec);
  fail(label, error);
}

}  // namespace omu::io
