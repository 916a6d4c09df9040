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

std::optional<uint64_t> frame_checksum(std::string_view frame) {
  constexpr std::size_t kOverhead = kMagicBytes + 2 * sizeof(uint64_t);
  if (frame.size() < kOverhead) return std::nullopt;
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, frame.data() + kMagicBytes, sizeof(payload_size));
  if (payload_size != frame.size() - kOverhead) return std::nullopt;
  uint64_t checksum = 0;
  std::memcpy(&checksum, frame.data() + frame.size() - sizeof(checksum), sizeof(checksum));
  return checksum;
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
