// The one framing module: how this repo checksums, frames and commits the
// bytes it persists or sends.
//
// Three decisions live here and nowhere else:
//
//  * FNV-1a 64 — the checksum trailing every file frame and wire frame,
//    and the mixing function of the canonical map content hash
//    (map::hash_leaf_records). Inline: the service checksums every frame
//    and the publisher hashes leaves every epoch.
//
//  * The v2 file frame, shared by octree files (OctreeIo, magic
//    "OMUTREE2") and world manifests (WorldManifest, magic "OMUWRLD1"):
//
//      magic[8] | u64 payload length | payload | u64 FNV-1a(payload)
//
//    Integers are host-order PODs (little-endian on every supported
//    target). A reader rejects a bad magic, an implausible length (above
//    the caller's bound), a truncated stream and a checksum mismatch with
//    a std::runtime_error whose text starts with the caller's label
//    ("OctreeIo: truncated stream") — never a crash, never silently
//    different content. The payload is read in bounded chunks, so an
//    inflated length field fails on the real stream length instead of
//    committing a giant allocation up front. A frame can also be built
//    and read in one memory buffer (seal_frame, frame_payload) with the
//    same layout and the same failure texts; that is how octree tiles
//    page without a stream copy.
//
//  * Atomic file commit: write `<path>.tmp` through a callback, then
//    rename it over `<path>`. A failure throws (naming the path) and
//    leaves the previous file untouched.
//
// The service wire frame (service/wire.hpp) keeps its own little-endian
// header layout but checksums with fnv1a() below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace omu::io {

// ---- FNV-1a 64 ---------------------------------------------------------------

inline constexpr uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001B3ULL;

/// FNV-1a over `size` bytes, continuing from `seed` (chain calls to hash
/// a discontiguous byte run).
inline uint64_t fnv1a(const void* data, std::size_t size, uint64_t seed = kFnv1aOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Mixes the eight bytes of `v`, least significant first, into `h` — the
/// same result as fnv1a() over v's little-endian encoding.
inline uint64_t fnv1a_mix_u64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnv1aPrime;
  }
  return h;
}

// ---- POD stream helpers ----------------------------------------------------

[[noreturn]] void throw_truncated(std::string_view label);

/// Writes the raw bytes of a trivially copyable value.
template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads a value written by write_pod; throws "<label>: truncated stream"
/// on a short read.
template <typename T>
T read_pod(std::istream& is, std::string_view label) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw_truncated(label);
  return v;
}

// ---- The v2 file frame -------------------------------------------------------

/// Length of a frame magic.
inline constexpr std::size_t kMagicBytes = 8;

/// Writes one frame: `magic` (kMagicBytes long) | u64 length | payload |
/// u64 FNV-1a(payload). Throws "<label>: write failure" on stream failure.
void write_frame(std::ostream& os, std::string_view magic, std::string_view payload,
                 std::string_view label);

/// Reads the rest of a frame whose magic the caller already consumed and
/// matched (formats that also accept a legacy magic dispatch on it first).
/// Returns the verified payload.
std::string read_frame_body(std::istream& is, uint64_t max_payload_bytes, std::string_view label);

/// Reads one whole frame: checks the magic ("<label>: bad magic"), then
/// read_frame_body().
std::string read_frame(std::istream& is, std::string_view magic, uint64_t max_payload_bytes,
                       std::string_view label);

/// Bytes a frame adds around its payload: magic and length ahead of it,
/// the checksum after it.
inline constexpr std::size_t kFrameHeaderBytes = kMagicBytes + sizeof(uint64_t);
inline constexpr std::size_t kFrameTrailerBytes = sizeof(uint64_t);

/// Completes a frame built in memory, with no stream and no copy: `frame`
/// holds kFrameHeaderBytes of room followed by the payload. Fills in the
/// magic and the length, appends the checksum and returns it.
uint64_t seal_frame(std::string& frame, std::string_view magic);

/// The verified payload of one whole frame held in memory — the
/// in-memory read_frame(), failing with the same texts, plus
/// "<label>: trailing bytes after frame (corrupt stream)" when `frame` runs
/// on past the checksum. The view points into `frame`.
std::string_view frame_payload(std::string_view frame, std::string_view magic,
                               uint64_t max_payload_bytes, std::string_view label);

/// The checksum field of one whole frame held in memory (magic | length |
/// payload | checksum), read without hashing the payload again. Returns
/// nullopt when `frame` is not exactly one frame long (a legacy unframed
/// file, or a truncated one). It does not verify the checksum against the
/// payload; that is read_frame_body()'s or frame_payload()'s job.
std::optional<uint64_t> frame_checksum(std::string_view frame);

// ---- Whole files -------------------------------------------------------------

/// Reads the file at `path` over `bytes` in one call (reusing its
/// capacity). Returns false when the file cannot be opened or read.
bool read_whole_file(const std::string& path, std::string& bytes);

// ---- Atomic commit -----------------------------------------------------------

/// Replaces `path` atomically: `write` fills `<path>.tmp`, which is then
/// renamed over `path`. Throws std::runtime_error prefixed with `label`
/// and naming the path when the temp file cannot be opened, `write` throws
/// or leaves the stream failed, or the rename fails; the previous file at
/// `path` is left in place and the temp file is removed.
///
/// Durability: neither the temp file nor its directory is fsync'ed. A
/// commit is atomic against a process crash (a reader sees the old file
/// or the new one, never a torn one), not against power loss or an OS
/// crash, after which the rename may be lost or the new file may hold
/// unwritten blocks.
void commit_file(const std::string& path, const std::function<void(std::ostream&)>& write,
                 std::string_view label);

}  // namespace omu::io
