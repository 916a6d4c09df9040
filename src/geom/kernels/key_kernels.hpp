// Batch voxel-key kernels: coordinate quantization, 48-bit packing and
// Morton interleaving over structure-of-arrays spans.
//
// These are the integer half of the insert hot path: world coordinates
// quantize to per-axis 16-bit keys (floor(x / res) recentred on the key
// origin), keys pack to a 48-bit concatenation for sorting/dedup, and the
// Morton interleave turns one key into the whole root-to-leaf descent
// path (3 bits per level) so the octree walk extracts child indices with
// one shift+mask per level instead of three.
//
// The kernels are layer-pure: they know nothing about OcKey or KeyCoder
// (the map layer bridges), only raw uint16/double spans. A batch entry
// point with an SSE2 variant also has a `_scalar` reference; the
// unsuffixed name dispatches to SSE2 when OMU_SIMD is on (see simd.hpp for
// the bit-identity contract).
#pragma once

#include <cstddef>
#include <cstdint>

namespace omu::geom::kernels {

// ---- Morton / packed-key bit kernels ---------------------------------------

/// Spreads the 16 bits of `v` so bit b lands at position 3b (the classic
/// part-1-by-2 magic-mask expansion).
constexpr uint64_t part1by2_16(uint64_t v) {
  v &= 0xFFFFull;
  v = (v | (v << 16)) & 0x0000'0000'FF00'00FFull;
  v = (v | (v << 8)) & 0x0000'00F0'0F00'F00Full;
  v = (v | (v << 4)) & 0x0000'0C30'C30C'30C3ull;
  v = (v | (v << 2)) & 0x0000'2492'4924'9249ull;
  return v;
}

/// 48-bit Morton code of a voxel key: x bits at positions 3b, y at 3b+1,
/// z at 3b+2. `(morton >> 3*bit) & 7` equals the octree child index that
/// the key selects when the axis bit tested is `bit`.
constexpr uint64_t morton48(uint16_t x, uint16_t y, uint16_t z) {
  return part1by2_16(x) | (part1by2_16(y) << 1) | (part1by2_16(z) << 2);
}

/// 48-bit packed key (x | y<<16 | z<<32): the repo's canonical sort order.
constexpr uint64_t packed48(uint16_t x, uint16_t y, uint16_t z) {
  return static_cast<uint64_t>(x) | (static_cast<uint64_t>(y) << 16) |
         (static_cast<uint64_t>(z) << 32);
}

/// Batch packed-key computation: out[i] = packed48(x[i], y[i], z[i]).
/// Scalar only: an SSE2 variant measured no faster.
void packed48_batch(const uint16_t* x, const uint16_t* y, const uint16_t* z, std::size_t n,
                    uint64_t* out);

// ---- Coordinate quantization -----------------------------------------------

/// Quantizes one axis of a coordinate batch to voxel keys:
///   cell    = floor(x[i] * inv_res)
///   shifted = cell + key_origin
///   valid   = 0 <= shifted <= 0xFFFF
/// key_out[i] is the shifted key when valid, 0 otherwise; valid_out[i] is
/// 1/0. Semantics match KeyCoder::axis_key exactly for all finite inputs.
void quantize_axis_scalar(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                          uint16_t* key_out, uint8_t* valid_out);
void quantize_axis(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                   uint16_t* key_out, uint8_t* valid_out);

}  // namespace omu::geom::kernels
