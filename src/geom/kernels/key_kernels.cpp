#include "geom/kernels/key_kernels.hpp"

#include <cmath>

#include "geom/kernels/simd.hpp"

namespace omu::geom::kernels {

void packed48_batch(const uint16_t* x, const uint16_t* y, const uint16_t* z, std::size_t n,
                    uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = packed48(x[i], y[i], z[i]);
  }
}

void quantize_axis_scalar(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                          uint16_t* key_out, uint8_t* valid_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto cell = static_cast<int64_t>(std::floor(x[i] * inv_res));
    const int64_t shifted = cell + key_origin;
    const bool valid = shifted >= 0 && shifted <= 0xFFFF;
    key_out[i] = valid ? static_cast<uint16_t>(shifted) : uint16_t{0};
    valid_out[i] = valid ? uint8_t{1} : uint8_t{0};
  }
}

#if OMU_KERNELS_SSE2

void quantize_axis(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                   uint16_t* key_out, uint8_t* valid_out) {
  const __m128d vinv = _mm_set1_pd(inv_res);
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128i vorigin = _mm_set1_epi32(key_origin);
  const __m128i vneg1 = _mm_set1_epi32(-1);
  const __m128i vmax1 = _mm_set1_epi32(0x10000);
  const __m128i vmask16 = _mm_set1_epi32(0xFFFF);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // floor(x * inv_res) per lane. cvttpd truncates toward zero; subtract
    // 1.0 (in the double domain, before the final convert) on lanes where
    // the truncated value exceeds the product, which is exactly the
    // negative-fraction case. |product| >= 2^31 lanes hit the cvttpd
    // sentinel INT32_MIN and fail the range check below, matching the
    // scalar path that rejects them via the 0..0xFFFF window.
    const __m128d t0 = _mm_mul_pd(_mm_loadu_pd(x + i), vinv);
    const __m128d t1 = _mm_mul_pd(_mm_loadu_pd(x + i + 2), vinv);
    const __m128d f0 = _mm_cvtepi32_pd(_mm_cvttpd_epi32(t0));
    const __m128d f1 = _mm_cvtepi32_pd(_mm_cvttpd_epi32(t1));
    const __m128d fl0 = _mm_sub_pd(f0, _mm_and_pd(_mm_cmpgt_pd(f0, t0), vone));
    const __m128d fl1 = _mm_sub_pd(f1, _mm_and_pd(_mm_cmpgt_pd(f1, t1), vone));
    const __m128i cells =
        _mm_unpacklo_epi64(_mm_cvttpd_epi32(fl0), _mm_cvttpd_epi32(fl1));
    const __m128i shifted = _mm_add_epi32(cells, vorigin);
    const __m128i valid = _mm_and_si128(_mm_cmpgt_epi32(shifted, vneg1),
                                        _mm_cmpgt_epi32(vmax1, shifted));
    const __m128i keys = _mm_and_si128(shifted, _mm_and_si128(valid, vmask16));
    alignas(16) int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), keys);
    const int vm = _mm_movemask_ps(_mm_castsi128_ps(valid));
    for (int k = 0; k < 4; ++k) {
      key_out[i + k] = static_cast<uint16_t>(lanes[k]);
      valid_out[i + k] = static_cast<uint8_t>((vm >> k) & 1);
    }
  }
  quantize_axis_scalar(x + i, n - i, inv_res, key_origin, key_out + i, valid_out + i);
}

#else  // !OMU_KERNELS_SSE2

void quantize_axis(const double* x, std::size_t n, double inv_res, int32_t key_origin,
                   uint16_t* key_out, uint8_t* valid_out) {
  quantize_axis_scalar(x, n, inv_res, key_origin, key_out, valid_out);
}

#endif  // OMU_KERNELS_SSE2

}  // namespace omu::geom::kernels
