// 4x32 AVX-512BW u8 x s8 -> s32 micro-kernel. Exact when A values fit
// [0, 127] (see kernel_int8.hpp range note).
#include <immintrin.h>

#include "kernel/kernel_int8.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 32;

void avx512_int8_ukr(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                     std::int32_t* c, index_t ldc, bool accumulate)
{
    const __m512i ones = _mm512_set1_epi16(1);
    __m512i acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm512_setzero_si512();
        row[1] = _mm512_setzero_si512();
    }

    for (index_t q = 0; q < kq; ++q) {
        const __m512i b0 = _mm512_load_si512(b + q * kNr * 4);
        const __m512i b1 = _mm512_load_si512(b + q * kNr * 4 + 64);
        const std::uint8_t* aq = a + q * kMr * 4;
        for (index_t i = 0; i < kMr; ++i) {
            const __m512i ai = _mm512_set1_epi32(
                *reinterpret_cast<const std::int32_t*>(aq + i * 4));
            const __m512i p0 =
                _mm512_madd_epi16(_mm512_maddubs_epi16(ai, b0), ones);
            const __m512i p1 =
                _mm512_madd_epi16(_mm512_maddubs_epi16(ai, b1), ones);
            acc[i][0] = _mm512_add_epi32(acc[i][0], p0);
            acc[i][1] = _mm512_add_epi32(acc[i][1], p1);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        std::int32_t* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm512_add_epi32(acc[i][0],
                                         _mm512_loadu_si512(ci));
            acc[i][1] = _mm512_add_epi32(acc[i][1],
                                         _mm512_loadu_si512(ci + 16));
        }
        _mm512_storeu_si512(ci, acc[i][0]);
        _mm512_storeu_si512(ci + 16, acc[i][1]);
    }
}

}  // namespace

Int8MicroKernel avx512_int8_microkernel()
{
    return {"avx512_int8_4x32", Isa::kAvx512, kMr, kNr, &avx512_int8_ukr,
            &CpuFeatures::avx512bw};
}

}  // namespace cake
