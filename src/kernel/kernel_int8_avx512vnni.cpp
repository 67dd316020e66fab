// 8x48 AVX-512-VNNI u8 x s8 -> s32 micro-kernel: one vpdpbusd per
// accumulator per k-quad. 24 zmm accumulators + 3 B loads + 1 broadcast
// = 28 of 32. vpdpbusd adds the four u8*s8 products straight into the
// int32 lane, so unlike the vpmaddubsw idiom it has no int16 saturation
// and is exact over the full u8 x s8 range.
#include <immintrin.h>

#include <cstring>

#include "kernel/kernel_int8.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 8;
constexpr index_t kNr = 48;

void avx512vnni_int8_ukr(index_t kq, const std::uint8_t* a,
                         const std::int8_t* b, std::int32_t* c, index_t ldc,
                         bool accumulate)
{
    // The explicit unroll pragmas keep GCC from demoting the accumulator
    // array to the stack: without them it round-trips every vpdpbusd
    // result through memory.
    __m512i acc[kMr][3];
    for (auto& row : acc) {
        row[0] = _mm512_setzero_si512();
        row[1] = _mm512_setzero_si512();
        row[2] = _mm512_setzero_si512();
    }

    for (index_t q = 0; q < kq; ++q) {
        const std::int8_t* bq = b + q * kNr * 4;
        const __m512i bv[3] = {_mm512_load_si512(bq),
                               _mm512_load_si512(bq + 64),
                               _mm512_load_si512(bq + 128)};
        const std::uint8_t* aq = a + q * kMr * 4;
#pragma GCC unroll 8
        for (index_t i = 0; i < kMr; ++i) {
            std::int32_t a4 = 0;  // the row's four k-quad bytes
            std::memcpy(&a4, aq + i * 4, sizeof a4);
            const __m512i ai = _mm512_set1_epi32(a4);
#pragma GCC unroll 3
            for (index_t h = 0; h < 3; ++h) {
                acc[i][h] = _mm512_dpbusd_epi32(acc[i][h], ai, bv[h]);
            }
        }
    }

#pragma GCC unroll 8
    for (index_t i = 0; i < kMr; ++i) {
        std::int32_t* ci = c + i * ldc;
#pragma GCC unroll 3
        for (index_t h = 0; h < 3; ++h) {
            if (accumulate) {
                acc[i][h] = _mm512_add_epi32(
                    acc[i][h], _mm512_loadu_si512(ci + h * 16));
            }
            _mm512_storeu_si512(ci + h * 16, acc[i][h]);
        }
    }
}

}  // namespace

Int8MicroKernel avx512vnni_int8_microkernel()
{
    return {"avx512vnni_int8_8x48", Isa::kAvx512, kMr, kNr,
            &avx512vnni_int8_ukr, &CpuFeatures::avx512vnni};
}

}  // namespace cake
