// Scalar u8 x s8 -> s32 micro-kernel (exact over the full input range)
// plus the shared dispatch and edge-tile helpers.
#include "kernel/kernel_int8.hpp"

#include <string>

#include "common/env.hpp"
#include "common/error.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 4;

void scalar_int8_ukr(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                     std::int32_t* c, index_t ldc, bool accumulate)
{
    std::int32_t acc[kMr][kNr] = {};
    for (index_t q = 0; q < kq; ++q) {
        const std::uint8_t* aq = a + q * kMr * 4;
        const std::int8_t* bq = b + q * kNr * 4;
        for (index_t i = 0; i < kMr; ++i) {
            for (index_t jj = 0; jj < kNr; ++jj) {
                std::int32_t dot = 0;
                for (index_t j = 0; j < 4; ++j) {
                    dot += static_cast<std::int32_t>(aq[i * 4 + j])
                        * static_cast<std::int32_t>(bq[jj * 4 + j]);
                }
                acc[i][jj] += dot;
            }
        }
    }
    if (accumulate) {
        for (index_t i = 0; i < kMr; ++i)
            for (index_t j = 0; j < kNr; ++j) c[i * ldc + j] += acc[i][j];
    } else {
        for (index_t i = 0; i < kMr; ++i)
            for (index_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i][j];
    }
}

}  // namespace

Int8MicroKernel scalar_int8_microkernel()
{
    return {"scalar_int8_4x4", Isa::kScalar, kMr, kNr, &scalar_int8_ukr};
}

const std::vector<Int8MicroKernel>& all_int8_microkernels()
{
    static const std::vector<Int8MicroKernel> kernels = [] {
        std::vector<Int8MicroKernel> v;
        v.push_back(scalar_int8_microkernel());
#if defined(CAKE_HAVE_AVX2_KERNEL)
        v.push_back(avx2_int8_microkernel());
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
        v.push_back(avx512_int8_microkernel());
        v.push_back(avx512vnni_int8_microkernel());
#endif
        return v;
    }();
    return kernels;
}

bool int8_kernel_supported(const Int8MicroKernel& k,
                           const CpuFeatures& features)
{
    return k.needs == nullptr || features.*k.needs;
}

std::vector<Int8MicroKernel> supported_int8_microkernels(
    const CpuFeatures& features)
{
    const std::vector<Int8MicroKernel>& all = all_int8_microkernels();
    std::vector<Int8MicroKernel> v;
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
        if (int8_kernel_supported(*it, features)) v.push_back(*it);
    }
    return v;
}

Int8MicroKernel choose_int8_microkernel(const CpuFeatures& features,
                                        std::optional<Isa> forced)
{
    const std::vector<Int8MicroKernel> runnable =
        supported_int8_microkernels(features);
    if (!forced) return runnable.front();  // scalar always runs
    for (const Int8MicroKernel& k : runnable) {
        if (k.isa == *forced) return k;
    }
    for (const Int8MicroKernel& k : all_int8_microkernels()) {
        if (k.isa == *forced) {
            throw Error(std::string("int8 ISA ") + isa_name(*forced)
                        + " not supported by CPU");
        }
    }
    throw Error(std::string("no int8 micro-kernel compiled for ISA ")
                + isa_name(*forced));
}

const Int8MicroKernel& best_int8_microkernel()
{
    static const Int8MicroKernel chosen = [] {
        // Same coded [FORCE_ISA] contract as the float registry: an
        // unknown value raises, never falls back to autodetection.
        std::optional<Isa> forced;
        if (auto name = env_string("CAKE_FORCE_ISA")) {
            forced = parse_forced_isa(*name);
        }
        return choose_int8_microkernel(cpu_features(), forced);
    }();
    return chosen;
}

void run_int8_tile(const Int8MicroKernel& k, index_t kq,
                   const std::uint8_t* a, const std::int8_t* b,
                   std::int32_t* c, index_t ldc, index_t m, index_t n,
                   bool accumulate, std::int32_t* scratch)
{
    if (m == k.mr && n == k.nr) {
        k.fn(kq, a, b, c, ldc, accumulate);
        return;
    }
    k.fn(kq, a, b, scratch, k.nr, /*accumulate=*/false);
    if (accumulate) {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] += scratch[i * k.nr + j];
    } else {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] = scratch[i * k.nr + j];
    }
}

}  // namespace cake
