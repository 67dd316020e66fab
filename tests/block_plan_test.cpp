// Compute-item geometry of the lowered phase list, and bit-exactness of
// the CB executor on plans whose blocks split into several sliver groups.
//
// A compute item is one mr band x one group of nr slivers. The geometry
// test runs lower_multiply on the plans of a 4-core AVX-512 host (2 MiB
// L2, f32 tile 14 x 32, int8 tile 8 x 48) at the shapes the benchmark
// uses; the executor tests force small mc / kc / nc so every dtype path
// runs multi-group blocks, an edge band and an edge sliver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/block_plan.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "core/cb_executor.hpp"
#include "core/fperror.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"

namespace cake {
namespace {

constexpr int kCores = 4;

/// The 4-core AVX-512 reference host: 48 KiB L1, 2 MiB L2 per core,
/// 300 MiB shared LLC.
MachineSpec reference_host()
{
    MachineSpec m;
    m.name = "reference-4core-avx512";
    m.cores = kCores;
    m.caches.levels = {
        {1, 48 * 1024, 64, 12, 1},
        {2, 2048 * 1024, 64, 16, 1},
        {3, 300ull * 1024 * 1024, 64, 20, kCores},
    };
    return m;
}

struct PlanCase {
    std::string name;
    CbBlockParams params;
    index_t operand_bytes;
    index_t m, n, k;
    bool prepacked;
    index_t (*packed_k)(index_t);
};

std::vector<PlanCase> plan_cases()
{
    const MachineSpec host = reference_host();
    TilingOptions topts;
    topts.elem_bytes = 4;
    const CbBlockParams f32 = compute_cb_block(host, kCores, 14, 32, topts);
    const CbBlockParams i8 = compute_cb_block(host, kCores, 8, 48, topts);
    const auto f32_k = &CbTraits<float>::packed_k;
    const auto i8_k = &CbTraits<std::int8_t>::packed_k;
    return {
        {"square", f32, 4, 2048, 2048, 2048, false, f32_k},
        {"shallow-k", f32, 4, 2048, 2048, 64, false, f32_k},
        {"32x1024x1024", f32, 4, 32, 1024, 1024, false, f32_k},
        {"infer-mix M=32", f32, 4, 32, 1024, 1024, true, f32_k},
        {"infer-mix M=128", f32, 4, 128, 1024, 1024, true, f32_k},
        {"infer-mix M=512", f32, 4, 512, 1024, 1024, true, f32_k},
        {"int8 1024^3", i8, 1, 1024, 1024, 1024, false, i8_k},
    };
}

TEST(BlockPlanItems, ReferenceHostSolvesTheSquareBlock)
{
    const PlanCase square = plan_cases().front();
    EXPECT_EQ(square.params.mc, 504);
    EXPECT_EQ(square.params.kc, 504);
    EXPECT_EQ(square.params.m_blk, 2016);
    EXPECT_EQ(square.params.n_blk, 2016);
}

TEST(BlockPlanItems, ItemsTileEveryBlockGridWithinTheL2Budget)
{
    for (const PlanCase& pc : plan_cases()) {
        const CbBlockParams& params = pc.params;
        const index_t budget = params.mc * params.kc * params.elem_bytes;
        const index_t min_items = 2 * params.p;
        for (const int lookahead : {0, 1}) {
            const LoweredPlan lowered = lower_multiply(
                {.params = params, .operand_bytes = pc.operand_bytes,
                 .m = pc.m, .n = pc.n, .k = pc.k,
                 .use_prepacked = pc.prepacked},
                ScheduleKind::kKFirstSerpentine, lookahead);
            index_t main_phases = 0;
            for (const PlanPhase& ph : lowered.phases) {
                if (ph.bands == 0) continue;
                ++main_phases;
                const BlockStep& st =
                    lowered.plan.steps[static_cast<std::size_t>(ph.step)];
                const std::string what = pc.name + " lookahead "
                    + std::to_string(lookahead) + " step "
                    + std::to_string(ph.step);
                ASSERT_EQ(ph.bands, ceil_div(st.mi, params.mr)) << what;
                ASSERT_EQ(ph.slivers, ceil_div(st.ni, params.nr)) << what;
                ASSERT_GE(ph.groups, 1) << what;
                ASSERT_LE(ph.groups, ph.slivers) << what;

                // Exact cover of the (band x sliver) grid.
                std::vector<int> hits(
                    static_cast<std::size_t>(ph.bands * ph.slivers), 0);
                for (index_t i = 0; i < ph.compute_items(); ++i) {
                    const ComputeItem it = ph.compute_item(i);
                    ASSERT_LT(it.s_begin, it.s_end) << what;
                    for (index_t s = it.s_begin; s < it.s_end; ++s) {
                        ++hits[static_cast<std::size_t>(
                            it.band * ph.slivers + s)];
                    }
                    // Group-major: a group's bands are consecutive items.
                    const ComputeItem first =
                        ph.compute_item(i / ph.bands * ph.bands);
                    EXPECT_EQ(it.s_begin, first.s_begin) << what;
                    EXPECT_EQ(it.band, i % ph.bands) << what;
                }
                for (const int h : hits) ASSERT_EQ(h, 1) << what;

                // Each group's packed-B bytes fit one core's L2 sub-block,
                // unless one sliver alone is larger.
                const index_t sliver_bytes =
                    pc.packed_k(st.ki) * params.nr * pc.operand_bytes;
                for (index_t g = 0; g < ph.groups; ++g) {
                    const ComputeItem it = ph.compute_item(g * ph.bands);
                    const index_t width = it.s_end - it.s_begin;
                    if (width > 1) {
                        EXPECT_LE(width * sliver_bytes, budget)
                            << what << " group " << g;
                    }
                }

                if (ph.bands * ph.slivers >= min_items) {
                    EXPECT_GE(ph.compute_items(), min_items) << what;
                }
                if (pc.m == 32) {
                    // Three bands: no longer three items for four workers.
                    EXPECT_EQ(ph.bands, 3) << what;
                    EXPECT_GE(ph.compute_items(), min_items) << what;
                }
                if (pc.name == "shallow-k" && st.mi == 2016
                    && st.ni == 2016) {
                    EXPECT_EQ(ph.groups, 1) << what;
                    EXPECT_EQ(ph.compute_items(), ph.bands) << what;
                }
                if (pc.name == "square" && st.mi == 2016 && st.ni == 2016
                    && st.ki == 504) {
                    EXPECT_EQ(ph.groups, 5) << what;
                    EXPECT_EQ(ph.compute_items(), 5 * 144) << what;
                    EXPECT_EQ(ph.compute_item(0).s_end, 12) << what;
                }
            }
            EXPECT_EQ(main_phases,
                      static_cast<index_t>(lowered.plan.steps.size()))
                << pc.name;
        }
    }
}

// ---------------------------------------------------------------------------
// Serial and pipelined runs agree bit for bit on multi-group plans.

ThreadPool& test_pool()
{
    static ThreadPool pool(kCores);
    return pool;
}

/// Overrides that give >= 2 sliver groups of >= 2 slivers on a full block:
/// the mc x kc sub-block (at the elem_bytes C width) holds at least two
/// packed slivers of depth kc, and nc is five slivers.
CakeOptions multi_group_options(index_t mr, index_t nr, index_t operand,
                                index_t elem)
{
    CakeOptions options;
    options.p = kCores;
    options.mc = round_up(ceil_div(2 * nr * operand, elem), mr);
    options.kc = 24;
    options.nc = 5 * nr;
    return options;
}

/// A shape with a partial last M block of one short band, a partial last
/// N block ending in an edge sliver, and an edge K slab.
GemmShape multi_group_shape(const CakeOptions& options, index_t mr,
                            index_t nr)
{
    return {kCores * *options.mc + mr / 2, *options.nc + 2 * nr + nr / 2 + 1,
            2 * *options.kc + 5};
}

/// The lowered plan must reach what the test claims to cover.
void expect_multi_group_plan(const CbBlockParams& params, index_t operand,
                             const GemmShape& shape)
{
    const LoweredPlan lowered = lower_multiply(
        {.params = params, .operand_bytes = operand, .m = shape.m,
         .n = shape.n, .k = shape.k},
        ScheduleKind::kKFirstSerpentine, 1);
    index_t max_groups = 0;
    bool short_block = false;
    for (const PlanPhase& ph : lowered.phases) {
        if (ph.bands == 0) continue;
        max_groups = std::max(max_groups, ph.groups);
        short_block = short_block || ph.bands < params.p;
    }
    EXPECT_GE(max_groups, 2);
    EXPECT_TRUE(short_block);
}

template <typename T>
void expect_multi_group_bit_exact()
{
    const MicroKernelT<T>& kernel = best_microkernel_of<T>();
    CakeOptions options =
        multi_group_options(kernel.mr, kernel.nr, sizeof(T), sizeof(T));
    const GemmShape sh = multi_group_shape(options, kernel.mr, kernel.nr);
    const DtypeDesc& dtype = sizeof(T) == 4 ? dtype_f32() : dtype_f64();
    const auto bytes = static_cast<std::size_t>(sh.m * sh.n) * sizeof(T);
    std::uint64_t seed = 1800 + sizeof(T);
    for (const T alpha : {T(1), T(2)}) {
        for (const T beta : {T(0), T(0.5), T(1)}) {
            Rng rng(++seed);
            std::vector<T> a(static_cast<std::size_t>(sh.m * sh.k));
            std::vector<T> b(static_cast<std::size_t>(sh.k * sh.n));
            std::vector<T> c0(static_cast<std::size_t>(sh.m * sh.n));
            for (T& x : a) x = static_cast<T>(2 * rng.next_double() - 1);
            for (T& x : b) x = static_cast<T>(2 * rng.next_double() - 1);
            for (T& x : c0) {
                x = beta == T(0) ? std::numeric_limits<T>::quiet_NaN()
                                 : static_cast<T>(2 * rng.next_double() - 1);
            }
            std::vector<T> c[2] = {c0, c0};
            CakeStats stats;
            for (int i = 0; i < 2; ++i) {
                options.exec = i == 0 ? CakeExec::kSerial
                                      : CakeExec::kPipelined;
                CakeGemmT<T> gemm(test_pool(), options);
                gemm.multiply_scaled(a.data(), sh.k, b.data(), sh.n,
                                     c[i].data(), sh.n, sh.m, sh.n, sh.k,
                                     alpha, beta);
                stats = gemm.stats();
            }
            const std::string what = std::to_string(sizeof(T) * 8)
                + "-bit alpha=" + std::to_string(alpha)
                + " beta=" + std::to_string(beta);
            if (alpha == T(1) && beta == T(0)) {
                expect_multi_group_plan(stats.params, sizeof(T), sh);
            }
            ASSERT_EQ(std::memcmp(c[0].data(), c[1].data(), bytes), 0)
                << what << ": serial and pipelined differ";

            const double bound =
                plan_error_bound(sh, stats.params,
                                 ScheduleKind::kKFirstSerpentine, dtype,
                                 beta != T(0))
                    .rel_bound;
            for (index_t i = 0; i < sh.m; ++i) {
                for (index_t j = 0; j < sh.n; ++j) {
                    long double ref = 0, mag = 0;
                    for (index_t p = 0; p < sh.k; ++p) {
                        const long double x =
                            static_cast<long double>(a[i * sh.k + p])
                            * b[p * sh.n + j];
                        ref += x;
                        mag += std::fabs(x);
                    }
                    ref *= alpha;
                    mag *= alpha;
                    if (beta != T(0)) {
                        const long double cb = static_cast<long double>(beta)
                            * c0[i * sh.n + j];
                        ref += cb;
                        mag += std::fabs(cb);
                    }
                    const long double got = c[0][i * sh.n + j];
                    ASSERT_LE(std::fabs(got - ref), bound * mag)
                        << what << " at (" << i << ", " << j << ")";
                }
            }
        }
    }
}

TEST(MultiGroupItems, F32SerialAndPipelinedBitExactWithinBound)
{
    expect_multi_group_bit_exact<float>();
}

TEST(MultiGroupItems, F64SerialAndPipelinedBitExactWithinBound)
{
    expect_multi_group_bit_exact<double>();
}

TEST(MultiGroupItems, Int8ExactAtBothLookaheads)
{
    const Int8MicroKernel& kernel = best_int8_microkernel();
    // The sub-block budget counts the 4-byte accumulator width; packed
    // int8 slivers are 1 byte per element.
    CakeOptions options = multi_group_options(kernel.mr, kernel.nr, 1,
                                              sizeof(std::int32_t));
    const GemmShape sh = multi_group_shape(options, kernel.mr, kernel.nr);
    Rng rng(1900);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(sh.m * sh.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(sh.k * sh.n));
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next_below(128));
    for (auto& x : b) {
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);
    }
    std::vector<std::int64_t> want(static_cast<std::size_t>(sh.m * sh.n));
    for (index_t i = 0; i < sh.m; ++i) {
        for (index_t j = 0; j < sh.n; ++j) {
            std::int64_t acc = 0;
            for (index_t p = 0; p < sh.k; ++p) {
                acc += static_cast<std::int64_t>(a[i * sh.k + p])
                    * b[p * sh.n + j];
            }
            want[static_cast<std::size_t>(i * sh.n + j)] = acc;
        }
    }
    for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
        options.exec = exec;
        CakeGemmInt8 gemm(test_pool(), options);
        std::vector<std::int32_t> c(static_cast<std::size_t>(sh.m * sh.n),
                                    -7);
        gemm.multiply(a.data(), sh.k, b.data(), sh.n, c.data(), sh.n, sh.m,
                      sh.n, sh.k);
        if (exec == CakeExec::kPipelined) {
            expect_multi_group_plan(gemm.stats().params, 1, sh);
        }
        for (std::size_t i = 0; i < c.size(); ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(c[i]), want[i])
                << "exec " << static_cast<int>(exec) << " idx " << i;
        }
    }
}

}  // namespace
}  // namespace cake
