// Quantized-path tests: int8 packing, kernels (exact integer comparisons),
// the int8 CAKE driver, quantization helpers and the end-to-end qgemm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/schedir.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm_int8.hpp"
#include "core/fperror.hpp"
#include "core/quant.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/selftest.hpp"
#include "pack/pack_int8.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

/// Exact integer oracle: C[i][j] = sum_k A(i,k) * B(k,j) in int64.
std::vector<std::int64_t> int_oracle(const std::vector<std::uint8_t>& a,
                                     const std::vector<std::int8_t>& b,
                                     index_t m, index_t n, index_t k)
{
    std::vector<std::int64_t> c(static_cast<std::size_t>(m * n), 0);
    for (index_t i = 0; i < m; ++i)
        for (index_t p = 0; p < k; ++p)
            for (index_t j = 0; j < n; ++j)
                c[static_cast<std::size_t>(i * n + j)] +=
                    static_cast<std::int64_t>(
                        a[static_cast<std::size_t>(i * k + p)])
                    * b[static_cast<std::size_t>(p * n + j)];
    return c;
}

void fill_random_u8(std::vector<std::uint8_t>& v, Rng& rng)
{
    for (auto& x : v)
        x = static_cast<std::uint8_t>(rng.next_below(128));  // [0,127]
}

void fill_random_s8(std::vector<std::int8_t>& v, Rng& rng)
{
    for (auto& x : v)
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);  // [-127,127]
}

TEST(Int8Pack, QuadLayoutRoundTrip)
{
    Rng rng(101);
    const index_t m = 11, k = 14, mr = 4;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    fill_random_u8(a, rng);
    std::vector<std::uint8_t> packed(
        static_cast<std::size_t>(packed_a_int8_size(m, k, mr)), 0xEE);
    pack_a_panel_int8(a.data(), k, m, k, mr, packed.data());

    const index_t kq = int8_kq(k);
    for (index_t i = 0; i < round_up(m, mr); ++i) {
        for (index_t kk = 0; kk < kq * 4; ++kk) {
            const index_t s = i / mr, ii = i % mr, q = kk / 4, j = kk % 4;
            const std::uint8_t got = packed[static_cast<std::size_t>(
                s * mr * kq * 4 + q * mr * 4 + ii * 4 + j)];
            const std::uint8_t expected = (i < m && kk < k)
                ? a[static_cast<std::size_t>(i * k + kk)]
                : 0;
            ASSERT_EQ(got, expected) << "i=" << i << " k=" << kk;
        }
    }
}

TEST(Int8Pack, BQuadLayoutRoundTrip)
{
    Rng rng(102);
    const index_t k = 10, n = 19, nr = 16;
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_s8(b, rng);
    std::vector<std::int8_t> packed(
        static_cast<std::size_t>(packed_b_int8_size(k, n, nr)), 0x7E);
    pack_b_panel_int8(b.data(), n, k, n, nr, packed.data());

    const index_t kq = int8_kq(k);
    for (index_t jj = 0; jj < round_up(n, nr); ++jj) {
        for (index_t kk = 0; kk < kq * 4; ++kk) {
            const index_t t = jj / nr, j2 = jj % nr, q = kk / 4, j = kk % 4;
            const std::int8_t got = packed[static_cast<std::size_t>(
                t * nr * kq * 4 + q * nr * 4 + j2 * 4 + j)];
            const std::int8_t expected = (jj < n && kk < k)
                ? b[static_cast<std::size_t>(kk * n + jj)]
                : 0;
            ASSERT_EQ(got, expected) << "j=" << jj << " k=" << kk;
        }
    }
}

TEST(Int8Kernel, BestKernelMatchesScalarExactly)
{
    const Int8MicroKernel& best = best_int8_microkernel();
    const Int8MicroKernel scalar = scalar_int8_microkernel();
    Rng rng(103);

    for (index_t kq : {1, 2, 7, 48}) {
        std::vector<std::uint8_t> a(
            static_cast<std::size_t>(best.mr * kq * 4));
        std::vector<std::int8_t> b(
            static_cast<std::size_t>(best.nr * kq * 4));
        fill_random_u8(a, rng);
        fill_random_s8(b, rng);
        // 64-byte aligned copies for the SIMD loads.
        AlignedBuffer<std::uint8_t> aa(a.size());
        AlignedBuffer<std::int8_t> ab(b.size());
        std::copy(a.begin(), a.end(), aa.data());
        std::copy(b.begin(), b.end(), ab.data());

        std::vector<std::int32_t> c_best(
            static_cast<std::size_t>(best.mr * best.nr), -1);
        best.fn(kq, aa.data(), ab.data(), c_best.data(), best.nr, false);

        // Scalar reference computed per 4x4 sub-tile of the best kernel's
        // tile: easier to just recompute with the exact formula.
        for (index_t i = 0; i < best.mr; ++i) {
            for (index_t j = 0; j < best.nr; ++j) {
                std::int64_t acc = 0;
                for (index_t q = 0; q < kq; ++q)
                    for (index_t d = 0; d < 4; ++d)
                        acc += static_cast<std::int64_t>(
                                   aa[static_cast<std::size_t>(
                                       q * best.mr * 4 + i * 4 + d)])
                            * ab[static_cast<std::size_t>(
                                q * best.nr * 4 + j * 4 + d)];
                ASSERT_EQ(c_best[static_cast<std::size_t>(i * best.nr + j)],
                          static_cast<std::int32_t>(acc))
                    << best.name << " kq=" << kq << " (" << i << "," << j
                    << ")";
            }
        }
        (void)scalar;
    }
}

using ShapeParam = std::tuple<index_t, index_t, index_t>;

class Int8GemmShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(Int8GemmShapeTest, ExactAgainstIntegerOracle)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 7 + n * 11 + k * 13));
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    std::vector<std::int32_t> c0(static_cast<std::size_t>(m * n));
    for (auto& x : c0) {
        x = static_cast<std::int32_t>(rng.next_below(2001)) - 1000;
    }
    const auto oracle = int_oracle(a, b, m, n, k);

    // Every schedule (the non-K-first ones spill and revisit partial
    // surfaces, exercising the accumulate flush) at both lookaheads, with
    // per-call packing, pre-packed weights and C += A*B.
    enum class Variant { kPlain, kPrepacked, kAccumulate };
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            for (const Variant variant :
                 {Variant::kPlain, Variant::kPrepacked, Variant::kAccumulate}) {
                CakeOptions options;
                options.mc = best_int8_microkernel().mr * 4;
                options.schedule = kind;
                options.exec = exec;
                options.accumulate = variant == Variant::kAccumulate;
                CakeGemmInt8 gemm(test_pool(), options);
                std::vector<std::int32_t> c = c0;
                if (variant == Variant::kPrepacked) {
                    const PackedBInt8 packed =
                        gemm.pack_weights(b.data(), n, k, n);
                    gemm.multiply_prepacked(a.data(), k, packed, c.data(), n,
                                            m);
                } else {
                    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m,
                                  n, k);
                }
                for (index_t i = 0; i < m * n; ++i) {
                    const auto idx = static_cast<std::size_t>(i);
                    const std::int64_t want = oracle[idx]
                        + (options.accumulate ? c0[idx] : 0);
                    ASSERT_EQ(static_cast<std::int64_t>(c[idx]), want)
                        << "m=" << m << " n=" << n << " k=" << k
                        << " idx=" << i << " schedule="
                        << schedule_kind_name(kind) << " exec="
                        << (exec == CakeExec::kSerial ? "serial"
                                                      : "pipelined")
                        << " variant=" << static_cast<int>(variant);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, Int8GemmShapeTest,
    ::testing::Values(ShapeParam{1, 1, 1}, ShapeParam{4, 16, 4},
                      ShapeParam{5, 17, 6}, ShapeParam{64, 64, 64},
                      ShapeParam{33, 65, 129}, ShapeParam{128, 16, 8},
                      ShapeParam{16, 128, 300}, ShapeParam{97, 89, 83}),
    [](const auto& info) {
        return "m" + std::to_string(std::get<0>(info.param)) + "n"
            + std::to_string(std::get<1>(info.param)) + "k"
            + std::to_string(std::get<2>(info.param));
    });

TEST(Int8Gemm, AccumulateMode)
{
    Rng rng(104);
    const index_t m = 20, n = 24, k = 32;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 5);

    CakeOptions options;
    options.accumulate = true;
    cake_gemm_s8u8s32(a.data(), b.data(), c.data(), m, n, k, test_pool(),
                      options);
    const auto oracle = int_oracle(a, b, m, n, k);
    for (index_t i = 0; i < m * n; ++i)
        ASSERT_EQ(c[static_cast<std::size_t>(i)],
                  static_cast<std::int32_t>(
                      oracle[static_cast<std::size_t>(i)] + 5));
}

TEST(Int8Gemm, PrepackedMatchesRegular)
{
    Rng rng(108);
    const index_t m = 40, n = 48, k = 64;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);

    CakeOptions options;
    options.mc = best_int8_microkernel().mr * 4;
    CakeGemmInt8 gemm(test_pool(), options);
    const PackedBInt8 packed = gemm.pack_weights(b.data(), n, k, n);

    std::vector<std::int32_t> c_pre(static_cast<std::size_t>(m * n), -1);
    std::vector<std::int32_t> c_reg(static_cast<std::size_t>(m * n), -2);
    gemm.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m);
    EXPECT_EQ(gemm.stats().b_packs, 0);
    gemm.multiply(a.data(), k, b.data(), n, c_reg.data(), n, m, n, k);
    EXPECT_EQ(c_pre, c_reg) << "integer results must be identical";

    // Geometry mismatch rejected.
    CakeOptions other = options;
    other.mc = best_int8_microkernel().mr * 8;
    CakeGemmInt8 gemm2(test_pool(), other);
    EXPECT_THROW(
        gemm2.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m),
        Error);
}

TEST(Int8Gemm, TrafficAccountingPinned)
{
    // Operand traffic is counted at 1 byte per A/B element and 4 per C
    // element. The tiling is pinned (p, mc, kc, nc) so the counts do not
    // depend on the host's caches. They do depend on the int8 kernel's
    // width, because the block width is nc rounded up to a multiple of
    // nr: the 4-row kernels (nr divides 64) keep nc = 64, and the 8x48
    // VNNI kernel widens it to 96. The schedule IR of the same multiply,
    // at 1-byte operands, must model the same bytes.
    struct Expect {
        index_t m, n, k;
        index_t a_packs, b_packs, c_flushes, c_partial_spills;
        std::uint64_t dram_read, dram_write;
    };
    const Expect nc64_cases[] = {
        {150, 170, 90, 25, 21, 9, 0, 75120, 102000},
        {64, 64, 64, 2, 2, 1, 0, 8192, 16384},
        {97, 200, 300, 61, 60, 8, 0, 227200, 77600},
    };
    const Expect nc96_cases[] = {
        {150, 170, 90, 17, 14, 6, 0, 64180, 102000},
        {64, 64, 64, 2, 2, 1, 0, 8192, 16384},
        {97, 200, 300, 46, 45, 6, 0, 199420, 77600},
    };
    const index_t nr = best_int8_microkernel().nr;
    ASSERT_TRUE(64 % nr == 0 || nr == 48)
        << "no pinned traffic for int8 kernel width nr = " << nr;
    for (const Expect& e : nr == 48 ? nc96_cases : nc64_cases) {
        std::vector<std::uint8_t> a(static_cast<std::size_t>(e.m * e.k), 1);
        std::vector<std::int8_t> b(static_cast<std::size_t>(e.k * e.n), 1);
        std::vector<std::int32_t> c(static_cast<std::size_t>(e.m * e.n), 0);
        CakeOptions options;
        options.p = 4;
        options.mc = 16;
        options.kc = 40;
        options.nc = 64;
        CakeGemmInt8 gemm(test_pool(), options);
        gemm.multiply(a.data(), e.k, b.data(), e.n, c.data(), e.n, e.m, e.n,
                      e.k);
        const CakeStats& s = gemm.stats();
        EXPECT_EQ(s.a_packs, e.a_packs) << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(s.b_packs, e.b_packs) << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(s.c_flushes, e.c_flushes)
            << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(s.c_partial_spills, e.c_partial_spills)
            << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(s.dram_read_bytes, e.dram_read)
            << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(s.dram_write_bytes, e.dram_write)
            << e.m << "x" << e.n << "x" << e.k;
        const schedir::IoTotals io = schedir::io_totals(
            schedir::extract_cake_ir({e.m, e.n, e.k}, s.params,
                                     options.schedule,
                                     s.pipelined ? schedir::Exec::kPipelined
                                                 : schedir::Exec::kSerial,
                                     /*use_prepacked=*/false,
                                     /*beta_nonzero=*/false,
                                     /*operand_bytes=*/1));
        EXPECT_EQ(io.reads(), e.dram_read) << e.m << "x" << e.n << "x" << e.k;
        EXPECT_EQ(io.writes(), e.dram_write)
            << e.m << "x" << e.n << "x" << e.k;
    }
}

TEST(Quant, UnsignedRoundTripWithinOneStep)
{
    Rng rng(105);
    std::vector<float> src(1000);
    for (auto& v : src) v = rng.next_float(-3.0f, 5.0f);
    std::vector<std::uint8_t> q(src.size());
    const QuantParams params =
        quantize_unsigned(src.data(), static_cast<index_t>(src.size()),
                          q.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
        const float back = params.scale
            * (static_cast<float>(q[i]) - params.zero_point);
        EXPECT_NEAR(back, src[i], params.scale * 1.01f) << i;
        EXPECT_LE(q[i], 127);
    }
}

TEST(Quant, SignedSymmetricRoundTrip)
{
    Rng rng(106);
    std::vector<float> src(1000);
    for (auto& v : src) v = rng.next_float(-2.0f, 2.0f);
    std::vector<std::int8_t> q(src.size());
    const QuantParams params = quantize_signed(
        src.data(), static_cast<index_t>(src.size()), q.data());
    EXPECT_EQ(params.zero_point, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        EXPECT_NEAR(params.scale * static_cast<float>(q[i]), src[i],
                    params.scale * 1.01f);
    }
}

TEST(Quant, ColumnSums)
{
    const std::vector<std::int8_t> b = {1, -2, 3, 4, -5, 6};  // 2x3
    std::vector<std::int64_t> sums(3);
    int8_column_sums(b.data(), 3, 2, 3, sums.data());
    EXPECT_EQ(sums, (std::vector<std::int64_t>{5, -7, 9}));
}

TEST(Int8Kernel, EverySupportedKernelInSelftest)
{
    // The int8 family rides the same selftest path as f32/f64: every
    // compiled-and-supported variant appears in the sweep and passes
    // exactly (max_error == 0 for integer kernels).
    const auto results = run_kernel_selftest();
    for (const Int8MicroKernel& k : supported_int8_microkernels()) {
        bool found = false;
        for (const auto& r : results) {
            if (r.kernel == k.name) {
                found = true;
                EXPECT_TRUE(r.passed) << k.name;
                EXPECT_EQ(r.max_error, 0.0) << k.name;
            }
        }
        EXPECT_TRUE(found) << k.name << " missing from selftest sweep";
    }
}

TEST(Int8Kernel, SaturationEdgeExactAtTileBoundaries)
{
    // Extreme operands (a = 127, b = ±128 alternating) drive the
    // vpmaddubsw int16 pair sums to ±32512 — the exactness boundary —
    // while an (mr-1) x (nr-1) edge tile exercises the scratch copy-out.
    // Every supported kernel must match the int64 oracle bit-exactly and
    // leave the dead C region untouched.
    const index_t kq = 3;
    for (const Int8MicroKernel& k : supported_int8_microkernels()) {
        const index_t mr = k.mr, nr = k.nr;
        AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(mr * kq * 4));
        AlignedBuffer<std::int8_t> b(static_cast<std::size_t>(nr * kq * 4));
        for (std::size_t i = 0; i < a.size(); ++i) a[i] = 127;
        for (index_t q = 0; q < kq; ++q)
            for (index_t j = 0; j < nr; ++j)
                for (index_t d = 0; d < 4; ++d)
                    b[static_cast<std::size_t>(q * nr * 4 + j * 4 + d)] =
                        (j + d) % 2 == 0
                            ? static_cast<std::int8_t>(-128)
                            : static_cast<std::int8_t>(127);

        const index_t m = mr > 1 ? mr - 1 : mr;
        const index_t n = nr > 1 ? nr - 1 : nr;
        AlignedBuffer<std::int32_t> c(static_cast<std::size_t>(mr * nr));
        AlignedBuffer<std::int32_t> scratch(
            static_cast<std::size_t>(mr * nr));
        const std::int32_t sentinel = -7777777;
        for (std::size_t i = 0; i < c.size(); ++i) c[i] = sentinel;
        run_int8_tile(k, kq, a.data(), b.data(), c.data(), nr, m, n,
                      /*accumulate=*/false, scratch.data());

        for (index_t i = 0; i < mr; ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const std::int32_t got =
                    c[static_cast<std::size_t>(i * nr + j)];
                if (i >= m || j >= n) {
                    ASSERT_EQ(got, sentinel)
                        << k.name << " wrote dead C(" << i << "," << j
                        << ")";
                    continue;
                }
                std::int64_t want = 0;
                for (index_t q = 0; q < kq; ++q)
                    for (index_t d = 0; d < 4; ++d)
                        want += 127LL
                            * b[static_cast<std::size_t>(
                                q * nr * 4 + j * 4 + d)];
                ASSERT_EQ(static_cast<std::int64_t>(got), want)
                    << k.name << " C(" << i << "," << j << ")";
            }
        }
    }
}

TEST(Quant, RequantRoundingExactAtTileBoundaries)
{
    // Requantization at a shape straddling the register-tile boundaries
    // (m = 2*mr - 1, n = 2*nr - 1): the dequantized result of the real
    // int8 GEMM must stay inside the static requant error bound
    // (core/fperror.hpp) at every element, including the edge tiles.
    const Int8MicroKernel& best = best_int8_microkernel();
    const index_t m = 2 * best.mr - 1;
    const index_t n = 2 * best.nr - 1;
    const index_t k = 52;
    Rng rng(109);
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng, 0.0f, 1.0f);
    b.fill_random(rng, -1.0f, 1.0f);

    std::vector<std::uint8_t> qa(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> qb(static_cast<std::size_t>(k * n));
    const QuantParams pa = quantize_unsigned(a.data(), m * k, qa.data());
    const QuantParams pb = quantize_signed(b.data(), k * n, qb.data());

    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n), 0);
    CakeOptions options;
    cake_gemm_s8u8s32(qa.data(), qb.data(), acc.data(), m, n, k,
                      test_pool(), options);

    std::vector<std::int64_t> colsums(static_cast<std::size_t>(n));
    int8_column_sums(qb.data(), n, k, n, colsums.data());
    Matrix out(m, n);
    dequantize_gemm(acc.data(), n, m, n, pa, pb, colsums.data(),
                    out.data(), n);

    const Matrix exact = oracle_gemm(a, b);
    const double bound = int8_requant_abs_bound(k, pa, pb);
    ASSERT_GT(bound, 0.0);
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            const double diff = std::abs(
                static_cast<double>(out.at(i, j))
                - static_cast<double>(exact.at(i, j)));
            ASSERT_LE(diff, bound) << "(" << i << "," << j << ")";
        }
    }
}

TEST(Quant, EndToEndQgemmApproximatesFloatGemm)
{
    Rng rng(107);
    const index_t m = 96, n = 80, k = 64;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng, 0.0f, 1.0f);   // activation-like (non-negative)
    b.fill_random(rng, -1.0f, 1.0f);  // weight-like

    const Matrix approx = cake_qgemm(a, b, test_pool());
    const Matrix exact = oracle_gemm(a, b);
    // 7-bit quantization of both operands over a length-64 reduction:
    // worst-case relative error ~ (step_a + step_b) * sqrt(k) ~ 9%.
    EXPECT_LE(max_rel_diff(approx, exact, /*abs_floor=*/1.0), 0.10);
    // And it must be a real approximation, not garbage.
    EXPECT_GT(max_rel_diff(approx, exact, 1.0), 1e-6);
}


// The int8 tile epilogue writes user C directly: beta is 0 (overwrite,
// C's old contents never read) or 1 (accumulate). Multi-slab column
// visits, revisits (kNInnermost) and edge tiles must all stay exact, and
// serial and pipelined must agree bit for bit.
TEST(Int8Gemm, EpilogueMatrixExactAndBitExact)
{
    const Int8MicroKernel& kernel = best_int8_microkernel();
    const index_t mr = kernel.mr;
    const index_t nr = kernel.nr;
    struct Shape {
        index_t m, n, k;
    };
    const Shape shapes[] = {{mr * 6, nr * 4, 70},
                            {mr * 5 + 3, nr * 3 + 5, 53}};
    std::uint64_t seed = 950;
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kNInnermost}) {
        for (const Shape& sh : shapes) {
            for (const bool accumulate : {false, true}) {
                Rng rng(++seed);
                std::vector<std::uint8_t> a(
                    static_cast<std::size_t>(sh.m * sh.k));
                std::vector<std::int8_t> b(
                    static_cast<std::size_t>(sh.k * sh.n));
                fill_random_u8(a, rng);
                fill_random_s8(b, rng);
                std::vector<std::int32_t> c0(
                    static_cast<std::size_t>(sh.m * sh.n));
                for (auto& x : c0) {
                    x = static_cast<std::int32_t>(rng.next_below(2001))
                        - 1000;
                }
                const auto oracle = int_oracle(a, b, sh.m, sh.n, sh.k);

                CakeOptions options;
                options.mc = mr * 3;
                options.nc = nr * 2;
                options.kc = 24;
                options.schedule = kind;
                options.accumulate = accumulate;
                std::vector<std::int32_t> c[2] = {c0, c0};
                for (int i = 0; i < 2; ++i) {
                    options.exec =
                        i == 0 ? CakeExec::kSerial : CakeExec::kPipelined;
                    CakeGemmInt8 gemm(test_pool(), options);
                    gemm.multiply(a.data(), sh.k, b.data(), sh.n,
                                  c[i].data(), sh.n, sh.m, sh.n, sh.k);
                    ASSERT_GT(gemm.stats().grid_kb, 1);
                }
                EXPECT_EQ(c[0], c[1])
                    << schedule_kind_name(kind) << " m=" << sh.m
                    << " accumulate=" << accumulate
                    << ": serial and pipelined differ";
                for (std::size_t i = 0; i < c0.size(); ++i) {
                    const std::int64_t want =
                        oracle[i] + (accumulate ? c0[i] : 0);
                    ASSERT_EQ(static_cast<std::int64_t>(c[0][i]), want)
                        << schedule_kind_name(kind) << " m=" << sh.m
                        << " accumulate=" << accumulate << " idx=" << i;
                }
            }
        }
    }
}

// Contract checks shared with the float path: null operands, user C
// overlapping A or B, and an overflowing C extent raise cake::Error.
TEST(Int8Gemm, ContractViolationsRejected)
{
    std::vector<std::uint8_t> a(16, 1);
    std::vector<std::int8_t> b(16, 1);
    std::vector<std::int32_t> c(16, 0);
    CakeGemmInt8 gemm(test_pool(), CakeOptions{});
    EXPECT_THROW(gemm.multiply(nullptr, 4, b.data(), 4, c.data(), 4, 4, 4, 4),
                 Error);
    EXPECT_THROW(gemm.multiply(a.data(), 4, nullptr, 4, c.data(), 4, 4, 4, 4),
                 Error);
    EXPECT_THROW(gemm.multiply(a.data(), 4, b.data(), 4, nullptr, 4, 4, 4, 4),
                 Error);
    // An int32 2 x 2 C (ldc 4) over u8 A / s8 B bytes of one allocation:
    // C's rows are bytes [0, 8) and [16, 24). A's first row at [4, 8) and
    // B's first row at [4, 6) land inside C; an A at [8, 16), between
    // C's rows, does not.
    std::vector<std::int32_t> shared(16, 0);
    auto* bytes = static_cast<std::uint8_t*>(static_cast<void*>(shared.data()));
    EXPECT_THROW(gemm.multiply(bytes + 4, 4, b.data(), 4, shared.data(), 4,
                               2, 2, 4),
                 Error);
    EXPECT_THROW(gemm.multiply(a.data(), 4,
                               static_cast<std::int8_t*>(
                                   static_cast<void*>(bytes + 4)),
                               4, shared.data(), 4, 2, 2, 4),
                 Error);
    EXPECT_NO_THROW(gemm.multiply(bytes + 8, 4, b.data(), 4, shared.data(),
                                  4, 2, 2, 4));
    const index_t huge_ldc = std::numeric_limits<index_t>::max() / 2;
    EXPECT_THROW(gemm.multiply(a.data(), 4, b.data(), 4, c.data(), huge_ldc,
                               4, 2, 4),
                 Error);
    EXPECT_NO_THROW(gemm.multiply(a.data(), 4, b.data(), 4, c.data(), 4, 4,
                                  4, 4));
}

/// The compiled int8 kernel called `name` if this CPU can run it.
const Int8MicroKernel* runnable_int8_kernel(const std::string& name)
{
    for (const Int8MicroKernel& k : all_int8_microkernels()) {
        if (name == k.name) return int8_kernel_supported(k) ? &k : nullptr;
    }
    return nullptr;
}

// vpdpbusd sums the four u8 x s8 products of a lane straight into int32,
// with no int16 intermediate, so the VNNI kernel is exact over the whole
// u8 x s8 range, including the a = 255, b = -128 / 127 corners that
// saturate the vpmaddubsw kernels.
TEST(Int8Kernel, VnniExactOverFullU8S8Range)
{
    const Int8MicroKernel* k = runnable_int8_kernel("avx512vnni_int8_8x48");
    if (k == nullptr) GTEST_SKIP() << "VNNI int8 kernel cannot run here";
    const index_t mr = k->mr;
    const index_t nr = k->nr;
    Rng rng(111);
    for (const index_t kq : {1, 2, 129}) {
        AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(mr * kq * 4));
        AlignedBuffer<std::int8_t> b(static_cast<std::size_t>(nr * kq * 4));
        for (index_t q = 0; q < kq; ++q) {
            for (index_t i = 0; i < mr; ++i) {
                for (index_t d = 0; d < 4; ++d) {
                    // Row 0 is all 255; the rest span [0, 255].
                    a[static_cast<std::size_t>(q * mr * 4 + i * 4 + d)] =
                        i == 0 ? 255
                               : static_cast<std::uint8_t>(
                                   rng.next_below(256));
                }
            }
            for (index_t j = 0; j < nr; ++j) {
                for (index_t d = 0; d < 4; ++d) {
                    // Column 0 is all -128, column 1 all 127; the rest
                    // span [-128, 127].
                    b[static_cast<std::size_t>(q * nr * 4 + j * 4 + d)] =
                        j == 0   ? static_cast<std::int8_t>(-128)
                        : j == 1 ? static_cast<std::int8_t>(127)
                                 : static_cast<std::int8_t>(
                                     static_cast<int>(rng.next_below(256))
                                     - 128);
                }
            }
        }
        std::vector<std::int64_t> want(static_cast<std::size_t>(mr * nr), 0);
        for (index_t i = 0; i < mr; ++i)
            for (index_t j = 0; j < nr; ++j)
                for (index_t q = 0; q < kq; ++q)
                    for (index_t d = 0; d < 4; ++d)
                        want[static_cast<std::size_t>(i * nr + j)] +=
                            static_cast<std::int64_t>(
                                a[static_cast<std::size_t>(q * mr * 4 + i * 4
                                                           + d)])
                            * b[static_cast<std::size_t>(q * nr * 4 + j * 4
                                                         + d)];
        EXPECT_EQ(want[0], -255LL * 128 * 4 * kq);
        EXPECT_EQ(want[1], 255LL * 127 * 4 * kq);

        for (const bool accumulate : {false, true}) {
            AlignedBuffer<std::int32_t> c(static_cast<std::size_t>(mr * nr));
            for (std::size_t e = 0; e < c.size(); ++e) {
                c[e] = static_cast<std::int32_t>(e) * 3 - 500;
            }
            k->fn(kq, a.data(), b.data(), c.data(), nr, accumulate);
            for (std::size_t e = 0; e < c.size(); ++e) {
                const std::int64_t base =
                    accumulate ? static_cast<std::int64_t>(e) * 3 - 500 : 0;
                ASSERT_EQ(static_cast<std::int64_t>(c[e]), want[e] + base)
                    << "kq=" << kq << " accumulate=" << accumulate
                    << " C(" << static_cast<index_t>(e) / nr << ","
                    << static_cast<index_t>(e) % nr << ")";
            }
        }
    }
}

// Shapes one below, at and one above the 8x48 tile and the k-quad, plus
// a wide and a deep one, through every public int8 entry: plain and
// prepacked, overwrite and accumulate, one worker and four.
TEST(Int8Gemm, TileEdgeGridExact)
{
    std::uint64_t seed = 1200;
    for (const index_t m : {1, 7, 8, 9, 33}) {
        for (const index_t n : {1, 47, 48, 49, 1000}) {
            for (const index_t k : {1, 3, 4, 5, 513}) {
                Rng rng(++seed);
                std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
                std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
                fill_random_u8(a, rng);
                fill_random_s8(b, rng);
                std::vector<std::int32_t> c0(
                    static_cast<std::size_t>(m * n));
                for (auto& x : c0) {
                    x = static_cast<std::int32_t>(rng.next_below(2001))
                        - 1000;
                }
                const auto oracle = int_oracle(a, b, m, n, k);
                for (const int p : {1, 4}) {
                    for (const bool accumulate : {false, true}) {
                        CakeOptions options;
                        options.p = p;
                        options.accumulate = accumulate;
                        CakeGemmInt8 gemm(test_pool(), options);
                        std::vector<std::int32_t> plain = c0;
                        std::vector<std::int32_t> prepacked = c0;
                        gemm.multiply(a.data(), k, b.data(), n, plain.data(),
                                      n, m, n, k);
                        const PackedBInt8 packed =
                            gemm.pack_weights(b.data(), n, k, n);
                        gemm.multiply_prepacked(a.data(), k, packed,
                                                prepacked.data(), n, m);
                        for (std::size_t i = 0; i < c0.size(); ++i) {
                            const std::int64_t want =
                                oracle[i] + (accumulate ? c0[i] : 0);
                            ASSERT_EQ(static_cast<std::int64_t>(plain[i]),
                                      want)
                                << m << "x" << n << "x" << k << " p=" << p
                                << " accumulate=" << accumulate
                                << " idx=" << i << " (plain)";
                            ASSERT_EQ(
                                static_cast<std::int64_t>(prepacked[i]),
                                want)
                                << m << "x" << n << "x" << k << " p=" << p
                                << " accumulate=" << accumulate
                                << " idx=" << i << " (prepacked)";
                        }
                    }
                }
            }
        }
    }
}

// Runnability is decided per kernel: a CPU with AVX-512BW but no VNNI
// (Skylake-X) must never be handed the vpdpbusd kernel, neither by
// default nor under a forced avx512 ISA.
TEST(Int8Dispatch, VnniKernelFilteredOutWithoutVnni)
{
    CpuFeatures bw_only;
    bw_only.avx2 = true;
    bw_only.avx512f = true;
    bw_only.avx512bw = true;
    for (const Int8MicroKernel& k : supported_int8_microkernels(bw_only)) {
        EXPECT_NE(std::string(k.name), "avx512vnni_int8_8x48");
    }
    EXPECT_EQ(std::string(choose_int8_microkernel(CpuFeatures{},
                                                  std::nullopt)
                              .name),
              "scalar_int8_4x4");
    EXPECT_THROW(choose_int8_microkernel(CpuFeatures{}, Isa::kAvx512),
                 Error);

    bool avx512_compiled = false;
    for (const Int8MicroKernel& k : all_int8_microkernels()) {
        avx512_compiled |= k.isa == Isa::kAvx512;
    }
    if (!avx512_compiled) GTEST_SKIP() << "no AVX-512 int8 kernels built";
    EXPECT_EQ(std::string(choose_int8_microkernel(bw_only, std::nullopt).name),
              "avx512_int8_4x32");
    EXPECT_EQ(std::string(choose_int8_microkernel(bw_only, Isa::kAvx512).name),
              "avx512_int8_4x32");
    CpuFeatures vnni = bw_only;
    vnni.avx512vnni = true;
    EXPECT_EQ(std::string(choose_int8_microkernel(vnni, std::nullopt).name),
              "avx512vnni_int8_8x48");
    EXPECT_EQ(std::string(choose_int8_microkernel(vnni, Isa::kAvx512).name),
              "avx512vnni_int8_8x48");
}

TEST(Int8Dispatch, HostWithVnniPicksVnniByDefaultAndWhenForced)
{
    if (runnable_int8_kernel("avx512vnni_int8_8x48") == nullptr) {
        GTEST_SKIP() << "VNNI int8 kernel cannot run here";
    }
    const std::string vnni = "avx512vnni_int8_8x48";
    EXPECT_EQ(std::string(supported_int8_microkernels().front().name), vnni);
    EXPECT_EQ(std::string(choose_int8_microkernel(cpu_features(),
                                                  std::nullopt)
                              .name),
              vnni);
    EXPECT_EQ(std::string(choose_int8_microkernel(cpu_features(),
                                                  Isa::kAvx512)
                              .name),
              vnni);
    if (std::getenv("CAKE_FORCE_ISA") == nullptr) {
        EXPECT_EQ(std::string(best_int8_microkernel().name), vnni);
    }
}

}  // namespace
}  // namespace cake
