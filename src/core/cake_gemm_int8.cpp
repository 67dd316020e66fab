#include "core/cake_gemm_int8.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace cake {

CakeGemmInt8::CakeGemmInt8(ThreadPool& pool, CakeOptions options)
    : pool_(pool), options_(std::move(options)),
      machine_(options_.machine ? *options_.machine : host_machine())
{
    if (options_.p <= 0 || options_.p > pool_.size())
        options_.p = pool_.size();
    CAKE_CHECK_MSG(options_.op_a == Op::kNone && options_.op_b == Op::kNone,
                   "transposed operands not supported on the int8 path");
}

void CakeGemmInt8::multiply(const std::uint8_t* a, index_t lda,
                            const std::int8_t* b, index_t ldb,
                            std::int32_t* c, index_t ldc, index_t m,
                            index_t n, index_t k)
{
    multiply_impl(a, lda, b, ldb, c, ldc, m, n, k, nullptr);
}

CbBlockParams CakeGemmInt8::block_params(const Int8MicroKernel& kernel) const
{
    // The solver assumes one element size; the s32 partial-result surface
    // dominates the LLC budget, so size as if every operand were 4 bytes
    // (inputs are actually 1 byte, giving the real run extra headroom).
    return compute_cb_block(machine_, options_.p, kernel.mr, kernel.nr,
                            tiling_options(options_, sizeof(std::int32_t)));
}

PackedBInt8 CakeGemmInt8::pack_weights(const std::int8_t* b, index_t ldb,
                                       index_t k, index_t n)
{
    CAKE_CHECK(k >= 1 && n >= 1 && ldb >= n);
    const Int8MicroKernel& kernel = best_int8_microkernel();
    return CbExecutor<std::int8_t>::pack_weights(
        pool_, block_params(kernel), kernel.nr, b, ldb, k, n,
        /*tb=*/false);
}

void CakeGemmInt8::multiply_prepacked(const std::uint8_t* a, index_t lda,
                                      const PackedBInt8& b, std::int32_t* c,
                                      index_t ldc, index_t m)
{
    CAKE_CHECK_MSG(!b.empty(), "PackedBInt8 is empty");
    multiply_impl(a, lda, nullptr, b.n(), c, ldc, m, b.n(), b.k(), &b);
}

void CakeGemmInt8::multiply_impl(const std::uint8_t* a, index_t lda,
                                 const std::int8_t* b, index_t ldb,
                                 std::int32_t* c, index_t ldc, index_t m,
                                 index_t n, index_t k,
                                 const PackedBInt8* prepacked)
{
    CAKE_CHECK(m >= 0 && n >= 0 && k >= 0);
    CAKE_CHECK(lda >= k && ldc >= n);
    if (prepacked == nullptr) CAKE_CHECK(ldb >= n);
    if (m == 0 || n == 0) return;
    if (k == 0) {
        if (!options_.accumulate) {
            for (index_t i = 0; i < m; ++i)
                std::fill(c + i * ldc, c + i * ldc + n, 0);
        }
        return;
    }

    Timer total_timer;
    const Int8MicroKernel& kernel = best_int8_microkernel();
    const CbBlockParams params = block_params(kernel);
    if (prepacked != nullptr) {
        CAKE_CHECK_MSG(prepacked->params() == params,
                       "PackedBInt8 geometry does not match this context");
    }

    stats_ = CakeStats{};
    const CbCall<std::int8_t> call{
        .a = a, .lda = lda, .b = b, .ldb = ldb, .c = c, .ldc = ldc,
        .m = m, .n = n, .k = k, .beta = options_.accumulate ? 1 : 0,
        .prepacked = prepacked, .params = params, .kernel = kernel,
        .schedule = options_.schedule,
        .lookahead = cb_lookahead(options_.exec)};
    CbExecutor<std::int8_t>::run(pool_, call, ws_, stats_, total_timer);
}

void cake_gemm_s8u8s32(const std::uint8_t* a, const std::int8_t* b,
                       std::int32_t* c, index_t m, index_t n, index_t k,
                       ThreadPool& pool, const CakeOptions& options,
                       CakeStats* stats)
{
    CakeGemmInt8 gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix cake_qgemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                  const CakeOptions& options)
{
    CAKE_CHECK(a.cols() == b.rows());
    const index_t m = a.rows();
    const index_t k = a.cols();
    const index_t n = b.cols();

    AlignedBuffer<std::uint8_t> aq(static_cast<std::size_t>(m * k));
    AlignedBuffer<std::int8_t> bq(static_cast<std::size_t>(k * n));
    const QuantParams pa = quantize_unsigned(a.data(), m * k, aq.data());
    const QuantParams pb = quantize_signed(b.data(), k * n, bq.data());

    AlignedBuffer<std::int32_t> acc(static_cast<std::size_t>(m * n), true);
    cake_gemm_s8u8s32(aq.data(), bq.data(), acc.data(), m, n, k, pool,
                      options);

    std::vector<std::int64_t> colsums(static_cast<std::size_t>(n));
    int8_column_sums(bq.data(), n, k, n, colsums.data());

    Matrix out(m, n, /*zero=*/false);
    dequantize_gemm(acc.data(), n, m, n, pa, pb, colsums.data(), out.data(),
                    n);
    return out;
}

}  // namespace cake
