// Quantized CAKE GEMM: C_s32 (+)= A_u8 * B_s8 through the same CB-block
// plan, phase lowering and team executor as the float driver — int8
// arithmetic quadruples the block's arithmetic intensity per byte, which
// is exactly the lever §3's analysis pulls (elem_bytes enters the solver).
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "core/cake_gemm.hpp"
#include "core/quant.hpp"

namespace cake {

/// Reusable quantized GEMM context: the int8 instantiation of the one CB
/// executor (core/cb_executor.hpp). Uses CakeOptions for p / mc / kc / nc /
/// alpha / schedule / exec / accumulate; op_* must be kNone, and isa follows
/// the int8 kernel family's own dispatch.
class CakeGemmInt8 {
public:
    CakeGemmInt8(ThreadPool& pool, CakeOptions options = {});

    /// C (+)= A * B with A u8 (m x k, lda), B s8 (k x n, ldb), C s32
    /// (m x n, ldc). Exact integer arithmetic when A values are <= 127
    /// (which quantize_unsigned guarantees).
    void multiply(const std::uint8_t* a, index_t lda, const std::int8_t* b,
                  index_t ldb, std::int32_t* c, index_t ldc, index_t m,
                  index_t n, index_t k);

    /// Pack s8 weights once for reuse across calls.
    PackedBInt8 pack_weights(const std::int8_t* b, index_t ldb, index_t k,
                             index_t n);

    /// multiply() with pre-packed weights (no per-call B pack).
    void multiply_prepacked(const std::uint8_t* a, index_t lda,
                            const PackedBInt8& b, std::int32_t* c,
                            index_t ldc, index_t m);

    [[nodiscard]] const CakeStats& stats() const { return stats_; }

private:
    [[nodiscard]] CbBlockParams block_params(const Int8MicroKernel& kernel)
        const;

    void multiply_impl(const std::uint8_t* a, index_t lda,
                       const std::int8_t* b, index_t ldb, std::int32_t* c,
                       index_t ldc, index_t m, index_t n, index_t k,
                       const PackedBInt8* prepacked);

    ThreadPool& pool_;
    CakeOptions options_;
    MachineSpec machine_;
    CakeStats stats_;

    CbWorkspace<std::int8_t> ws_;
};

/// One-shot raw-pointer wrapper (BLAS-style gemm_s8u8s32).
void cake_gemm_s8u8s32(const std::uint8_t* a, const std::int8_t* b,
                       std::int32_t* c, index_t m, index_t n, index_t k,
                       ThreadPool& pool, const CakeOptions& options = {},
                       CakeStats* stats = nullptr);

/// End-to-end quantized multiply of float matrices: quantize A (unsigned
/// affine) and B (signed symmetric), run the integer GEMM, dequantize with
/// the zero-point correction. Returns the approximate float product; the
/// error vs the exact product is bounded by the quantization steps.
Matrix cake_qgemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                  const CakeOptions& options = {});

}  // namespace cake
