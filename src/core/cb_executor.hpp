// The one CB-block executor. Every CAKE multiply — f32, f64 and the
// quantized u8 x s8 -> s32 path, with or without pre-packed weights —
// builds its BlockPlan, lowers it into a phase list (core/block_plan.hpp)
// and hands that list to a single team interpreter. Element types enter
// only through a per-dtype traits table (kernel, packing, packed-k stride,
// tile epilogue), in the spirit of per-dtype backend dispatch tables. The
// tile epilogue is the only writer of user C: there is no local C surface.
//
// The only ablation knob is the lookahead: 1 packs block t+1 while block t
// computes (double-buffered panels), 0 is the overlap-off baseline
// (CakeExec::kSerial).
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/plan_source.hpp"
#include "core/prepacked.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/microkernel.hpp"
#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

namespace cake {

class ThreadPool;
struct CakeStats;

/// Per-dtype backend of the CB executor, keyed by the B element type.
/// float / double: A = B = C = T, kernels from kernel/registry.hpp.
template <typename T>
struct CbTraits {
    using A = T;
    using B = T;
    using C = T;  ///< accumulator and user-C element
    using Kernel = MicroKernelT<T>;
    static constexpr auto pack_a = &pack_a_panel<T>;
    static constexpr auto pack_a_transposed = &pack_a_panel_transposed<T>;
    static constexpr auto pack_b = &pack_b_panel<T>;
    static constexpr auto pack_b_transposed = &pack_b_panel_transposed<T>;

    /// Packed elements per sliver row for a block of reduction depth ki.
    static index_t packed_k(index_t ki) { return ki; }
    /// One m x n tile of user C: c = alpha * (A * B) + beta * c.
    static void tile(const Kernel& kernel, index_t ki, const A* a,
                     const B* b, C* c, index_t ldc, index_t m, index_t n,
                     C alpha, C beta, C* scratch)
    {
        run_microkernel_tile(kernel, ki, a, b, c, ldc, m, n, alpha, beta,
                             scratch);
    }
};

/// Quantized backend: A u8, B s8, s32 accumulation, k grouped in quads
/// (kernel/kernel_int8.hpp). No alpha, and beta is 0 (overwrite) or 1
/// (accumulate).
template <>
struct CbTraits<std::int8_t> {
    using A = std::uint8_t;
    using B = std::int8_t;
    using C = std::int32_t;
    using Kernel = Int8MicroKernel;
    static constexpr auto pack_a = &pack_a_panel_int8;
    static constexpr auto pack_b = &pack_b_panel_int8;
    // Unreachable: CakeGemmInt8 rejects transposed operands.
    static void pack_a_transposed(const A*, index_t, index_t, index_t,
                                  index_t, A*)
    {
        throw Error("transposed operands not supported on the int8 path");
    }
    static void pack_b_transposed(const B*, index_t, index_t, index_t,
                                  index_t, B*)
    {
        throw Error("transposed operands not supported on the int8 path");
    }

    static index_t packed_k(index_t ki) { return int8_kq(ki) * 4; }
    static void tile(const Kernel& kernel, index_t ki, const A* a,
                     const B* b, C* c, index_t ldc, index_t m, index_t n,
                     C /*alpha*/, C beta, C* scratch)
    {
        run_int8_tile(kernel, int8_kq(ki), a, b, c, ldc, m, n,
                      /*accumulate=*/beta != 0, scratch);
    }
};

/// One multiply's resolved arguments.
template <typename T>
struct CbCall {
    using Tr = CbTraits<T>;
    const typename Tr::A* a = nullptr;
    index_t lda = 0;
    const typename Tr::B* b = nullptr;
    index_t ldb = 0;
    typename Tr::C* c = nullptr;
    index_t ldc = 0;
    index_t m = 0, n = 0, k = 0;
    typename Tr::C alpha = 1, beta = 0;
    const PackedB<T>* prepacked = nullptr;
    bool ta = false, tb = false;
    CbBlockParams params;
    typename Tr::Kernel kernel;
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    int lookahead = 1;  ///< 1: pack block t+1 during block t; 0: no overlap
};

/// Buffers a GEMM context keeps across multiplies: double-buffered packed
/// panels and per-worker kernel scratch tiles.
template <typename T>
struct CbWorkspace {
    AlignedBuffer<typename CbTraits<T>::A> pack_a[2];
    AlignedBuffer<typename CbTraits<T>::B> pack_b[2];
    std::vector<AlignedBuffer<typename CbTraits<T>::C>> scratch;
};

/// Stored extent of one user operand: `rows` x `cols` elements of
/// `elem_bytes` bytes, row-major with leading dimension `ld`.
struct OperandExtent {
    const void* data = nullptr;
    index_t rows = 0, cols = 0, ld = 0;
    index_t elem_bytes = 1;
};

/// Contract checks every CAKE entry point makes before any work starts;
/// each violation raises cake::Error. User C is written while A and B are
/// still being packed, so a non-empty C must be non-null, no element of C
/// may share a byte with an element of a non-empty A or B (side-by-side
/// windows of one matrix are fine), and (rows-1)*ld + cols must fit
/// index_t for every operand. Pass an empty extent for an operand that
/// does not take part (B on the pre-packed path, A and B when k == 0).
void check_user_operands(const OperandExtent& a, const OperandExtent& b,
                         const OperandExtent& c);

/// Lookahead depth an executor selection runs at.
constexpr int cb_lookahead(CakeExec exec)
{
    return exec == CakeExec::kSerial ? 0 : 1;
}

/// The executor, instantiated for float, double and std::int8_t.
template <typename T>
struct CbExecutor {
    /// Plan, lower and run one multiply on `pool` with params.p workers.
    /// Fills every CakeStats field but `tuned`; `total` is the caller's
    /// stopwatch for total_seconds.
    static void run(ThreadPool& pool, const CbCall<T>& call,
                    CbWorkspace<T>& ws, CakeStats& stats, const Timer& total);

    /// Pack a k x n B operand (n x k when `tb`) once into per-CB-block
    /// panels for `params` and register tile width `nr`.
    static PackedB<T> pack_weights(ThreadPool& pool,
                                   const CbBlockParams& params, index_t nr,
                                   const T* b, index_t ldb, index_t k,
                                   index_t n, bool tb);
};

extern template struct CbExecutor<float>;
extern template struct CbExecutor<double>;
extern template struct CbExecutor<std::int8_t>;

}  // namespace cake
