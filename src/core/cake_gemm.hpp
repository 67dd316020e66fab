// The CAKE GEMM driver: a drop-in matrix-multiply whose blocking and
// scheduling come straight from the CB-block theory (no design-space
// search). Supports float (sgemm) and double (dgemm) elements, transposed
// operands, and the full BLAS epilogue C = alpha*op(A)*op(B) + beta*C.
//
// Execution per CB block (paper Fig. 6):
//   * the block's A surface is packed and split into p square mc x kc
//     sub-blocks, one per worker ("core"), standing in for L2 residency;
//   * the B surface is packed once and streamed by every worker;
//   * the partial-result C surface lives in a local accumulation buffer
//     (standing in for L3 residency) until its K reduction completes —
//     partial results never travel to external memory;
//   * blocks execute in the K-first serpentine order of Algorithm 2, so
//     consecutive blocks always share a surface and the shared surface is
//     never re-packed (surface sharing made literal: the pack step is
//     skipped when the block coordinate component is unchanged).
#pragma once

#include <cstdint>
#include <optional>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "core/cb_executor.hpp"
#include "core/plan_source.hpp"
#include "core/prepacked.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"

namespace cake {

/// Operand transform, BLAS-style.
enum class Op {
    kNone,       ///< use the operand as stored
    kTranspose,  ///< use its transpose
};

/// Tuning and behaviour knobs. Defaults reproduce the paper's analytically
/// derived configuration; overrides exist for the ablation benches.
struct CakeOptions {
    int p = 0;  ///< worker count; 0 = use the whole pool
    std::optional<double> alpha;   ///< override the solver's CB alpha
    std::optional<index_t> mc;     ///< override mc; multiple of mr
    std::optional<index_t> kc;     ///< override kc independently of mc
    std::optional<index_t> nc;     ///< override the CB-block N extent
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    std::optional<MachineSpec> machine;  ///< default: host_machine()
    bool accumulate = false;  ///< false: C = A*B; true: C += A*B
    std::optional<Isa> isa;   ///< force micro-kernel ISA
    Op op_a = Op::kNone;      ///< A is stored transposed (K x M)
    Op op_b = Op::kNone;      ///< B is stored transposed (N x K)
    CakeExec exec = CakeExec::kAuto;  ///< block-loop executor
    /// Plan oracle consulted per multiply before the analytic solver
    /// (typically tune::CachedPlanSource over the persisted tuning cache).
    /// Its overrides apply only to knobs left at their defaults above —
    /// explicit user settings always win. Not owned; must outlive the
    /// context. nullptr = pure analytic planning.
    const TunedPlanSource* plan_source = nullptr;
};

/// The solver overrides `options` carries, sizing elements at `elem_bytes`.
TilingOptions tiling_options(const CakeOptions& options, index_t elem_bytes);

/// Measured + modelled execution statistics of one multiply.
struct CakeStats {
    CbBlockParams params;
    index_t grid_mb = 0, grid_nb = 0, grid_kb = 0;
    index_t blocks_executed = 0;
    index_t a_packs = 0;  ///< A surfaces actually fetched (reuse skips these)
    index_t b_packs = 0;
    /// Modelled C write-backs: one per column visit (§4.3; 1 per (m, n)
    /// under K-first schedules). The tile epilogue writes user C itself,
    /// so this counts the model's DRAM write-backs, not a copy pass.
    index_t c_flushes = 0;
    index_t c_partial_spills = 0;  ///< write-backs of *incomplete* columns
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;

    // Wall-clock phase attribution. The four components decompose the
    // block-loop wall time of one (average) core, so
    //   pack + compute + flush + stall ~= total_seconds.
    // At both lookaheads each is aggregate per-worker busy time divided by
    // p (phases may overlap, and summing phase timers around overlapped
    // sections would double-count wall time); stall is the team's wall
    // time not covered by that busy time (barrier waits, idle, dispatch).
    double pack_seconds = 0;     ///< A/B panel packing (DRAM fetch)
    double compute_seconds = 0;  ///< micro-kernel macro-loop
    /// Always 0 on CAKE paths: C write-back happens inside compute.
    double flush_seconds = 0;
    double stall_seconds = 0;    ///< barrier waits / idle / dispatch cost
    double total_seconds = 0;

    /// Fraction of packing time the pipeline co-issued with block compute
    /// (packing of block i+1 claimed from the same work queue as block i's
    /// compute items), i.e. the share of the paper's Fig. 7 IO cost taken
    /// off the critical path — it overlaps with compute whenever spare
    /// hardware threads exist. The pipeline-fill pack of the first block
    /// is always exposed. 0 at lookahead 0 (CakeExec::kSerial), where no
    /// phase holds both pack and compute items.
    double overlap_efficiency = 0;
    bool pipelined = false;  ///< the block loop ran at lookahead 1
    /// True when a TunedPlanSource supplied at least one override that
    /// this multiply actually applied (i.e. the plan deviates from the
    /// pure analytic §4.3 configuration because of the tuning cache).
    bool tuned = false;

    /// Achieved throughput for `shape` in GFLOP/s.
    [[nodiscard]] double gflops(const GemmShape& shape) const
    {
        return total_seconds > 0 ? shape.flops() / total_seconds / 1e9 : 0.0;
    }

    /// Average external-memory bandwidth over the run, GB/s.
    [[nodiscard]] double avg_dram_bw_gbs() const
    {
        const double bytes =
            static_cast<double>(dram_read_bytes + dram_write_bytes);
        return total_seconds > 0 ? bytes / total_seconds / 1e9 : 0.0;
    }
};

/// Reusable GEMM context: owns the packed-panel and accumulation buffers
/// so repeated multiplies (e.g. DNN inference layers) do not reallocate.
/// Instantiated for float (CakeGemm) and double (CakeGemmD).
template <typename T>
class CakeGemmT {
public:
    CakeGemmT(ThreadPool& pool, CakeOptions options = {});

    /// C (+)= op(A) * op(B) for row-major operands with explicit leading
    /// dims. With op_a == kTranspose, A is stored k x m (lda >= m); with
    /// op_b == kTranspose, B is stored n x k (ldb >= k).
    /// Accumulate semantics come from options().accumulate.
    void multiply(const T* a, index_t lda, const T* b, index_t ldb, T* c,
                  index_t ldc, index_t m, index_t n, index_t k);

    /// Full BLAS epilogue: C = alpha * op(A)*op(B) + beta * C.
    /// beta == 0 never reads C (it may hold garbage/NaN).
    void multiply_scaled(const T* a, index_t lda, const T* b, index_t ldb,
                         T* c, index_t ldc, index_t m, index_t n, index_t k,
                         T alpha, T beta);

    /// Pack a k x n B operand (weights) once into CB-block panel format
    /// for reuse across many multiplies — skips the per-call B pack
    /// entirely. Honours options().op_b at pack time (so a transposed
    /// weight matrix may be supplied); the returned PackedB is tied to
    /// this context's geometry.
    PackedB<T> pack_weights(const T* b, index_t ldb, index_t k, index_t n);

    /// C (+)= op(A) * B using pre-packed weights; semantics otherwise
    /// identical to multiply(). Throws if `b` was packed under different
    /// CB geometry (other p / mc / alpha / kernel / machine).
    void multiply_prepacked(const T* a, index_t lda, const PackedB<T>& b,
                            T* c, index_t ldc, index_t m);

    /// Stats of the most recent multiply().
    [[nodiscard]] const CakeStats& stats() const { return stats_; }

    [[nodiscard]] const CakeOptions& options() const { return options_; }

private:
    void multiply_impl(const T* a, index_t lda, const T* b, index_t ldb,
                       T* c, index_t ldc, index_t m, index_t n, index_t k,
                       T alpha_s, T beta_s, const PackedB<T>* prepacked);

    ThreadPool& pool_;
    CakeOptions options_;
    bool p_explicit_ = false;  ///< user set options.p (cache must not override)
    MachineSpec machine_;
    MicroKernelT<T> kernel_;
    CakeStats stats_;

    CbWorkspace<T> ws_;  ///< packed panels, local C, scratch tiles
};

using CakeGemm = CakeGemmT<float>;
using CakeGemmD = CakeGemmT<double>;

extern template class CakeGemmT<float>;
extern template class CakeGemmT<double>;

/// One-shot convenience wrappers.
void cake_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options = {}, CakeStats* stats = nullptr);
void cake_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options = {}, CakeStats* stats = nullptr);

/// Matrix-object convenience wrappers; return C = A * B.
Matrix cake_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const CakeOptions& options = {}, CakeStats* stats = nullptr);
MatrixD cake_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const CakeOptions& options = {},
                  CakeStats* stats = nullptr);

}  // namespace cake
