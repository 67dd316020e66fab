#include "core/cake_gemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace cake {

TilingOptions tiling_options(const CakeOptions& options, index_t elem_bytes)
{
    TilingOptions topts;
    topts.mc = options.mc;
    topts.kc = options.kc;
    topts.nc = options.nc;
    topts.alpha = options.alpha;
    topts.elem_bytes = elem_bytes;
    return topts;
}

template <typename T>
CakeGemmT<T>::CakeGemmT(ThreadPool& pool, CakeOptions options)
    : pool_(pool), options_(std::move(options)),
      p_explicit_(options_.p > 0),
      machine_(options_.machine ? *options_.machine : host_machine()),
      kernel_(options_.isa ? microkernel_for_of<T>(*options_.isa)
                           : best_microkernel_of<T>())
{
    if (options_.p <= 0 || options_.p > pool_.size())
        options_.p = pool_.size();
}

template <typename T>
void CakeGemmT<T>::multiply(const T* a, index_t lda, const T* b, index_t ldb,
                            T* c, index_t ldc, index_t m, index_t n,
                            index_t k)
{
    multiply_scaled(a, lda, b, ldb, c, ldc, m, n, k, T(1),
                    options_.accumulate ? T(1) : T(0));
}

template <typename T>
void CakeGemmT<T>::multiply_scaled(const T* a, index_t lda, const T* b,
                                   index_t ldb, T* c, index_t ldc, index_t m,
                                   index_t n, index_t k, T alpha_s, T beta_s)
{
    multiply_impl(a, lda, b, ldb, c, ldc, m, n, k, alpha_s, beta_s, nullptr);
}

template <typename T>
PackedB<T> CakeGemmT<T>::pack_weights(const T* b, index_t ldb, index_t k,
                                      index_t n)
{
    CAKE_CHECK(k >= 1 && n >= 1);
    const bool tb = options_.op_b == Op::kTranspose;
    CAKE_CHECK_MSG(ldb >= (tb ? k : n), "ldb too small for op(B)");
    const CbBlockParams params =
        compute_cb_block(machine_, options_.p, kernel_.mr, kernel_.nr,
                         tiling_options(options_, sizeof(T)));
    return CbExecutor<T>::pack_weights(pool_, params, kernel_.nr, b, ldb, k,
                                       n, tb);
}

template <typename T>
void CakeGemmT<T>::multiply_prepacked(const T* a, index_t lda,
                                      const PackedB<T>& b, T* c, index_t ldc,
                                      index_t m)
{
    CAKE_CHECK_MSG(!b.empty(), "PackedB is empty");
    multiply_impl(a, lda, nullptr, b.n(), c, ldc, m, b.n(), b.k(), T(1),
                  options_.accumulate ? T(1) : T(0), &b);
}

template <typename T>
void CakeGemmT<T>::multiply_impl(const T* a, index_t lda, const T* b,
                                 index_t ldb, T* c, index_t ldc, index_t m,
                                 index_t n, index_t k, T alpha_s, T beta_s,
                                 const PackedB<T>* prepacked)
{
    CAKE_CHECK(m >= 0 && n >= 0 && k >= 0);
    const bool ta = options_.op_a == Op::kTranspose;
    const bool tb = options_.op_b == Op::kTranspose;
    CAKE_CHECK_MSG(lda >= (ta ? m : k), "lda too small for op(A)");
    if (prepacked == nullptr) {
        CAKE_CHECK_MSG(ldb >= (tb ? k : n), "ldb too small for op(B)");
    }
    CAKE_CHECK(ldc >= n);
    if (m == 0 || n == 0) return;
    if (k == 0 || alpha_s == T(0)) {
        // Degenerate product contributes nothing: apply the beta epilogue.
        for (index_t i = 0; i < m; ++i) {
            T* row = c + i * ldc;
            if (beta_s == T(0)) std::fill(row, row + n, T(0));
            else if (beta_s != T(1))
                for (index_t j = 0; j < n; ++j) row[j] *= beta_s;
        }
        return;
    }

    Timer total_timer;
    stats_ = CakeStats{};

    int p = options_.p;
    TilingOptions topts = tiling_options(options_, sizeof(T));
    ScheduleKind schedule = options_.schedule;
    CakeExec exec = options_.exec;

    // Consult the plan oracle (typically the persisted tuning cache) before
    // the analytic solver. A tuned override applies only where the caller
    // left the knob at its default — explicit user settings always win —
    // and never on the prepacked-weights path, whose geometry was fixed at
    // pack_weights() time. Whatever survives still flows through the same
    // compute_cb_block validation as an analytic plan.
    if (options_.plan_source != nullptr && prepacked == nullptr) {
        PlanRequest req;
        req.m = m;
        req.n = n;
        req.k = k;
        req.elem_bytes = sizeof(T);
        req.p = p;
        if (const auto tuned = options_.plan_source->lookup(req)) {
            auto take = [&](auto& knob, const auto& src) {
                if (!knob && src) {
                    knob = *src;
                    stats_.tuned = true;
                }
            };
            take(topts.mc, tuned->mc);
            take(topts.kc, tuned->kc);
            // alpha and nc are mutually exclusive at the solver: whichever
            // the user pinned suppresses the tuned value of the other.
            if (!topts.alpha) take(topts.nc, tuned->nc);
            if (!topts.nc) take(topts.alpha, tuned->alpha);
            if (!p_explicit_ && tuned->p && *tuned->p >= 1
                && *tuned->p <= pool_.size() && *tuned->p != p) {
                p = *tuned->p;
                stats_.tuned = true;
            }
            if (schedule == ScheduleKind::kKFirstSerpentine && tuned->schedule
                && *tuned->schedule != schedule) {
                schedule = *tuned->schedule;
                stats_.tuned = true;
            }
            if (exec == CakeExec::kAuto && tuned->exec
                && *tuned->exec != CakeExec::kAuto) {
                exec = *tuned->exec;
                stats_.tuned = true;
            }
            if (!options_.isa && tuned->isa && isa_supported(*tuned->isa)
                && *tuned->isa != kernel_.isa) {
                kernel_ = microkernel_for_of<T>(*tuned->isa);
                stats_.tuned = true;
            }
        } else if (!options_.isa && kernel_.isa != best_microkernel_of<T>().isa) {
            // A previous multiply's tuned ISA must not leak into a shape
            // the oracle has no opinion about.
            kernel_ = best_microkernel_of<T>();
        }
    }

    const CbBlockParams params =
        compute_cb_block(machine_, p, kernel_.mr, kernel_.nr, topts);
    if (prepacked != nullptr) {
        CAKE_CHECK_MSG(prepacked->params() == params,
                       "PackedB geometry does not match this context");
    }

    const CbCall<T> call{
        .a = a, .lda = lda, .b = b, .ldb = ldb, .c = c, .ldc = ldc,
        .m = m, .n = n, .k = k, .alpha = alpha_s, .beta = beta_s,
        .prepacked = prepacked, .ta = ta, .tb = tb, .params = params,
        .kernel = kernel_, .schedule = schedule,
        .lookahead = cb_lookahead(exec)};
    CbExecutor<T>::run(pool_, call, ws_, stats_, total_timer);
}

template class CakeGemmT<float>;
template class CakeGemmT<double>;

void cake_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options, CakeStats* stats)
{
    CakeGemm gemm(pool, options);
    gemm.multiply(a, options.op_a == Op::kTranspose ? m : k, b,
                  options.op_b == Op::kTranspose ? k : n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

void cake_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options, CakeStats* stats)
{
    CakeGemmD gemm(pool, options);
    gemm.multiply(a, options.op_a == Op::kTranspose ? m : k, b,
                  options.op_b == Op::kTranspose ? k : n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix cake_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const CakeOptions& options, CakeStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    cake_sgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

MatrixD cake_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const CakeOptions& options, CakeStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    MatrixD c(a.rows(), b.cols());
    cake_dgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

}  // namespace cake
