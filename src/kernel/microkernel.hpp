// Micro-kernel contract: the register-tiled rank-kc update at the bottom of
// both the CAKE and GOTO schedulers (paper Figs 5e / 6e).
//
// A micro-kernel computes C(mr x nr) (+)= A_panel * B_panel where:
//   * A_panel is packed column-major by k-step: a[p*mr + i] = A(i, p)
//   * B_panel is packed row-major by k-step:    b[p*nr + j] = B(p, j)
//   * C is an mr x nr tile inside a row-major matrix with leading dim ldc.
//
// Full tiles hit the SIMD kernels directly on C; partial edge tiles, and
// any alpha/beta epilogue the kernels cannot express, are computed into an
// aligned scratch tile first (see run_microkernel_tile). Kernels exist for
// float (sgemm) and double (dgemm) at every ISA level.
#pragma once

#include "common/checked.hpp"
#include "common/types.hpp"
#include "kernel/cpu_features.hpp"

namespace cake {

/// Function signature shared by all micro-kernels of element type T.
/// `accumulate == false` overwrites C; `true` adds into C.
template <typename T>
using MicroKernelFnT = void (*)(index_t kc, const T* a, const T* b, T* c,
                                index_t ldc, bool accumulate);

/// A registered micro-kernel variant with its register-tile dimensions.
template <typename T>
struct MicroKernelT {
    const char* name = "";
    Isa isa = Isa::kScalar;
    index_t mr = 0;  ///< register-tile rows (paper's m_r)
    index_t nr = 0;  ///< register-tile cols (paper's n_r)
    MicroKernelFnT<T> fn = nullptr;
};

using MicroKernel = MicroKernelT<float>;
using MicroKernelD = MicroKernelT<double>;

/// Scalar reference kernels (always available).
MicroKernel scalar_microkernel();
MicroKernelD scalar_microkernel_f64();

#if defined(CAKE_HAVE_AVX2_KERNEL)
/// 6x16 (float) and 6x8 (double) AVX2+FMA kernels.
MicroKernel avx2_microkernel();
MicroKernelD avx2_microkernel_f64();
#endif

#if defined(CAKE_HAVE_AVX512_KERNEL)
/// 14x32 (float) and 14x16 (double) AVX-512F kernels.
MicroKernel avx512_microkernel();
MicroKernelD avx512_microkernel_f64();
#endif

/// Run a (possibly partial) m x n tile, m <= mr, n <= nr, with depth `kc`,
/// storing c = alpha * (A_panel * B_panel) + beta * c. Full tiles with
/// alpha == 1 and beta in {0, 1} call the kernel on C directly; every other
/// tile is computed into `scratch` and combined from there. beta == 0
/// never reads C, so C may hold garbage or NaN. `scratch` must hold at
/// least mr*nr elements, 64-byte aligned.
template <typename T>
void run_microkernel_tile(const MicroKernelT<T>& k, index_t kc, const T* a,
                          const T* b, T* c, index_t ldc, index_t m, index_t n,
                          T alpha, T beta, T* scratch)
{
#if CAKE_CHECKED_ENABLED
    // Kernel dispatch boundary: validate the operand contract the SIMD
    // kernels silently rely on before handing them raw pointers. The
    // packed a/b slivers only guarantee element alignment (slivers start
    // at mr*kc / nr*kc element offsets); the scratch tile must carry full
    // vector-store alignment because edge tiles are computed there with
    // aligned stores.
    if (m > 0 && n > 0) {
        if (a == nullptr || b == nullptr) {
            checked::fail("null-operand", "micro-kernel a/b panel is null");
        }
        require_aligned(a, alignof(T), "micro-kernel packed-A sliver");
        require_aligned(b, alignof(T), "micro-kernel packed-B sliver");
        require_aligned(scratch, kPanelAlignment,
                        "micro-kernel scratch tile");
        // The C tile is an m x n window of a row-major buffer with leading
        // dimension ldc; TileView traps on inconsistent geometry
        // (ld < cols, null base, misaligned base).
        (void)TileView<T>(c, m, n, ldc, alignof(T), "micro-kernel C tile");
        if (kc <= 0) {
            checked::fail("bad-tile", "micro-kernel kc must be positive");
        }
    }
#endif
    if (m == k.mr && n == k.nr && alpha == T(1)
        && (beta == T(0) || beta == T(1))) {
        k.fn(kc, a, b, c, ldc, /*accumulate=*/beta != T(0));
        return;
    }
    // Compute the full mr x nr tile into scratch (packed panels are
    // zero-padded, so an edge tile's extra rows/cols are zero), then
    // combine the live m x n region into C.
    k.fn(kc, a, b, scratch, k.nr, /*accumulate=*/false);
    if (beta == T(0)) {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] = alpha * scratch[i * k.nr + j];
    } else {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] =
                    alpha * scratch[i * k.nr + j] + beta * c[i * ldc + j];
    }
}

}  // namespace cake
