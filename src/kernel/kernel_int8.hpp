// Quantized (u8 x s8 -> s32) micro-kernels for DNN inference — the
// deployment format of the CNN workloads the paper's introduction
// motivates. Follows the x86 integer dot-product idiom: the reduction
// dimension is processed in groups of four (one int32 lane of vpdpbusd,
// or of the vpmaddubsw / vpmaddwd pair where VNNI is absent).
//
// Packed layouts (kq = round_up(kc, 4) / 4 k-quads):
//   A (uint8): a[q*mr*4 + i*4 + j] = A(i, 4q + j), zero-padded in k and m.
//   B (int8):  b[q*nr*4 + jj*4 + j] = B(4q + j, jj), zero-padded.
// C is int32, row-major with leading dimension ldc.
//
// Range note: the AVX2 and AVX-512BW kernels use vpmaddubsw, whose int16
// pair sums saturate; they are exact whenever every A value is <= 127
// (guaranteed by cake::quantize_unsigned, which maps into [0,127]). The
// scalar and AVX-512-VNNI kernels are exact over the full u8 range, but
// the public A range stays [0, 127]: a host without VNNI dispatches a
// saturating kernel, and results must not depend on the host.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "kernel/cpu_features.hpp"

namespace cake {

/// Kernel contract: C(mr x nr) (+)= A_panel * B_panel over kq k-quads.
using Int8KernelFn = void (*)(index_t kq, const std::uint8_t* a,
                              const std::int8_t* b, std::int32_t* c,
                              index_t ldc, bool accumulate);

struct Int8MicroKernel {
    const char* name = "";
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    Int8KernelFn fn = nullptr;
    /// The CPU feature the kernel's instructions need; nullptr = portable.
    bool CpuFeatures::*needs = nullptr;
};

Int8MicroKernel scalar_int8_microkernel();
#if defined(CAKE_HAVE_AVX2_KERNEL)
Int8MicroKernel avx2_int8_microkernel();  ///< 4x16, needs AVX2
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
Int8MicroKernel avx512_int8_microkernel();  ///< 4x32, needs AVX-512BW
Int8MicroKernel avx512vnni_int8_microkernel();  ///< 8x48, needs AVX-512-VNNI
#endif

/// All int8 kernels compiled into this binary (regardless of CPU
/// support), scalar first and in rising order of preference — the int8
/// mirror of all_microkernels_of<T>().
const std::vector<Int8MicroKernel>& all_int8_microkernels();

/// True if `features` include everything kernel `k` executes — the one
/// runnability predicate for dispatch, the selftest and kernelcheck.
bool int8_kernel_supported(const Int8MicroKernel& k,
                           const CpuFeatures& features = cpu_features());

/// Int8 kernels runnable with `features`, most preferred first (the
/// registry order reversed, so widest ISA first).
std::vector<Int8MicroKernel> supported_int8_microkernels(
    const CpuFeatures& features = cpu_features());

/// The dispatch rule: the most preferred kernel runnable with `features`,
/// or, when `forced` names an ISA, the most preferred runnable kernel of
/// that ISA (throws if none is compiled or none can run).
Int8MicroKernel choose_int8_microkernel(const CpuFeatures& features,
                                        std::optional<Isa> forced);

/// Best int8 kernel runnable on this CPU (honours CAKE_FORCE_ISA).
const Int8MicroKernel& best_int8_microkernel();

/// Run a (possibly partial) m x n tile through `k`; edges go via scratch
/// (mr*nr int32, 64-byte aligned).
void run_int8_tile(const Int8MicroKernel& k, index_t kq,
                   const std::uint8_t* a, const std::int8_t* b,
                   std::int32_t* c, index_t ldc, index_t m, index_t n,
                   bool accumulate, std::int32_t* scratch);

}  // namespace cake
