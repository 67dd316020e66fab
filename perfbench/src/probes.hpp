// Per-layer probes: each times one public function of one library module
// from outside the library, on the workload's own geometry, and returns a
// median over short batches. Plus the host-noise readings, which belong to
// no layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "kernel/microkernel.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"

namespace perfbench {

using cake::index_t;

/// (kernel) The micro-kernel's `fn` alone at depth `kc`, accumulating into
/// one tile, with its operand slivers resident in L1. GFLOP/s.
double probe_kernel_gflops(const cake::MicroKernel& kernel, index_t kc);

/// (pack) pack_a_panel over an m x k block of `a`. GB/s counting the bytes
/// read plus the bytes written.
double probe_pack_a_gbs(const float* a, index_t lda, index_t m, index_t k,
                        index_t mr);

/// (pack) pack_b_panel, or pack_b_panel_transposed when `transposed`
/// (`b` then stored n x k), over a k x n block. GB/s as above.
double probe_pack_b_gbs(const float* b, index_t ldb, index_t k, index_t n,
                        index_t nr, bool transposed);

/// (pack) memcpy of `bytes` bytes between two buffers. GB/s as above.
double probe_memcpy_gbs(std::size_t bytes);

/// (flush) unpack_c_block_scaled (alpha 1, beta 0: the f32 executors'
/// overwrite flush) of an m x n block surface into `c`. GB/s as above.
double probe_flush_gbs(float* c, index_t ldc, index_t m, index_t n);

/// (threading) One empty run_team round trip at width p, microseconds.
double probe_dispatch_us(cake::ThreadPool& pool, int p);

/// (threading) One SpinBarrier crossing of a p-wide team, microseconds.
double probe_barrier_us(cake::ThreadPool& pool, int p);

/// (core) compute_cb_block + build_schedule for an m x n x k problem,
/// microseconds.
double probe_plan_us(const cake::MachineSpec& machine, int p, index_t mr,
                     index_t nr, index_t m, index_t n, index_t k);

/// One GOTO multiply C = A * B (row-major, leading dim = column count).
struct GotoCall {
    const float* a = nullptr;
    const float* b = nullptr;
    index_t m = 0, n = 0, k = 0;
};

/// (gotoblas) Median seconds for GotoGemm to run every call in `calls`
/// once, at width p.
double probe_goto_seconds(cake::ThreadPool& pool, int p,
                          const std::vector<GotoCall>& calls);

/// Host-wide CPU time and this process's involuntary context switches.
struct HostSample {
    std::uint64_t cpu_ticks = 0;    ///< /proc/stat user..steal
    std::uint64_t steal_ticks = 0;  ///< /proc/stat steal
    long invol_ctxsw = 0;           ///< getrusage ru_nivcsw
};
HostSample host_sample();

/// Peak resident set size of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
