// Static per-kernel throughput bounds derived from the kernel IR
// (kernel/kernel_ir.hpp): the compute roof each micro-kernel's dataflow
// permits, published on the roofline beside the measured operating point
// (bench_roofline) and committed as the host-independent
// BENCH_kernel_peak.json baseline.
//
// The bound is the classical latency/parallelism argument. One k-step
// updates each accumulator `chain_updates` times, so the loop carries
// acc_regs / chain_updates independent dependency chains; with an FMA
// latency of L cycles on P ports, the machine needs L * P chains in
// flight to saturate the ports. Utilisation is therefore
//
//     min(1, (acc_regs / chain_updates) / (L * P))
//
// and the per-core roof, in operations per cycle (= GFLOP/s per GHz), is
//
//     2 * lanes * quad * P * utilisation / instrs_per_update
//
// (2 for multiply+add; quad > 1 for the int8 dot-quad kernels, whose
// "flops" are int ops; the P ports are shared by every instruction one
// accumulator update issues, so the three-instruction vpmaddubsw idiom
// gets a third of the rate vpdpbusd gets). The pipe constants are a
// deliberate coarse model (Skylake-class FMA latency 4 and vpdpbusd
// latency 5, 2 ports; latency-1 vpaddd carries the idiom's int8 chains)
// — an upper bound, not a prediction: real kernels also pay loads,
// broadcasts and loop overhead. The verifier (KIR_THROUGHPUT) pins
// chain_updates to the IR's actual dataflow, so the bound cannot be
// inflated by under-declaring the chain depth.
//
// Release code, like the rest of src/model: the numbers feed benches and
// the tuner report; the proof that they are honest lives in
// analysis/kernelcheck.
#pragma once

#include <string>
#include <vector>

#include "kernel/kernel_ir.hpp"

namespace cake {
namespace model {

/// Pipe model for one kernel: latency of the accumulator-carried
/// instruction and issue ports. Scalar kernels are modelled single-ported
/// — their stack tile round-trips through L1, so the port-2 fast path is
/// not theirs.
struct KirPipeModel {
    int latency = 1;
    int ports = 1;
};

KirPipeModel kir_pipe_model(const KernelIr& ir);

/// One roofline row: the static compute roof of one registered kernel.
struct KernelPeakRow {
    std::string kernel;
    std::string family;
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    int lanes = 1;
    int regs_used = 0;
    int reg_budget = 0;
    int chain_updates = 1;
    double independent_chains = 0;  ///< acc_regs / chain_updates
    double utilization = 0;         ///< min(1, chains / (latency * ports))
    double ops_per_cycle = 0;       ///< per-core ops/cycle = GFLOP/s per GHz
};

/// Derive the static bound row for one IR.
KernelPeakRow kernel_peak_row(const KernelIr& ir);

/// Rows for every compiled kernel (all_kernel_irs() order): pure
/// descriptor arithmetic, identical on every host that compiled the same
/// kernel set.
std::vector<KernelPeakRow> kernel_peak_table();

/// Per-core static peak at `freq_ghz`, in GFLOP/s (int-GOP/s for i8).
double kernel_peak_gflops(const KernelIr& ir, double freq_ghz);

}  // namespace model
}  // namespace cake
