#include "model/kernel_peak.hpp"

#include <algorithm>

namespace cake {
namespace model {

KirPipeModel kir_pipe_model(const KernelIr& ir)
{
    const int ports = ir.isa == Isa::kScalar ? 1 : 2;
    if (ir.family == "i8") {
        // One instruction per update means vpdpbusd (latency 5) carries
        // the chain; the three-instruction idiom's carried op is a
        // latency-1 vpaddd (the maddubs/madd pair hangs off the B load).
        const bool vnni = ir.isa != Isa::kScalar && ir.instrs_per_update == 1;
        return {vnni ? 5 : 1, ports};
    }
    // Skylake-class FMA: 4-cycle latency, dual-ported for the SIMD
    // kernels; the scalar kernels' stack tile keeps them off the fast
    // path, modelled single-ported.
    return {4, ports};
}

KernelPeakRow kernel_peak_row(const KernelIr& ir)
{
    KernelPeakRow row;
    row.kernel = ir.kernel;
    row.family = ir.family;
    row.isa = ir.isa;
    row.mr = ir.mr;
    row.nr = ir.nr;
    row.lanes = ir.lanes;
    row.regs_used = ir.regs_used();
    row.reg_budget = ir.reg_budget;
    row.chain_updates = ir.chain_updates;
    const KirPipeModel pipe = kir_pipe_model(ir);
    row.independent_chains = ir.chain_updates > 0
        ? static_cast<double>(ir.acc_regs) / ir.chain_updates
        : 0.0;
    const double needed = static_cast<double>(pipe.latency) * pipe.ports;
    row.utilization =
        needed > 0 ? std::min(1.0, row.independent_chains / needed) : 0.0;
    row.ops_per_cycle = ir.instrs_per_update > 0
        ? 2.0 * ir.lanes * ir.quad * pipe.ports * row.utilization
            / ir.instrs_per_update
        : 0.0;
    return row;
}

std::vector<KernelPeakRow> kernel_peak_table()
{
    std::vector<KernelPeakRow> rows;
    for (const KernelIr& ir : all_kernel_irs()) {
        rows.push_back(kernel_peak_row(ir));
    }
    return rows;
}

double kernel_peak_gflops(const KernelIr& ir, double freq_ghz)
{
    return kernel_peak_row(ir).ops_per_cycle * freq_ghz;
}

}  // namespace model
}  // namespace cake
