// Symbolic verifier for the schedule IR (src/analysis/schedir.hpp).
//
// verify_schedule_ir proves, by static analysis of the operation list —
// no arithmetic, no execution, valid for every interleaving the barrier
// structure permits — the properties the paper claims of the CAKE
// schedule, reporting violations with coded diagnostics in the
// AuditIssue style (src/core/audit.hpp):
//
//   IR_MALFORMED   structural sanity: span indices in range, phases
//                  monotone, barrier arrays sized to the phase count
//   IR_COVER       exact cover — every user-C element receives exactly
//                  `expected_accums` accumulations from the compute ops
//                  that write it (no lost or duplicated update anywhere
//                  in the schedule)
//   IR_ORDER       generation discipline — creating accesses strictly
//                  precede every other access of their generation, and
//                  closing accesses strictly follow every write (for
//                  CAKE user C: a column visit's first slab comes first
//                  and its last slab, which completes the write-back,
//                  comes last)
//   IR_RACE_WW     two unordered ops write an overlapping rect of the
//                  same buffer generation
//   IR_RACE_RW     an op reads what an unordered op writes
//   IR_LIFETIME    double-buffer safety — some access to a generation is
//                  not ordered before the write that recycles its slot
//   IR_IO_MODEL    the IR's summed surface loads/stores disagree with the
//                  paper's analytic traffic model (Eq. 2 / §4.2-§4.3)
//                  re-derived independently from the block order
//   IR_IO_CONSTBW  an interior step of a fully-sharing schedule
//                  (serpentine or Hilbert) fetches a different byte count
//                  than the constant (m_blk + n_blk) * k_blk * elem the
//                  constant-bandwidth claim promises
//   IR_IO_MEMSIM   the IR totals disagree with the src/memsim address
//                  stream for the same plan (cross_check_memsim)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/schedir.hpp"

namespace cake {
namespace schedir {

/// One violated obligation: stable machine-greppable code + a precise
/// human diagnostic naming the ops, buffers and byte counts involved.
struct VerifyIssue {
    std::string code;
    std::string message;
};

struct VerifyReport {
    std::vector<VerifyIssue> issues;

    [[nodiscard]] bool ok() const { return issues.empty(); }
    [[nodiscard]] bool has(std::string_view code) const;
    /// All issue codes joined with ','; empty when ok. Handy for tests.
    [[nodiscard]] std::string codes() const;
};

/// Statically verify every obligation above except IR_IO_MEMSIM (which
/// needs the memory simulator and is split out so verification itself
/// stays pure). Stops adding issues per check after a few instances; a
/// corrupt IR yields its characteristic code, not thousands of echoes.
VerifyReport verify_schedule_ir(const ScheduleIR& ir);

/// Replay the same plan through src/memsim's address-stream generator
/// (trace_cake / trace_goto) with a counting sink, classify each access
/// by surface, and require exact byte agreement with io_totals(ir) for
/// a_read / b_read / c_write / c_rmw_read. Reload reads are excluded:
/// the trace generator recomputes spilled partials rather than reloading
/// them (documented asymmetry). The trace layer is dtype-width-aware
/// (scaled by ir.elem_bytes), so any element width cross-checks; only
/// prepacked or beta != 0 IRs report IR_MALFORMED.
VerifyReport cross_check_memsim(const ScheduleIR& ir);

}  // namespace schedir
}  // namespace cake
