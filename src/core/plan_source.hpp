// Execution-plan override surface: the hook through which an empirical
// autotuner (src/tune) — or any other plan oracle — hands `cake_gemm` and
// `model::recommend_tuned_plan` a previously measured winning configuration
// before the analytic §4.3 solver runs.
//
// The interface lives in src/core (not src/tune) so the driver carries no
// tuner dependency: release builds with -DCAKE_TUNE_DISABLED=ON keep this
// header, the hook simply stays null. A tuned plan is overrides, not a
// finished CbBlockParams — the solver still resolves the geometry, so a
// tuned plan passes through exactly the same compute_cb_block validation,
// audit_cb_plan gating and schedule-IR verification as an analytic one.
#pragma once

#include <optional>

#include "common/types.hpp"
#include "core/schedule.hpp"
#include "kernel/cpu_features.hpp"

namespace cake {

/// Block-loop executor selection (consumed by CakeGemmT and CakeGemmInt8,
/// defined here so plan overrides can carry it without depending on the
/// driver header). Every choice runs the one CB executor
/// (core/cb_executor.hpp): a persistent worker team walks the lowered phase
/// list (core/block_plan.hpp), with spin barriers between phases and work
/// items claimed off a counter. The choice only sets its lookahead.
enum class CakeExec {
    /// Lookahead 1 (same as kPipelined).
    kAuto,
    /// Lookahead 0: each block's fresh surfaces are packed in their own
    /// phase before its compute phase, so every DRAM fetch sits on the
    /// critical path. Kept as the overlap-off baseline for benches and
    /// bit-exactness tests.
    kSerial,
    /// Lookahead 1: block i+1's non-shared surfaces are packed while block
    /// i computes, double-buffering the packed-A/packed-B panels.
    kPipelined,
};

/// What a plan source is asked about: one multiply, shape + element width
/// + the worker count the caller would otherwise use.
struct PlanRequest {
    index_t m = 0, n = 0, k = 0;
    index_t elem_bytes = 4;  ///< 4 = f32, 8 = f64
    int p = 0;               ///< pool-resolved worker count of the caller
};

/// A tuned plan, expressed as overrides over the analytic defaults. Unset
/// fields keep the solver's own choice; set fields are applied only where
/// the caller did not explicitly override the same knob (user overrides
/// always beat the cache).
struct PlanOverrides {
    std::optional<int> p;            ///< worker count
    std::optional<index_t> mc;       ///< per-core sub-block rows
    std::optional<index_t> kc;       ///< reduction depth (may differ from mc)
    std::optional<index_t> nc;       ///< CB-block N extent
    std::optional<double> alpha;     ///< N stretch (ignored when nc is set)
    std::optional<ScheduleKind> schedule;
    std::optional<CakeExec> exec;
    std::optional<Isa> isa;          ///< micro-kernel ISA

    [[nodiscard]] bool empty() const
    {
        return !p && !mc && !kc && !nc && !alpha && !schedule && !exec
            && !isa;
    }
};

/// Plan oracle consulted before the analytic solver. Implementations must
/// be cheap (a cache lookup, not a benchmark) and thread-compatible: the
/// driver may call lookup() concurrently from independent contexts.
/// Returning nullopt means "no opinion" — the analytic path proceeds
/// untouched.
class TunedPlanSource {
public:
    virtual ~TunedPlanSource() = default;
    [[nodiscard]] virtual std::optional<PlanOverrides> lookup(
        const PlanRequest& request) const = 0;
};

}  // namespace cake
