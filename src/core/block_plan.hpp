// The CB-block execution plan: the per-step decisions (which surfaces to
// fetch, which double-buffer half holds them, when the local C surface
// turns over and what it writes back) derived once, up front, as a pure
// function of the block schedule and the tiling parameters.
//
// lower_block_plan then turns the plan into the barrier-delimited phase
// list that is the only description of the block loop: the CB executor
// (src/core/cb_executor.cpp) interprets it for every element type, and the
// schedule-IR extractor (src/analysis/schedir.cpp) emits its verified tile
// operations from the *same* list. That sharing is the point: the verifier
// proves properties of the data structure the runtime actually executes,
// not of a parallel reimplementation that could drift.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"

namespace cake {

// Work-item granularity of the lowered phases (executor and IR
// extractor). Compute items stay one mr band each — the load-balancing unit
// that keeps every core busy on edge blocks. IO items (pack slivers,
// flush/zero rows) are grouped coarser: they are short memcpy-like bodies,
// and per-item counter and clock overhead would otherwise be measurable.
inline constexpr index_t kPackAGroup = 4;  ///< mr slivers per pack-A item
inline constexpr index_t kPackBGroup = 8;  ///< nr slivers per pack-B item
inline constexpr index_t kRowGroup = 16;   ///< C rows per flush/zero item

/// Half-open range [first, second) covered by work item `item` when items
/// group `group` units out of `total`.
inline std::pair<index_t, index_t> item_range(index_t item, index_t group,
                                              index_t total)
{
    return {item * group, std::min(total, (item + 1) * group)};
}

/// One schedule step's resolved execution decisions.
struct BlockStep {
    BlockCoord coord;
    index_t step = 0;  ///< schedule position (for diagnostics)
    index_t mi = 0, ni = 0, ki = 0;  ///< block extents (edge-clipped)
    index_t m0 = 0, n0 = 0, k0 = 0;  ///< element offsets into A/B/C
    int a_slot = 0, b_slot = 0;  ///< double-buffer half holding A / B
    bool pack_a = false;  ///< A not shared with the previous step: fetch it
    bool pack_b = false;  ///< B not shared: pack it (never set prepacked)
    bool b_fresh = false;  ///< B surface newly streamed (pack or prepacked)
    bool c_change = false;  ///< a new (m, n) column starts at this step
    bool reload = false;  ///< entering column was spilled before: refetch
    index_t c_gen = 0;  ///< ordinal of the local-C lifetime this step uses
    index_t a_gen = 0, b_gen = 0;  ///< ordinal of the packed A / B it reads
    // Departing-column flush, executed at entry of this step (valid when
    // c_change && step > 0; also used for the final drain pseudo-step).
    BlockCoord flush_coord;     ///< grid column being written back
    index_t flush_mi = 0, flush_ni = 0;
    index_t flush_dst = 0;       ///< element offset into user C
    index_t flush_gen = 0;       ///< local-C lifetime being retired
    bool flush_revisit = false;  ///< surface spilled before: beta = 1
    bool flush_partial = false;  ///< fewer than Kb accumulations spilled
};

/// Modelled external-memory traffic and operation counts of a plan. The
/// executors copy these into CakeStats verbatim instead of re-deriving
/// them step by step.
struct BlockPlanStats {
    index_t blocks_executed = 0;
    index_t a_packs = 0;
    index_t b_packs = 0;
    index_t c_flushes = 0;
    index_t c_partial_spills = 0;
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
};

/// The resolved plan for one multiply. `final_flush` is a pseudo-step
/// whose flush_* fields retire the last live column (its coord/extent
/// fields mirror the last schedule step).
struct BlockPlan {
    std::vector<BlockStep> steps;
    BlockStep final_flush;
    BlockPlanStats stats;
    index_t c_generations = 0;  ///< total local-C lifetimes (column visits)
};

/// Inputs `build_block_plan` needs beyond the schedule itself. Only shape
/// and policy — no pointers, so the same plan describes a dry run.
struct BlockPlanInputs {
    CbBlockParams params;  ///< params.elem_bytes is the C (accumulator) width
    index_t operand_bytes = 0;  ///< A/B element width; 0 = params.elem_bytes
    index_t m = 0, n = 0, k = 0;
    index_t ldc = 0;   ///< user-C leading dimension (flush destinations)
    index_t nb = 0;    ///< grid width, for (m, n) -> column-slot mapping
    index_t kb = 0;    ///< grid depth, for partial-spill detection
    bool use_prepacked = false;  ///< B streams from panels, no pack ops
    bool beta_nonzero = false;   ///< first-visit flushes read-modify-write
    bool double_buffer = false;  ///< alternate pack slots on fresh fetches
};

/// Derive the execution plan for `order`. Every decision the executors
/// make per step — surface sharing, slot assignment, flush bookkeeping,
/// DRAM traffic accounting — is resolved here, in schedule order.
BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in);

/// One barrier-delimited phase of the lowered block loop. Its work items
/// are claimed off one counter in the order pack-A, pack-B, flush, zero,
/// compute. Pack items serve plan step `pack_step`; flush, zero and
/// compute items serve step `step` (index steps.size() names the
/// final-flush pseudo-step). A flush item writes back the departing
/// column recorded in that step's flush_* fields.
struct PlanPhase {
    const char* label = "";  ///< barrier boundary entering this phase
    index_t pack_step = -1;
    index_t step = 0;
    index_t pack_a = 0, pack_b = 0;  ///< kPackAGroup / kPackBGroup items
    index_t flush = 0, zero = 0;     ///< kRowGroup row items
    index_t compute = 0;             ///< one mr band per item

    [[nodiscard]] index_t items() const
    {
        return pack_a + pack_b + flush + zero + compute;
    }
};

/// Lower `plan` into its phase list for register tile mr x nr.
///   lookahead 1: fill [pack 0 | zero 0]; per step, at column turnovers
///     [flush] then [zero]; then [pack t+1 | compute t]; final [drain].
///   lookahead 0: the overlap-off baseline — step t's packing runs in its
///     own phase (with the zero at turnovers) before [compute t], so no
///     phase holds both pack and compute items.
/// Boundary labels name the two phases they separate ("main->flush",
/// "zero->main", ...); the IR mutations sever boundaries by label.
/// `plan` must have been built with double_buffer == (lookahead == 1).
std::vector<PlanPhase> lower_block_plan(const BlockPlan& plan, index_t mr,
                                        index_t nr, int lookahead);

/// Plan step `idx`, or the final-flush pseudo-step when idx == steps.size().
const BlockStep& plan_step(const BlockPlan& plan, index_t idx);

/// The whole block loop of one multiply: the schedule order (§2.2: M runs
/// outermost when M > N, so the larger B surface is reused before A), its
/// plan and its lowered phases. The CB executor runs exactly this and the
/// IR extractor emits its ops from exactly this.
struct LoweredPlan {
    std::vector<BlockCoord> order;
    BlockPlan plan;
    std::vector<PlanPhase> phases;
};

/// Schedule, plan and lower one multiply for register tile
/// params.mr x params.nr. `in.nb`, `in.kb` and `in.double_buffer` are
/// derived here from the grid and the lookahead.
LoweredPlan lower_multiply(BlockPlanInputs in, ScheduleKind kind,
                           int lookahead);

}  // namespace cake
