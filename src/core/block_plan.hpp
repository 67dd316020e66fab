// The CB-block execution plan: the per-step decisions (which surfaces to
// fetch, which double-buffer half holds them, where a C column visit
// starts and ends) derived once, up front, as a pure function of the block
// schedule and the tiling parameters.
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
// extractor). A compute item is one mr band x one group of nr slivers (see
// PlanPhase); its geometry comes from the plan, not from a constant. Pack
// items are grouped coarser: they are short memcpy-like bodies, and
// per-item counter and clock overhead would otherwise be measurable.
inline constexpr index_t kPackAGroup = 4;  ///< mr slivers per pack-A item
inline constexpr index_t kPackBGroup = 8;  ///< nr slivers per pack-B item

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
    // A column visit is a maximal run of steps on one (m, n) column. Its
    // compute items write user C directly: the first slab applies the
    // caller's beta on the column's first visit, every later slab (and
    // every slab of a revisit) accumulates.
    bool c_change = false;  ///< first slab of a column visit
    bool c_last = false;    ///< last slab of the visit: the column's
                            ///< modelled write-back (§4.3) completes here
    bool reload = false;    ///< first slab re-enters a column visited before
    index_t c_visit = 0;    ///< 0 on a column's first visit, 1 on the next
    index_t a_gen = 0, b_gen = 0;  ///< ordinal of the packed A / B it reads
};

/// Modelled external-memory traffic and operation counts of a plan. The
/// executors copy these into CakeStats verbatim instead of re-deriving
/// them step by step. C traffic follows the paper's §4.3 model: partial
/// results stay in local memory for a whole column visit, so each visit
/// costs one write-back (`c_flushes`), read-modify-write when beta != 0 or
/// the column was visited before, plus a reload of the spilled partials
/// when a visit re-enters a column.
struct BlockPlanStats {
    index_t blocks_executed = 0;
    index_t a_packs = 0;
    index_t b_packs = 0;
    index_t c_flushes = 0;
    index_t c_partial_spills = 0;
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
};

/// The resolved plan for one multiply.
struct BlockPlan {
    std::vector<BlockStep> steps;
    BlockPlanStats stats;
};

/// Inputs `build_block_plan` needs beyond the schedule itself. Only shape
/// and policy — no pointers, so the same plan describes a dry run.
struct BlockPlanInputs {
    CbBlockParams params;  ///< params.elem_bytes is the C (accumulator) width
    index_t operand_bytes = 0;  ///< A/B element width; 0 = params.elem_bytes
    index_t m = 0, n = 0, k = 0;
    index_t nb = 0;    ///< grid width, for (m, n) -> column-slot mapping
    index_t kb = 0;    ///< grid depth, for partial-spill detection
    bool use_prepacked = false;  ///< B streams from panels, no pack ops
    bool beta_nonzero = false;   ///< first-visit write-backs read C
    bool double_buffer = false;  ///< alternate pack slots on fresh fetches
};

/// Derive the execution plan for `order`. Every decision the executors
/// make per step — surface sharing, slot assignment, column visits, DRAM
/// traffic accounting — is resolved here, in schedule order.
BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in);

/// One compute work item: mr band `band` of its block times the nr
/// slivers [s_begin, s_end) (block-relative indices).
struct ComputeItem {
    index_t band = 0;
    index_t s_begin = 0, s_end = 0;
};

/// One barrier-delimited phase of the lowered block loop. Its work items
/// are claimed off one counter in the order pack-A, pack-B, compute. Pack
/// items serve plan step `pack_step`; compute items serve step `step`.
///
/// Compute items tile the block's (mr band x nr sliver) grid: the slivers
/// are split into `groups` balanced groups and each item is one band of
/// one group. Items run group-major, so the bands a core claims one after
/// another reuse one packed-B group that stays in its L2 (paper §4.1).
struct PlanPhase {
    const char* label = "";  ///< barrier boundary entering this phase
    index_t pack_step = -1;
    index_t step = 0;
    index_t pack_a = 0, pack_b = 0;  ///< kPackAGroup / kPackBGroup items
    index_t bands = 0;    ///< mr bands of step's block (0: no compute)
    index_t slivers = 0;  ///< nr slivers of step's block
    index_t groups = 0;   ///< balanced sliver groups, 1 <= groups <= slivers

    [[nodiscard]] index_t compute_items() const { return bands * groups; }
    [[nodiscard]] index_t items() const
    {
        return pack_a + pack_b + compute_items();
    }
    /// Band and sliver range of compute item `item` (group-major).
    [[nodiscard]] ComputeItem compute_item(index_t item) const
    {
        const index_t g = item / bands;
        return {item % bands, g * slivers / groups,
                (g + 1) * slivers / groups};
    }
};

/// Lower `plan` into its phase list for the register tile, core count and
/// per-core L2 sub-block of `in.params`.
///   lookahead 1: fill [pack 0]; then per step [pack t+1 | compute t].
///   lookahead 0: the overlap-off baseline — step t's packing runs in its
///     own phase before [compute t], so no phase holds both pack and
///     compute items.
/// A sliver group holds as many packed-B slivers as fit the mc x kc
/// sub-block the §4.1 solver sizes for one core's L2 (at least one); the
/// group count is raised until the block yields 2p compute items, where it
/// has that many (band, sliver) tiles.
/// Column turnovers need no phase of their own: compute items write user
/// C directly. Boundary labels name the two phases they separate
/// ("fill->main", "main->main", ...); the IR mutations sever boundaries.
/// `plan` must have been built from `in` with double_buffer ==
/// (lookahead == 1).
std::vector<PlanPhase> lower_block_plan(const BlockPlan& plan,
                                        const BlockPlanInputs& in,
                                        int lookahead);

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
