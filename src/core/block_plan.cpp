#include "core/block_plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "pack/pack_int8.hpp"

namespace cake {

BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in)
{
    CAKE_CHECK(!order.empty());
    CAKE_CHECK(in.m >= 1 && in.n >= 1 && in.k >= 1);
    CAKE_CHECK(in.nb >= 1 && in.kb >= 1);

    const CbBlockParams& params = in.params;
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);
    const auto operand = static_cast<std::uint64_t>(
        in.operand_bytes > 0 ? in.operand_bytes : params.elem_bytes);
    const auto steps = static_cast<index_t>(order.size());

    BlockPlan plan;
    plan.steps.resize(static_cast<std::size_t>(steps));
    BlockPlanStats& stats = plan.stats;

    // Per-(m, n) column bookkeeping, evolved in schedule order: how many K
    // blocks have accumulated and how many visits the column has had (more
    // than one only under non-K-first ablation schedules).
    std::vector<index_t> k_done;
    std::vector<index_t> visits;
    {
        index_t mb_max = 0;
        for (const BlockCoord& c : order) mb_max = std::max(mb_max, c.m + 1);
        k_done.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
        visits.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
    }

    auto block_extent = [](index_t idx, index_t blk, index_t total) {
        return std::min(blk, total - idx * blk);
    };

    index_t a_gen = -1, b_gen = -1;  // packed-A / packed-B fetch ordinals
    for (index_t t = 0; t < steps; ++t) {
        BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        st.coord = order[static_cast<std::size_t>(t)];
        st.step = t;
        st.mi = block_extent(st.coord.m, params.m_blk, in.m);
        st.ni = block_extent(st.coord.n, params.n_blk, in.n);
        st.ki = block_extent(st.coord.k, params.k_blk, in.k);
        st.m0 = st.coord.m * params.m_blk;
        st.n0 = st.coord.n * params.n_blk;
        st.k0 = st.coord.k * params.k_blk;

        const BlockStep* prev =
            t == 0 ? nullptr : &plan.steps[static_cast<std::size_t>(t - 1)];
        const SurfaceSharing shared = prev == nullptr
            ? SurfaceSharing{}
            : shared_surfaces(prev->coord, st.coord);

        st.a_slot = prev != nullptr ? prev->a_slot : 0;
        st.pack_a = !shared.a;
        if (in.double_buffer && prev != nullptr && st.pack_a) {
            st.a_slot = 1 - prev->a_slot;
        }
        if (st.pack_a) {
            ++stats.a_packs;
            stats.dram_read_bytes +=
                static_cast<std::uint64_t>(st.mi) * st.ki * operand;
        }

        st.b_slot = prev != nullptr ? prev->b_slot : 0;
        st.b_fresh = !shared.b;
        if (in.use_prepacked) {
            // Weights are already in panel format: no pack work, but the
            // surface still streams DRAM -> local memory once per block.
            st.pack_b = false;
            if (st.b_fresh) {
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * operand;
            }
        } else {
            st.pack_b = st.b_fresh;
            if (in.double_buffer && prev != nullptr && st.pack_b) {
                st.b_slot = 1 - prev->b_slot;
            }
            if (st.pack_b) {
                ++stats.b_packs;
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * operand;
            }
        }

        const auto col =
            static_cast<std::size_t>(st.coord.m * in.nb + st.coord.n);
        const auto c_bytes = static_cast<std::uint64_t>(st.mi)
            * static_cast<std::uint64_t>(st.ni) * elem;
        st.c_change = !shared.c;
        if (st.c_change) {
            ++visits[col];
            st.reload = visits[col] > 1;
            if (st.reload) {
                // Revisiting a spilled column: partials come back from
                // external memory (non-K-first ablation schedules only).
                stats.dram_read_bytes += c_bytes;
            }
        }
        st.c_visit = visits[col] - 1;
        if (st.pack_a) ++a_gen;
        if (st.pack_b) ++b_gen;
        st.a_gen = std::max<index_t>(a_gen, 0);
        st.b_gen = std::max<index_t>(b_gen, 0);
        ++k_done[col];
        ++stats.blocks_executed;

        const BlockCoord* next = t + 1 < steps
            ? &order[static_cast<std::size_t>(t + 1)]
            : nullptr;
        st.c_last = next == nullptr || next->m != st.coord.m
            || next->n != st.coord.n;
        if (st.c_last) {
            // The visit ends: one modelled write-back of the column. The
            // first visit applies the caller's beta (read iff beta != 0);
            // revisits accumulate, so they always read back.
            ++stats.c_flushes;
            stats.dram_write_bytes += c_bytes;
            if (st.c_visit > 0 || in.beta_nonzero) {
                stats.dram_read_bytes += c_bytes;
            }
            if (k_done[col] < in.kb) ++stats.c_partial_spills;
        }
    }
    return plan;
}

namespace {

/// Packed elements per sliver row at reduction depth ki: the int8 path,
/// the only one with 1-byte operands, packs k in quads (pack_int8.hpp).
index_t packed_depth(index_t ki, index_t operand_bytes)
{
    return operand_bytes == 1 ? int8_kq(ki) * 4 : ki;
}

}  // namespace

std::vector<PlanPhase> lower_block_plan(const BlockPlan& plan,
                                        const BlockPlanInputs& in,
                                        int lookahead)
{
    const CbBlockParams& params = in.params;
    const index_t mr = params.mr;
    const index_t nr = params.nr;
    const index_t operand =
        in.operand_bytes > 0 ? in.operand_bytes : params.elem_bytes;
    CAKE_CHECK(lookahead == 0 || lookahead == 1);
    CAKE_CHECK(mr >= 1 && nr >= 1 && params.p >= 1 && !plan.steps.empty());
    const auto steps = static_cast<index_t>(plan.steps.size());
    // One core's L2 sub-block (§4.1): the packed-B bytes a sliver group
    // may hold.
    const index_t group_budget = params.mc * params.kc * params.elem_bytes;
    const index_t min_items = 2 * static_cast<index_t>(params.p);

    std::vector<PlanPhase> phases;
    auto open = [&](const char* label, index_t step) {
        PlanPhase ph;
        ph.label = label;
        ph.step = step;
        phases.push_back(ph);
        return &phases.back();
    };
    auto add_packs = [&](PlanPhase& ph, index_t t) {
        const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        ph.pack_step = t;
        ph.pack_a = st.pack_a ? ceil_div(ceil_div(st.mi, mr), kPackAGroup) : 0;
        ph.pack_b = st.pack_b ? ceil_div(ceil_div(st.ni, nr), kPackBGroup) : 0;
    };

    for (index_t t = 0; t < steps; ++t) {
        const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        const char* into_main = "main->main";
        if (t == 0) {
            // Pipeline fill: pack block 0.
            add_packs(*open("fill", t), t);
            into_main = "fill->main";
        } else if (lookahead == 0 && (st.pack_a || st.pack_b)) {
            add_packs(*open("main->pack", t), t);
            into_main = "pack->main";
        }
        // Main phase. At lookahead 1 it also packs step t+1's fresh
        // surfaces into the other buffer halves; pack items come first so
        // the next block's DRAM fetch spreads over this block's compute
        // (the constant-bandwidth property, §3).
        PlanPhase* main = open(into_main, t);
        main->bands = ceil_div(st.mi, mr);
        main->slivers = ceil_div(st.ni, nr);
        const index_t per_group = std::max<index_t>(
            1, group_budget / (packed_depth(st.ki, operand) * nr * operand));
        const index_t groups =
            std::max(ceil_div(main->slivers, per_group),
                     ceil_div(min_items, main->bands));
        main->groups = std::min(groups, main->slivers);
        if (lookahead == 1 && t + 1 < steps) add_packs(*main, t + 1);
    }
    return phases;
}

LoweredPlan lower_multiply(BlockPlanInputs in, ScheduleKind kind,
                           int lookahead)
{
    const CbBlockParams& params = in.params;
    in.nb = ceil_div(in.n, params.n_blk);
    in.kb = ceil_div(in.k, params.k_blk);
    in.double_buffer = lookahead == 1;
    LoweredPlan out;
    out.order = build_schedule(kind, ceil_div(in.m, params.m_blk), in.nb,
                               in.kb, /*n_outermost=*/in.n >= in.m);
    out.plan = build_block_plan(out.order, in);
    out.phases = lower_block_plan(out.plan, in, lookahead);
    return out;
}

}  // namespace cake
